"""The benchmark's three workloads: Figure-4 calibration campaigns run
in each deployment mode of the program.

Every workload derives all of its inputs (core seeds, block-seed
ranges, target addresses, tenants) from the ``--seed`` it is given, and
exposes the same small surface to the runner:

``run_unit()``
    One *unit* of work from a clean slate — compiled-block LRU cleared,
    no process-wide default store, a fresh service root — timed from
    the first submission to the last result.  Returns a :class:`Unit`.
``reference()``
    The expected output of a unit, computed untimed through a different
    code path (the per-trial ``backend="process"`` engine for sampled
    Figure-4 trials, the in-process ``run_campaign`` digest for each
    service campaign).

Outputs are plain JSON data keyed by operation (trial index or
campaign id), so the runner can compare any unit with the reference
and with every other unit, one operation at a time.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

from repro import store as repro_store
from repro.bpu.presets import PRESETS
from repro.core.calibration import stability_experiment
from repro.core.randomizer import clear_compile_cache, compile_cache_info
from repro.cpu import PhysicalCore
from repro.service import (
    CampaignSpec,
    Coordinator,
    CoordinatorServer,
    TransportClient,
    run_campaign,
    run_worker,
    serve,
    submit_job,
)
from repro.system.noise import NoiseModel

@dataclass
class Unit:
    """What one unit did, and how long it took."""

    trials: int
    seconds: float
    #: Operation key -> JSON-comparable result.
    output: Dict[str, Any]
    #: Operations the program itself reported as failed (nonzero exit,
    #: quarantined upload, resilience event), beyond output mismatches.
    failed: int = 0
    compile_info: Dict[str, int] = field(default_factory=dict)
    store_stats: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def _quiet(*_args, **_kwargs) -> None:
    pass


def _clean_slate() -> None:
    """No unit may be served by an earlier unit's in-process caches."""
    clear_compile_cache()
    repro_store.configure_store(None)


def _jsonable(value: Any) -> Any:
    return json.loads(json.dumps(value))


def _span(recorder, name: str = "benchmark.unit"):
    """A span on ``recorder``, or nothing in an untraced run."""
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


class Workload:
    name = ""
    #: Units in a traced run: fixed, so per-layer totals compare
    #: across commits as the cost of the same work.
    trace_units = 6

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = int(seed)
        self.size = size
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng(self.seed)
        self._units = 0

    def op_keys(self) -> List[str]:
        """One key per operation of a unit (trial or campaign)."""
        raise NotImplementedError

    def run_unit(self, recorder=None) -> Unit:
        raise NotImplementedError

    def reference(self) -> Dict[str, Any]:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _fresh_root(self) -> Path:
        self._units += 1
        root = self.workdir / f"{self.name}-seed{self.seed}-unit{self._units}"
        shutil.rmtree(root, ignore_errors=True)
        return root


class Fig4Manycore(Workload):
    """In-process ``stability_experiment(backend="manycore")``."""

    name = "fig4-manycore"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        paper = size == "paper"
        self.preset = "skylake"
        self.scale = 1 if paper else 16
        self.n_blocks = 256 if paper else 16
        self.block_branches = 100_000 if paper else 2_000
        self.repetitions = 40 if paper else 10
        self.core_seed = int(self.rng.integers(0, 2**31))
        self.target = int(self.rng.integers(0x1000, 0x100000))
        self.seed_start = int(self.rng.integers(0, 2**31))
        self.sample = sorted(
            int(i) for i in self.rng.choice(
                self.n_blocks, size=min(16, self.n_blocks), replace=False
            )
        )

    def op_keys(self) -> List[str]:
        return [str(i) for i in range(self.n_blocks)]

    def _factory(self) -> Callable[[], PhysicalCore]:
        config = PRESETS[self.preset]()
        if self.scale != 1:
            config = config.scaled(self.scale)
        seed = self.core_seed
        return lambda: PhysicalCore(config, seed=seed)

    def _experiment(self, seed_start: int, n_blocks: int, backend: str):
        return stability_experiment(
            self._factory(),
            self.target,
            n_blocks=n_blocks,
            block_branches=self.block_branches,
            repetitions=self.repetitions,
            noise=NoiseModel.isolated(),
            seed_start=seed_start,
            backend=backend,
        )

    @staticmethod
    def _row(assessment) -> List[Any]:
        return [
            assessment.seed,
            assessment.tt_pattern,
            assessment.tt_frequency,
            assessment.nn_pattern,
            assessment.nn_frequency,
        ]

    def run_unit(self, recorder=None) -> Unit:
        _clean_slate()
        with _span(recorder):
            start = time.perf_counter()
            assessments = self._experiment(
                self.seed_start, self.n_blocks, "manycore"
            )
            seconds = time.perf_counter() - start
        return Unit(
            trials=len(assessments),
            seconds=seconds,
            output=_jsonable(
                {str(i): self._row(a) for i, a in enumerate(assessments)}
            ),
            compile_info=compile_cache_info(),
        )

    def reference(self) -> Dict[str, Any]:
        _clean_slate()
        ref = {}
        for i in self.sample:
            (assessment,) = self._experiment(
                self.seed_start + i, 1, "process"
            )
            ref[str(i)] = self._row(assessment)
        return _jsonable(ref)

    def describe(self) -> Dict[str, Any]:
        return {
            "preset": self.preset,
            "scale": self.scale,
            "noise": "isolated",
            "n_blocks": self.n_blocks,
            "block_branches": self.block_branches,
            "repetitions": self.repetitions,
            "core_seed": self.core_seed,
            "target_address": self.target,
            "seed_start": self.seed_start,
            "reference_sample": self.sample,
        }


class _ServiceWorkload(Workload):
    """Shared plumbing of the two service workloads."""

    specs: List[CampaignSpec]

    def op_keys(self) -> List[str]:
        return [spec.campaign_id() for spec in self.specs]

    def reference(self) -> Dict[str, Any]:
        ref = {}
        for spec in self.specs:
            _clean_slate()
            aggregate = run_campaign(spec)
            ref[spec.campaign_id()] = [aggregate.digest(), aggregate.n_trials]
        _clean_slate()
        return ref

    def describe(self) -> Dict[str, Any]:
        return {"campaigns": [spec.to_dict() for spec in self.specs]}

    def _collect(
        self, root: Path, unit: Unit, exit_code: int
    ) -> None:
        """Read results and failure evidence out of a finished root."""
        for spec in self.specs:
            path = root / "results" / f"{spec.campaign_id()}.json"
            if path.exists():
                result = json.loads(path.read_text())
                unit.output[spec.campaign_id()] = [
                    result["digest"], result["n_trials"]
                ]
        if exit_code != 0:
            unit.failed += len(self.specs)
            unit.notes.append(f"exit code {exit_code}")
        quarantined = list((root / "quarantine").glob("*")) + list(
            (root / "jobs").glob("*.corrupt")
        )
        if quarantined:
            unit.failed += len(quarantined)
            unit.notes.append(f"{len(quarantined)} quarantined files")


class ServiceSpool(_ServiceWorkload):
    """Spool jobs drained by ``serve(root, once=True)``."""

    name = "service-spool"

    #: (preset, noise) families of the mix: the per-trial batch engine,
    #: zero-gap noise, and the scalar fallback on a fold-hash index.
    FAMILIES = (
        ("skylake", "isolated"),
        ("skylake", "silent"),
        ("oryon_like", "isolated"),
    )

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        paper = size == "paper"
        per_family = 2 if paper else 1
        n_blocks = 6 if paper else 3
        base = int(self.rng.integers(0, 2**30))
        self.specs = []
        for j in range(per_family * len(self.FAMILIES)):
            preset, noise = self.FAMILIES[j % len(self.FAMILIES)]
            self.specs.append(
                CampaignSpec(
                    name=f"spool{j}",
                    # Each tenant gets two different families.
                    tenant=f"tenant{(j + j // 3) % 3}",
                    preset=preset,
                    scale=1 if paper else 16,
                    seed=int(self.rng.integers(0, 2**31)),
                    target_address=int(self.rng.integers(0x1000, 0x100000)),
                    n_blocks=n_blocks,
                    block_branches=100_000 if paper else 2_000,
                    repetitions=40 if paper else 10,
                    noise=noise,
                    # Disjoint block ranges: every block compiles cold.
                    seed_start=base + j * n_blocks,
                    shards=4,
                )
            )

    def run_unit(self, recorder=None) -> Unit:
        root = self._fresh_root()
        _clean_slate()
        with _span(recorder):
            start = time.perf_counter()
            for spec in self.specs:
                submit_job(root, spec)
            code = serve(root, once=True, log=_quiet)
            seconds = time.perf_counter() - start
        unit = Unit(
            trials=sum(spec.n_blocks for spec in self.specs),
            seconds=seconds,
            output={},
            compile_info=compile_cache_info(),
        )
        stats_path = root / "store-stats.json"
        if stats_path.exists():
            unit.store_stats = json.loads(stats_path.read_text())
        self._collect(root, unit, code)
        shutil.rmtree(root, ignore_errors=True)
        _clean_slate()
        return unit


class LoopbackSweep(_ServiceWorkload):
    """A target-address sweep through coordinator + worker over HTTP."""

    name = "loopback-sweep"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        paper = size == "paper"
        n_campaigns = 12 if paper else 4
        core_seed = int(self.rng.integers(0, 2**31))
        seed_start = int(self.rng.integers(0, 2**30))
        targets = self.rng.choice(
            np.arange(0x1000, 0x100000), size=n_campaigns, replace=False
        )
        self.specs = [
            CampaignSpec(
                name=f"sweep{j}",
                tenant=f"tenant{j % 3}",
                preset="skylake",
                scale=1 if paper else 16,
                seed=core_seed,
                target_address=int(targets[j]),
                n_blocks=16 if paper else 4,
                block_branches=100_000 if paper else 2_000,
                repetitions=40 if paper else 10,
                noise="isolated",
                # One shared block range: compiles hit the LRU.
                seed_start=seed_start,
                shards=8 if paper else 2,
            )
            for j in range(n_campaigns)
        ]

    def run_unit(self, recorder=None) -> Unit:
        root = self._fresh_root()
        _clean_slate()
        coordinator = Coordinator(root, log=_quiet)
        server = CoordinatorServer(coordinator)
        try:
            client = TransportClient(server.url)
            with _span(recorder):
                start = time.perf_counter()
                for spec in self.specs:
                    client.call("submit", {"spec": spec.to_dict()})
                with _span(recorder, "worker.run"):
                    code = run_worker(
                        server.url, once=True, poll_seconds=0.01, log=_quiet
                    )
                seconds = time.perf_counter() - start
        finally:
            server.close()
        unit = Unit(
            trials=sum(spec.n_blocks for spec in self.specs),
            seconds=seconds,
            output={},
            compile_info=compile_cache_info(),
            store_stats=coordinator.store.stats_dict(),
        )
        self._collect(root, unit, code)
        shutil.rmtree(root, ignore_errors=True)
        _clean_slate()
        return unit


WORKLOADS = {
    cls.name: cls for cls in (Fig4Manycore, ServiceSpool, LoopbackSweep)
}


def make(name: str, seed: int, size: str, workdir: Path) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return cls(seed, size, workdir)
