"""Manycore struct-of-arrays backend: differential and unit coverage.

The contract under test is *bit-identity*: the manycore engine must
return exactly the assessment list (and leave exactly the caller-visible
RNG positions) that the per-trial path produces, across presets, noise
models, checkpoint interruptions, and every fallback branch.
"""

import numpy as np
import pytest

from repro.bpu.presets import (
    firestorm_like,
    haswell,
    oryon_like,
    sandy_bridge,
    skylake,
    tage_like,
)
from repro.core.calibration import draw_trial_plan, stability_experiment
from repro.core.manycore import ManycoreCampaignPool
from repro.core.randomizer import RandomizationBlock
from repro.core.support import manycore_fallback_reason
from repro.cpu.core import PhysicalCore
from repro.mitigations.noisy_counters import NoisyPerformanceCounters
from repro.mitigations.pht_randomization import PhtIndexRandomization
from repro.mitigations.stochastic_fsm import StochasticFSM
from repro.obs import trace as obs
from repro.resilience.checkpoint import rng_state_digest
from repro.system.noise import NoiseModel

TARGET = 0x30_0006D

ALL_PRESETS = [
    skylake,
    haswell,
    sandy_bridge,
    tage_like,
    firestorm_like,
    oryon_like,
]


def small_factory(preset, seed=7, factor=16):
    config = preset().scaled(factor)
    return lambda: PhysicalCore(config, seed=seed)


@pytest.fixture(autouse=True)
def _clean_fallback_counts():
    obs.reset_scalar_fallbacks()
    yield
    obs.reset_scalar_fallbacks()


class TestDifferential:
    """backend='manycore' == backend='process', bit for bit."""

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_all_presets(self, preset):
        factory = small_factory(preset)
        kwargs = dict(
            n_blocks=10,
            block_branches=2500,
            repetitions=12,
            noise=NoiseModel.isolated(),
        )
        reference = stability_experiment(
            factory, TARGET, backend="process", **kwargs
        )
        manycore = stability_experiment(
            factory, TARGET, backend="manycore", **kwargs
        )
        assert manycore == reference
        assert obs.scalar_fallback_counts() == {}

    def test_untouched_selector_path(self):
        """Blocks too small to touch the target's chooser entry exercise
        the sequential phase-3 chain; results must still match."""
        factory = small_factory(skylake, factor=4)
        kwargs = dict(
            n_blocks=16,
            block_branches=300,
            repetitions=8,
            noise=NoiseModel.noisy(),
            seed_start=100,
        )
        config = skylake().scaled(4)
        missed = sum(
            not (
                RandomizationBlock.generate(s, n_branches=300).addresses
                % config.selector_entries
                == TARGET % config.selector_entries
            ).any()
            for s in range(100, 116)
        )
        assert missed > 0  # the scenario actually covers the slow path
        reference = stability_experiment(
            factory, TARGET, backend="process", **kwargs
        )
        manycore = stability_experiment(
            factory, TARGET, backend="manycore", **kwargs
        )
        assert manycore == reference

    def test_quiesced_noise(self):
        factory = small_factory(haswell)
        kwargs = dict(
            n_blocks=8,
            block_branches=2000,
            repetitions=10,
            noise=NoiseModel.quiesced(),
        )
        reference = stability_experiment(
            factory, TARGET, backend="process", **kwargs
        )
        manycore = stability_experiment(
            factory, TARGET, backend="manycore", **kwargs
        )
        assert manycore == reference

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            stability_experiment(
                small_factory(skylake), TARGET, n_blocks=1, backend="gpu"
            )


class TestRNGDiscipline:
    def test_shared_plan_digest_matches_scalar_stream(self):
        """Every scalar trial leaves its factory core's RNG at the same
        position; the pool's shared draw must land exactly there."""
        factory = small_factory(skylake)
        pool = ManycoreCampaignPool(
            factory,
            TARGET,
            block_branches=2000,
            repetitions=12,
            noise=NoiseModel.isolated(),
        )
        core = factory()
        draw_trial_plan(core.rng, core, repetitions=12, noise=NoiseModel.isolated())
        assert pool.rng_digest == rng_state_digest(core.rng)

    def test_nondeterministic_factory_groups_per_payload(self):
        """A distinct-seed factory delegates every payload, and the
        assessments stay bit-identical to the process backend running
        the same factory-call sequence."""
        config = skylake().scaled(16)

        def make_factory():
            seeds = iter(range(1000))
            return lambda: PhysicalCore(config, seed=next(seeds))

        kwargs = dict(
            n_blocks=3,
            block_branches=1500,
            repetitions=6,
            noise=NoiseModel.isolated(),
            seed_start=1,
        )
        reference = stability_experiment(
            make_factory(), TARGET, backend="process", **kwargs
        )
        obs.reset_scalar_fallbacks()
        manycore = stability_experiment(
            make_factory(), TARGET, backend="manycore", **kwargs
        )
        assert manycore == reference
        assert obs.scalar_fallback_counts()["manycore"] == 3


class TestFallbacks:
    @pytest.mark.parametrize(
        "mitigation", [NoisyPerformanceCounters, StochasticFSM]
    )
    def test_mitigated_core_uses_scalar_path(self, mitigation):
        config = skylake().scaled(16)

        def factory():
            core = PhysicalCore(config, seed=3)
            core.mitigations.install(mitigation())
            return core

        kwargs = dict(
            n_blocks=4,
            block_branches=1500,
            repetitions=6,
            noise=NoiseModel.isolated(),
        )
        reference = stability_experiment(
            factory, TARGET, backend="process", **kwargs
        )
        obs.reset_scalar_fallbacks()
        manycore = stability_experiment(
            factory, TARGET, backend="manycore", **kwargs
        )
        assert manycore == reference
        assert obs.scalar_fallback_counts()["manycore"] == 4

    def test_zero_gap_noise_uses_scalar_path(self):
        factory = small_factory(skylake)
        kwargs = dict(
            n_blocks=4,
            block_branches=1500,
            repetitions=6,
            noise=NoiseModel.silent(),
        )
        reference = stability_experiment(
            factory, TARGET, backend="process", **kwargs
        )
        obs.reset_scalar_fallbacks()
        manycore = stability_experiment(
            factory, TARGET, backend="manycore", **kwargs
        )
        assert manycore == reference
        assert obs.scalar_fallback_counts()["manycore"] == 4

    def test_supported_predicate(self):
        core = PhysicalCore(skylake().scaled(16), seed=0)
        assert manycore_fallback_reason(core) is None
        assert manycore_fallback_reason(core, np.array([3, 0, 5])) == (
            "unshared_structure"
        )
        core.mitigations.install(StochasticFSM())
        assert manycore_fallback_reason(core) == "mitigation"

    @pytest.mark.parametrize(
        "mitigation",
        [
            lambda seed: PhtIndexRandomization(np.random.default_rng(seed)),
            lambda seed: NoisyPerformanceCounters(),
        ],
        ids=["PhtIndexRandomization", "NoisyPerformanceCounters"],
    )
    def test_delegated_campaign_keeps_factory_call_sequence(
        self, mitigation
    ):
        """A factory seeding each core from a counter gives the process
        list: the core the pool builds to choose its mode runs the first
        trial, ``pre_trial`` included, instead of being discarded."""
        config = skylake().scaled(16)

        def make_factory():
            seeds = iter(range(100, 1000))

            def factory():
                seed = next(seeds)
                core = PhysicalCore(config, seed=seed)
                core.mitigations.install(mitigation(seed))
                return core

            return factory

        kwargs = dict(
            n_blocks=5,
            block_branches=1500,
            repetitions=6,
            noise=NoiseModel.isolated(),
            seed_start=3,
        )
        lists = {}
        for backend in ("process", "manycore"):
            calls = []
            lists[backend] = stability_experiment(
                make_factory(),
                TARGET,
                backend=backend,
                pre_trial=calls.append,
                **kwargs,
            )
            assert calls == list(range(3, 8))
        assert lists["manycore"] == lists["process"]


class TestCheckpointing:
    def _kwargs(self):
        return dict(
            n_blocks=9,
            block_branches=2000,
            repetitions=10,
            noise=NoiseModel.isolated(),
        )

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        factory = small_factory(haswell)
        expected = stability_experiment(
            factory, TARGET, backend="process", **self._kwargs()
        )
        store = tmp_path / "campaign.ckpt"

        calls = {"n": 0}

        def dying_pre_trial(seed: int) -> None:
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("injected crash")

        with pytest.raises(RuntimeError):
            stability_experiment(
                factory,
                TARGET,
                backend="manycore",
                checkpoint=store,
                checkpoint_interval=3,
                pre_trial=dying_pre_trial,
                **self._kwargs(),
            )
        resumed = stability_experiment(
            factory,
            TARGET,
            backend="manycore",
            checkpoint=store,
            checkpoint_interval=3,
            resume=True,
            **self._kwargs(),
        )
        assert resumed == expected

    def test_resume_across_backends(self, tmp_path):
        """A campaign interrupted under the process backend finishes
        under manycore with the identical list (and vice versa)."""
        factory = small_factory(haswell)
        expected = stability_experiment(
            factory, TARGET, backend="process", **self._kwargs()
        )
        store = tmp_path / "campaign.ckpt"
        calls = {"n": 0}

        def dying_pre_trial(seed: int) -> None:
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("injected crash")

        with pytest.raises(RuntimeError):
            stability_experiment(
                factory,
                TARGET,
                backend="process",
                checkpoint=store,
                checkpoint_interval=3,
                pre_trial=dying_pre_trial,
                **self._kwargs(),
            )
        resumed = stability_experiment(
            factory,
            TARGET,
            backend="manycore",
            checkpoint=store,
            checkpoint_interval=3,
            resume=True,
            **self._kwargs(),
        )
        assert resumed == expected


class TestCodesScalarHoist:
    """The untouched-selector chain's campaign invariants are hoisted
    into ``_SharedStructure.__init__`` — a perf regression guard for
    the plain-int-list fast path."""

    def _shared(self):
        pool = ManycoreCampaignPool(
            small_factory(skylake, factor=4),
            TARGET,
            block_branches=300,
            repetitions=64,
            noise=NoiseModel.noisy(),
        )
        pool._ensure_built()
        assert pool._shared is not None
        return pool._shared

    def test_invariants_hoisted_as_plain_lists(self):
        shared = self._shared()
        assert type(shared.drift_list) is list
        assert all(type(v) is int for v in shared.drift_list)
        assert type(shared.noise_list) is list
        assert all(type(v) is int for v in shared.noise_list)
        assert type(shared.predicts_list) is list
        assert all(type(v) is bool for v in shared.predicts_list)
        assert type(shared.out_rows) is list

    def test_chain_reads_only_hoisted_invariants(self, monkeypatch):
        """The chain never rebuilds what the hoist prebuilt: with
        ``fsm.predicts`` and the numpy ``drift_tsel`` / ``noise_tag`` /
        ``outcomes`` patched to raise, it returns the codes it returned
        before patching."""
        shared = self._shared()
        rng = np.random.default_rng(0)
        shape = (shared.R2, shared.d + 2)
        row_b = rng.integers(0, shared.d, size=shape)
        row_g = rng.integers(0, shared.d, size=shape)
        expected = [
            shared._codes_scalar(row_b, row_g, tag).copy()
            for tag in (-1, shared.ttag)
        ]

        def forbidden(*_args):
            raise AssertionError("per-call invariant rebuild")

        monkeypatch.setattr(type(shared.fsm), "predicts", forbidden)
        for name in ("drift_tsel", "noise_tag", "outcomes"):
            monkeypatch.setattr(
                type(shared), name, property(forbidden), raising=False
            )
        for tag, codes in zip((-1, shared.ttag), expected):
            assert np.array_equal(
                shared._codes_scalar(row_b, row_g, tag), codes
            )
