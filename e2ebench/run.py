"""End-to-end benchmark: Figure-4 calibration campaigns in each
deployment mode, with an outside-in per-layer wall-time split.

    python3 e2ebench/run.py --workload fig4-manycore --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  Workloads (see ``campaigns.py``):

``fig4-manycore``   in-process ``stability_experiment(backend="manycore")``
``service-spool``   spool jobs drained by ``serve(root, once=True)``
``loopback-sweep``  coordinator + one worker over loopback HTTP

With ``--trace 0`` the run reports the end-to-end metrics:

``trials_per_s``  verified trials per host second: the median over the
                  units timed in ``--seconds`` of one unit's trials over
                  its wall time;
``setup_s``       median over fresh interpreters of the time from start
                  until the first trial can be dispatched;
``peak_rss_mb``   peak resident memory of this process, which runs the
                  workload in-process (worker and coordinator included).

With ``--trace 1`` it repeats the untraced measurement, then runs a
fixed number of units under timing shims (``layers.py``) and reports
every per-layer metric plus ``tracing.overhead_ratio`` and a table of
each layer's share of wall time.  Spans go to
``.bench_build/traces/``; every run's full record, provenance included,
goes to ``.bench_build/results/``.

Every unit's output is compared, operation by operation, with every
other unit's and with a reference computed untimed through a different
code path.  A mismatch, an exception, a nonzero worker exit, a
quarantined upload or a resilience event counts as a failed operation;
``failed``/``attempted`` in the result line is the error rate, and any
failure makes the run incorrect (exit code 1).

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 7
#: Fewest timed units per run, however short ``--seconds`` is.
MIN_UNITS = 3

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_environment() -> Dict[str, str]:
    """Fix every knob the program reads from the environment."""
    pinned = {
        "REPRO_KERNEL_BACKEND": "cffi",
        "REPRO_TRIAL_WORKERS": "1",
        "REPRO_KERNEL_CACHE": str(BUILD / "kernels"),
        "TMPDIR": str(BUILD / "tmp"),
        "PYTHONPATH": str(ROOT / "src"),
    }
    for var in ("REPRO_STORE_DIR", "REPRO_STORE_BYTES"):
        os.environ.pop(var, None)
    os.environ.update(pinned)
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    pinned["REPRO_STORE_DIR"] = "(unset)"
    return pinned


def source_digest() -> str:
    """SHA-256 over the program's source tree (a checkout may lack git)."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure_setup(workload: str) -> List[float]:
    """Wall time of :data:`SETUP_PROBES` fresh interpreters to ``ready``."""
    times = []
    for i in range(SETUP_PROBES):
        root = BUILD / "runs" / f"setup-{os.getpid()}-{i}"
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"),
             "--workload", workload, "--root", str(root)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            if not ready:
                proc.kill()
            proc.stdout.read()
        finally:
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        times.append(elapsed)
    return times


def counters() -> Dict[str, Dict[str, int]]:
    """The program's always-on counters, snapshotted."""
    from repro import kernels
    from repro.core.manycore import group_batch_stats
    from repro.obs import resilience_event_counts, scalar_fallback_counts

    return {
        "kernel_dispatch": kernels.kernel_dispatch_counts(),
        "fallbacks": scalar_fallback_counts(),
        "groups": group_batch_stats(),
        "resilience": resilience_event_counts(),
    }


def counter_delta(before, after) -> Dict[str, Dict[str, int]]:
    return {
        group: {
            key: after[group].get(key, 0) - before[group].get(key, 0)
            for key in sorted(set(after[group]) | set(before[group]))
            if after[group].get(key, 0) != before[group].get(key, 0)
        }
        for group in after
    }


def resilience_total() -> int:
    from repro.obs import resilience_event_counts

    return sum(resilience_event_counts().values())


def run_one(workload, recorder=None):
    """One unit; an exception fails every operation of the unit."""
    import campaigns

    events = resilience_total()
    try:
        unit = workload.run_unit(recorder)
    except Exception:  # noqa: BLE001 - counted and reported, not hidden
        return campaigns.Unit(
            trials=0, seconds=0.0, output={},
            failed=len(workload.op_keys()),
            notes=[traceback.format_exc()],
        )
    recovered = resilience_total() - events
    if recovered:
        unit.failed += recovered
        unit.notes.append(f"{recovered} resilience events")
    return unit


def run_units(workload, *, seconds: float = 0.0,
              count: Optional[int] = None, recorder=None):
    """Units until ``seconds`` have passed (at least :data:`MIN_UNITS`),
    or exactly ``count`` units."""
    units = []
    start = time.perf_counter()
    while True:
        gc.collect()
        units.append(run_one(workload, recorder))
        if count is not None:
            if len(units) >= count:
                return units
        elif (
            time.perf_counter() - start >= seconds
            and len(units) >= MIN_UNITS
        ):
            return units


def median_rate(units) -> float:
    rates = [u.trials / u.seconds for u in units if u.trials and u.seconds > 0]
    return statistics.median(rates) if rates else 0.0


def reference_for(workload, digest: str) -> Dict[str, Any]:
    """The workload's reference output, cached by content key.

    The key covers the source tree, so a changed program never reads a
    reference computed by another version.
    """
    key = hashlib.sha256(
        json.dumps(
            {"src": digest, "workload": workload.name,
             "size": workload.size, "inputs": workload.describe()},
            sort_keys=True,
        ).encode()
    ).hexdigest()
    path = BUILD / "refcache" / f"{key}.json"
    if path.exists():
        return json.loads(path.read_text())
    reference = workload.reference()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(reference, sort_keys=True))
    os.replace(tmp, path)
    return reference


def count_failures(keys, units, reference) -> Dict[str, int]:
    """Failed operations over every unit.

    An operation fails when its result is missing, differs from the
    first unit's or from the reference; failures a unit reported itself
    are added, capped at the unit's operation count.
    """
    first = units[0].output
    attempted = failed = 0
    for unit in units:
        bad = 0
        for key in keys:
            got = unit.output.get(key)
            if (
                got is None
                or got != first.get(key)
                or (key in reference and got != reference[key])
            ):
                bad += 1
        attempted += len(keys)
        failed += min(len(keys), bad + unit.failed)
    return {"attempted": attempted, "failed": failed}


def provenance(pinned, build_s, delta, units) -> Dict[str, Any]:
    import numpy
    from repro import kernels

    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = None
    return {
        "kernel_backend": kernels.active_backend(),
        "kernel_init_errors": kernels.backend_init_errors(),
        "kernel_build_s": build_s,
        "kernel_dispatch_counts": delta["kernel_dispatch"],
        "scalar_fallback_counts": delta["fallbacks"],
        "group_batch_stats": delta["groups"],
        "resilience_event_counts": delta["resilience"],
        "compile_cache_info": units[-1].compile_info,
        "store_stats": units[-1].store_stats,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": cffi_version,
        "platform": platform.platform(),
        "env": pinned,
    }


def traced_phase(workload, untraced_trials_per_s: float) -> Dict[str, Any]:
    """A fixed number of units under timing shims."""
    import layers
    from repro import obs
    from spanlog import Shims

    recorder = layers.new_recorder()
    before = counters()
    with obs.tracing(categories=["fallback"]) as tracer:
        with Shims(recorder) as shims:
            layers.install(shims)
            units = run_units(
                workload, count=workload.trace_units,
                recorder=recorder,
            )
    after = counters()
    reasons = Counter(
        f"{e.args.get('engine')}:{e.args.get('reason')}"
        for e in tracer.events()
        if e.category == "fallback"
    )
    traced_trials_per_s = median_rate(units)
    metrics = layers.per_layer_metrics(
        recorder.spans, before, after,
        [u.compile_info for u in units],
        [u.store_stats for u in units],
        traced_trials_per_s / untraced_trials_per_s
        if untraced_trials_per_s else 0.0,
    )
    trace_path = (
        BUILD / "traces" / f"{workload.name}-seed{workload.seed}.spans.jsonl"
    )
    recorder.write_jsonl(trace_path)
    return {
        "units": units,
        "metrics": metrics,
        "shares": layers.self_time_shares(recorder.spans),
        "fallback_reasons": dict(sorted(reasons.items())),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "withheld": [
            name for name in ("service.shard_s_p50", "service.shard_s_p90")
            if metrics["service.shards"] and metrics[name] == 0.0
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("paper", "tiny"), default="paper",
        help="tiny shrinks every campaign for smoke tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {ROOT / 'src' / 'repro'}; run "
            "from the root of a full checkout",
            file=sys.stderr,
        )
        return 2

    pinned = pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from repro import kernels

    kernels.warmup()  # one-time extension build, untimed
    build_s = time.perf_counter() - start

    import campaigns
    import layers

    workdir = BUILD / "runs"
    workload = campaigns.make(args.workload, args.seed, args.size, workdir)
    setup_times = [] if args.trace else measure_setup(args.workload)

    run_one(workload)  # warm-up unit: lazy imports and allocator pools
    before = counters()
    units = run_units(workload, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    delta = counter_delta(before, counters())
    trials_per_s = median_rate(units)

    traced = None
    if args.trace:
        traced = traced_phase(workload, trials_per_s)
        metrics = traced["metrics"]
        metric_units = layers.METRICS
        checked = units + traced["units"]
    else:
        metrics = {
            "trials_per_s": trials_per_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        metric_units = END_TO_END_UNITS
        checked = units

    reference = reference_for(workload, source_digest())
    tally = count_failures(workload.op_keys(), checked, reference)
    correct = tally["failed"] == 0
    shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.describe(),
        "units": [
            {"trials": u.trials, "seconds": u.seconds, "failed": u.failed,
             "notes": u.notes}
            for u in checked
        ],
        "unit_trials_per_s": [
            u.trials / u.seconds for u in units if u.seconds > 0
        ],
        "setup_s_samples": setup_times,
        "error_rate": tally["failed"] / tally["attempted"],
        "metrics": metrics,
        "provenance": provenance(pinned, build_s, delta, units),
    }
    if traced is not None:
        for key in ("shares", "fallback_reasons", "trace_file", "withheld"):
            record[key] = traced[key]
    out = BUILD / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print_report(record, metric_units, tally, len(units))
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            name: {"value": value, "unit": metric_units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def print_report(record, metric_units, tally, n_timed) -> None:
    prov = record["provenance"]
    print(
        f"e2ebench {record['workload']} seed={record['seed']} "
        f"size={record['size']} trace={record['trace']}: {n_timed} timed "
        f"units of {record['units'][0]['trials']} trials"
    )
    for name, value in record["metrics"].items():
        print(f"  {name:<30} {value:>14.6g} {metric_units[name]}")
    print(
        f"  error_rate {record['error_rate']:.6g} "
        f"({tally['failed']} failed / {tally['attempted']} operations)"
    )
    for i, unit in enumerate(record["units"]):
        if unit["notes"]:
            print(f"  unit {i}: {'; '.join(unit['notes'])}")
    print(
        f"  provenance: backend={prov['kernel_backend']} "
        f"nproc={prov['nproc']} python={prov['python']} "
        f"numpy={prov['numpy']} git={prov['git_sha'] or 'n/a'} "
        f"src={prov['source_sha256'][:12]} "
        f"fallbacks={prov['scalar_fallback_counts']} "
        f"groups={prov['group_batch_stats']}"
    )
    if "shares" not in record:
        return
    print(f"  wall-time share by layer self time ({record['trace_file']}):")
    for row in record["shares"]:
        print(
            f"    {row['layer']:<22} {row['share']:7.1%} "
            f"{row['self_s']:9.3f} s  {row['calls']} calls"
        )
    top = ", ".join(
        f"{r['layer']} {r['share']:.0%}" for r in record["shares"][:3]
    )
    print(f"  largest shares: {top}")
    print(f"  shard samples: {record['metrics']['service.shards']}")
    for name in record["withheld"]:
        print(f"  {name} withheld (reads 0): fewer than ten samples beyond it")
    print(f"  fallback reasons: {record['fallback_reasons'] or 'none'}")


if __name__ == "__main__":
    raise SystemExit(main())
