"""Run the benchmark over many seeds; summarise, record or check a baseline.

    python3 e2ebench/sweep.py --seeds 1-10                 # every workload
    python3 e2ebench/sweep.py --workloads fig4-manycore --seeds 1-5
    python3 e2ebench/sweep.py --seeds 1-10 --write e2ebench/baseline.json
    python3 e2ebench/sweep.py --seeds 11-20 --check e2ebench/baseline.json

Each run is ``run.py`` in its own process.  For every (workload,
end-to-end metric) the summary gives the median of the per-run values
and the spread (interquartile range over median).  ``--check`` fails
(exit 1) when a median is worse than the baseline's by more than the
metric's bound in ``BENCHMARK.json``, or a spread other than
``setup_s``'s exceeds its bound.  ``--trace`` adds one traced run per
workload and records its per-layer metrics and layer shares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import quantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    return result


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": quantiles.relative_spread(values),
        "values": values,
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", type=Path, help="record a baseline here")
    parser.add_argument("--check", type=Path, help="compare with a baseline")
    args = parser.parse_args(argv)

    metrics = config["end_to_end"]
    seeds = parse_seeds(args.seeds)
    summary: Dict[str, Dict] = {"run_seconds": args.seconds, "seeds": seeds,
                                "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: Dict[str, List[float]] = {m["name"]: [] for m in metrics}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, 0)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        entry = {name: summarise(vals) for name, vals in values.items()}
        if args.trace:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            record = json.loads(
                (ROOT / ".bench_build" / "results"
                 / f"{workload}-seed{seeds[0]}-trace1.json").read_text()
            )
            entry["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
            entry["layer_shares"] = [
                {k: r[k] for k in ("layer", "share", "self_s")}
                for r in record["shares"]
            ]
            summary["host"] = {
                k: record["provenance"][k]
                for k in ("nproc", "python", "numpy", "cffi", "platform",
                          "kernel_backend", "git_sha")
            }
        summary["workloads"][workload] = entry
        for m in metrics:
            s = entry[m["name"]]
            within = m["name"] == "setup_s" or s["spread"] <= m["bound"]
            ok &= within
            print(f"  {m['name']:<14} median {s['median']:.4g} "
                  f"spread {s['spread']:.3f} (bound {m['bound']})"
                  f"{'' if within else '  SPREAD OVER BOUND'}", flush=True)

    def medians(entry):
        return {m["name"]: entry[m["name"]]["median"] for m in metrics}

    if args.check:
        base = json.loads(args.check.read_text())["workloads"]
        for workload, entry in summary["workloads"].items():
            rows = quantiles.check_bounds(
                medians(base[workload]), medians(entry), metrics
            )
            for row in rows:
                ok &= row["ok"]
                print(f"{workload} {row['metric']}: {row['base']:.4g} -> "
                      f"{row['new']:.4g} worse by {row['worse_by']:+.3f} "
                      f"(bound {row['bound']}) "
                      f"{'ok' if row['ok'] else 'REGRESSION'}")
    if args.write:
        args.write.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
