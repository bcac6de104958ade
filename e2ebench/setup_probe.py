"""Set-up work of one workload, run in a fresh interpreter.

The parent starts this script and times it until it prints ``ready``:
that span covers interpreter start, importing ``repro``, resolving and
warming the kernel backend (loading the already-compiled extension),
and, for ``loopback-sweep``, binding a coordinator on loopback.  The
script then shuts down untimed.

    PYTHONPATH=src python3 e2ebench/setup_probe.py \
        --workload loopback-sweep --root DIR
"""

import argparse
import shutil
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--root", required=True, type=Path)
    args = parser.parse_args()

    from repro import kernels

    kernels.warmup()
    # What the workload's first trial needs imported.
    if args.workload == "fig4-manycore":
        import repro.core.manycore  # noqa: F401
    else:
        import repro.service  # noqa: F401
    server = None
    if args.workload == "loopback-sweep":
        from repro.service import Coordinator, CoordinatorServer

        server = CoordinatorServer(Coordinator(args.root, log=lambda *a: None))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if server is not None:
        server.close()
    shutil.rmtree(args.root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
