"""Put the benchmark's modules and the program's source on the path."""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent

os.environ.setdefault(
    "REPRO_KERNEL_CACHE", str(ROOT / ".bench_build" / "kernels")
)
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
