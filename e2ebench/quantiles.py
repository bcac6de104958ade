"""Order statistics and regression bounds for the end-to-end benchmark.

Three rules live here so the runner, the multi-seed sweep and the tests
share one definition of each:

* a percentile is *reportable* only when at least ten samples lie
  strictly beyond it (so a p90 needs about a hundred samples);
* run-to-run spread is the interquartile range as a share of the
  median, with quartiles exactly as ``statistics.quantiles(values,
  n=4)`` gives them;
* a metric regresses when its new median is worse than the baseline
  median by more than the metric's ``bound`` (a share of the baseline),
  in the metric's own ``better`` direction.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: Samples that must lie strictly beyond a percentile before it is shown.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in ``[0, 1]``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(samples: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q`` percentile."""
    if not samples:
        return 0
    cut = percentile(samples, q)
    return sum(1 for s in samples if s > cut)


def reportable_percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The ``q`` percentile, or ``None`` when too few samples lie beyond."""
    if beyond(samples, q) < min_beyond:
        return None
    return percentile(samples, q)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (``0`` for a constant series)."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Negative when ``new`` is better.  ``better`` is ``"lower"`` or
    ``"higher"``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def check_bounds(
    base_medians: Mapping[str, float],
    new_medians: Mapping[str, float],
    metrics: Iterable[Mapping[str, object]],
) -> List[Dict[str, object]]:
    """Compare two sets of medians metric by metric.

    ``metrics`` are ``BENCHMARK.json`` ``end_to_end`` entries (``name``,
    ``better``, ``bound``).  Returns one row per metric present in both
    sets, with ``ok`` false where the new median is worse by more than
    the bound.
    """
    rows = []
    for metric in metrics:
        name = str(metric["name"])
        if name not in base_medians or name not in new_medians:
            continue
        worse = worsening(
            base_medians[name], new_medians[name], str(metric["better"])
        )
        rows.append(
            {
                "metric": name,
                "base": base_medians[name],
                "new": new_medians[name],
                "worse_by": worse,
                "bound": float(metric["bound"]),
                "ok": worse <= float(metric["bound"]),
            }
        )
    return rows
