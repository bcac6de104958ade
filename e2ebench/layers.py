"""The program's layers as the traced run sees them.

:func:`install` wraps each layer's public entry points with
:mod:`spanlog` shims; :func:`per_layer_metrics` turns the recorded
spans plus the program's own always-on counters into the ``per_layer``
metrics named in ``BENCHMARK.json``.

========================  ==============================================
span                      entry point
========================  ==============================================
randomizer.generate       ``RandomizationBlock.generate``
randomizer.compile        ``RandomizationBlock.compile``
kernels.summarize         ``repro.kernels.summarize_block``
kernels.read_levels       ``repro.kernels.read_levels_ids`` and
                          ``read_levels_maps``
manycore.map              ``ManycoreCampaignPool.map``
calibration.assess        ``assess_block_batch``
cpu.build_core            ``CampaignSpec.build_core``
service.shard             ``run_shard``
service.checkpoint        ``save_campaign``
service.merge             ``CampaignAggregate.merged``
store.put / store.get     ``ContentStore.put`` / ``ContentStore.get``
transport.call            ``TransportClient.call``
coordinator.handle        ``Coordinator.handle`` (server thread, linked
                          to the ``transport.call`` that caused it)
worker.run                the benchmark's call of ``run_worker``
benchmark.unit            one unit, the root of every other span
========================  ==============================================
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import quantiles
from spanlog import Recorder, Shims, Span, layer_totals

#: Cross-thread causation: a coordinator request is caused by the
#: client call waiting on it.
LINKS = {"coordinator.handle": "transport.call"}

ROOT = "benchmark.unit"

#: Every per-layer metric, with its unit, in report order.
METRICS = {
    "randomizer.generate_s": "s",
    "randomizer.generate_calls": "count",
    "randomizer.compile_s": "s",
    "randomizer.compile_calls": "count",
    "randomizer.compile_hit_ratio": "ratio",
    "kernels.summarize_s": "s",
    "kernels.summarize_calls": "count",
    "kernels.read_levels_s": "s",
    "kernels.read_levels_calls": "count",
    "manycore.self_s": "s",
    "manycore.batched_ratio": "ratio",
    "manycore.fallbacks": "count",
    "calibration.assess_s": "s",
    "calibration.assess_calls": "count",
    "calibration.fallbacks": "count",
    "cpu.build_core_s": "s",
    "service.shard_s_p50": "s",
    "service.shard_s_p90": "s",
    "service.shards": "count",
    "service.checkpoint_s": "s",
    "service.merge_s": "s",
    "store.put_s": "s",
    "store.puts": "count",
    "store.put_bytes": "bytes",
    "store.get_s": "s",
    "store.hit_ratio": "ratio",
    "transport.call_s": "s",
    "transport.calls": "count",
    "transport.retries": "count",
    "coordinator.handle_s": "s",
    "transport.wire_s": "s",
    "worker.idle_s": "s",
    "tracing.overhead_ratio": "ratio",
}


def install(shims: Shims) -> None:
    """Wrap every layer entry point (all modules must be imported)."""
    from repro import kernels
    from repro.core.calibration import assess_block_batch
    from repro.core.manycore import ManycoreCampaignPool
    from repro.core.randomizer import RandomizationBlock
    from repro.service.aggregate import CampaignAggregate
    from repro.service.campaign import CampaignSpec, run_shard
    from repro.service.coordinator import Coordinator
    from repro.service.scheduler import save_campaign
    from repro.service.transport import TransportClient
    from repro.store import ContentStore

    shims.method(RandomizationBlock, "generate", "randomizer.generate")
    shims.method(RandomizationBlock, "compile", "randomizer.compile")
    shims.function(kernels.summarize_block, "kernels.summarize")
    shims.function(kernels.read_levels_ids, "kernels.read_levels")
    shims.function(kernels.read_levels_maps, "kernels.read_levels")
    shims.method(ManycoreCampaignPool, "map", "manycore.map")
    shims.function(assess_block_batch, "calibration.assess")
    shims.method(CampaignSpec, "build_core", "cpu.build_core")
    shims.function(run_shard, "service.shard")
    shims.function(save_campaign, "service.checkpoint")
    shims.method(CampaignAggregate, "merged", "service.merge")
    shims.method(ContentStore, "put", "store.put")
    shims.method(ContentStore, "get", "store.get")
    shims.method(TransportClient, "call", "transport.call")
    shims.method(Coordinator, "handle", "coordinator.handle")


def new_recorder() -> Recorder:
    return Recorder(LINKS)


def _delta(after: Mapping[str, int], before: Mapping[str, int], key: str) -> int:
    return int(after.get(key, 0)) - int(before.get(key, 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    spans: List[Span],
    counters_before: Mapping[str, Mapping[str, int]],
    counters_after: Mapping[str, Mapping[str, int]],
    compile_infos: List[Mapping[str, int]],
    store_stats: List[Mapping[str, int]],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every metric in :data:`METRICS` for one traced run.

    A layer the workload never enters reads 0.  A shard-time percentile
    with fewer than ten samples beyond it also reads 0; the report says
    it was withheld and ``service.shards`` gives the sample count.
    ``transport.wire_s`` is client call time not spent in the
    coordinator's handler; ``worker.idle_s`` is time inside
    ``run_worker`` outside its calls and shards (polling and
    bookkeeping).  Store counts come from the stores' own statistics.
    """
    totals = layer_totals(spans)

    def seconds(name: str) -> float:
        return totals.get(name, {}).get("seconds", 0.0)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self", 0.0)

    shard_times = [s.duration for s in spans if s.name == "service.shard"]
    p50 = quantiles.reportable_percentile(shard_times, 0.5)
    p90 = quantiles.reportable_percentile(shard_times, 0.9)
    hits = sum(info.get("hits", 0) for info in compile_infos)
    misses = sum(info.get("misses", 0) for info in compile_infos)
    store_hits = sum(
        s.get("memory_hits", 0) + s.get("disk_hits", 0) for s in store_stats
    )
    store_lookups = store_hits + sum(s.get("misses", 0) for s in store_stats)
    groups_b = counters_before["groups"]
    groups_a = counters_after["groups"]
    fallbacks_b = counters_before["fallbacks"]
    fallbacks_a = counters_after["fallbacks"]
    call_s = seconds("transport.call")
    handle_s = seconds("coordinator.handle")
    return {
        "randomizer.generate_s": seconds("randomizer.generate"),
        "randomizer.generate_calls": calls("randomizer.generate"),
        "randomizer.compile_s": seconds("randomizer.compile"),
        "randomizer.compile_calls": calls("randomizer.compile"),
        "randomizer.compile_hit_ratio": _ratio(hits, hits + misses),
        "kernels.summarize_s": seconds("kernels.summarize"),
        "kernels.summarize_calls": calls("kernels.summarize"),
        "kernels.read_levels_s": seconds("kernels.read_levels"),
        "kernels.read_levels_calls": calls("kernels.read_levels"),
        "manycore.self_s": self_s("manycore.map"),
        "manycore.batched_ratio": _ratio(
            _delta(groups_a, groups_b, "shared")
            + _delta(groups_a, groups_b, "grouped"),
            _delta(groups_a, groups_b, "payloads"),
        ),
        "manycore.fallbacks": _delta(fallbacks_a, fallbacks_b, "manycore"),
        "calibration.assess_s": seconds("calibration.assess"),
        "calibration.assess_calls": calls("calibration.assess"),
        "calibration.fallbacks": _delta(
            fallbacks_a, fallbacks_b, "calibration_batch"
        ),
        "cpu.build_core_s": seconds("cpu.build_core"),
        "service.shard_s_p50": p50 if p50 is not None else 0.0,
        "service.shard_s_p90": p90 if p90 is not None else 0.0,
        "service.shards": len(shard_times),
        "service.checkpoint_s": seconds("service.checkpoint"),
        "service.merge_s": seconds("service.merge"),
        "store.put_s": seconds("store.put"),
        "store.puts": sum(s.get("puts", 0) for s in store_stats),
        "store.put_bytes": sum(
            s.get("bytes_written", 0) for s in store_stats
        ),
        "store.get_s": seconds("store.get"),
        "store.hit_ratio": _ratio(store_hits, store_lookups),
        "transport.call_s": call_s,
        "transport.calls": calls("transport.call"),
        "transport.retries": _delta(
            counters_after["resilience"],
            counters_before["resilience"],
            "transport_retry",
        ),
        "coordinator.handle_s": handle_s,
        "transport.wire_s": max(call_s - handle_s, 0.0),
        "worker.idle_s": self_s("worker.run"),
        "tracing.overhead_ratio": overhead_ratio,
    }


def self_time_shares(spans: List[Span]) -> List[Dict[str, float]]:
    """Layers by self time as a share of the traced units' wall time.

    The root's own self time is what no instrumented layer covers; it is
    listed as ``(unattributed)``.
    """
    totals = layer_totals(spans)
    wall = totals.get(ROOT, {}).get("seconds", 0.0)
    rows = []
    for name, t in totals.items():
        label = "(unattributed)" if name == ROOT else name
        rows.append(
            {
                "layer": label,
                "self_s": t["self"],
                "share": _ratio(t["self"], wall),
                "calls": int(t["calls"]),
            }
        )
    rows.sort(key=lambda r: -r["self_s"])
    return rows
