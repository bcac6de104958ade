"""Spool-directory front end: ``repro serve`` / ``repro submit``.

The service's wire protocol is the filesystem — the one transport that
is kill-proof, inspectable with ``ls``, and already crash-safe through
:mod:`repro.ioutil`.  A service *root* directory holds::

    root/
      jobs/         <campaign_id>.json   — submitted specs (atomic writes)
      results/      <campaign_id>.json   — completed campaign results
      checkpoints/  <campaign_id>.ckpt   — per-campaign PR 5 checkpoints
      store/        ...                  — the shared content-addressed store
      store-stats.json                   — store traffic snapshot (artifact)

``repro submit`` drops a spec into ``jobs/``; ``repro serve`` registers
every job whose result does not exist yet with the root's
:class:`~repro.service.coordinator.Coordinator`, drains it through a
worker (in-process, or remote with ``--port``), and writes results
atomically.  Job files are never deleted — *a result file existing* is
the completion marker — so a SIGKILL at any instant leaves either (job,
no result): resubmitted and resumed from its per-shard checkpoint on
restart; or (job, result): done.  ``--once`` drains the spool and exits
(the CI smoke mode); otherwise the service polls forever.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro import store as repro_store
from repro.ioutil import atomic_write_text
from repro.obs import trace as obs
from repro.service.campaign import CampaignSpec

__all__ = [
    "pending_jobs",
    "quarantine_job",
    "serve",
    "service_dirs",
    "submit_job",
    "write_result",
    "write_store_stats",
]


def service_dirs(root: Union[str, Path]) -> Dict[str, Path]:
    """Create (if needed) and return the service's directory layout."""
    root = Path(root)
    dirs = {
        "root": root,
        "jobs": root / "jobs",
        "results": root / "results",
        "checkpoints": root / "checkpoints",
        "store": root / "store",
    }
    for path in dirs.values():
        path.mkdir(parents=True, exist_ok=True)
    return dirs


def submit_job(root: Union[str, Path], spec: CampaignSpec) -> Path:
    """Queue ``spec`` in the spool; returns the job file path.

    Atomic write — a concurrently polling server sees either no job or
    the whole job.  Submitting an identical spec twice is a no-op (same
    campaign id, same file content).
    """
    dirs = service_dirs(root)
    path = dirs["jobs"] / f"{spec.campaign_id()}.json"
    atomic_write_text(path, spec.to_json() + "\n")
    return path


def quarantine_job(
    path: Path, suffix: str, event: str, reason: str, *, log=None
) -> None:
    """Rename a job file that can never run out of the spool glob.

    Counted on the always-on ``event`` resilience counter and warned
    about via ``log``.  Quarantining rather than skipping matters for
    the polling loop: a skipped-but-present bad file would be re-read
    (and re-logged) every poll forever.
    """
    quarantine = path.with_name(path.name + suffix)
    try:
        path.rename(quarantine)
    except OSError:  # pragma: no cover - racing unlink
        return
    obs.record_resilience_event(event, detail=path.name)
    if log is not None:
        log(
            f"warning: job {path.name} quarantined to "
            f"{quarantine.name}: {reason}"
        )


def pending_jobs(
    root: Union[str, Path], *, log=None
) -> List[CampaignSpec]:
    """Specs queued in the spool whose results do not exist yet.

    A job file that fails to parse — torn partial write from a
    non-atomic client, foreign file, hand-edited JSON — is quarantined
    to ``<job>.json.corrupt`` and counted as ``spool_corrupt``
    (:func:`quarantine_job`); it can never crash or wedge the service.
    """
    dirs = service_dirs(root)
    specs = []
    for path in sorted(dirs["jobs"].glob("*.json")):
        if (dirs["results"] / path.name).exists():
            continue
        try:
            specs.append(CampaignSpec.from_json(path.read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            quarantine_job(
                path, ".corrupt", "spool_corrupt", f"malformed: {exc}",
                log=log,
            )
    return specs


def write_result(
    dirs: Dict[str, Path], campaign_id: str, result: Dict[str, Any]
) -> Path:
    """Atomically publish one campaign's result (the completion marker)."""
    path = dirs["results"] / f"{campaign_id}.json"
    atomic_write_text(
        path, json.dumps(result, sort_keys=True, indent=2) + "\n"
    )
    return path


def write_store_stats(
    dirs: Dict[str, Path], store: repro_store.ContentStore
) -> None:
    """Snapshot the store's traffic counters beside the spool."""
    stats = dict(store.stats_dict())
    stats["disk_bytes"] = store.total_bytes()
    atomic_write_text(
        dirs["root"] / "store-stats.json",
        json.dumps(stats, sort_keys=True, indent=2) + "\n",
    )


class _SpoolWorkerClient:
    """The single-host worker's client: the coordinator, in-process.

    Calls go straight to :meth:`~repro.service.coordinator.Coordinator.
    call`.  A claim that finds no work first rescans the spool — the
    in-process form of :func:`~repro.service.coordinator.
    run_coordinator`'s poll — so jobs queued mid-run are served before
    a ``--once`` worker hears that the queue drained; an idle claim
    after new uploads also refreshes ``store-stats.json``.
    """

    def __init__(self, coordinator) -> None:
        self.coordinator = coordinator
        self._stats_stale = False

    def call(self, endpoint: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        reply = self.coordinator.call(endpoint, payload)
        if endpoint == "upload":
            self._stats_stale = True
        elif endpoint == "claim" and reply["work"] is None:
            if self.coordinator.scan_spool():
                return self.coordinator.call(endpoint, payload)
            if self._stats_stale:
                self.coordinator.write_store_stats()
                self._stats_stale = False
        return reply


def serve(
    root: Union[str, Path],
    *,
    workers: Optional[Any] = None,
    once: bool = False,
    poll_seconds: float = 0.5,
    metrics_port: Optional[int] = None,
    store_bytes: Optional[int] = None,
    pre_trial: Optional[Callable[[int], None]] = None,
    port: Optional[int] = None,
    lease_seconds: float = 30.0,
    log=print,
) -> int:
    """Run the campaign service over a spool directory.

    One :class:`~repro.service.coordinator.Coordinator` owns the root's
    spool, results, checkpoints and store, and dispatches its shards by
    fair-share leases.  ``port`` decides only where the worker runs:

    * without ``port`` this process is the worker too —
      :func:`~repro.service.worker.run_worker` bound to the coordinator
      in-process, no HTTP and no framing, running each shard's trials
      over a ``workers``-process :class:`~repro.parallel.TrialPool`.
      ``once`` returns 0 when the spool is drained; otherwise the
      worker polls every ``poll_seconds`` forever.  ``metrics_port``
      starts the :mod:`repro.obs.http` endpoint (port 0 picks a free
      port) and enables metrics collection.  ``pre_trial`` runs inside
      every trial — the CI SIGKILL smoke passes a sleep to widen the
      kill window; it is excluded from every fingerprint and store key,
      so a delayed-then-killed campaign resumes to the undelayed
      reference digest;
    * with ``port`` the coordinator serves the lease protocol on
      ``http://127.0.0.1:port`` (:func:`~repro.service.coordinator.
      run_coordinator`) and pull-based ``repro worker --connect``
      processes do the computing; ``workers``, ``metrics_port`` and
      ``pre_trial`` are ignored (workers bring their own).
    """
    from repro.service.coordinator import Coordinator, run_coordinator
    from repro.service.worker import run_worker

    coordinator = Coordinator(
        root, lease_seconds=lease_seconds, store_bytes=store_bytes, log=log
    )
    if port is not None:
        return run_coordinator(
            coordinator, port=port, once=once, poll_seconds=poll_seconds
        )

    metrics_server = None
    if metrics_port is not None:
        from repro.obs.http import MetricsServer

        if obs.TRACER is None or obs.TRACER.metrics is None:
            obs.enable_tracing(collect_metrics=True)
        metrics_server = MetricsServer(port=metrics_port)
        log(f"serving metrics on http://127.0.0.1:{metrics_server.port}/metrics")

    try:
        return run_worker(
            _SpoolWorkerClient(coordinator),
            once=once,
            poll_seconds=poll_seconds,
            workers=workers,
            pre_trial=pre_trial,
            log=log,
        )
    finally:
        coordinator.write_store_stats()
        if metrics_server is not None:
            metrics_server.close()
