"""Campaign progress and its crash recovery.

:class:`CampaignState` is one submitted campaign as the scheduler sees
it: its shard plan, the exact aggregates of the shards finished so far,
and how many of those came back from a checkpoint or the store rather
than from a worker.  The helpers below are the whole recovery story:
every finished shard is checkpointed through the campaign's own
:class:`~repro.resilience.CheckpointStore` (atomic, fingerprinted), so
a SIGKILL costs at most the shards in flight; a resubmitted campaign
restores them, and any shard the shared
:class:`~repro.store.ContentStore` already holds completes at submit
without running a trial.

The one scheduler over these pieces is
:class:`~repro.service.coordinator.Coordinator` — for single-host
``repro serve`` and for ``repro serve --port`` alike.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import trace as obs
from repro.resilience.checkpoint import CheckpointStore, verify_fingerprint
from repro.service.campaign import (
    CampaignSpec,
    plan_shards,
    shard_store_key,
)
from repro.store import ContentStore

__all__ = [
    "CampaignState",
    "campaign_checkpoint",
    "restore_campaign",
    "save_campaign",
    "serve_campaign_from_store",
]


class CampaignState:
    """One submitted campaign's progress: shards done, pending, merged."""

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        self.campaign_id = spec.campaign_id()
        self.shards: List[Tuple[int, int]] = plan_shards(spec)
        #: Aggregate class from the spec's workload — every checkpoint
        #: restore, store probe and merge dispatches through it.
        self.aggregate_cls: type = spec.workload_impl().aggregate
        self.done: Dict[int, Any] = {}
        self.resumed_shards = 0
        self.cached_shards = 0

    @property
    def complete(self) -> bool:
        return len(self.done) == len(self.shards)

    def pending(self) -> List[int]:
        return [
            i for i in range(len(self.shards)) if i not in self.done
        ]

    def aggregate(self) -> Any:
        """Exact merge of every shard, in shard order (order is moot —
        the merge is commutative — but fixed for readability)."""
        return self.aggregate_cls.merged(
            [self.done[i] for i in range(len(self.shards))]
        )

    def result(self) -> Dict[str, Any]:
        aggregate = self.aggregate()
        return {
            "campaign": self.campaign_id,
            "name": self.spec.name,
            "tenant": self.spec.tenant,
            "spec": self.spec.to_dict(),
            "shards": len(self.shards),
            "resumed_shards": self.resumed_shards,
            "cached_shards": self.cached_shards,
            **aggregate.summary(),
        }


# -- recovery helpers ---------------------------------------------------------


def campaign_checkpoint(
    checkpoint_dir, campaign_id: str
) -> Optional[CheckpointStore]:
    """The campaign's checkpoint store, or ``None`` when disabled."""
    if checkpoint_dir is None:
        return None
    checkpoint_dir = Path(checkpoint_dir)
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    return CheckpointStore(checkpoint_dir / f"{campaign_id}.ckpt")


def save_campaign(checkpoint_dir, state: "CampaignState") -> None:
    """Checkpoint a campaign's finished shards (atomic, fingerprinted)."""
    ckpt = campaign_checkpoint(checkpoint_dir, state.campaign_id)
    if ckpt is None:
        return
    ckpt.save(
        {
            "fingerprint": state.spec.fingerprint(),
            "done": {
                i: agg.to_state() for i, agg in state.done.items()
            },
            "complete": state.complete,
        }
    )


def restore_campaign(checkpoint_dir, state: "CampaignState") -> None:
    """Rebuild finished shards from the campaign's checkpoint, if any.

    Raises :exc:`~repro.resilience.checkpoint.CheckpointMismatch` when
    the spec changed under the checkpoint (e.g. a new shard layout).
    """
    ckpt = campaign_checkpoint(checkpoint_dir, state.campaign_id)
    if ckpt is None:
        return
    saved = verify_fingerprint(
        ckpt, ckpt.load(), state.spec.fingerprint()
    )
    if saved is None:
        return
    for i, agg_state in saved.get("done", {}).items():
        state.done[int(i)] = state.aggregate_cls.from_state(agg_state)
    state.resumed_shards = len(state.done)
    if state.resumed_shards:
        obs.record_resilience_event(
            "campaign_resume",
            detail=state.campaign_id,
            n=state.resumed_shards,
        )


def serve_campaign_from_store(
    store: Optional[ContentStore], state: "CampaignState"
) -> None:
    """Complete every pending shard the content store already holds."""
    if store is None:
        return
    for i in state.pending():
        lo, hi = state.shards[i]
        found, value = store.get(shard_store_key(state.spec, lo, hi))
        if found and isinstance(value, state.aggregate_cls):
            state.done[i] = value
            state.cached_shards += 1
