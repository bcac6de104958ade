"""Delta-snapshot plumbing: write journals and mark-carrying snapshots.

The §6.3 PHT scan and every other checkpoint-heavy experiment
(`read_entry_state`, calibration, the SGX/ASLR harnesses) repeatedly
restore a core to a prepared state.  The seed implementation deep-copied
every predictor table per :meth:`~repro.cpu.core.PhysicalCore.checkpoint`
and copied them back per restore — O(table size) both ways, even though a
two-branch probe dirties a handful of entries.  This module provides the
machinery that makes restore O(entries touched):

* :class:`WriteJournal` — a per-component undo log.  Once a snapshot has
  taken a *mark*, the component records ``(index, old value)`` for every
  subsequent mutation; restoring to the mark replays the tail of the log
  newest-first and truncates it, so the same mark can be restored to any
  number of times (the scan restores one prepared state twice per
  scanned address).
* :class:`DeltaSnapshot` / :class:`SnapshotTuple` — drop-in snapshot
  carriers (an ``ndarray`` subclass and a ``tuple`` subclass) that ride a
  journal mark alongside the full copy the seed API already returned.

Safety model
------------
A delta restore is only sound if *every* mutation since the mark went
through the journal.  Components therefore follow three rules:

1. every mutating method records the overwritten value while the journal
   is armed (a mark has been taken);
2. external bulk writers (the compiled randomisation block, the noise
   injector) call ``record_touch(indices)`` first, journaling the current
   values of the entries they are about to overwrite;
3. anything else that replaces or rewrites a table wholesale
   (``randomize``, ``reset``, ``flush``, an oversized touch set) calls
   :meth:`WriteJournal.invalidate`, which staleness-poisons every
   outstanding mark.

Because snapshots always carry the full copy too, a stale mark merely
falls back to the seed's ``np.copyto`` path — restore semantics are
identical in every case, which is what the differential tests in
``tests/test_batch_probe.py`` pin.
"""

from __future__ import annotations

import hashlib
from typing import Any, List, NamedTuple, Optional

import numpy as np

from repro.obs import trace as obs

__all__ = [
    "JournalMark",
    "WriteJournal",
    "DeltaSnapshot",
    "SnapshotTuple",
    "sorted_unique",
    "state_digest",
]


def sorted_unique(indices: np.ndarray, size: int) -> np.ndarray:
    """``np.unique(indices)`` for non-negative indices below ``size``.

    A boolean mask plus ``flatnonzero`` gives the same sorted array; on a
    100k-index block it is an order of magnitude faster than numpy 2's
    hash-based ``unique``.
    """
    mask = np.zeros(size, dtype=bool)
    mask[indices] = True
    return np.flatnonzero(mask)


def state_digest(checkpoint: Any) -> str:
    """Canonical SHA-256 of a :meth:`PhysicalCore.checkpoint` tree.

    Walks the nested dict/tuple/array structure in deterministic (sorted
    dict key) order and hashes each array's dtype, shape and raw bytes —
    journal marks are deliberately *excluded*, so a delta snapshot and a
    ``full=True`` snapshot of the same machine state digest identically,
    as do the same states captured in different processes.  The
    resilience layer uses this to assert that a crash-resumed experiment
    left the simulated machine bit-identical to an uninterrupted run
    (``tests/test_resilience.py``, the CI chaos-smoke job).
    """
    h = hashlib.sha256()

    def feed(obj: Any) -> None:
        if isinstance(obj, dict):
            h.update(b"{")
            for key in sorted(obj, key=repr):
                h.update(repr(key).encode())
                feed(obj[key])
            h.update(b"}")
        elif isinstance(obj, np.ndarray):
            arr = np.ascontiguousarray(obj)
            h.update(f"<{arr.dtype!s}{arr.shape!r}>".encode())
            h.update(arr.tobytes())
        elif isinstance(obj, (tuple, list)):
            h.update(b"(")
            for item in obj:
                feed(item)
            h.update(b")")
        else:
            h.update(repr(obj).encode())

    feed(checkpoint)
    return h.hexdigest()


class JournalMark(NamedTuple):
    """A position in a specific journal's history.

    ``journal`` identity-guards against restoring a snapshot into a
    *different* component of the same shape (tests do this deliberately);
    ``epoch`` guards against invalidation; ``position`` is the log length
    at mark time.
    """

    journal: "WriteJournal"
    epoch: int
    position: int


class WriteJournal:
    """Undo log of component mutations since the oldest outstanding mark.

    Entries are opaque to the journal — each component appends whatever
    its restore method knows how to replay (scalar ``(index, old)`` pairs
    or bulk ``(indices, old_values)`` arrays).  ``cap`` bounds the total
    *element* count; exceeding it invalidates, because replaying a log
    longer than the table is slower than the full copy it replaces.
    """

    __slots__ = ("_entries", "_sizes", "_epoch", "_armed", "_size", "_cap", "name")

    def __init__(self, cap: int, *, name: str = "") -> None:
        if cap <= 0:
            raise ValueError("journal cap must be positive")
        self._entries: List[Any] = []
        self._sizes: List[int] = []
        self._epoch = 0
        self._armed = False
        self._size = 0
        self._cap = int(cap)
        #: Component label carried into "snapshot" trace events.
        self.name = name

    @property
    def armed(self) -> bool:
        """Whether mutations must currently be recorded (a mark exists)."""
        return self._armed

    def record(self, entry: Any, size: int = 1) -> None:
        """Append one undo entry covering ``size`` table elements.

        Callers check :attr:`armed` first so the disarmed hot path costs
        a single attribute read.
        """
        self._entries.append(entry)
        self._sizes.append(size)
        self._size += size
        if self._size > self._cap:
            self.invalidate()

    def mark(self) -> JournalMark:
        """Arm the journal and return the current log position."""
        self._armed = True
        return JournalMark(self, self._epoch, len(self._entries))

    def rewind(self, mark: JournalMark) -> Optional[List[Any]]:
        """Entries recorded since ``mark``, newest first — or ``None``.

        ``None`` means the mark is stale (different journal, an
        invalidation happened, or the log was truncated past it) and the
        caller must fall back to its full-copy restore.  On success the
        log is truncated back to the mark, so both this mark and any
        older ones remain restorable.
        """
        tracer = obs.TRACER
        if (
            mark.journal is not self
            or mark.epoch != self._epoch
            or mark.position > len(self._entries)
        ):
            if tracer is not None:
                tracer.emit(
                    "snapshot",
                    "rewind_stale",
                    journal=self.name,
                    epoch=self._epoch,
                    mark_epoch=mark.epoch,
                )
            return None
        tail = self._entries[mark.position:]
        del self._entries[mark.position:]
        self._size -= sum(self._sizes[mark.position:])
        del self._sizes[mark.position:]
        tail.reverse()
        if tracer is not None:
            tracer.emit(
                "snapshot",
                "rewind_delta",
                journal=self.name,
                entries=len(tail),
            )
        return tail

    def invalidate(self) -> None:
        """Staleness-poison every outstanding mark and clear the log."""
        tracer = obs.TRACER
        if tracer is not None:
            tracer.emit(
                "snapshot",
                "journal_invalidated",
                journal=self.name,
                entries=len(self._entries),
            )
        self._epoch += 1
        self._entries.clear()
        self._sizes.clear()
        self._size = 0
        self._armed = False


def _rebuild_delta_snapshot(data: np.ndarray) -> "DeltaSnapshot":
    return DeltaSnapshot(data, None)


def _rebuild_snapshot_tuple(items: tuple) -> "SnapshotTuple":
    return SnapshotTuple(items, None)


class DeltaSnapshot(np.ndarray):
    """An array snapshot that may also carry a journal mark.

    Behaves exactly like the plain ``ndarray`` copy the seed API
    returned (tests index it, compare it, ``.all()`` it), with one extra
    attribute: ``journal_mark``, consumed by the owning component's
    ``restore``.  A snapshot without a usable mark restores via the
    full-copy path.

    Marks are **process-local**: they hold a reference to the live
    journal object of the component that issued them.  Pickling a
    snapshot (a :class:`repro.parallel.TrialPool` worker result, a
    checkpoint shipped across processes) therefore drops the mark — the
    default reduction would drag the whole journal log along and the
    unpickled mark would alias a journal the target process never
    advanced.  The unpickled snapshot keeps its full copy and restores
    via the full-copy path, which is always sound.
    """

    def __new__(cls, data: np.ndarray, mark: Optional[JournalMark] = None):
        obj = np.asarray(data).view(cls)
        obj.journal_mark = mark
        return obj

    def __array_finalize__(self, obj) -> None:
        if obj is None:
            return
        self.journal_mark = getattr(obj, "journal_mark", None)

    def __reduce__(self):
        return (_rebuild_delta_snapshot, (np.asarray(self).copy(),))


class SnapshotTuple(tuple):
    """A tuple-of-arrays snapshot that may also carry a journal mark.

    Unpacks exactly like the plain tuple the seed API returned
    (``tags, valid = table.snapshot()``).  Like :class:`DeltaSnapshot`,
    pickling drops the process-local journal mark.
    """

    journal_mark: Optional[JournalMark]

    def __new__(cls, items, mark: Optional[JournalMark] = None):
        obj = super().__new__(cls, items)
        obj.journal_mark = mark
        return obj

    def __reduce__(self):
        return (_rebuild_snapshot_tuple, (tuple(self),))
