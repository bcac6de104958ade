"""Branch identification table: "has the BPU seen this branch recently?"

Paper §5.1 establishes experimentally that *new* branches — ones whose
information is not stored in the predictor history — are predicted by the
1-level predictor, and §5.2 builds both halves of the attack on that
fact: the spy cycles through fresh branch addresses so its own probes are
always 1-level, and the 100k-branch randomisation block evicts the
victim's branch so the victim restarts in 1-level mode too.

Real hardware implements "seen recently" implicitly in its allocation
policies; we model it explicitly as a direct-mapped, partially-tagged
table that allocates on every executed branch.  A branch hits the table
iff its set holds its tag; executing many other branches that alias the
set evicts it — exactly the eviction behaviour the randomisation block
needs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.snapshot import SnapshotTuple, WriteJournal, sorted_unique

__all__ = ["BranchIdentificationTable"]


class BranchIdentificationTable:
    """Direct-mapped presence tracker for recently executed branches."""

    def __init__(self, n_sets: int, tag_bits: int = 12) -> None:
        if n_sets <= 0:
            raise ValueError("BIT must have at least one set")
        if tag_bits <= 0:
            raise ValueError("tag_bits must be positive")
        self.n_sets = int(n_sets)
        self.tag_bits = int(tag_bits)
        self._tag_mask = (1 << self.tag_bits) - 1
        self.tags = np.zeros(self.n_sets, dtype=np.int64)
        self.valid = np.zeros(self.n_sets, dtype=bool)
        self._journal = WriteJournal(cap=max(256, self.n_sets // 8), name="bit")

    def _split(self, address: int) -> Tuple[int, int]:
        address = int(address)
        return address % self.n_sets, (address // self.n_sets) & self._tag_mask

    def record_touch(self, indices: np.ndarray) -> None:
        """Journal current (tag, valid) values before an external in-place
        bulk write, keeping outstanding delta snapshots restorable."""
        if self._journal.armed:
            uniq = sorted_unique(indices, self.n_sets)
            self._journal.record(
                (uniq, self.tags[uniq].copy(), self.valid[uniq].copy()),
                size=len(uniq),
            )

    def last_writers(
        self, addresses: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(sets, tags)`` a run of branches leaves, one pair per set.

        Each touched set (ascending) holds the tag of its *last* branch
        in program order, as inserting ``addresses`` one at a time
        would leave it.  Fancy assignment with repeated indices does not
        promise which duplicate wins; ``np.maximum.at`` over positions
        does.
        """
        last = np.full(self.n_sets, -1, dtype=np.int64)
        np.maximum.at(
            last,
            addresses % self.n_sets,
            np.arange(len(addresses), dtype=np.int64),
        )
        sets = np.flatnonzero(last >= 0)
        tags = (
            (addresses[last[sets]] // self.n_sets) & self._tag_mask
        ).astype(np.int64)
        return sets, tags

    def contains(self, address: int) -> bool:
        """Whether the BPU currently "knows" the branch at ``address``."""
        index, tag = self._split(address)
        return bool(self.valid[index]) and int(self.tags[index]) == tag

    def insert(self, address: int) -> None:
        """Record an execution of the branch at ``address`` (may evict)."""
        index, tag = self._split(address)
        if self._journal.armed:
            self._journal.record(
                (index, int(self.tags[index]), bool(self.valid[index]))
            )
        self.valid[index] = True
        self.tags[index] = tag

    def evict(self, address: int) -> None:
        """Drop whatever branch occupies ``address``'s set."""
        index, _ = self._split(address)
        if self._journal.armed:
            self._journal.record(
                (index, int(self.tags[index]), bool(self.valid[index]))
            )
        self.valid[index] = False

    def flush(self) -> None:
        """Forget every branch (used when modelling BPU-flush defenses)."""
        self._journal.invalidate()
        self.valid.fill(False)

    def snapshot(self, *, full: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of (tags, valid) — pair with :meth:`restore`.

        Carries a journal mark enabling O(sets touched) restore;
        ``full=True`` omits it (the differential reference path).
        """
        mark = None if full else self._journal.mark()
        return SnapshotTuple((self.tags.copy(), self.valid.copy()), mark)

    def restore(self, snapshot: Tuple[np.ndarray, np.ndarray]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        mark = getattr(snapshot, "journal_mark", None)
        if mark is not None:
            tail = self._journal.rewind(mark)
            if tail is not None:
                for index, tag, valid in tail:
                    self.tags[index] = tag
                    self.valid[index] = valid
                return
        self._journal.invalidate()
        tags, valid = snapshot
        np.copyto(self.tags, tags)
        np.copyto(self.valid, valid)

    def __len__(self) -> int:
        return self.n_sets
