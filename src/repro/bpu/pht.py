"""Pattern history table: the attacked structure (paper §2, §6).

A PHT is a fixed-size vector of prediction FSM *levels* (see
:mod:`repro.bpu.fsm`).  Both component predictors of the hybrid BPU store
their direction history in a PHT; they differ only in how the table is
indexed (paper §2: "the only difference between the two predictors is how
the PHT is indexed").

The table stores raw integer levels in a NumPy array so the attack's fast
paths (randomisation-block application, noise injection, full-table
snapshots for the §6.3 PHT scan) can operate vectorised.

Snapshots are delta-capable: once a snapshot is taken, per-entry writes
are journaled and :meth:`PatternHistoryTable.restore` undoes just those
writes instead of copying the whole table (see :mod:`repro.snapshot`).
Vectorised bulk writers must either go through the :attr:`levels` setter
(which invalidates the journal) or call :meth:`record_touch` first.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bpu.fsm import FSMSpec, State, level_dtype
from repro.snapshot import DeltaSnapshot, WriteJournal, sorted_unique

__all__ = ["PatternHistoryTable"]


class PatternHistoryTable:
    """A table of ``n_entries`` prediction FSMs.

    Parameters
    ----------
    n_entries:
        Number of PHT entries.  Need not be a power of two, although real
        microarchitecture presets use powers of two.
    fsm:
        The prediction FSM specification shared by all entries.
    initial_state:
        Architectural state each entry starts in.  Real hardware powers up
        in an unknown state; we default to weakly not-taken, and tests /
        experiments that need a random start use :meth:`randomize`.
    """

    def __init__(
        self,
        n_entries: int,
        fsm: FSMSpec,
        initial_state: State = State.WN,
    ) -> None:
        if n_entries <= 0:
            raise ValueError("PHT must have at least one entry")
        self.fsm = fsm
        self.n_entries = int(n_entries)
        self._initial_level = fsm.level_for(initial_state)
        # Sized from n_levels: an FSM with > 127 levels must not wrap int8.
        self._levels = np.full(
            self.n_entries, self._initial_level, dtype=level_dtype(fsm.n_levels)
        )
        self._journal = WriteJournal(cap=max(256, self.n_entries // 8), name="pht")

    @property
    def levels(self) -> np.ndarray:
        """The raw level vector (dtype from the FSM's level count).  In-place
        scalar writes should go
        through :meth:`update`/:meth:`set_level`; vectorised writers must
        call :meth:`record_touch` first.  Assigning a whole new array
        invalidates outstanding delta snapshots."""
        return self._levels

    @levels.setter
    def levels(self, value: np.ndarray) -> None:
        self._journal.invalidate()
        self._levels = value

    def record_touch(self, indices: np.ndarray) -> None:
        """Journal the current values of ``indices`` before an external
        in-place bulk write (compiled-block application, noise injection),
        keeping outstanding delta snapshots restorable."""
        if self._journal.armed:
            uniq = sorted_unique(indices, self.n_entries)
            self._journal.record(
                (uniq, self._levels[uniq].copy()), size=len(uniq)
            )

    # -- indexing helpers --------------------------------------------------

    def _check(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self.n_entries:
            raise IndexError(f"PHT index {index} out of range")
        return index

    # -- per-entry operations ----------------------------------------------

    def predict(self, index: int) -> bool:
        """Direction prediction (taken?) of entry ``index``."""
        return self.fsm.predicts(int(self.levels[self._check(index)]))

    def update(self, index: int, taken: bool) -> None:
        """Advance entry ``index`` by one actual branch outcome."""
        index = self._check(index)
        old = int(self._levels[index])
        if self._journal.armed:
            self._journal.record((index, old))
        self._levels[index] = self.fsm.step(old, taken)

    def level(self, index: int) -> int:
        """Raw internal FSM level of entry ``index``."""
        return int(self.levels[self._check(index)])

    def state(self, index: int) -> State:
        """Observable architectural state of entry ``index``."""
        return self.fsm.public_state(self.level(index))

    def set_state(self, index: int, state: State) -> None:
        """Force entry ``index`` to a given architectural state.

        This is a simulator-only capability used by tests and by the
        Figure 9 experiment setup; the attacker inside the model reaches
        states only through branch executions.
        """
        index = self._check(index)
        if self._journal.armed:
            self._journal.record((index, int(self._levels[index])))
        self._levels[index] = self.fsm.level_for(state)

    def set_level(self, index: int, level: int) -> None:
        """Force entry ``index`` to a raw internal level."""
        if not 0 <= level < self.fsm.n_levels:
            raise ValueError(f"level {level} out of range")
        index = self._check(index)
        if self._journal.armed:
            self._journal.record((index, int(self._levels[index])))
        self._levels[index] = level

    # -- whole-table operations ----------------------------------------------

    def states(self) -> np.ndarray:
        """Architectural states of all entries, as an int8 array of State values."""
        return self.fsm.public_array(self.levels)

    def randomize(self, rng: np.random.Generator) -> None:
        """Scramble every entry to a uniformly random level.

        Models the unknown PHT contents inherited from prior system
        activity (paper §6.2 discusses such inherited state as a noise
        source).
        """
        self.levels = rng.integers(
            0, self.fsm.n_levels, size=self.n_entries
        ).astype(self._levels.dtype)

    def reset(self) -> None:
        """Return every entry to the configured initial state."""
        self._journal.invalidate()
        self._levels.fill(self._initial_level)

    def snapshot(self, *, full: bool = False) -> np.ndarray:
        """Copy of the raw level vector (pair with :meth:`restore`).

        The returned array additionally carries a journal mark so a later
        :meth:`restore` can undo just the entries written since, instead
        of copying the table; ``full=True`` omits the mark, forcing the
        seed's full-copy restore path (the differential reference).
        """
        mark = None if full else self._journal.mark()
        return DeltaSnapshot(self._levels.copy(), mark)

    def restore(self, snapshot: np.ndarray) -> None:
        """Restore a level vector previously taken with :meth:`snapshot`.

        Replays the write journal back to the snapshot's mark when it is
        still valid — O(entries touched since) — and falls back to the
        full copy otherwise.  Both paths leave identical state.
        """
        if snapshot.shape != self._levels.shape:
            raise ValueError("snapshot shape mismatch")
        mark = getattr(snapshot, "journal_mark", None)
        if mark is not None:
            tail = self._journal.rewind(mark)
            if tail is not None:
                levels = self._levels
                for index, old in tail:
                    levels[index] = old
                return
        # Full copy is itself an unjournaled bulk write: poison any
        # remaining marks so they cannot replay over it.
        self._journal.invalidate()
        np.copyto(self._levels, snapshot)

    def __len__(self) -> int:
        return self.n_entries

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PatternHistoryTable(n_entries={self.n_entries}, "
            f"fsm={self.fsm.name!r})"
        )
