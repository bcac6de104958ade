"""Many-core struct-of-arrays backend for Monte Carlo campaigns.

The Figure 4 stability experiment assesses thousands of *independent*
candidate blocks, each against a fresh, identically-seeded core.  The
per-trial engines (:func:`~repro.core.calibration.assess_block_batch`)
already vectorise *within* one trial; this module vectorises *across*
trials by stacking per-trial quantities into ``(N, ...)`` numpy arrays
— a struct-of-arrays ("manycore") layout — and advancing a whole chunk
of trials with single array operations.

:class:`ManycoreCampaignPool` is the stability-experiment fast path.
Because every trial builds its core from the same deterministic
factory, draws its :class:`~repro.core.calibration.TrialPlan` from that
fresh core's own generator, and runs the unmitigated closed-form
front-end, *everything except the candidate block itself is identical
across trials*: the plan, the per-repetition noise aggregates, the PHT
indices of every slot, the tracked-entry set, and the entire node
schedule of the batch engine's phase 2.  The pool therefore computes
that structure once (:class:`_SharedStructure`) and reduces each trial
to a small *block summary* — per-tracked-entry ids in the FSM's
:class:`~repro.bpu.fsm.TransitionMonoid` — evolved for a whole chunk of
instances at a time as ``(chunk, n_nodes)`` table lookups.  The result
is bit-identical to running the scalar/batch trial per block (same
:class:`~repro.core.calibration.BlockAssessment` list, same factory-RNG
stream position), which the differential suite pins.

Every campaign runs one of two ways, chosen once:

* **shared** — the factory is deterministic (two calls give the same
  configuration and RNG position), no mitigation is installed, both
  PHTs carry value-equal FSM specs, and the shared plan has no empty
  noise gap;
* **delegated** — anything else: every trial runs the caller's trial
  function, counted via :func:`repro.obs.trace.record_scalar_fallback`
  under engine ``"manycore"`` with the reason — graceful and exact,
  never silent.

Factory-call contract: a delegated campaign calls the factory exactly
as often, in the same order, as the per-trial path.  The cores the
pool built to choose its mode are banked and each runs one trial (the
reference trial, ``pre_trial`` included) before the caller's function
takes over, so a stateful factory sees the same call sequence under
either backend.  The dispatch split is observable through
:func:`group_batch_stats`.

The same structure also runs one trial: :func:`assess_summary` (what
:func:`~repro.core.calibration.assess_block_batch` does with a
:class:`~repro.core.randomizer.BlockSummary`, i.e. every service
stability trial) builds it from the trial's own core and plan with the
block's real ``ghr_end`` and base, so zero-gap plans are exact there,
and assesses the block as a chunk of one.
"""

from __future__ import annotations

import copy
import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.calibration import (
    BlockAssessment,
    TrialPlan,
    assess_block_batch,
    draw_trial_plan,
)
from repro.core.calibration_batch import (
    _closed_form,
    _node_schedule,
    _noise_aggregates,
)
from repro.core.randomizer import (
    DEFAULT_BLOCK_BASE,
    BlockSummary,
    RandomizationBlock,
    block_words,
)
from repro.core.support import manycore_fallback_reason
from repro.cpu.core import PhysicalCore
from repro import kernels
from repro.cpu.process import Process
from repro.obs import trace as obs
from repro.resilience.checkpoint import rng_state_digest
from repro.system.noise import NoiseModel

__all__ = [
    "ManycoreCampaignPool",
    "assess_summary",
    "group_batch_stats",
    "reset_group_batch_stats",
]

#: Probe-pattern strings by code ``miss_first * 2 + miss_second``; the
#: order is lexicographic, which is what lets the dominant-pattern
#: tie-break (max over ``(count, pattern)``) reduce to an argmax over
#: ``count * 4 + code``.
_PATTERNS = ("HH", "HM", "MH", "MM")

#: Instances assessed per vectorised chunk.  Bounds peak memory (the
#: phase-2 id arrays are ``(chunk, n_nodes)`` int64) while amortising
#: the per-chunk gather setup.
DEFAULT_CHUNK = 64

#: Always-on dispatch counters, mirrored into run manifests by
#: ``benchmarks/_common.py``.
_GROUP_STATS: Dict[str, int] = {
    "campaigns": 0,
    "map_calls": 0,
    "payloads": 0,
    "shared": 0,
    "scalar": 0,
}


def group_batch_stats() -> Dict[str, int]:
    """Snapshot of the campaign-pool dispatch counters.

    ``shared`` and ``scalar`` partition every payload that went through
    a :class:`ManycoreCampaignPool` by how it executed: on the shared
    structure, or delegated to a per-trial run.
    """
    return dict(_GROUP_STATS)


def reset_group_batch_stats() -> None:
    for key in _GROUP_STATS:
        _GROUP_STATS[key] = 0


# ---------------------------------------------------------------------------
# Shared-structure campaign engine
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _id_tables(fsm, width: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``fsm``'s transition monoid as the flat int64 tables the id-space
    kernel reads: ``POW[element, k]`` for ``k < width`` (row stride
    ``width``), the compose table and the level maps.

    Between consecutive nodes at one entry the block fold applies once
    per crossed epoch, so each node's jump is (block fold)^k; the dense
    power table turns the whole lifting pass into one flat gather.
    Widths are powers of two, so every node plan of a process shares a
    few tables.
    """
    monoid = fsm.transition_monoid()
    size = len(monoid.maps)
    pow_table = np.empty((size, width), dtype=np.int64)
    pow_table[:, 0] = monoid.IDENTITY
    elements = np.arange(size)
    for k in range(1, width):
        pow_table[:, k] = monoid.compose_table[pow_table[:, k - 1], elements]
    return (
        pow_table.ravel(),
        monoid.compose_table.astype(np.int64).ravel(),
        monoid.maps.astype(np.int64).ravel(),
    )


class _NodePlan:
    """The instance-independent half of phase 2, for one PHT.

    Builds the same :func:`~repro.core.calibration_batch._node_schedule`
    as the batch engine's ``_read_levels``, then stores it so
    :meth:`read_levels` can replay the binary lifting, step transfer and
    segmented scan for a whole chunk of instances in monoid *id space*:
    each ``(node, instance)`` cell is a small integer id and every
    composition is one flat ``compose_table`` gather.  The id-space run
    is exactly the level-space run with the per-node level row replaced
    by its id — composition orders are identical, which the
    differential suite pins end to end.

    Preconditions (checked by the caller): no mitigations (every slot
    executes) and value-equal FSM specs on both PHTs (noise and execute
    steps then use the same transition table, so a node's step id
    depends only on its outcome).
    """

    def __init__(
        self,
        fsm,
        initial_levels: np.ndarray,
        idx: np.ndarray,
        outcomes: np.ndarray,
        noise_idx: np.ndarray,
        noise_out: np.ndarray,
        noise_epoch: np.ndarray,
        d: int,
        n_entries: int,
    ) -> None:
        R2, n_slots = idx.shape
        self.shape = (R2, n_slots)
        monoid = fsm.transition_monoid()
        self._ct_size = len(monoid.maps)
        self._n_levels = monoid.n_levels

        schedule = _node_schedule(
            idx,
            np.ones(idx.shape, dtype=bool),
            outcomes,
            noise_idx,
            noise_out,
            noise_epoch,
            d,
            n_entries,
        )
        self.n_tracked = len(schedule.tracked)
        self.pos_table = schedule.pos_table
        self.n_nodes = len(schedule.p_sorted)

        remaining = schedule.remaining
        k_max = int(remaining.max()) if self.n_nodes else 0
        self._pow_k = 1 << k_max.bit_length()
        self._pow_flat, self._ct_flat, self._maps_flat = _id_tables(
            fsm, self._pow_k
        )
        self.p_sorted = schedule.p_sorted
        self.remaining = remaining

        self.step_ids = monoid.outcome_ids[schedule.node_out].astype(np.int64)
        self.v0_nodes = initial_levels[schedule.tracked].astype(np.int64)[
            schedule.p_sorted
        ]
        self.first = schedule.first
        # Flat output slot per node, -1 for non-read (noise) nodes; the
        # kernel layer derives its scatter/schedule from this and
        # memoises per-plan state in ``_kcache``.
        self.out_slot = schedule.out_slot
        self._kcache: dict = {}

    def read_levels(self, lift0: np.ndarray) -> np.ndarray:
        """Read-before-write levels for a chunk of instances.

        ``lift0`` is ``(chunk, n_tracked)`` monoid ids — each instance's
        block fold per tracked entry; the result is
        ``(chunk, R2, n_slots)`` levels, matching ``_read_levels`` row
        for row (dispatched through :func:`repro.kernels.read_levels_ids`).
        """
        chunk = lift0.shape[0]
        R2, n_slots = self.shape
        read_flat = kernels.read_levels_ids(
            np.ascontiguousarray(lift0, dtype=np.int64),
            self.p_sorted,
            self.remaining,
            self.step_ids,
            self.first,
            self.v0_nodes,
            self.out_slot,
            self._pow_flat,
            self._pow_k,
            self._ct_flat,
            self._ct_size,
            self._maps_flat,
            self._n_levels,
            R2 * n_slots,
            cache=self._kcache,
        )
        return read_flat.reshape(chunk, R2, n_slots)


class _SharedStructure:
    """Everything a stability campaign shares across its trials.

    ``ghr_end`` is the GHR a block application leaves behind; only a
    repetition with an empty noise gap reads it, so a campaign (whose
    plan has none) passes a placeholder and a one-block structure
    (:func:`assess_summary`) passes its block's.  ``base`` is the
    blocks' first branch address.
    """

    def __init__(
        self,
        template: PhysicalCore,
        target_address: int,
        plan: TrialPlan,
        block_branches: int,
        ghr_end: int,
        base: int,
    ) -> None:
        predictor = template.predictor
        bimodal = predictor.bimodal.pht
        gshare = predictor.gshare.pht
        fsm = bimodal.fsm
        sel = predictor.selector
        bit = predictor.bit
        T = int(target_address)
        R = plan.repetitions
        R2 = 2 * R

        self.plan = plan
        self.block_branches = int(block_branches)
        self.base = int(base)
        self.fsm = fsm
        self.monoid = fsm.transition_monoid()
        self.d = fsm.n_levels
        self.R = R
        self.R2 = R2
        self.n_b = bimodal.n_entries
        self.n_g = gshare.n_entries
        self.index_hash = predictor.index_hash
        self.ghr_len = predictor.ghr.length
        self.target = T
        self.tb = predictor.bimodal.index(T, 0, None)
        self.n_sel = sel.n_entries
        self.tsel = T % sel.n_entries
        self.n_sets = bit.n_sets
        self.tag_mask = bit._tag_mask
        self.tset = T % bit.n_sets
        self.ttag = (T // bit.n_sets) & bit._tag_mask
        self.sel_initial = sel._initial
        self.sel_max = sel.max_counter
        self.sel_threshold = sel.gshare_threshold
        self.sel_val0 = int(sel.counters[self.tsel])
        self.bit_valid0 = bool(bit.valid[self.tset])
        self.bit_tag0 = int(bit.tags[self.tset])

        # Phase 1 (closed form) — identical for every trial.
        static, outcomes, b_idx, g_idx, offsets, bulk = _closed_form(
            self.plan, T, R, self.n_b, self.n_g,
            int(predictor.ghr.value), int(ghr_end), self.ghr_len,
            self.index_hash,
        )
        self.outcomes = outcomes
        gaps = offsets[1:] - offsets[:-1]
        has_noise = gaps > 0
        epoch_of = np.repeat(np.arange(R2), gaps)

        drift, noise_tag = _noise_aggregates(
            bulk, epoch_of, R2, self.n_sel, self.tsel, self.n_sets,
            self.tset, self.tag_mask,
        )
        self.drift_tsel = drift
        self.noise_tag = noise_tag

        # Phase-2 node plans (one per PHT); noise branches index the
        # bimodal table by plain modulo, as apply_noise_draw does.
        self.plan_b = _NodePlan(
            fsm,
            bimodal.levels,
            b_idx,
            outcomes,
            bulk.addresses % self.n_b,
            bulk.outcomes,
            epoch_of,
            self.d,
            self.n_b,
        )
        self.plan_g = _NodePlan(
            fsm,
            gshare.levels,
            g_idx,
            outcomes,
            bulk.gshare_indices,
            bulk.outcomes,
            epoch_of,
            self.d,
            self.n_g,
        )

        # Phase-3 shared precomputation.
        self.predicts = fsm._predict_arr
        self.predicts_list = [bool(fsm.predicts(lv)) for lv in range(self.d)]
        self.taken_probe = np.arange(R2) < R  # outcome of both probe slots
        # Noise squeezes every selector counter into [0, 3] (see
        # apply_noise_draw); a repetition without noise leaves it alone.
        sel1 = np.where(
            has_noise, np.clip(self.sel_initial + drift, 0, 3), self.sel_initial
        )
        self.sel1 = sel1
        self.sel1_up = np.minimum(sel1 + 1, self.sel_max)
        self.sel1_down = np.maximum(sel1 - 1, 0)
        self.gshare1 = sel1 >= self.sel_threshold
        self.out_rows = outcomes.tolist()
        # Invariants of the scalar replay chain, hoisted once per
        # campaign: plain-int lists beat per-repetition numpy scalar
        # indexing by an order of magnitude in the untouched-selector
        # loop.
        self.has_noise = has_noise.tolist()
        self.drift_list = drift.tolist()
        self.noise_list = noise_tag.tolist()
        self._oid = self.monoid.outcome_ids.astype(np.int64)

    # -- per-trial summary --------------------------------------------------

    def summarize(self, words: np.ndarray) -> Tuple[int, np.ndarray, bool, int]:
        """One block's campaign-relevant footprint, from its raw words
        (:func:`~repro.core.randomizer.block_words`).

        Returns ``(bimodal_id, gshare_ids, tsel_touched, block_tag)``:
        the target bimodal entry's fold id, the fold id per tracked
        gshare entry, whether the block touches the target's selector
        entry, and the last identification tag it writes to the target's
        set (-1 when it never touches that set).
        """
        # Fused kernel on the block's raw words: one pass decodes each
        # branch, walks the GHR shift register, folds the target bimodal
        # entry and every tracked gshare entry in monoid id space, and
        # spots the selector/BIT touches (the numpy backend decodes the
        # block and runs the same reductions as separate vectorised
        # passes — bit-identical either way).
        return kernels.summarize_block(
            words,
            self.base,
            self._oid,
            self.monoid.compose_table,
            self.index_hash,
            self.n_b,
            self.tb,
            self.n_g,
            self.plan_g.pos_table,
            self.ghr_len,
            self.n_sel,
            self.tsel,
            self.n_sets,
            self.tset,
            self.tag_mask,
            self.plan_g.n_tracked,
            self.monoid.IDENTITY,
        )

    # -- phase 3 ------------------------------------------------------------

    def _codes_scalar(
        self, row_b: np.ndarray, row_g: np.ndarray, block_tag: int
    ) -> np.ndarray:
        """Sequential prediction chain for one *untouched-selector*
        instance — the rare case where chooser state carries across
        repetitions, replayed exactly as the batch engine's phase 3.

        All campaign-invariant state (predict booleans, drift and noise
        tags as plain-int lists) is hoisted into ``__init__``; this loop
        only touches python ints and pre-listed rows.
        """
        predicts = self.predicts_list
        d = self.d
        sel_initial = self.sel_initial
        sel_max = self.sel_max
        threshold = self.sel_threshold
        ttag = self.ttag
        sel_val = self.sel_val0
        bit_valid = self.bit_valid0
        bit_tag = self.bit_tag0
        has_noise = self.has_noise
        drift_list = self.drift_list
        noise_list = self.noise_list
        out_rows = self.out_rows
        codes = np.empty(self.R2, dtype=np.int64)
        b_rows = row_b.tolist()
        g_rows = row_g.tolist()
        for r in range(self.R2):
            row_out = out_rows[r]
            rb = b_rows[r]
            rg = g_rows[r]
            for j in range(d):
                if not (bit_valid and bit_tag == ttag):
                    sel_val = sel_initial
                else:
                    taken = bool(row_out[j])
                    bimodal_ok = predicts[rb[j]] == taken
                    gshare_ok = predicts[rg[j]] == taken
                    if bimodal_ok != gshare_ok:
                        sel_val = (
                            min(sel_max, sel_val + 1)
                            if gshare_ok
                            else max(0, sel_val - 1)
                        )
                bit_valid = True
                bit_tag = ttag
            if block_tag >= 0:
                bit_valid = True
                bit_tag = block_tag
            if has_noise[r]:
                value = sel_val + drift_list[r]
                sel_val = 0 if value < 0 else (3 if value > 3 else value)
                if noise_list[r] >= 0:
                    bit_valid = True
                    bit_tag = noise_list[r]
            code = 0
            for slot, j in enumerate((d, d + 1)):
                taken = bool(row_out[j])
                known = bit_valid and bit_tag == ttag
                bimodal_taken = predicts[rb[j]]
                gshare_taken = predicts[rg[j]]
                predicted = (
                    gshare_taken
                    if known and sel_val >= threshold
                    else bimodal_taken
                )
                if predicted != taken:
                    code |= 2 >> slot
                if not known:
                    sel_val = sel_initial
                else:
                    bimodal_ok = bimodal_taken == taken
                    gshare_ok = gshare_taken == taken
                    if bimodal_ok != gshare_ok:
                        sel_val = (
                            min(sel_max, sel_val + 1)
                            if gshare_ok
                            else max(0, sel_val - 1)
                        )
                bit_valid = True
                bit_tag = ttag
            codes[r] = code
        return codes

    def assess_chunk(
        self,
        seeds: Sequence[int],
        pre_trial: Optional[Callable[[int], None]],
    ) -> List[BlockAssessment]:
        """Assess one chunk of block seeds through the stacked pipeline."""
        summaries = []
        for seed in seeds:
            if pre_trial is not None:
                pre_trial(seed)
            summaries.append(
                self.summarize(block_words(seed, self.block_branches))
            )
        return self.assess_summaries(seeds, summaries)

    def assess_summaries(
        self, seeds: Sequence[int], summaries: Sequence[tuple]
    ) -> List[BlockAssessment]:
        """Phases 2 and 3 for a chunk of :meth:`summarize` results."""
        chunk = len(seeds)
        bim_ids, g_ids, touched, block_tags = zip(*summaries)
        lift_b = np.array(bim_ids, dtype=np.int64).reshape(chunk, 1)
        lift_g = np.array(g_ids, dtype=np.int64).reshape(
            chunk, self.plan_g.n_tracked
        )
        touched = np.array(touched, dtype=bool)
        block_tags = np.array(block_tags, dtype=np.int64)
        codes = np.empty((chunk, self.R2), dtype=np.int64)

        read_b = self.plan_b.read_levels(lift_b)
        read_g = self.plan_g.read_levels(lift_g)
        d = self.d

        fast = np.nonzero(touched)[0]
        if len(fast):
            # The block resets the target's chooser entry every
            # repetition, so nothing carries between repetitions and the
            # whole chain vectorises: chooser after noise drift is a
            # shared (R2,) vector, and the per-instance part is just
            # whether the identification tag entering the first probe is
            # the target's — the repetition's last noise tag if any, else
            # the block's last tag if any, else the scrambles' own.
            taken = self.taken_probe
            pred_b = self.predicts[read_b[fast, :, d:]]
            pred_g = self.predicts[read_g[fast, :, d:]]
            block_tag = block_tags[fast, None]
            known1 = np.where(
                self.noise_tag >= 0,
                self.noise_tag == self.ttag,
                (block_tag < 0) | (block_tag == self.ttag),
            )
            b_ok = pred_b[:, :, 0] == taken
            g_ok = pred_g[:, :, 0] == taken
            miss1 = ~np.where(known1 & self.gshare1, g_ok, b_ok)
            sel2 = np.where(
                known1,
                np.where(
                    b_ok != g_ok,
                    np.where(g_ok, self.sel1_up, self.sel1_down),
                    self.sel1,
                ),
                self.sel_initial,
            )
            # Probe 1 re-identifies the branch, so probe 2 always knows it.
            miss2 = np.where(
                sel2 >= self.sel_threshold, pred_g[:, :, 1], pred_b[:, :, 1]
            ) != taken
            codes[fast] = miss1 * 2 + miss2

        for i in np.nonzero(~touched)[0]:
            codes[i] = self._codes_scalar(
                read_b[i], read_g[i], int(block_tags[i])
            )

        # Pattern counts per (instance, variant), TT then NN.  Max over
        # (count, pattern): patterns are in lexicographic order, so
        # scaling counts by 4 and adding the code reproduces the scalar
        # tie-break exactly.
        rank = np.arange(4)
        counts = (codes.reshape(chunk, 2, self.R, 1) == rank).sum(axis=2)
        best = np.argmax(counts * 4 + rank, axis=2)
        top = np.take_along_axis(counts, best[:, :, None], axis=2)
        return [
            BlockAssessment(
                seed=seed,
                tt_pattern=_PATTERNS[tt],
                tt_frequency=n_tt / self.R,
                nn_pattern=_PATTERNS[nn],
                nn_frequency=n_nn / self.R,
            )
            for seed, (tt, nn), ((n_tt,), (n_nn,)) in zip(
                seeds, best.tolist(), top.tolist()
            )
        ]


def assess_summary(
    core: PhysicalCore,
    summary: BlockSummary,
    target_address: int,
    plan: Optional[TrialPlan],
) -> BlockAssessment:
    """One block, assessed as a one-instance chunk of its own structure.

    The closed form of a single trial on ``core`` (whatever its prior
    predictor state) is a :class:`_SharedStructure` built from that core
    and ``plan``, with the block's own ``ghr_end`` — so zero-gap plans
    are exact here — and base.  The block's raw words are generated once
    and feed both ``ghr_end`` and the summary.  Where the closed form is
    inexact (no plan, any mitigation, value-unequal FSM specs) this
    raises :class:`ValueError` instead of falling back.
    """
    reason = "no_plan" if plan is None else manycore_fallback_reason(core)
    if reason is not None:
        raise ValueError(
            "a BlockSummary needs the closed-form front end "
            f"(plan, no mitigation, equal FSM specs): {reason}"
        )
    words = summary.words()
    structure = _SharedStructure(
        core,
        target_address,
        plan,
        summary.n_branches,
        ghr_end=summary.ghr_end(words, core.predictor.ghr.length),
        base=summary.base,
    )
    (assessment,) = structure.assess_summaries(
        [summary.seed], [structure.summarize(words)]
    )
    return assessment


class ManycoreCampaignPool:
    """A ``TrialPool``-shaped adapter running trials on the SoA engine.

    Drop-in for the ``pool`` seat of
    :func:`~repro.core.calibration.stability_experiment`: ``map(fn,
    seeds)`` returns the bit-identical :class:`BlockAssessment` list the
    trial function ``fn`` would produce.  Each campaign runs one of two
    ways, chosen once from the first factory-built cores:

    * **shared** — deterministic factory, no mitigation, value-equal FSM
      specs on both PHTs, no empty noise gap: one
      :class:`_SharedStructure` assesses every payload in chunks of
      :data:`DEFAULT_CHUNK`.
    * **delegated** — anything else: each payload runs ``fn``, counted
      as a ``"manycore"`` scalar fallback with the reason.  The cores
      built to choose the mode each run one reference trial first (see
      :meth:`_replica_trial`), so the factory is called exactly as
      often, in the same order, as on the per-trial path.

    Composes with :class:`~repro.resilience.ResumableCampaign`
    unchanged — assessments are pure functions of the block seed either
    way, so checkpoints written by one backend resume under the other.
    """

    def __init__(
        self,
        core_factory: Callable[[], PhysicalCore],
        target_address: int,
        *,
        block_branches: int,
        repetitions: int,
        noise: Optional[NoiseModel] = None,
        pre_trial: Optional[Callable[[int], None]] = None,
        spy: Optional[Process] = None,
    ) -> None:
        self.core_factory = core_factory
        self.target_address = int(target_address)
        self.block_branches = int(block_branches)
        self.repetitions = int(repetitions)
        self.noise = noise
        self.pre_trial = pre_trial
        self._shared: Optional[_SharedStructure] = None
        self._rng_digest: Optional[str] = None
        self._fallback_reason: Optional[str] = None
        self._built = False
        self._banked: List[PhysicalCore] = []
        self._spy = spy

    @property
    def rng_digest(self) -> Optional[str]:
        """Stream-position digest every trial's factory RNG ends at
        (``None`` for a delegated campaign)."""
        self._ensure_built()
        return self._rng_digest

    def _get_spy(self) -> Process:
        if self._spy is None:
            self._spy = Process("manycore-spy")
        return self._spy

    def _ensure_built(self) -> None:
        if self._built:
            return
        self._built = True
        _GROUP_STATS["campaigns"] += 1
        template = self.core_factory()
        self._banked = [template]
        reason = manycore_fallback_reason(template)
        if reason is None:
            # The shared plan stands for every trial only if the factory
            # is deterministic; a second core checks that.
            probe = self.core_factory()
            self._banked.append(probe)
            if (
                rng_state_digest(probe.rng) != rng_state_digest(template.rng)
                or probe.config.name != template.config.name
            ):
                reason = "nondeterministic_factory"
        if reason is None:
            # Draw on a copy so a delegated campaign's banked cores
            # still start their trials from a fresh stream.
            rng = copy.deepcopy(template.rng)
            plan = draw_trial_plan(
                rng, template, repetitions=self.repetitions, noise=self.noise
            )
            reason = manycore_fallback_reason(
                template, plan.offsets[1:] - plan.offsets[:-1]
            )
            if reason is None:
                # No empty gap, so no repetition reads ghr_end.
                self._shared = _SharedStructure(
                    template,
                    self.target_address,
                    plan,
                    self.block_branches,
                    ghr_end=0,
                    base=DEFAULT_BLOCK_BASE,
                )
                self._rng_digest = rng_state_digest(rng)
                self._banked = []
        self._fallback_reason = reason

    def _replica_trial(self, core: PhysicalCore, seed: int) -> BlockAssessment:
        """The reference trial, replayed on a banked core.

        Exact ``pre_trial`` -> generate -> compile -> plan-draw order of
        :func:`~repro.core.calibration.stability_experiment`'s trial
        function, so a mitigated core's compile-time RNG draws land on
        the same stream positions.
        """
        if self.pre_trial is not None:
            self.pre_trial(seed)
        block = RandomizationBlock.generate(
            seed, n_branches=self.block_branches
        )
        compiled = block.compile(core, self._get_spy())
        plan = draw_trial_plan(
            core.rng, core, repetitions=self.repetitions, noise=self.noise
        )
        return assess_block_batch(
            core, self._get_spy(), compiled, self.target_address, plan=plan
        )

    def _delegate(
        self, fn: Callable[[int], BlockAssessment], seed: int
    ) -> BlockAssessment:
        if self._banked:
            return self._replica_trial(self._banked.pop(0), seed)
        return fn(seed)

    def map(self, fn: Callable[[int], BlockAssessment], payloads) -> List:
        """``[fn(seed) for seed in payloads]`` through the SoA engine."""
        payloads = list(payloads)
        if not payloads:
            return []
        self._ensure_built()
        _GROUP_STATS["map_calls"] += 1
        _GROUP_STATS["payloads"] += len(payloads)
        if self._shared is None:
            obs.record_scalar_fallback(
                "manycore", self._fallback_reason, n=len(payloads)
            )
            _GROUP_STATS["scalar"] += len(payloads)
            return [self._delegate(fn, seed) for seed in payloads]
        _GROUP_STATS["shared"] += len(payloads)
        tracer = obs.TRACER
        if tracer is not None:
            tracer.emit(
                "calibration",
                "manycore_dispatch",
                address=self.target_address,
                trials=len(payloads),
                chunk=DEFAULT_CHUNK,
                nodes_bimodal=self._shared.plan_b.n_nodes,
                nodes_gshare=self._shared.plan_g.n_nodes,
            )
        results: List[BlockAssessment] = []
        for start in range(0, len(payloads), DEFAULT_CHUNK):
            results.extend(
                self._shared.assess_chunk(
                    payloads[start:start + DEFAULT_CHUNK], self.pre_trial
                )
            )
        return results
