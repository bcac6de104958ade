"""Differential tests for the vectorised calibration engine.

Three invariants are pinned here:

* **replay mode** — :func:`assess_block_batch` called with the scalar
  signature (``repetitions=``/``noise=``) is a bit-exact drop-in for
  :func:`assess_block`: same :class:`BlockAssessment`, same post-call
  core state, same RNG stream position, same mitigation hook state —
  on every preset and under every fast-path-safe mitigation stack;
* **plan mode** — both engines produce identical assessments from the
  same pre-drawn :class:`TrialPlan`, and the batch engine leaves the
  core untouched (checkpoint-equal before/after);
* **block sources** — a :class:`BlockSummary` (the block by seed, size
  and base, never compiled; it runs on the manycore engine's
  one-instance path) gives exactly the assessment the block generated
  at that base and compiled gives, for generated presets, scales, noise
  models, block sizes, bases and targets, and is refused anywhere else;
* **worker-count determinism** — ``stability_experiment`` and
  ``find_block`` return bit-identical results at any ``workers`` count.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bpu.fsm import skylake_fsm
from repro.bpu.presets import (
    firestorm_like,
    haswell,
    oryon_like,
    sandy_bridge,
    skylake,
    tage_like,
)
from repro.core.calibration import (
    assess_block,
    assess_block_batch,
    draw_trial_plan,
    find_block,
    stability_experiment,
)
from repro import kernels
from repro.core.calibration import _dominant
from repro.core.patterns import DecodedState
from repro.core.randomizer import (
    DEFAULT_BLOCK_BASE,
    BlockSummary,
    RandomizationBlock,
)
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.mitigations import (
    BpuPartitioning,
    BtbFlushOnContextSwitch,
    NoisyPerformanceCounters,
    NoisyTimer,
    PhtIndexRandomization,
    StaticPredictionForSensitiveBranches,
    StochasticFSM,
)
from repro.parallel import fork_available
from repro.resilience.checkpoint import rng_state_digest
from repro.service import CampaignSpec, run_trial
from repro.system.noise import NoiseModel

PRESETS = {
    "skylake": skylake,
    "haswell": haswell,
    "sandy_bridge": sandy_bridge,
    "tage_like": tage_like,
    "firestorm_like": firestorm_like,
    "oryon_like": oryon_like,
}

TARGET = 0x7F0000001234

#: Fast-path-safe mitigation stacks; each entry is ``core -> [mitigations]``.
STACKS = {
    "none": lambda core: [],
    "static": lambda core: [StaticPredictionForSensitiveBranches()],
    "rekey": lambda core: [
        PhtIndexRandomization(np.random.default_rng(5), rekey_period=37)
    ],
    "partition": lambda core: [
        BpuPartitioning.by_process(core.predictor.bimodal.pht.n_entries)
    ],
    "timer+btb": lambda core: [
        NoisyTimer(sigma=25.0),
        BtbFlushOnContextSwitch(),
    ],
    "kitchen": lambda core: [
        PhtIndexRandomization(np.random.default_rng(9), rekey_period=13),
        NoisyTimer(sigma=10.0),
    ],
}


def build(preset_name, stack_name, *, protect=False, seed=3):
    core = PhysicalCore(PRESETS[preset_name]().scaled(256), seed=seed)
    spy = Process("spy", pid=90001)
    if protect:
        spy.protect_branch(TARGET)
    for mitigation in STACKS[stack_name](core):
        core.install_mitigation(mitigation)
    block = RandomizationBlock.generate(7, n_branches=1500)
    compiled = block.compile(core, spy)
    # Warm history: the engines must agree from arbitrary prior state,
    # not just a pristine core.
    for k, taken in enumerate([1, 0, 1, 1, 0, 1]):
        core.execute_branch(spy, TARGET + (k % 3), bool(taken))
    return core, spy, compiled


def eq(a, b):
    """Deep equality across the nested checkpoint structures."""
    if isinstance(a, dict):
        return set(a) == set(b) and all(eq(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(eq(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def run_replay(engine, preset_name, stack_name, *, protect=False, rng=None):
    core, spy, compiled = build(preset_name, stack_name, protect=protect)
    assessment = engine(
        core,
        spy,
        compiled,
        TARGET,
        repetitions=24,
        noise=NoiseModel.isolated(),
        rng=rng() if rng is not None else None,
    )
    state = core.checkpoint(full=True)
    stream_position = core.rng.integers(1 << 62)
    hook_key = core.mitigations.pht_key(spy)
    return assessment, state, stream_position, hook_key


class TestReplayDifferential:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    @pytest.mark.parametrize("stack_name", sorted(STACKS))
    def test_batch_is_bit_exact_drop_in(self, preset_name, stack_name):
        scalar = run_replay(assess_block, preset_name, stack_name)
        batch = run_replay(assess_block_batch, preset_name, stack_name)
        assert batch[0] == scalar[0]  # assessment
        assert eq(batch[1], scalar[1])  # full core state
        assert batch[2] == scalar[2]  # core RNG stream position
        assert batch[3] == scalar[3]  # mitigation hook state

    def test_protected_target_branch(self):
        scalar = run_replay(assess_block, "skylake", "static", protect=True)
        batch = run_replay(
            assess_block_batch, "skylake", "static", protect=True
        )
        assert batch[0] == scalar[0]
        assert eq(batch[1], scalar[1])

    def test_decoupled_observation_rng(self):
        rng = lambda: np.random.default_rng(123)
        scalar = run_replay(assess_block, "haswell", "rekey", rng=rng)
        batch = run_replay(assess_block_batch, "haswell", "rekey", rng=rng)
        assert batch[0] == scalar[0]
        assert eq(batch[1], scalar[1])
        assert batch[2:] == scalar[2:]

    @pytest.mark.parametrize(
        "mitigation",
        [NoisyPerformanceCounters(1), StochasticFSM(0.25)],
        ids=["noisy_counters", "stochastic_fsm"],
    )
    def test_observation_mitigations_fall_back_scalar_exact(self, mitigation):
        """Unsupported mitigations: batch == scalar via the fallback,
        consuming the identical core RNG stream."""
        results = []
        for engine in (assess_block, assess_block_batch):
            core, spy, compiled = build("haswell", "none")
            core.install_mitigation(mitigation)
            assessment = engine(
                core,
                spy,
                compiled,
                TARGET,
                repetitions=16,
                noise=NoiseModel.isolated(),
            )
            results.append((assessment, core.rng.integers(1 << 62)))
        assert results[0] == results[1]


class TestPlanDifferential:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    @pytest.mark.parametrize(
        "noise_name", ["silent", "isolated", "noisy"]
    )
    def test_same_plan_same_assessment(self, preset_name, noise_name):
        noise = getattr(NoiseModel, noise_name)()

        core1, spy1, compiled1 = build(preset_name, "none", seed=11)
        plan1 = draw_trial_plan(
            np.random.default_rng(42), core1, repetitions=30, noise=noise
        )
        scalar = assess_block(core1, spy1, compiled1, TARGET, plan=plan1)

        core2, spy2, compiled2 = build(preset_name, "none", seed=11)
        before = core2.checkpoint(full=True)
        plan2 = draw_trial_plan(
            np.random.default_rng(42), core2, repetitions=30, noise=noise
        )
        batch = assess_block_batch(core2, spy2, compiled2, TARGET, plan=plan2)
        after = core2.checkpoint(full=True)

        assert batch == scalar
        # Plan-mode batch assessment is a pure function: the core is
        # left exactly as found.
        assert eq(before, after)

    @pytest.mark.parametrize(
        "stack_name", ["static", "rekey", "partition", "timer+btb"]
    )
    def test_under_mitigation_stacks(self, stack_name):
        noise = NoiseModel.isolated()
        assessments = []
        for engine in (assess_block, assess_block_batch):
            core, spy, compiled = build("skylake", stack_name, seed=11)
            plan = draw_trial_plan(
                np.random.default_rng(42), core, repetitions=30, noise=noise
            )
            assessments.append(engine(core, spy, compiled, TARGET, plan=plan))
        assert assessments[0] == assessments[1]

    def test_plan_repetitions_property(self):
        core, _, _ = build("haswell", "none")
        plan = draw_trial_plan(
            np.random.default_rng(0),
            core,
            repetitions=12,
            noise=NoiseModel.silent(),
        )
        assert plan.repetitions == 12


NOISES = ("isolated", "noisy", "quiesced", "silent")


@st.composite
def summary_cases(draw):
    """A service-shaped trial: preset, scale, noise, block, target, seeds,
    plus a block base (the service's default or any other).

    Block sizes cover one branch, sizes below every preset's
    ``ghr_bits`` (a partial ``ghr_end``), odd sizes and up to 20k.
    """
    spec = CampaignSpec(
        preset=draw(st.sampled_from(sorted(PRESETS))),
        scale=draw(st.sampled_from([1, 8, 16])),
        noise=draw(st.sampled_from(NOISES)),
        block_branches=draw(
            st.one_of(st.integers(1, 30), st.integers(31, 20_000))
        ),
        target_address=draw(st.integers(0, (1 << 47) - 1)),
        seed=draw(st.integers(0, 2**32 - 1)),
        seed_start=draw(st.integers(0, 2**31)),
        repetitions=draw(st.integers(1, 8)),
        n_blocks=64,
    )
    base = draw(
        st.one_of(st.just(DEFAULT_BLOCK_BASE), st.integers(0, (1 << 47) - 1))
    )
    return spec, draw(st.integers(0, 63)), base


def _plan(spec, core, index):
    child = np.random.SeedSequence(spec.seed, spawn_key=(index,))
    return draw_trial_plan(
        np.random.default_rng(child),
        core,
        repetitions=spec.repetitions,
        noise=spec.noise_model(),
    )


class TestBlockSummary:
    @given(case=summary_cases())
    @settings(max_examples=60, deadline=None)
    def test_summary_trial_equals_compiled_and_scalar(self, case):
        """A summary at any base assesses as the block generated at that
        base and compiled, on the batch and the scalar engine; at the
        default base that is also the service trial's record."""
        spec, index, base = case
        seed = spec.seed_start + index
        T = spec.target_address
        core = spec.build_core()
        spy = Process("spy")
        summary = assess_block_batch(
            core, spy, BlockSummary(seed, spec.block_branches, base), T,
            plan=_plan(spec, core, index),
        )
        compiled = RandomizationBlock.generate(
            seed, n_branches=spec.block_branches, base_address=base
        ).compile(core, spy)
        batch = assess_block_batch(
            core, spy, compiled, T, plan=_plan(spec, core, index)
        )
        assert summary == batch

        scalar_core = spec.build_core()
        scalar = assess_block(
            scalar_core, spy, compiled, T,
            plan=_plan(spec, scalar_core, index),
        )
        assert scalar == batch

        if base == DEFAULT_BLOCK_BASE:
            fsm = core.predictor.bimodal.pht.fsm
            assert run_trial(spec, index) == {
                "index": index,
                "seed": seed,
                "tt_pattern": batch.tt_pattern,
                "tt_frequency": batch.tt_frequency,
                "nn_pattern": batch.nn_pattern,
                "nn_frequency": batch.nn_frequency,
                "stable": batch.stable,
                "state": batch.decoded(fsm).value,
                "rng_digest": rng_state_digest(core.rng),
            }

    @given(case=summary_cases())
    @settings(max_examples=60, deadline=None)
    def test_footprint_equals_compiled_tables(self, case):
        """Every value the engine reads from a block, on every entry.

        ``summarize_block`` is asked for the whole gshare table, so the
        raw-word pass must match the compiled transition map row for
        row, besides the target's bimodal row, selector touch, BIT tag
        and ``ghr_end``.
        """
        spec, index, base = case
        core = spec.build_core()
        predictor = core.predictor
        T = spec.target_address
        seed = spec.seed_start + index
        summary = BlockSummary(seed, spec.block_branches, base)
        compiled = RandomizationBlock.generate(
            seed, n_branches=spec.block_branches, base_address=base
        ).compile(core, Process("spy"))
        words = summary.words()
        assert summary.ghr_end(words, predictor.ghr.length) == (
            compiled.ghr_end
        )
        monoid = predictor.bimodal.pht.fsm.transition_monoid()
        n_g = predictor.gshare.pht.n_entries
        tb = predictor.bimodal.index(T, 0, None)
        sel, bit = predictor.selector, predictor.bit
        tsel, tset = T % sel.n_entries, T % bit.n_sets
        bim_id, g_ids, touched, block_tag = kernels.summarize_block(
            words, base, monoid.outcome_ids.astype(np.int64),
            monoid.compose_table, predictor.index_hash,
            predictor.bimodal.pht.n_entries, tb, n_g, np.arange(n_g),
            predictor.ghr.length, sel.n_entries, tsel, bit.n_sets, tset,
            bit._tag_mask, n_g, monoid.IDENTITY,
        )
        assert np.array_equal(monoid.maps[bim_id], compiled.bimodal_map[tb])
        assert np.array_equal(monoid.maps[g_ids], compiled.gshare_map)
        assert bool(touched) == bool((compiled.selector_touched == tsel).any())
        covering = np.flatnonzero(compiled.bit_sets == tset)
        assert int(block_tag) == (
            int(compiled.bit_tags[covering[-1]]) if len(covering) else -1
        )

    @given(case=summary_cases(), state_seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_summary_from_arbitrary_state(self, case, state_seed):
        """Scrambled prior predictor state, with the target's selector
        entry at the gshare threshold and its BIT set holding the
        target's tag (so gshare rows and the BIT tag reach the probes):
        same assessment as the compiled block, core left untouched."""
        spec, index, base = case
        T = spec.target_address
        results = []
        for source in ("summary", "compiled"):
            core = spec.build_core()
            spy = Process("spy")
            predictor = core.predictor
            rng = np.random.default_rng(state_seed)
            predictor.bimodal.pht.randomize(rng)
            predictor.gshare.pht.randomize(rng)
            predictor.ghr.set(int(rng.integers(0, 1 << predictor.ghr.length)))
            sel, bit = predictor.selector, predictor.bit
            sel.counters[T % sel.n_entries] = sel.gshare_threshold
            bit.valid[T % bit.n_sets] = True
            bit.tags[T % bit.n_sets] = (T // bit.n_sets) & bit._tag_mask
            seed = spec.seed_start + index
            if source == "summary":
                block = BlockSummary(seed, spec.block_branches, base)
            else:
                block = RandomizationBlock.generate(
                    seed, n_branches=spec.block_branches, base_address=base
                ).compile(core, spy)
            before = core.checkpoint(full=True)
            assessment = assess_block_batch(
                core, spy, block, T, plan=_plan(spec, core, index)
            )
            assert eq(before, core.checkpoint(full=True))
            results.append(assessment)
        assert results[0] == results[1]

    @pytest.mark.parametrize("n_branches", [40, 300])
    def test_silent_plan_keeps_selector_above_noise_clamp(self, n_branches):
        """Noise squeezes the selector into [0, 3]; a repetition without
        noise must not.  A chooser that starts at its maximum (above the
        clamp) on silent plans, through both phase-3 paths: 40-branch
        blocks miss the target's selector entry, and some 300-branch
        ones reset it while leaving the target identified."""
        config = dataclasses.replace(haswell().scaled(16), selector_initial=7)
        spy = Process("spy")
        for seed in range(24):
            target = 0x30_0006D + 97 * seed
            results = []
            for source in ("summary", "compiled", "scalar"):
                core = PhysicalCore(config, seed=seed)
                plan = draw_trial_plan(
                    np.random.default_rng(seed), core, repetitions=6,
                    noise=NoiseModel.silent(),
                )
                if source == "summary":
                    block = BlockSummary(seed, n_branches)
                else:
                    block = RandomizationBlock.generate(
                        seed, n_branches=n_branches
                    ).compile(core, spy)
                engine = assess_block if source == "scalar" else (
                    assess_block_batch
                )
                results.append(engine(core, spy, block, target, plan=plan))
            assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize(
        "mitigation",
        [
            StaticPredictionForSensitiveBranches(),
            PhtIndexRandomization(np.random.default_rng(5)),
            StochasticFSM(0.25),
        ],
        ids=["static", "rekey", "stochastic_fsm"],
    )
    def test_refused_on_mitigated_core(self, mitigation):
        core = PhysicalCore(haswell().scaled(16), seed=3)
        core.install_mitigation(mitigation)
        plan = draw_trial_plan(np.random.default_rng(0), core, repetitions=4)
        with pytest.raises(ValueError, match="mitigation"):
            assess_block_batch(
                core, Process("spy"), BlockSummary(1, 500), TARGET, plan=plan
            )

    def test_refused_on_unequal_fsm_specs(self):
        core = PhysicalCore(haswell().scaled(16), seed=3)
        core.predictor.gshare.pht.fsm = skylake_fsm()
        assert core.predictor.gshare.pht.fsm != core.predictor.bimodal.pht.fsm
        plan = draw_trial_plan(np.random.default_rng(0), core, repetitions=4)
        with pytest.raises(ValueError, match="unshared_structure"):
            assess_block_batch(
                core, Process("spy"), BlockSummary(1, 500), TARGET, plan=plan
            )

    def test_refused_without_plan(self):
        core = PhysicalCore(haswell().scaled(16), seed=3)
        with pytest.raises(ValueError, match="no_plan"):
            assess_block_batch(
                core, Process("spy"), BlockSummary(1, 500), TARGET,
                repetitions=4,
            )


def small_stability(workers):
    return stability_experiment(
        lambda: PhysicalCore(haswell().scaled(16), seed=6),
        0x30_0006D,
        n_blocks=8,
        block_branches=1200,
        repetitions=16,
        noise=NoiseModel.isolated(),
        workers=workers,
    )


class TestWorkerDeterminism:
    def test_stability_experiment_bit_identical(self):
        serial = small_stability(1)
        assert len(serial) == 8
        if not fork_available():
            pytest.skip("platform cannot fork workers")
        assert small_stability(4) == serial

    def test_stability_engines_agree(self):
        """The batch engine behind ``small_stability`` against the scalar
        one: same seeds, same fresh cores, same plans."""
        spy = Process("spy")
        scalar = []
        for seed in range(8):
            core = PhysicalCore(haswell().scaled(16), seed=6)
            compiled = RandomizationBlock.generate(
                seed, n_branches=1200
            ).compile(core, spy)
            plan = draw_trial_plan(
                core.rng, core, repetitions=16, noise=NoiseModel.isolated()
            )
            scalar.append(
                assess_block(core, spy, compiled, 0x30_0006D, plan=plan)
            )
        assert small_stability(1) == scalar

    @pytest.mark.skipif(
        not fork_available(), reason="platform cannot fork workers"
    )
    def test_find_block_pooled_worker_invariant(self):
        blocks = []
        for workers in (1, 3):
            core = PhysicalCore(haswell().scaled(16), seed=9)
            compiled = find_block(
                core,
                Process("spy"),
                0x30_0006D,
                DecodedState.SN,
                block_branches=2000,
                repetitions=16,
                noise=NoiseModel.isolated(),
                rng=np.random.default_rng(17),
                workers=workers,
            )
            blocks.append(compiled.block.seed)
        assert blocks[0] == blocks[1]


class TestDominantTieBreak:
    def test_tie_breaks_on_pattern_not_order(self):
        assert _dominant(["MM", "HH"]) == _dominant(["HH", "MM"])
        pattern, share = _dominant(["HH", "MM"])
        assert pattern == "MM"  # lexicographically largest among equals
        assert share == 0.5

    def test_majority_wins(self):
        assert _dominant(["HH", "HH", "MM"]) == ("HH", 2 / 3)

    def test_four_way_tie(self):
        pattern, share = _dominant(["MM", "MH", "HM", "HH"])
        assert pattern == "MM"
        assert share == 0.25
