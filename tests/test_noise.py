"""System noise: exact vs. vectorised equivalence, models, FSM step folding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bpu import haswell
from repro.bpu.fsm import textbook_2bit_fsm
from repro.cpu import PhysicalCore, Process
from repro.system.noise import (
    NoiseDraw,
    NoiseModel,
    apply_fsm_steps,
    apply_noise_draw,
    inject_noise,
    noise_branches,
)


class TestNoiseModel:
    def test_silent_produces_nothing(self, rng):
        model = NoiseModel.silent()
        assert all(model.gap_branches(rng) == 0 for _ in range(20))

    def test_noisy_exceeds_isolated_on_average(self, rng):
        isolated = np.mean(
            [NoiseModel.isolated().gap_branches(rng) for _ in range(300)]
        )
        noisy = np.mean(
            [NoiseModel.noisy().gap_branches(rng) for _ in range(300)]
        )
        assert noisy > isolated

    def test_quiesced_is_quietest(self, rng):
        quiesced = np.mean(
            [NoiseModel.quiesced().gap_branches(rng) for _ in range(300)]
        )
        isolated = np.mean(
            [NoiseModel.isolated().gap_branches(rng) for _ in range(300)]
        )
        assert quiesced < isolated

    def test_bursts_occur(self):
        rng = np.random.default_rng(0)
        model = NoiseModel(ambient_branches=0, burst_prob=0.5, burst_size=100)
        draws = [model.gap_branches(rng) for _ in range(200)]
        assert 0 in draws and 100 in draws


class TestNoiseBranches:
    def test_yields_requested_count(self, rng):
        branches = list(noise_branches(rng, 50))
        assert len(branches) == 50

    def test_addresses_inside_region(self, rng):
        for address, taken in noise_branches(rng, 100, region=(100, 200)):
            assert 100 <= address < 200
            assert isinstance(taken, bool)


class TestApplyFsmSteps:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 7), st.booleans()),
            max_size=80,
        )
    )
    @settings(max_examples=50)
    def test_matches_sequential_scalar_application(self, ops):
        """The vectorised fold must equal the naive per-op loop."""
        fsm = textbook_2bit_fsm()
        levels_vec = np.ones(8, dtype=np.int8)
        levels_ref = np.ones(8, dtype=np.int8)
        indices = np.array([i for i, _ in ops], dtype=np.int64)
        outcomes = np.array([t for _, t in ops], dtype=bool)
        apply_fsm_steps(levels_vec, fsm._step_arr, indices, outcomes)
        for idx, taken in ops:
            levels_ref[idx] = fsm.step(int(levels_ref[idx]), taken)
        assert (levels_vec == levels_ref).all()

    def test_empty_sequence_is_noop(self):
        fsm = textbook_2bit_fsm()
        levels = np.ones(4, dtype=np.int8)
        apply_fsm_steps(
            levels,
            fsm._step_arr,
            np.array([], dtype=np.int64),
            np.array([], dtype=bool),
        )
        assert (levels == 1).all()


class TestInjectNoise:
    def test_zero_branches_is_noop(self):
        core = PhysicalCore(haswell().scaled(16), seed=1)
        before = core.checkpoint()
        inject_noise(core, 0, core.rng)
        after = core.checkpoint()
        assert (before["predictor"]["bimodal"] == after["predictor"]["bimodal"]).all()
        assert before["clock"] == after["clock"]

    def test_perturbs_bimodal_pht(self):
        core = PhysicalCore(haswell().scaled(16), seed=1)
        before = core.predictor.bimodal.pht.snapshot()
        inject_noise(core, 5000, core.rng)
        after = core.predictor.bimodal.pht.snapshot()
        assert (before != after).any()

    def test_advances_clock(self):
        core = PhysicalCore(haswell().scaled(16), seed=1)
        inject_noise(core, 123, core.rng)
        assert core.clock.now == 123

    def test_statistically_matches_exact_path(self):
        """Fast and exact noise must push PHT entries around similarly.

        Compares the distribution of per-entry level *changes* after the
        same number of noise branches; means should agree within noise.
        """
        config = haswell().scaled(16)
        n = 4000
        deltas = {}
        for mode in ("exact", "fast"):
            core = PhysicalCore(config, seed=2)
            rng = np.random.default_rng(77)
            core.predictor.bimodal.pht.randomize(rng)
            before = core.predictor.bimodal.pht.snapshot().astype(int)
            if mode == "exact":
                noise_process = Process("noise")
                for address, taken in noise_branches(rng, n):
                    core.execute_branch(noise_process, address, taken)
            else:
                inject_noise(core, n, rng)
            after = core.predictor.bimodal.pht.snapshot().astype(int)
            deltas[mode] = np.abs(after - before).mean()
        assert deltas["fast"] == pytest.approx(deltas["exact"], rel=0.35)

    def test_randomizes_ghr(self):
        core = PhysicalCore(haswell().scaled(16), seed=1)
        values = set()
        for _ in range(10):
            inject_noise(core, 100, core.rng)
            values.add(core.predictor.ghr.value)
        assert len(values) > 3

    def test_bit_keeps_last_writer_of_repeated_sets(self):
        """A set written many times in one gap holds its last tag.

        Three sets take ~1000 writes each, every write with a different
        tag, so any duplicate other than the last would show; the table
        must equal a sequential per-branch application (as must the
        GHR).
        """
        core = PhysicalCore(haswell().scaled(16), seed=1)
        bit = core.predictor.bit
        rng = np.random.default_rng(5)
        n = 3000
        sets = rng.choice([1, 5, bit.n_sets - 1], size=n)
        tags = rng.permutation(n) % (bit._tag_mask + 1)
        addresses = (sets + tags * bit.n_sets).astype(np.int64)
        draw = NoiseDraw(
            n,
            addresses,
            rng.integers(0, 2, size=n).astype(bool),
            rng.integers(0, core.predictor.gshare.pht.n_entries, size=n),
            rng.integers(-1, 2, size=n),
        )
        reference = PhysicalCore(haswell().scaled(16), seed=1).predictor
        for address, taken in zip(addresses.tolist(), draw.outcomes):
            reference.bit.insert(address)
            reference.ghr.shift_in(taken)
        apply_noise_draw(core, draw)
        assert (bit.tags == reference.bit.tags).all()
        assert (bit.valid == reference.bit.valid).all()
        # The gap's outcome tail is the GHR a per-branch shift leaves.
        assert core.predictor.ghr.value == reference.ghr.value

    def test_can_evict_bit_entries(self):
        core = PhysicalCore(haswell().scaled(16), seed=1)
        # Insert a branch whose set lies inside the noise region's reach.
        victim = 0x7F0000000010
        core.predictor.bit.insert(victim)
        evicted = False
        for _ in range(30):
            inject_noise(core, 2000, core.rng)
            if not core.predictor.bit.contains(victim):
                evicted = True
                break
        assert evicted
