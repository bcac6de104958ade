"""Shared engine-support conditions (:mod:`repro.core.support`).

Each vectorised engine gates itself on the same condition families —
observation hooks, timing/plan, shared structure — through the reason
functions of this one module, so the unit tests pin the reasons
directly and then cross-check that the engines' historical entry points
still re-export them.
"""

import numpy as np
import pytest

from repro.bpu.presets import haswell, oryon_like
from repro.core.support import (
    batch_assess_fallback_reason,
    batch_scan_fallback_reason,
    manycore_fallback_reason,
    observation_hooks_clean,
    scalar_engine_forced,
)
from repro.cpu.core import PhysicalCore
from repro.cpu.timing import TimingModel
from repro.mitigations.noisy_counters import NoisyPerformanceCounters
from repro.mitigations.pht_randomization import PhtIndexRandomization
from repro.mitigations.static_prediction import (
    StaticPredictionForSensitiveBranches,
)
from repro.mitigations.stochastic_fsm import StochasticFSM


def _core(factory=haswell, **kwargs):
    return PhysicalCore(factory().scaled(16), seed=3, **kwargs)


class TestObservationHooks:
    def test_clean_core(self):
        assert observation_hooks_clean(_core())

    def test_index_hooks_do_not_disqualify(self):
        core = _core()
        core.install_mitigation(
            PhtIndexRandomization(np.random.default_rng(1))
        )
        core.install_mitigation(StaticPredictionForSensitiveBranches())
        assert observation_hooks_clean(core)

    @pytest.mark.parametrize(
        "mitigation",
        [
            lambda: NoisyPerformanceCounters(magnitude=2),
            lambda: StochasticFSM(flip_prob=0.1),
        ],
        ids=["noisy_counters", "stochastic_fsm"],
    )
    def test_observation_hooks_disqualify(self, mitigation):
        core = _core()
        core.install_mitigation(mitigation())
        assert not observation_hooks_clean(core)
        assert batch_scan_fallback_reason(core) == "mitigation"


class TestIndexHash:
    def test_fold_preset_takes_every_fast_path(self):
        core = _core(oryon_like)
        assert (
            batch_scan_fallback_reason(core),
            batch_assess_fallback_reason(core),
            manycore_fallback_reason(core),
        ) == (None, None, None)


class TestTimingAndPlan:
    def test_base_timing_supported(self):
        core = _core()
        assert batch_assess_fallback_reason(core) is None

    def test_custom_timing_needs_a_plan(self):
        class SlowTiming(TimingModel):
            pass

        core = _core(timing=SlowTiming())
        assert batch_assess_fallback_reason(core) == "custom_timing"
        # A pre-drawn plan removes the sampling concern entirely.
        assert batch_assess_fallback_reason(core, plan=object()) is None
        # find_block's gate mirrors this: pooled runs pre-draw plans.
        assert scalar_engine_forced(core, pooled=False)
        assert not scalar_engine_forced(core, pooled=True)


class TestManycore:
    def test_clean_core_supported(self):
        assert manycore_fallback_reason(_core()) is None

    def test_any_mitigation_disqualifies(self):
        core = _core()
        core.install_mitigation(StaticPredictionForSensitiveBranches())
        assert manycore_fallback_reason(core) == "mitigation"

    def test_empty_noise_gap_disqualifies(self):
        core = _core()
        assert manycore_fallback_reason(core, np.array([3, 2, 1])) is None
        assert (
            manycore_fallback_reason(core, np.array([3, 0, 1]))
            == "unshared_structure"
        )


class TestReExports:
    """The engines' historical entry points resolve to the shared home."""

    def test_batch_probe_reexport(self):
        from repro.core import batch_probe

        assert (
            batch_probe.batch_scan_fallback_reason
            is batch_scan_fallback_reason
        )

    def test_core_package_reexport(self):
        from repro import core

        assert core.batch_scan_fallback_reason is batch_scan_fallback_reason
        assert (
            core.batch_assess_fallback_reason is batch_assess_fallback_reason
        )
        assert core.manycore_fallback_reason is manycore_fallback_reason
