"""Tests for FaultSpec / FaultPlan: validation, seeding, day windows."""

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec


class TestFaultSpec:
    def test_defaults_disabled(self):
        spec = FaultSpec()
        assert not spec.enabled
        assert spec.active_on(0) and spec.active_on(99)

    @pytest.mark.parametrize("probability", [-0.1, 1.1, 2.0])
    def test_probability_validated(self, probability):
        with pytest.raises(ValueError):
            FaultSpec(probability=probability)

    def test_days_normalised_to_int_tuple(self):
        spec = FaultSpec(0.5, days=[1, 3.0])
        assert spec.days == (1, 3)
        assert spec.active_on(1) and spec.active_on(3)
        assert not spec.active_on(2)

    def test_fires_requires_explicit_rng(self):
        with pytest.raises(ValueError, match="explicit rng"):
            FaultSpec(0.5).fires(None, 0)

    def test_disabled_spec_never_fires_and_draws_nothing(self):
        rng = np.random.default_rng(0)
        assert not FaultSpec(0.0).fires(rng, 0)
        # No draw was consumed: the stream matches a fresh generator.
        assert float(rng.random()) == float(np.random.default_rng(0).random())

    def test_certain_spec_fires_without_consuming_a_draw(self):
        rng = np.random.default_rng(0)
        assert FaultSpec(1.0).fires(rng, 0)
        assert float(rng.random()) == float(np.random.default_rng(0).random())

    def test_out_of_window_day_draws_nothing(self):
        rng = np.random.default_rng(0)
        assert not FaultSpec(0.9, days=(2,)).fires(rng, 1)
        assert float(rng.random()) == float(np.random.default_rng(0).random())

    def test_firing_sequence_is_seeded(self):
        spec = FaultSpec(0.5)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        sequence_a = [spec.fires(rng_a, 0) for _ in range(64)]
        sequence_b = [spec.fires(rng_b, 0) for _ in range(64)]
        assert sequence_a == sequence_b
        assert any(sequence_a) and not all(sequence_a)


class TestFaultPlan:
    def test_defaults_are_clean(self):
        plan = FaultPlan()
        assert plan.describe() == "clean"

    def test_any_enabled_and_describe(self):
        plan = FaultPlan(
            transport_loss=FaultSpec(0.2),
            overload=FaultSpec(1.0, days=(1, 2)),
        )
        described = plan.describe()
        assert "transport_loss=0.2" in described
        assert "overload=1@days(1, 2)" in described

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(overload_retry_after_s=0.0)
        with pytest.raises(ValueError):
            FaultPlan(retry_budget=-1)
        with pytest.raises(ValueError):
            FaultPlan(dedup_window=0)
