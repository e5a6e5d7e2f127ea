"""Tests for IC3Options profiles and validation."""

import dataclasses

import pytest

from repro.core import IC3Options
from repro.core.options import GeneralizationStrategy, LiteralOrdering


class TestDefaults:
    def test_prediction_off_by_default(self):
        assert IC3Options().enable_prediction is False

    def test_defaults_are_valid(self):
        IC3Options().validate()

    def test_with_prediction_returns_copy(self):
        base = IC3Options()
        predicted = base.with_prediction()
        assert predicted.enable_prediction is True
        assert base.enable_prediction is False
        assert predicted is not base

    def test_with_prediction_preserves_other_fields(self):
        base = IC3Options(literal_ordering=LiteralOrdering.ACTIVITY, ctg_depth=2)
        predicted = base.with_prediction()
        assert predicted.literal_ordering == LiteralOrdering.ACTIVITY
        assert predicted.ctg_depth == 2


class TestProfiles:
    def test_all_profiles_valid(self):
        for profile in (
            IC3Options.profile_ic3_a(),
            IC3Options.profile_ic3_b(),
            IC3Options.profile_cav23(),
            IC3Options.profile_pdr(),
        ):
            profile.validate()

    def test_profiles_differ(self):
        a = IC3Options.profile_ic3_a()
        b = IC3Options.profile_ic3_b()
        assert a != b

    def test_cav23_uses_parent_ordering(self):
        assert (
            IC3Options.profile_cav23().generalization
            == GeneralizationStrategy.PARENT_ORDERED
        )

    def test_pdr_uses_ctg(self):
        assert IC3Options.profile_pdr().generalization == GeneralizationStrategy.CTG

    def test_no_profile_enables_prediction(self):
        for profile in (
            IC3Options.profile_ic3_a(),
            IC3Options.profile_ic3_b(),
            IC3Options.profile_cav23(),
            IC3Options.profile_pdr(),
        ):
            assert profile.enable_prediction is False


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_prediction_candidates", 0),
            ("mic_max_rounds", 0),
            ("ctg_depth", -1),
            ("max_ctgs", -1),
            ("max_frames", 0),
            ("solver_rebuild_interval", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        options = dataclasses.replace(IC3Options(), **{field: value})
        with pytest.raises(ValueError):
            options.validate()

    def test_retired_sat_backend_option_rejected(self):
        # One production SAT kernel: the kernel is no longer an option.
        with pytest.raises(TypeError):
            IC3Options(sat_backend="arena")

    def test_enums_accept_string_values(self):
        assert GeneralizationStrategy("ctg") == GeneralizationStrategy.CTG
        assert LiteralOrdering("activity") == LiteralOrdering.ACTIVITY
