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
        base = IC3Options(literal_ordering=LiteralOrdering.ACTIVITY, seed=2)
        predicted = base.with_prediction()
        assert predicted.literal_ordering == LiteralOrdering.ACTIVITY
        assert predicted.seed == 2

    def test_only_the_varied_settings_are_options(self):
        # Settings no configuration varies (the CTP-table policy, the
        # prediction, MIC and CTG bounds, the limits, the retired SAT
        # kernel choice) are code, not options.
        assert [f.name for f in dataclasses.fields(IC3Options)] == [
            "enable_prediction",
            "generalization",
            "literal_ordering",
            "enable_lifting",
            "aggressive_push",
            "seed",
        ]
        assert list(LiteralOrdering) == [LiteralOrdering.INDEX, LiteralOrdering.ACTIVITY]


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
    @pytest.mark.parametrize("field,value", [("seed", -1)])
    def test_invalid_values_rejected(self, field, value):
        options = dataclasses.replace(IC3Options(), **{field: value})
        with pytest.raises(ValueError):
            options.validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", 0),
            ("seed", 7),
        ],
    )
    def test_valid_values_accepted(self, field, value):
        dataclasses.replace(IC3Options(), **{field: value}).validate()

    @pytest.mark.parametrize(
        "field",
        [
            "clear_ctp_before_propagation",
            "refine_diff_set",
            "max_prediction_candidates",
            "use_unsat_core_shrinking",
            "mic_max_rounds",
            "ctg_depth",
            "max_ctgs",
            "max_frames",
            "max_obligations",
            "solver_rebuild_interval",
            "check_predicted_lemmas",
            "verbose",
        ],
    )
    def test_settings_written_as_code_are_rejected(self, field):
        # A caller still passing one of these gets an error, not a
        # setting that is silently ignored.
        with pytest.raises(TypeError):
            IC3Options(**{field: 1})

    def test_retired_sat_backend_option_rejected(self):
        # One production SAT kernel: the kernel is no longer an option.
        with pytest.raises(TypeError):
            IC3Options(sat_backend="arena")

    def test_retired_frame_backend_option_rejected(self):
        # One production frame substrate: it is no longer an option.
        with pytest.raises(TypeError, match="frame_backend"):
            IC3Options(frame_backend="monolithic")

    def test_reverse_index_ordering_rejected(self):
        with pytest.raises(ValueError):
            LiteralOrdering("reverse-index")

    def test_enums_accept_string_values(self):
        assert GeneralizationStrategy("ctg") == GeneralizationStrategy.CTG
        assert LiteralOrdering("activity") == LiteralOrdering.ACTIVITY
