"""Property selection semantics of the transition system (AIGER 1.9).

Bads take precedence over outputs (with a warning when both exist), and
property-index errors name what the model actually declares.
"""

import warnings

import pytest

from repro.aiger.aig import AIG
from repro.reduce.base import no_properties_message, selected_bads
from repro.ts.system import (
    EncodingError,
    PropertySelectionWarning,
    TransitionSystem,
    select_bads,
)


def _model(bads=0, outputs=0, justice=0):
    aig = AIG()
    x = aig.add_latch(init=0)
    aig.set_latch_next(x, aig.negate(x))
    for _ in range(bads):
        aig.add_bad(x)
    for _ in range(outputs):
        aig.add_output(x)
    for _ in range(justice):
        aig.add_justice([x])
    return aig


class TestPrecedence:
    def test_warns_when_both_bads_and_outputs(self):
        with pytest.warns(PropertySelectionWarning):
            select_bads(_model(bads=1, outputs=2))

    def test_bads_win(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PropertySelectionWarning)
            aig = _model(bads=2, outputs=3)
            assert select_bads(aig) == aig.bads

    def test_no_warning_without_ambiguity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PropertySelectionWarning)
            select_bads(_model(bads=1))
            select_bads(_model(outputs=1))

    def test_no_warning_when_fallback_disabled(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PropertySelectionWarning)
            assert select_bads(
                _model(bads=1, outputs=1), use_outputs_as_bad=False
            ) == _model(bads=1).bads

    def test_transition_system_warning_can_be_opted_out(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PropertySelectionWarning)
            TransitionSystem(_model(bads=1, outputs=1), warn_on_ambiguity=False)


class TestPropertyIndexErrors:
    def test_error_lists_declared_count_and_valid_range(self):
        with pytest.raises(EncodingError) as excinfo:
            TransitionSystem(_model(bads=2), property_index=5)
        message = str(excinfo.value)
        assert "2 bad properties" in message
        assert "0..1" in message

    def test_error_mentions_output_fallback(self):
        with pytest.raises(EncodingError) as excinfo:
            TransitionSystem(_model(outputs=1), property_index=3)
        assert "outputs (read as bads)" in str(excinfo.value)

    def test_justice_only_model_has_no_safety_property(self):
        with pytest.raises(EncodingError, match="neither bad states nor outputs"):
            TransitionSystem(_model(justice=1))

    @pytest.mark.parametrize(
        "justice, text",
        [(1, "its 1 justice property is parsed"), (2, "its 2 justice properties are parsed")],
    )
    def test_usage_error_says_justice_is_not_checked(self, justice, text):
        message = no_properties_message(_model(justice=justice))
        assert text in message and "not checked" in message
        assert "justice" not in no_properties_message(_model())


class TestCliNumbering:
    """``selected_bads`` numbers the properties for ``check``/``reduce``.

    It must agree with the transition system's own selection, so that
    property N on the command line is property N of the engine.
    """

    @pytest.mark.parametrize(
        "bads, outputs, justice",
        [(1, 0, 0), (0, 2, 0), (2, 3, 0), (0, 0, 1), (1, 1, 2), (0, 0, 0)],
    )
    def test_agrees_with_the_transition_system(self, bads, outputs, justice):
        aig = _model(bads=bads, outputs=outputs, justice=justice)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PropertySelectionWarning)
            assert selected_bads(aig) == select_bads(aig)
        assert len(selected_bads(aig)) == (bads or outputs)
