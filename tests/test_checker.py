import pytest

from stepassist.checker import (
    CheckerConfig,
    CheckerState,
    DeliveryDecision,
    SuppressReason,
    update,
)
from stepassist.context import ProgressRecord
from stepassist.reasoner import ExecutionStatus, ReasonerOutput

from oracles import inferred_step_sequence

IP = ExecutionStatus.IN_PROGRESS
JS = ExecutionStatus.JUST_START


def out(step, status=IP, proactive=False, response=None):
    if proactive and response is None:
        response = f"Guidance for {step}."
    return ReasonerOutput(step=step, status=status, proactive=proactive, response=response)


def fold(steps, cfg=CheckerConfig(), state=CheckerState()):
    decisions = []
    for s in steps:
        state, d = update(state, out(s), cfg)
        decisions.append(d)
    return state, decisions


# -- step-identity smoothing (defaults: window 6, tau_c 0.5, min_window 3) ----


def test_first_prediction_becomes_active_unconditionally():
    state, (d,) = fold(["A"])
    assert state.active_step == "A"
    assert state.window_buf == ("A",)
    assert state.history.completed == ()
    assert not d.transitioned


def test_isolated_misprediction_is_a_no_op():
    state, decisions = fold(["A", "A", "A", "X", "A", "A"])
    assert state.active_step == "A"
    assert state.history.completed == ()
    assert not any(d.transitioned for d in decisions)


def test_transition_requires_strict_majority_over_the_tie():
    # at the sixth prediction the window ties 3-3 and the active step holds;
    # the seventh gives the new step four of six and flips the state
    state, decisions = fold(["A", "A", "A", "B", "B", "B", "B"])
    assert [d.transitioned for d in decisions] == [False] * 6 + [True]
    assert state.active_step == "B"
    assert state.history.completed == ("A",)


def test_min_window_blocks_early_transitions():
    cfg = CheckerConfig(window=6, tau_c=0.5, min_window=4)
    state, decisions = fold(["A", "B", "B", "B"], cfg)
    # B dominates from the third prediction on, but the window is too short
    assert [d.transitioned for d in decisions] == [False, False, False, True]
    assert state.active_step == "B"


def test_eviction_keeps_only_the_last_window_entries():
    state, decisions = fold(["A"] * 6 + ["B"] * 4)
    assert [d.transitioned for d in decisions].count(True) == 1
    assert decisions[9].transitioned
    assert state.window_buf == ("A", "A", "B", "B", "B", "B")
    assert state.active_step == "B"


def test_stale_majority_transitions_even_on_a_matching_prediction():
    # the window already favors B; the incoming prediction saying A cannot
    # hold the old step once B occupies four of six slots
    state = CheckerState(window_buf=("B", "B", "B", "B", "A"), active_step="A")
    new_state, decision = update(state, out("A"))
    assert decision.transitioned
    assert new_state.active_step == "B"
    assert new_state.history.completed == ("A",)
    assert new_state.window_buf == ("B", "B", "B", "B", "A", "A")  # never cleared


def test_tie_without_active_goes_to_the_most_recent_tied_step():
    state = CheckerState(window_buf=("C", "C", "B"), active_step="A")
    new_state, decision = update(state, out("B"))
    assert decision.transitioned
    assert new_state.active_step == "B"
    assert new_state.history.completed == ("A",)


def test_revisited_step_is_not_appended_twice():
    state = CheckerState(
        window_buf=("A", "A"), active_step="B", history=ProgressRecord(("A",))
    )
    state, decision = update(state, out("A"))  # window (A, A, A) flips back to A
    assert decision.transitioned
    assert state.active_step == "A"
    assert state.history.completed == ("A", "B")
    state, _ = fold(["B", "B", "B", "B"], state=state)
    assert state.active_step == "B"
    assert state.history.completed == ("A", "B")  # B not re-appended
    assert inferred_step_sequence(state) == ("A", "B")


def test_alternating_predictions_never_transition():
    state, decisions = fold(["A", "B"] * 6)
    assert not any(d.transitioned for d in decisions)
    assert state.active_step == "A"
    assert state.history.completed == ()


def test_single_slot_window_flaps_and_pollutes_history():
    # the degenerate configuration the smoothing exists to avoid
    cfg = CheckerConfig(window=1, tau_c=0.5, min_window=1)
    state, decisions = fold(["A", "X", "A"], cfg)
    assert [d.transitioned for d in decisions] == [False, True, True]
    assert state.history.completed == ("A", "X")
    assert inferred_step_sequence(state) == ("A", "X")


def test_corrupted_opening_prediction_poisons_the_history():
    # the first prediction is adopted sight unseen, so a wrong opening step
    # ends up at history position 0 forever once the real step takes over;
    # noisy-run fixtures therefore keep their opening moment clean
    state, decisions = fold(["X", "A", "A", "A"])
    assert decisions[2].transitioned
    assert state.active_step == "A"
    assert state.history.completed == ("X",)
    assert inferred_step_sequence(state) == ("X", "A")


# -- delivery gating -----------------------------------------------------------


def test_non_proactive_output_is_suppressed_even_on_transition():
    state = CheckerState(window_buf=("B", "B", "B", "B", "A"), active_step="A")
    _, decision = update(state, out("A", proactive=False))
    assert decision.transitioned
    assert not decision.deliver
    assert decision.suppress_reason is SuppressReason.NO_PROACTIVE_NEED
    assert decision.response is None


def test_proactive_output_delivers_its_response():
    _, decision = update(CheckerState(), out("A", JS, proactive=True, response="Start A."))
    assert decision.deliver
    assert decision.response == "Start A."
    assert decision.suppress_reason is None


def test_repeated_state_is_suppressed_until_it_changes():
    state = CheckerState()
    state, first = update(state, out("A", JS, proactive=True))
    state, second = update(state, out("A", JS, proactive=True))
    state, third = update(state, out("A", IP, proactive=True))
    state, fourth = update(state, out("A", IP, proactive=True))
    assert first.deliver
    assert second.suppress_reason is SuppressReason.REDUNDANT_STATE
    assert third.deliver  # same step, new status
    assert fourth.suppress_reason is SuppressReason.REDUNDANT_STATE


def test_prev_state_updates_on_suppressed_moments_too():
    state = CheckerState()
    state, _ = update(state, out("A", JS, proactive=True))
    state, quiet = update(state, out("A", IP, proactive=False))
    assert quiet.suppress_reason is SuppressReason.NO_PROACTIVE_NEED
    assert (state.prev_step, state.prev_status) == ("A", IP)
    _, repeat = update(state, out("A", IP, proactive=True))
    assert repeat.suppress_reason is SuppressReason.REDUNDANT_STATE


def test_update_is_pure():
    state = CheckerState()
    o = out("A", JS, proactive=True)
    first = update(state, o)
    second = update(state, o)
    assert first == second
    assert state == CheckerState()


# -- contracts -----------------------------------------------------------------


def test_checker_config_validation():
    with pytest.raises(ValueError):
        CheckerConfig(window=0)
    with pytest.raises(ValueError):
        CheckerConfig(tau_c=0.0)
    with pytest.raises(ValueError):
        CheckerConfig(tau_c=1.1)
    with pytest.raises(ValueError):
        CheckerConfig(min_window=0)
    with pytest.raises(ValueError):
        CheckerConfig(window=4, min_window=5)
    CheckerConfig(tau_c=1.0)  # inclusive upper bound


def test_delivery_decision_invariant():
    with pytest.raises(ValueError):
        DeliveryDecision(deliver=True, suppress_reason=SuppressReason.NO_PROACTIVE_NEED)
    with pytest.raises(ValueError):
        DeliveryDecision(deliver=False)


def test_inferred_step_sequence_shapes():
    assert inferred_step_sequence(CheckerState()) == ()
    assert inferred_step_sequence(CheckerState(active_step="A")) == ("A",)
    state = CheckerState(active_step="C", history=ProgressRecord(("A", "B")))
    assert inferred_step_sequence(state) == ("A", "B", "C")
