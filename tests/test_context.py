import json
import math
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepassist.context import (
    DIRECTIONS,
    GuidelineCorpus,
    GuidelineFormatError,
    GuidelineStep,
    ProgressRecord,
    RemoteStructurer,
    ScriptedStructurer,
    StructuredGuideline,
    direction_name,
    render_progress,
    retrieve_guideline,
    textualize_motion,
)
from stepassist.motion import FlowSummary

from conftest import CORPUS_DOCS
from oracles import or_any, same, with_too_deep


# Reference scorer, independent of the module under test: raw term counts
# weighted by ln(N / df), cosine similarity, ties kept at the smallest doc id.
def oracle_best_doc(instruction, docs):
    tokens = lambda s: re.findall(r"[a-z0-9]+", s.lower())
    n_docs = len(docs)
    doc_terms = {d: tokens(t) for d, t in docs.items()}
    df: dict[str, int] = {}
    for terms in doc_terms.values():
        for t in set(terms):
            df[t] = df.get(t, 0) + 1

    def vec(terms):
        counts: dict[str, int] = {}
        for t in terms:
            if t in df:
                counts[t] = counts.get(t, 0) + 1
        return {t: c * math.log(n_docs / df[t]) for t, c in counts.items()}

    q = vec(tokens(instruction))
    q_norm = math.sqrt(sum(v * v for v in q.values()))
    best, best_sim = sorted(docs)[0], 0.0
    for d in sorted(docs):
        dv = vec(doc_terms[d])
        d_norm = math.sqrt(sum(v * v for v in dv.values()))
        sim = 0.0
        if q_norm and d_norm:
            sim = sum(w * dv.get(t, 0.0) for t, w in q.items()) / (q_norm * d_norm)
        if sim > best_sim:
            best, best_sim = d, sim
    return best, best_sim


INSTRUCTIONS = {
    "brew a cup of tea": "tea",
    "fix a flat tire on my bicycle": "bike",
    "cook a fluffy omelet for breakfast": "omelet",
    "assemble the side table": "table",
    "brew a pot of strong coffee": "coffee",
}


def test_retrieval_matches_oracle_on_every_instruction():
    corpus = GuidelineCorpus(documents=dict(CORPUS_DOCS))
    for instruction, intended in INSTRUCTIONS.items():
        want_id, want_sim = oracle_best_doc(instruction, CORPUS_DOCS)
        assert want_id == intended  # the corpus was written to make these unambiguous
        got = retrieve_guideline(instruction, corpus)
        assert got.doc_id == want_id
        assert got.similarity == pytest.approx(want_sim, abs=1e-12)
        assert got.text == CORPUS_DOCS[want_id]
        assert not got.low_confidence


def test_retrieval_tie_breaks_to_the_smallest_doc_id():
    docs = {
        "c": "polish the brass lamp",
        "a": "polish the brass lamp",
        "b": "feed the cat",
    }
    got = retrieve_guideline("polish lamp", GuidelineCorpus(documents=docs))
    assert got.doc_id == "a"
    assert got.similarity > 0.0
    assert not got.low_confidence


def test_retrieval_flags_zero_similarity_as_low_confidence():
    corpus = GuidelineCorpus(documents=dict(CORPUS_DOCS))
    got = retrieve_guideline("zzzz qqqq", corpus)
    assert got.low_confidence
    assert got.similarity == 0.0
    assert got.doc_id == sorted(CORPUS_DOCS)[0]


def test_retrieval_rejects_empty_inputs():
    with pytest.raises(ValueError):
        retrieve_guideline("brew tea", GuidelineCorpus(documents={}))
    with pytest.raises(ValueError):
        retrieve_guideline("!!!", GuidelineCorpus(documents=dict(CORPUS_DOCS)))


def test_corpus_loads_from_directory(corpus_dir):
    corpus = GuidelineCorpus.load(corpus_dir)
    assert corpus.documents == CORPUS_DOCS
    with pytest.raises(FileNotFoundError):
        GuidelineCorpus.load(corpus_dir / "absent")


# -- structuring -------------------------------------------------------------


def test_scripted_structurer_parses_the_fixture_markup():
    guide = ScriptedStructurer().structure(CORPUS_DOCS["tea"])
    assert guide.task == "Brew tea"
    assert guide.step_titles() == [
        "Measure water",
        "Boil water",
        "Add tea bag",
        "Pour water",
        "Steep tea",
        "Serve tea",
    ]
    pour = guide.steps[3]
    assert pour.id == 4
    assert pour.prerequisites == (2, 3)
    assert pour.details == "Fill the cup close to the rim."
    assert guide.steps[0].prerequisites == ()
    assert guide.steps[0].details == ""


def test_scripted_structurer_ignores_prose_and_accepts_colon_prereqs():
    raw = "Task: Wash a mug\nRinse well.\n1. Soap the mug\n2. Rinse the mug [after: 1]\n"
    guide = ScriptedStructurer().structure(raw)
    assert len(guide.steps) == 2
    assert guide.steps[1].prerequisites == (1,)


def test_scripted_structurer_names_a_guideline_without_a_task_line():
    # an empty "Task:" line gives no label either
    for raw in ("1. Soap the mug\n2. Rinse the mug\n", "Task:   \n1. Soap the mug\n"):
        guide = ScriptedStructurer().structure(raw)
        assert guide.task == "Untitled task"
        assert guide.steps[0].title == "Soap the mug"
        assert guide.render().splitlines()[0] == "Task: Untitled task"


def test_render_includes_prereqs_and_details():
    text = ScriptedStructurer().structure(CORPUS_DOCS["tea"]).render()
    assert text.splitlines()[0] == "Task: Brew tea"
    assert "4. Pour water [after 2, 3] :: Fill the cup close to the rim." in text.splitlines()


def guideline(steps, task="Demo task"):
    return StructuredGuideline(task=task, steps=tuple(steps))


def test_validate_guideline_rejects_structural_defects():
    ok = GuidelineStep(id=1, title="Only step")
    with pytest.raises(GuidelineFormatError):
        guideline([ok], task="  ")
    with pytest.raises(GuidelineFormatError):
        guideline([])
    with pytest.raises(GuidelineFormatError, match="contiguous"):
        guideline([ok, GuidelineStep(id=3, title="Gap")])
    with pytest.raises(GuidelineFormatError):
        guideline([GuidelineStep(id=1, title="  ")])
    with pytest.raises(GuidelineFormatError):
        guideline([GuidelineStep(id=1, title="Lost", prerequisites=(9,))])


def test_validate_guideline_rejects_cycles():
    steps = [
        GuidelineStep(id=1, title="First", prerequisites=(2,)),
        GuidelineStep(id=2, title="Second", prerequisites=(1,)),
    ]
    with pytest.raises(GuidelineFormatError, match="cyclic"):
        guideline(steps)
    with pytest.raises(GuidelineFormatError, match="cyclic"):
        guideline([GuidelineStep(id=1, title="Self", prerequisites=(1,))])


@st.composite
def prerequisite_graphs(draw):
    """Step id -> prerequisite ids over 1-6 steps, inserted in a drawn order."""
    ids = list(range(1, draw(st.integers(1, 6)) + 1))
    prereqs = st.lists(st.sampled_from(ids), unique=True, max_size=len(ids)).map(tuple)
    return {i: draw(prereqs) for i in draw(st.permutations(ids))}


def reaches_itself(graph):
    """Warshall's transitive closure: some step is its own (indirect) prerequisite."""
    reach = {i: set(ps) for i, ps in graph.items()}
    for k in graph:
        for i in graph:
            if k in reach[i]:
                reach[i] |= reach[k]
    return any(i in reach[i] for i in graph)


@settings(max_examples=300, deadline=None)
@given(prerequisite_graphs())
def test_guideline_is_refused_exactly_when_prerequisites_are_cyclic(graph):
    steps = [GuidelineStep(id=i, title=f"Step {i}", prerequisites=ps) for i, ps in graph.items()]
    if reaches_itself(graph):
        with pytest.raises(GuidelineFormatError, match="cyclic"):
            guideline(steps)
    else:
        assert guideline(steps).steps == tuple(steps)


def structure_reply(text):
    """RemoteStructurer.structure with the endpoint replying ``text``."""
    with mock.patch("stepassist.context.chat_complete", return_value=text):
        return RemoteStructurer("http://127.0.0.1:9/chat").structure("raw guideline")


@pytest.mark.parametrize(
    "steps, message",
    [
        ([{"id": 1.9, "title": 5}], "id must be an integer, got 1.9"),
        ([{"id": 1, "title": 5}], "title must be a string, got 5"),
        ([{"id": "1", "title": "Boil"}], "id must be an integer, got '1'"),
        ([{"id": 1, "title": "Boil"}, {"id": 2, "title": "Steep", "prerequisites": [True]}],
         "step 1: prerequisites must be integers"),
        ([{"id": 1, "title": "Boil", "details": 3}], "details must be a string"),
        ([{"id": 1, "title": "Boil", "prerequisites": 1}], "prerequisites must be a JSON array"),
        ([5], "step 0 must be a JSON object"),
    ],
)
def test_structurer_refuses_a_reply_field_of_the_wrong_type(steps, message):
    with pytest.raises(GuidelineFormatError, match=re.escape(message)):
        structure_reply(json.dumps({"task": "Brew tea", "steps": steps}))


def test_structurer_reads_an_absent_or_null_optional_field_as_empty():
    steps = [{"id": 1, "title": "Boil", "details": None}, {"id": 2, "title": "Steep",
                                                          "prerequisites": None}]
    guide = structure_reply(json.dumps({"task": "Brew tea", "steps": steps}))
    assert [(s.details, s.prerequisites) for s in guide.steps] == [("", ()), ("", ())]


step_entries = st.fixed_dictionaries(
    {},
    optional={
        "id": or_any(st.integers(1, 3)),
        "title": or_any(st.text(min_size=1, max_size=6)),
        "details": or_any(st.none() | st.text(max_size=6)),
        "prerequisites": or_any(st.none() | st.lists(or_any(st.integers(1, 3)), max_size=2)),
    },
)
structured_replies = st.fixed_dictionaries(
    {},
    optional={
        "task": or_any(st.text(min_size=1, max_size=6)),
        "steps": or_any(st.lists(step_entries, max_size=3)),
    },
)


@settings(max_examples=300, deadline=None)
@given(obj=structured_replies, deep=st.booleans())
@example(obj={"task": "T", "steps": [{"id": 1, "title": "A"},
                                     {"id": 2, "title": "B", "details": "d", "prerequisites": [1]}]},
         deep=False)
def test_structurer_returns_the_reply_values_unchanged_or_refuses(obj, deep):
    text = with_too_deep(obj, "extra") if deep else json.dumps(obj)
    try:
        guide = structure_reply(text)
    except GuidelineFormatError:
        return
    assert not deep
    assert same(guide.task, obj["task"])
    assert len(guide.steps) == len(obj["steps"])
    for got, want in zip(guide.steps, obj["steps"]):
        assert same(got.id, want["id"]) and same(got.title, want["title"])
        assert same(got.details, "" if want.get("details") is None else want["details"])
        prereqs = want.get("prerequisites") or []
        assert len(got.prerequisites) == len(prereqs)
        assert all(same(a, b) for a, b in zip(got.prerequisites, prereqs))


# -- motion textualization ----------------------------------------------------


def flow(dx, dy):
    return FlowSummary(dx, dy, math.hypot(dx, dy), 9, 9)


def test_direction_name_covers_all_eight_sectors():
    probes = [
        ((7, 0), "right"),
        ((5, 5), "down-right"),
        ((0, 7), "down"),
        ((-5, 5), "down-left"),
        ((-3, 0), "left"),
        ((-5, -5), "up-left"),
        ((0, -7), "up"),
        ((5, -5), "up-right"),
    ]
    assert [name for _, name in probes] == list(DIRECTIONS)
    for (dx, dy), want in probes:
        assert direction_name(dx, dy, 1.0) == want


def test_direction_boundary_belongs_to_the_lower_sector():
    angle = math.radians(22.5)
    assert direction_name(10 * math.cos(angle), 10 * math.sin(angle), 1.0) == "right"
    angle = math.radians(67.5)
    assert direction_name(10 * math.cos(angle), 10 * math.sin(angle), 1.0) == "down-right"


def test_stationary_threshold_is_strict():
    assert direction_name(0.5, 0.0, 1.0) == "stationary"
    assert direction_name(1.0, 0.0, 1.0) == "right"


def test_two_hand_sentence_is_exact():
    cue = textualize_motion({"left": flow(5, 5), "right": flow(0.3, 0.0)})
    assert cue == (
        "The left hand is moving down-right, the right hand remains almost stationary."
    )


def test_scene_clause_used_only_without_hands():
    assert textualize_motion({"scene": flow(-4, 0)}) == "The camera view is moving left."
    assert textualize_motion({"scene": flow(0.2, 0)}) == (
        "The camera view remains almost stationary."
    )


def test_unknown_side_renders_plain_hand_noun():
    assert textualize_motion({"unknown": flow(0, 5)}) == "The hand is moving down."


def test_missing_motion_fallback_sentence():
    assert textualize_motion({}) == "No hand or scene motion information is available."


def test_clause_order_follows_detector_order():
    cue = textualize_motion({"right": flow(7, 0), "left": flow(-7, 0)})
    assert cue == "The right hand is moving right, the left hand is moving left."


# -- progress record ----------------------------------------------------------


def test_progress_record_appends_without_duplicates():
    rec = ProgressRecord()
    rec = rec.add("Measure water").add("Boil water")
    assert rec.completed == ("Measure water", "Boil water")
    again = rec.add("Measure water")
    assert again is rec  # revisit leaves the record untouched


def test_progress_record_rejects_constructed_duplicates():
    with pytest.raises(ValueError):
        ProgressRecord(("A", "A"))


def test_render_progress_formats():
    assert render_progress(ProgressRecord()) == "[]"
    rec = ProgressRecord(("Measure water", "Boil water"))
    assert render_progress(rec) == "[Measure water, Boil water]"
