"""Procedural context: guideline retrieval and structuring, hand-motion
textualization, and the completed-step progress record. A structured
guideline checks its step graph when it is built, so no structurer skips it.

Retrieval is plain tf-idf cosine over lowercase word tokens. It is run once
per session against a small expert-written corpus, so exact, hand-checkable
scoring matters more than throughput.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

from .httpchat import chat_complete
from .jsontext import extract_first_json, field, fields, fits
from .motion import FlowSummary

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# compass sectors, 45 degrees apiece, centered on the axes; y grows downward
DIRECTIONS = (
    "right",
    "down-right",
    "down",
    "down-left",
    "left",
    "up-left",
    "up",
    "up-right",
)
STATIONARY = "stationary"


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class GuidelineCorpus:
    """Expert task guidelines keyed by document id (file stem on disk)."""

    documents: dict[str, str]

    @classmethod
    def load(cls, directory: str | Path) -> "GuidelineCorpus":
        root = Path(directory)
        if not root.is_dir():
            raise FileNotFoundError(f"guideline corpus directory {root} does not exist")
        docs = {}
        for p in sorted(root.glob("*.txt")):
            try:
                docs[p.stem] = p.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{p}: {exc}") from None
        return cls(documents=docs)


@dataclass(frozen=True)
class RetrievalResult:
    doc_id: str
    text: str
    similarity: float
    low_confidence: bool


def retrieve_guideline(instruction: str, corpus: GuidelineCorpus) -> RetrievalResult:
    """Pick the guideline whose tf-idf vector is most similar to the instruction.

    Cosine similarity over raw term counts weighted by idf = ln(N / df).
    Ties break toward the smallest doc id; if every similarity is zero the
    lowest-id document is returned flagged low-confidence rather than failing
    the session.
    """
    if not corpus.documents:
        raise ValueError("guideline corpus is empty")
    query_tf = Counter(tokenize(instruction))
    if not query_tf:
        raise ValueError("instruction has no usable tokens")

    doc_ids = sorted(corpus.documents)
    doc_tfs = {d: Counter(tokenize(corpus.documents[d])) for d in doc_ids}
    n_docs = len(doc_ids)
    df = Counter()
    for tf in doc_tfs.values():
        df.update(set(tf))
    idf = {term: math.log(n_docs / df[term]) for term in df}

    def weight(tf: Counter) -> dict[str, float]:
        return {t: c * idf[t] for t, c in tf.items() if t in idf}

    q_vec = weight(query_tf)
    q_norm = math.sqrt(sum(v * v for v in q_vec.values()))

    best_id = doc_ids[0]
    best_sim = 0.0
    for doc_id in doc_ids:
        d_vec = weight(doc_tfs[doc_id])
        d_norm = math.sqrt(sum(v * v for v in d_vec.values()))
        if q_norm == 0.0 or d_norm == 0.0:
            sim = 0.0
        else:
            dot = sum(v * d_vec[t] for t, v in q_vec.items() if t in d_vec)
            sim = dot / (q_norm * d_norm)
        if sim > best_sim:
            best_id, best_sim = doc_id, sim
    return RetrievalResult(
        doc_id=best_id,
        text=corpus.documents[best_id],
        similarity=best_sim,
        low_confidence=best_sim == 0.0,
    )


@dataclass(frozen=True)
class GuidelineStep:
    id: int
    title: str
    details: str = ""
    prerequisites: tuple[int, ...] = ()


class GuidelineFormatError(ValueError):
    """A structured guideline violates the step-graph contract."""


@dataclass(frozen=True)
class StructuredGuideline:
    """A task label and its step graph, checked when it is built: step ids
    contiguous from 1, task and titles nonempty, prerequisites naming known
    steps and free of cycles; a breach raises GuidelineFormatError."""

    task: str
    steps: tuple[GuidelineStep, ...]

    def __post_init__(self) -> None:
        if not self.task.strip():
            raise GuidelineFormatError("guideline task label is empty")
        if not self.steps:
            raise GuidelineFormatError("guideline has no steps")
        ids = sorted(s.id for s in self.steps)
        known = range(1, len(ids) + 1)
        if ids != list(known):
            raise GuidelineFormatError(f"step ids must be contiguous from 1, got {ids}")
        for s in self.steps:
            if not s.title.strip():
                raise GuidelineFormatError(f"step {s.id} has an empty title")
            for p in s.prerequisites:  # the sorter below would take an unknown id as a new step
                if p not in known:
                    raise GuidelineFormatError(f"step {s.id} requires unknown step {p}")
        try:
            TopologicalSorter({s.id: s.prerequisites for s in self.steps}).prepare()
        except CycleError as exc:
            cycle = ", ".join(str(i) for i in exc.args[1])
            raise GuidelineFormatError(f"prerequisites are cyclic through steps {cycle}") from None

    def step_titles(self) -> list[str]:
        return [s.title for s in self.steps]

    def render(self) -> str:
        """Compact text block for the prompt's guideline slot."""
        lines = [f"Task: {self.task}", "Steps:"]
        for s in self.steps:
            line = f"{s.id}. {s.title}"
            if s.prerequisites:
                line += f" [after {', '.join(str(p) for p in s.prerequisites)}]"
            if s.details:
                line += f" :: {s.details}"
            lines.append(line)
        return "\n".join(lines)


_STEP_LINE_RE = re.compile(r"^\s*(\d+)\.\s*(.+?)\s*$")
_PREREQ_RE = re.compile(r"\[after([^\]]*)\]")


class ScriptedStructurer:
    """Parses the fixture markup convention into a structured guideline.

    Convention: an optional ``Task: <label>`` line, then numbered step lines

        3. Pour water [after 1, 2] :: Fill the mug to the brim.

    where the ``[after ...]`` prerequisite list and the ``::`` details suffix
    are both optional. Unnumbered prose lines are ignored.
    """

    def structure(self, raw: str) -> StructuredGuideline:
        task = ""
        steps: list[GuidelineStep] = []
        for line in raw.splitlines():
            stripped = line.strip()
            if stripped.lower().startswith("task:") and not task:
                task = stripped[5:].strip()
                continue
            m = _STEP_LINE_RE.match(line)
            if not m:
                continue
            step_id = int(m.group(1))
            rest = m.group(2)
            details = ""
            if "::" in rest:
                rest, details = (part.strip() for part in rest.split("::", 1))
            prereqs: tuple[int, ...] = ()
            pm = _PREREQ_RE.search(rest)
            if pm:
                body = pm.group(1).strip().lstrip(":").strip()
                prereqs = tuple(
                    int(tok) for tok in re.split(r"[,\s]+", body) if tok
                )
                rest = _PREREQ_RE.sub("", rest).strip()
            steps.append(
                GuidelineStep(
                    id=step_id, title=rest, details=details, prerequisites=prereqs
                )
            )
        if not task:
            task = "Untitled task"
        return StructuredGuideline(task=task, steps=tuple(steps))


_STRUCTURER_SYSTEM = (
    "You convert a free-form task guideline into JSON with the shape "
    '{"task": str, "steps": [{"id": int, "title": str, "details": str, '
    '"prerequisites": [int, ...]}]}. Step ids must count up from 1 in order. '
    "Reply with the JSON object only."
)
_STRUCTURER_EXAMPLE_IN = (
    "Task: Make toast\n"
    "Start by slicing the bread, then toast it, and butter it last."
)
_STRUCTURER_EXAMPLE_OUT = (
    '{"task": "Make toast", "steps": ['
    '{"id": 1, "title": "Slice the bread", "details": "", "prerequisites": []}, '
    '{"id": 2, "title": "Toast the slice", "details": "", "prerequisites": [1]}, '
    '{"id": 3, "title": "Butter the toast", "details": "", "prerequisites": [2]}]}'
)


class RemoteStructurer:
    """One-shot guideline structuring through a chat-completion endpoint."""

    def __init__(self, endpoint: str, model: str | None = None, timeout: float = 60.0):
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout

    def structure(self, raw: str) -> StructuredGuideline:
        messages = [
            {"role": "system", "content": _STRUCTURER_SYSTEM},
            {"role": "user", "content": _STRUCTURER_EXAMPLE_IN},
            {"role": "assistant", "content": _STRUCTURER_EXAMPLE_OUT},
            {"role": "user", "content": raw},
        ]
        reply = chat_complete(
            self.endpoint, messages, model=self.model, timeout=self.timeout
        )
        try:
            obj = extract_first_json(reply)
            task, entries = fields(obj, {"task": str, "steps": list}, "reply")
            steps = []
            for i, entry in enumerate(entries):
                where = f"step {i}"
                step_id, title = fields(entry, {"id": int, "title": str}, where)
                prereqs = field(entry, "prerequisites", list, where, [])
                if not all(fits(p, int) for p in prereqs):
                    raise ValueError(f"{where}: prerequisites must be integers")
                details = field(entry, "details", str, where, "")
                steps.append(GuidelineStep(step_id, title, details, tuple(prereqs)))
        except ValueError as exc:
            raise GuidelineFormatError(f"structurer reply malformed: {exc}") from exc
        return StructuredGuideline(task, tuple(steps))


def direction_name(dx: float, dy: float, stationary_threshold: float) -> str:
    """Eight-way compass name for an image-plane motion vector.

    Sectors are 45 degrees wide and centered on the compass axes; a vector on
    a sector boundary (22.5 + k*45 degrees) belongs to the lower-angle bin.
    Vectors shorter than stationary_threshold read as stationary.
    """
    if math.hypot(dx, dy) < stationary_threshold:
        return STATIONARY
    angle = math.degrees(math.atan2(dy, dx)) % 360.0
    sector = math.ceil((angle - 22.5) / 45.0 - 1e-9) % 8
    return DIRECTIONS[sector]


_NOUNS = {"left": "left hand", "right": "right hand", "scene": "camera view"}


def textualize_motion(
    flows: dict[str, FlowSummary], stationary_threshold: float = 1.0
) -> str:
    """Render a key moment's flows into the prompt's motion-cue sentence.

    Every entry is mentioned exactly once, in the order given (the detector
    orders hands left to right); a ``"scene"`` entry, measured when no hand
    is tracked, is described as camera motion.
    """
    clauses = []
    for side, flow in flows.items():
        direction = direction_name(flow.dx, flow.dy, stationary_threshold)
        if direction == STATIONARY:
            action = "remains almost stationary"
        else:
            action = f"is moving {direction}"
        clauses.append(f"the {_NOUNS.get(side, 'hand')} {action}")
    if not clauses:
        return "No hand or scene motion information is available."
    rendered = ", ".join(clauses) + "."
    return rendered[0].upper() + rendered[1:]


@dataclass(frozen=True)
class ProgressRecord:
    """Ordered, duplicate-free list of completed step titles."""

    completed: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.completed)) != len(self.completed):
            raise ValueError(f"progress record repeats a step: {self.completed}")

    def add(self, step: str) -> "ProgressRecord":
        """Record a completed step; revisits are not re-appended."""
        if step in self.completed:
            return self
        return ProgressRecord(self.completed + (step,))


def render_progress(record: ProgressRecord) -> str:
    """Bracketed, comma-joined history line for the prompt ("[]" when empty)."""
    return "[" + ", ".join(record.completed) + "]"
