"""Pipeline configuration: one file, strict validation, flag overrides on top.

Everything tunable lives here so a run is reproducible from its config dict.
Unknown keys are rejected rather than ignored; a typo should fail at startup,
not silently run with a default. Each spec checks its own rules when it is
built, so a run never trips over a bad config mid-session.
"""
from __future__ import annotations

import dataclasses
import math
import os
import typing
from dataclasses import dataclass
from typing import Any

from ..checker import CheckerConfig
from ..context import GuidelineCorpus
from ..httpchat import parse_endpoint
from ..jsontext import fits, shown
from ..motion import FlowConfig
from ..perception import KeyMomentConfig, SamplerConfig
from ..reasoner import OracleConfig

REASONER_KINDS = ("oracle", "remote")
DETECTOR_KINDS = ("annotation", "synthetic", "null")


def _check_timeout(owner: str, timeout: float) -> None:
    """A socket timeout is a positive, finite number of seconds."""
    if not timeout > 0:
        raise ValueError(f"{owner} timeout must be positive, got {shown(timeout)}")
    if not math.isfinite(timeout):  # settimeout overflows on inf
        raise ValueError(f"{owner} timeout must be finite, got {shown(timeout)}")


@dataclass(frozen=True)
class ReasonerSpec:
    kind: str = "oracle"
    oracle: OracleConfig = OracleConfig()
    endpoint: str | None = None
    model: str | None = None
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in REASONER_KINDS:
            raise ValueError(f"reasoner kind must be one of {REASONER_KINDS}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote reasoner requires an endpoint")
        if self.endpoint:
            parse_endpoint(self.endpoint)
        _check_timeout("reasoner", self.timeout)


@dataclass(frozen=True)
class DetectorSpec:
    kind: str = "annotation"

    def __post_init__(self) -> None:
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"detector kind must be one of {DETECTOR_KINDS}")


@dataclass(frozen=True)
class StructurerSpec:
    endpoint: str | None = None
    model: str | None = None
    timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.endpoint:
            parse_endpoint(self.endpoint)
        _check_timeout("structurer", self.timeout)


@dataclass(frozen=True)
class PipelineConfig:
    sampler: SamplerConfig = SamplerConfig()
    key_moment: KeyMomentConfig = KeyMomentConfig()
    flow: FlowConfig = FlowConfig()
    checker: CheckerConfig = CheckerConfig()
    reasoner: ReasonerSpec = ReasonerSpec()
    detector: DetectorSpec = DetectorSpec()
    structurer: StructurerSpec = StructurerSpec()
    corpus_dir: str | None = None

    def __post_init__(self) -> None:
        # os.path.isdir, not Path.is_dir: a name too long to look up is absent, not an OSError
        if self.corpus_dir is not None and not os.path.isdir(self.corpus_dir):
            raise ValueError(f"corpus directory {shown(self.corpus_dir)} does not exist")
        if self.corpus_dir is not None and not GuidelineCorpus.load(self.corpus_dir).documents:
            raise ValueError(f"corpus directory {shown(self.corpus_dir)} holds no guideline")


def _build(cls: type, obj: Any, path: str, over: dict[str, Any]) -> Any:
    """Build dataclass ``cls`` from a JSON object with ``over``'s values laid over
    its own; a dict given for a dataclass-typed field builds that field, and every
    other value must fit its field's annotated type."""
    if not isinstance(obj, dict):
        where = f" {path}" if path else ""
        raise ValueError(f"config{where} must be an object, got {shown(obj)}")
    types = typing.get_type_hints(cls)  # one per dataclass field
    kwargs: dict[str, Any] = {}
    for key in {**obj, **over}:
        name = f"{path}.{key}" if path else key
        if key not in types:
            raise ValueError(f"unknown config key {shown(name)}")
        tp, value = types[key], over[key] if key in over else obj[key]
        if dataclasses.is_dataclass(tp):
            value = _build(tp, obj.get(key, {}), name, over.get(key, {}))
        elif not any(fits(value, t) for t in typing.get_args(tp) or (tp,)):  # X | None
            want = getattr(tp, "__name__", tp)
            raise ValueError(f"config key {name} must be {want}, got {shown(value)}")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"config key {name} must be finite, got {shown(value)}")
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(obj: Any, over: dict[str, Any] | None = None) -> PipelineConfig:
    """The config a JSON object gives, with ``over``, nested alike, laid over it."""
    return _build(PipelineConfig, obj, "", over or {})
