"""Reading JSON values by type, and pulling a JSON object out of model text.

Every JSON value from outside the program is read by one rule, ``fits``: a
value is checked, never converted, and only an integer passes for a float. A
refusal shows an outside value by one rule, ``shown``: its repr cut to 40 characters."""
from __future__ import annotations

import json
from typing import Any

_DECODER = json.JSONDecoder()
_MISSING = object()
TOO_DEEP = "JSON nested too deeply to decode"

_JSON_TYPES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
               list: "a JSON array", dict: "a JSON object"}


def shown(value: Any) -> str:
    """How a refusal shows a value from outside: its repr, cut to 40 characters."""
    return f"{value!r:.40}"


def fits(value: Any, tp: type) -> bool:
    """An int fits a float field too; a bool fits only a bool field."""
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def field(obj: dict, key: str, tp: type, where: str = "", default: Any = _MISSING) -> Any:
    """``obj[key]`` if it fits ``tp``, an integer read for a float as a float. With a
    ``default``, a key that is absent or null reads as the default. Raises
    ValueError naming the key (after ``where``, naming ``obj``, if given) if it
    is missing, does not fit, or overflows a float."""
    value = obj.get(key)
    if value is None and default is not _MISSING:
        return default
    if key not in obj:
        raise ValueError(f"{where} missing key {key!r}".lstrip())
    try:
        if fits(value, tp):
            return float(value) if tp is float else value
    except OverflowError:
        pass
    name = f"{where}: {key}" if where else key
    raise ValueError(f"{name} must be {_JSON_TYPES[tp]}, got {shown(value)}")


def fields(obj: Any, spec: dict[str, type], where: str = "") -> list[Any]:
    """``field`` of each key of ``spec`` in turn; ``obj`` must be a JSON object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    values = []
    for key, tp in spec.items():  # a loop: cheaper per wire record than a comprehension
        value = obj.get(key)
        values.append(value if type(value) is tp else field(obj, key, tp, where))
    return values


def loads(text: str) -> Any:
    """``json.loads``, raising ValueError for every decoding fault, deep nesting too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(TOO_DEEP) from None


def extract_first_json(text: str) -> dict[str, Any]:
    """Parse the first JSON object embedded in text.

    Model replies routinely wrap JSON in prose or code fences; this decodes
    at each '{' in turn and returns the first object that parses, ignoring
    whatever follows it. Raises ValueError when no parseable object exists,
    and at once for nesting too deep or a number too long to decode.
    """
    start = text.find("{")
    while start != -1:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except json.JSONDecodeError:
            start = text.find("{", start + 1)
        except RecursionError:
            raise ValueError(TOO_DEEP) from None
    raise ValueError("no JSON object found in text")
