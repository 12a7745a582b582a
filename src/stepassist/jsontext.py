"""Pulling a JSON object out of free-form model text."""
from __future__ import annotations

import json
from typing import Any

_DECODER = json.JSONDecoder()


def extract_first_json(text: str) -> dict[str, Any]:
    """Parse the first JSON object embedded in text.

    Model replies routinely wrap JSON in prose or code fences; this decodes
    at each '{' in turn and returns the first object that parses, ignoring
    whatever follows it. Raises ValueError when no parseable object exists.
    """
    start = text.find("{")
    while start != -1:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except json.JSONDecodeError:
            start = text.find("{", start + 1)
    raise ValueError("no JSON object found in text")
