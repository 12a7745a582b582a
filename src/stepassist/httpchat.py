"""Thin chat-completion HTTP client shared by the remote reasoner and structurer."""
from __future__ import annotations

import http.client
import json
import urllib.request
from typing import Any, Sequence

from .jsontext import fields, loads


class ChatEndpointError(RuntimeError):
    """Transport or protocol failure talking to a chat-completion endpoint."""


def chat_complete(
    endpoint: str,
    messages: Sequence[dict[str, Any]],
    model: str | None = None,
    timeout: float = 30.0,
) -> str:
    """POST a chat request and return the assistant message text.

    Accepts both the nested chat-completion reply shape
    (choices[0].message.content) and a flat {"content": ...} shape, so small
    local mock endpoints stay trivial. The content must be a JSON string.
    """
    payload: dict[str, Any] = {"messages": list(messages)}
    if model is not None:
        payload["model"] = model
    request = urllib.request.Request(
        endpoint,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read()
    except (OSError, http.client.HTTPException) as exc:
        # URLError, a read timeout and a dropped connection are all OSErrors
        raise ChatEndpointError(f"chat endpoint {endpoint} unreachable: {exc}") from exc
    try:
        reply = loads(body.decode("utf-8"))
        if isinstance(reply, dict) and "choices" in reply:
            (choices,) = fields(reply, {"choices": list}, "reply")
            (reply,) = fields(choices[0] if choices else None, {"message": dict}, "choices[0]")
        return fields(reply, {"content": str}, "reply")[0]
    except ValueError as exc:
        raise ChatEndpointError(
            f"chat endpoint {endpoint} returned non-JSON or a malformed reply: {exc}"
        ) from exc
