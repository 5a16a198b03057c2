"""Common entity machinery: message dispatch by type name."""

from __future__ import annotations

import re

from .. import crypto, messages


def _snake(name: str) -> str:
    name = re.sub(r"([a-z])([A-Z])", r"\1_\2", name)
    name = re.sub(r"([a-zA-Z])([0-9])", r"\1_\2", name)
    return name.lower()


def try_decode(data: bytes):
    """Decode a nested payload; malformed bytes yield None, never a fault."""
    try:
        return messages.decode(data)
    except Exception:
        return None


def open_secured(link: crypto.SecureLink | None, wrapper):
    """The message inside a protected wrapper, or None when there is no
    link yet, the link refuses the wrapper or its plaintext is malformed."""
    if link is None:
        return None
    payload = link.open(wrapper)
    return None if isinstance(payload, crypto.LinkReject) else try_decode(payload)


class Entity:
    """Base class: dispatches a decoded message to ``on_<message_type>``.

    Unknown message types are an explicit ignored transition, never a
    fault; protocol errors are modeled as reject/failure messages.
    """

    def __init__(self, entity_id: str):
        self.entity_id = entity_id

    def step(self, msg, event, ctx) -> None:
        handler = getattr(self, "on_" + _snake(type(msg).__name__), None)
        if handler is None:
            ctx.ignore()
            return
        handler(msg, event, ctx)
