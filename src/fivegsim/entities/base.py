"""Common entity machinery: message dispatch by type name."""

from __future__ import annotations

import re

from .. import crypto, messages


def _snake(name: str) -> str:
    return re.sub(r"(?<=[a-z])(?=[A-Z])|(?<=[a-zA-Z])(?=[0-9])", "_", name).lower()


# handler name -> message class, e.g. "on_attach_request_4g" -> AttachRequest4G
_HANDLED = {"on_" + _snake(cls.__name__): cls for cls in messages._REGISTRY}


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

    Each subclass's table from message class to handler is built when the
    class is created.  Unknown message types are an explicit ignored
    transition, never a fault; protocol errors are reject/failure messages.
    """

    _handlers: dict[type, object] = {}

    def __init_subclass__(cls):
        names = [name for name in dir(cls) if name.startswith("on_")]
        if unknown := [name for name in names if name not in _HANDLED]:
            raise TypeError(f"{cls.__name__}: no wire message for {', '.join(unknown)}")
        cls._handlers = {_HANDLED[name]: getattr(cls, name) for name in names}

    def __init__(self, entity_id: str):
        self.entity_id = entity_id

    def step(self, msg, event, ctx) -> None:
        handler = self._handlers.get(type(msg))
        if handler is None:
            ctx.ignore()
            return
        handler(self, msg, event, ctx)
