"""Common entity machinery: message dispatch by type name and state."""

from __future__ import annotations

import enum
import re

from .. import crypto, messages


def _snake(name: str) -> str:
    return re.sub(r"(?<=[a-z])(?=[A-Z])|(?<=[a-zA-Z])(?=[0-9])", "_", name).lower()


# handler name -> message class, e.g. "on_attach_request_4g" -> AttachRequest4G
_HANDLED = {"on_" + _snake(cls.__name__): cls for cls in messages._REGISTRY}


def try_decode(data: bytes):
    """A nested payload decoded; None (never a fault) if malformed or breaking a declaration."""
    try:
        msg = messages.decode(data)
    except Exception:
        return None
    return None if type(msg) in messages.CONSTRAINTS and messages.violation(msg) else msg


def open_secured(link: crypto.SecureLink | None, wrapper):
    """The message inside a protected wrapper, or None when there is no
    link yet, the link refuses the wrapper or its plaintext is malformed."""
    if link is None:
        return None
    payload = link.open(wrapper)
    return None if isinstance(payload, crypto.LinkReject) else try_decode(payload)


class State(enum.Enum):
    """A step of an entity's state machine.  Members are singletons, so
    they hash by identity, which keeps ``Entity.step``'s table lookup in C."""

    __hash__ = object.__hash__


def takes(*states, find=None, message=()):
    """Declare the states in which the handler below runs (see ``Entity``)."""
    def declare(handler):
        handler.states, handler.find, handler.messages = states, find, message
        return handler
    return declare


_NO_ROW = (None, {})


class Entity:
    """Base class: dispatches a decoded message to its handler.

    ``on_<message_type>`` handles its message class, in any state unless
    ``takes`` declares its states (``takes(message=(...))`` names the
    classes of a handler named otherwise).  Both tables are built with the
    class: ``_handlers`` and ``_states``, message class -> ``(find, {state:
    handler})``.  Without ``find`` the state is the entity's ``state``;
    with it, that of the record ``find(entity, msg, event)`` returns (an
    AMF session, an AUSF record, a SEPP route, a radio context) or None,
    and the handler gets the record first: only a row naming None opens one
    (a later request of its subscriber ends an AUSF record: ``Ausf._supersede``).
    ``step`` checks the declared fields (``messages.violation``), then the
    tables, before it dispatches: a broken declaration, an unknown message
    type or a state outside the table is an ignored transition, no fault.
    """

    _handlers: dict[type, object] = {}
    _states: dict[type, tuple] = {}
    state = None  # an entity with no state table of its own

    def __init_subclass__(cls):
        cls._handlers, cls._states = {}, {}
        for name in dir(cls):
            handler = getattr(cls, name)
            if name.startswith("on_") and name not in _HANDLED:
                raise TypeError(f"{cls.__name__}: no wire message for {name}")
            if hasattr(handler, "states"):
                for message in handler.messages or (_HANDLED[name],):
                    _, by_state = cls._states.setdefault(message, (handler.find, {}))
                    by_state.update(dict.fromkeys(handler.states, handler))
            elif name.startswith("on_"):
                cls._handlers[_HANDLED[name]] = handler

    def __init__(self, entity_id: str):
        self.entity_id = entity_id

    def step(self, msg, event, ctx) -> None:
        cls = type(msg)
        if cls in messages.CONSTRAINTS and messages.violation(msg):
            ctx.ignore()
            return
        handler = self._handlers.get(cls)
        if handler is not None:
            handler(self, msg, event, ctx)
            return
        find, by_state = self._states.get(cls, _NO_ROW)
        record = self if find is None else find(self, msg, event)
        handler = by_state.get(None if record is None else record.state)
        if handler is None:
            ctx.ignore()
        elif find is None:
            handler(self, msg, event, ctx)
        else:
            handler(self, record, msg, event, ctx)
