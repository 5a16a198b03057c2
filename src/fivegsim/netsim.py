"""Deterministic discrete-event message bus with adversary interposition.

Events are delivered in (time, seq) order.  Before delivery each event
passes every attached adversary hook in attachment order (a jammer is one,
``JamWindow``); hooks may observe, drop, modify or inject depending on
their capabilities.  A transcript records every delivery and drop, and
its export hashes identically across runs with the same seed.

A message an entity emits travels as its encoded payload and, beside the
event in the queue entry, as the object itself: the receiver gets that
object and the bus never decodes what an entity just encoded.  Only bytes
no entity encoded -- ``emit_raw``, a raw ``schedule``, an injection, a
payload a hook rewrote -- are decoded, and refused when malformed.
"""

from __future__ import annotations

import bisect
import enum
import hashlib
import heapq
import logging
import os
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _quote  # the escaper JSONEncoder uses

from . import messages
from .randomness import RandomStream, StreamFactory

log = logging.getLogger("fivegsim")


def configure_logging() -> None:
    """Wire FIVEGSIM_LOG={off,info,trace} to stderr diagnostics."""
    level = os.environ.get("FIVEGSIM_LOG", "off").lower()
    mapping = {"off": logging.CRITICAL + 10, "info": logging.INFO, "trace": logging.DEBUG}
    logging.basicConfig(format="%(name)s %(levelname)s %(message)s")
    log.setLevel(mapping.get(level, logging.CRITICAL + 10))


class Channel(enum.Enum):
    RADIO_RRC = "RadioRrc"
    RADIO_NAS = "RadioNas"
    N2 = "N2"
    N3 = "N3"
    SEPP_LINK = "SeppLink"
    SBI = "Sbi"
    INTERNAL = "Internal"  # timers, triggers, administration; never a wire

    # members are singletons: hashing by identity keeps each vantage, link
    # and table lookup in C
    __hash__ = object.__hash__


WIRE_CHANNELS = frozenset(
    {Channel.RADIO_RRC, Channel.RADIO_NAS, Channel.N2, Channel.N3,
     Channel.SEPP_LINK, Channel.SBI}
)
RADIO_CHANNELS = frozenset({Channel.RADIO_RRC, Channel.RADIO_NAS})


class TimeInPast(ValueError):
    """Attempt to schedule an event before the current simulated time."""


@dataclass(slots=True)
class SimEvent:
    time: int
    seq: int
    channel: Channel
    src: str
    dst: str
    payload: bytes
    origin: str = ""  # "entity:<id>", "adversary:<id>" or "world"
    # set by ``World.run_until`` once the hooks have settled the event
    msg_type: str = ""
    modified: bool = False
    dropped: bool = False


# One exported line: the bytes json.dumps(..., sort_keys=True) writes for the
# event's 11 fields.  Observations stay in the adversary's knowledge, so a
# purely passive adversary leaves the export byte-identical to an unobserved run.
# Each channel's name is quoted once, here.
_CHANNEL_JSON = {channel: _quote(channel.value) for channel in Channel}
_FLAG = ("false", "true")


def _line(event: SimEvent) -> str:
    return (f'{{"channel": {_CHANNEL_JSON[event.channel]}, "dropped": {_FLAG[event.dropped]}, '
            f'"dst": {_quote(event.dst)}, '
            f'"injected": {_FLAG[event.origin.startswith("adversary:")]}, '
            f'"modified": {_FLAG[event.modified]}, "msg": {_quote(event.msg_type)}, '
            f'"origin": {_quote(event.origin)}, "payload": "{event.payload.hex()}", '
            f'"seq": {event.seq}, "src": {_quote(event.src)}, "time": {event.time}}}')


def _peek(payload: bytes) -> str:
    """The payload's message type name, or "?" when it has none."""
    try:
        return messages.peek_type(payload)
    except Exception:
        return "?"


class Transcript:
    """Append-only record of every delivered or dropped event, as settled."""

    def __init__(self):
        self.entries: list[SimEvent] = []

    def append(self, event: SimEvent) -> None:
        """Record ``event`` once the hooks have settled it."""
        self.entries.append(event)

    def to_jsonl(self) -> str:
        return "\n".join(map(_line, self.entries))

    def sha256(self) -> str:
        """Digest of ``to_jsonl()``, fed one line at a time."""
        digest = hashlib.sha256()
        separator = b""
        for line in map(_line, self.entries):
            digest.update(separator + line.encode())
            separator = b"\n"
        return digest.hexdigest()

    def delivered(self, channels=None):
        for event in self.entries:
            if not event.dropped and (channels is None or event.channel in channels):
                yield event


class Capability(enum.Enum):
    OBSERVE = "Observe"
    DROP = "Drop"
    INJECT = "Inject"
    MODIFY = "Modify"
    IMPERSONATE = "Impersonate"

    __hash__ = object.__hash__  # as ``Channel``'s


class Knowledge:
    """What an adversary has seen and which secrets it was granted."""

    def __init__(self):
        self.seen: list[tuple[str, bytes, int]] = []  # (channel, payload, time)
        self.keys: dict[str, object] = {}

    def see(self, channel: Channel, payload: bytes, time: int = 0) -> None:
        self.seen.append((channel.value, payload, time))

    def grant(self, name: str, value) -> None:
        self.keys[name] = value

    def contains(self, pattern: bytes) -> bool:
        return any(pattern in payload for _, payload, _t in self.seen)

    def payloads(self, channel: Channel | None = None,
                 after: int | None = None) -> list[bytes]:
        return [
            p for name, p, t in self.seen
            if (channel is None or name == channel.value)
            and (after is None or t >= after)
        ]


@dataclass
class Action:
    """What an adversary handler wants done with the current event."""

    drop: bool = False
    replace_payload: bytes | None = None
    inject: list[tuple[int, Channel, str, str, bytes]] = field(default_factory=list)
    # inject items: (delay, channel, src, dst, payload)


@dataclass
class AdversaryHook:
    adversary_id: str
    vantage: frozenset
    capabilities: frozenset
    knowledge: Knowledge = field(default_factory=Knowledge)
    handler: object = None  # callable(world, hook, event) -> Action | None

    def can(self, capability: Capability) -> bool:
        return capability in self.capabilities


@dataclass(frozen=True)
class JamWindow:
    """A jammer on ``target_cell``'s access attempts over [t_start, t_end),
    as the handler of the hook ``World.apply_jam`` attaches.  A cell with
    ``jam_suppression_enabled`` is not jammed."""

    target_cell: str
    t_start: int
    t_end: int

    def __post_init__(self):
        if self.t_start >= self.t_end:
            raise ValueError("jam window must have t_start < t_end")

    def __call__(self, world: "World", hook: AdversaryHook, event: SimEvent) -> Action | None:
        if (event.dst == self.target_cell and self.t_start <= event.time < self.t_end
                and _peek(event.payload) == "RrcConnectionRequest"
                and not getattr(world.entities.get(event.dst), "jam_suppression_enabled", False)):
            return Action(drop=True)
        return None


class StepContext:
    """Facade handed to an entity for one transition."""

    def __init__(self, world: "World", entity_id: str):
        self._world = world
        self.entity_id = entity_id
        self.now = world.time
        # (delay, channel, dst, payload, the message object or None for raw bytes)
        self.out: list[tuple] = []
        self.ignored = False

    def emit(self, channel: Channel, dst: str, msg, delay: int = 1) -> None:
        self.out.append((delay, channel, dst, messages.encode(msg), msg))

    def emit_raw(self, channel: Channel, dst: str, payload: bytes) -> None:
        self.out.append((1, channel, dst, payload, None))

    def timer(self, delay: int, timer_id: int) -> None:
        self.emit(Channel.INTERNAL, self.entity_id, messages.TimerFired(timer_id=timer_id), delay)

    def rng(self, label: str) -> RandomStream:
        return self._world.streams.stream(f"{self.entity_id}:{label}")

    def ignore(self) -> None:
        self.ignored = True


class World:
    """One simulated deployment: entities, queue, adversaries, transcript."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.streams = StreamFactory(seed)
        self.entities: dict[str, object] = {}
        self._origins: dict[str, str] = {}  # entity id -> "entity:<id>", one string each
        self._cells: list = []  # entities with broadcast_info(), by id
        self.time = 0
        self._seq = 0
        # (time, seq, event, the payload's message object or None): the object
        # rides beside the event, so the transcript never holds one
        self._queue: list[tuple[int, int, SimEvent, object]] = []
        self.transcript = Transcript()
        self.adversaries: list[AdversaryHook] = []
        self.link_protected: dict[Channel, bool] = {
            Channel.SEPP_LINK: True,
        }
        self._actions: dict[int, object] = {}

    # -- construction ------------------------------------------------------

    def add_entity(self, entity) -> None:
        if entity.entity_id in self.entities:
            raise ValueError(f"duplicate entity id {entity.entity_id}")
        self.entities[entity.entity_id] = entity
        self._origins[entity.entity_id] = "entity:" + entity.entity_id
        if callable(getattr(entity, "broadcast_info", None)):
            bisect.insort(self._cells, entity, key=lambda e: e.entity_id)

    def attach_adversary(self, hook: AdversaryHook) -> str:
        """Attach ``hook``; its vantage is wire channels only, never the
        internal timers and triggers of the entities."""
        if not hook.vantage <= WIRE_CHANNELS:
            raise ValueError(f"adversary {hook.adversary_id!r} vantage is not wire channels only")
        self.adversaries.append(hook)
        return hook.adversary_id

    def apply_jam(self, jam: JamWindow) -> str:
        """Attach ``jam`` as the handler of a DROP-only hook on the radio channels."""
        return self.attach_adversary(AdversaryHook(
            f"jammer:{jam.target_cell}", RADIO_CHANNELS,
            frozenset({Capability.DROP}), handler=jam))

    # -- scheduling --------------------------------------------------------

    def schedule(self, time: int, channel: Channel, src: str, dst: str,
                 payload: bytes, origin: str, msg=None) -> SimEvent:
        """Queue ``payload`` for delivery at ``time``.  ``msg``, when given,
        is the message ``payload`` encodes, handed to the receiver as is;
        without it the receiver gets ``payload`` decoded."""
        if time < self.time:
            raise TimeInPast(f"cannot schedule at {time}, now is {self.time}")
        seq = self._seq
        self._seq = seq + 1
        event = SimEvent(time, seq, channel, src, dst, payload, origin)
        heapq.heappush(self._queue, (time, seq, event, msg))
        return event

    def schedule_action(self, time: int, label: str, fn) -> None:
        """Run a scripted world mutation at a fixed time (deterministic)."""
        event = self.schedule(time, Channel.INTERNAL, "world", "__world__",
                              messages.encode(messages.WorldAction(label=label)), "world")
        self._actions[event.seq] = fn

    # -- cells ---------------------------------------------------------------

    def active_cells(self) -> list[messages.CellInfo]:
        cells = (entity.broadcast_info() for entity in self._cells)
        return [cell for cell in cells if cell is not None]

    # -- main loop -----------------------------------------------------------

    def _run_hooks(self, event: SimEvent) -> None:
        """Pass ``event`` through each hook whose vantage covers its channel,
        in attachment order, until one drops it; sets its ``modified`` and
        ``dropped``.  A hook that may OBSERVE sees the event when it can read
        the channel: a radio channel, a link in the clear, or a protected link
        whose key (``link:<channel>``) it was granted.  Link protection is
        read once per event, before the first hook runs.  A handler gets a
        copy of the event: only the Action it returns acts."""
        channel = event.channel
        # the key an observer needs to read a protected link; None for the
        # radio and for a link in the clear
        key = (f"link:{channel.value}" if channel not in RADIO_CHANNELS
               and self.link_protected.get(channel, False) else None)
        for hook in self.adversaries:
            if channel not in hook.vantage:
                continue
            if hook.can(Capability.OBSERVE) and (key is None or key in hook.knowledge.keys):
                hook.knowledge.see(channel, event.payload, event.time)
            if hook.handler is None:
                continue
            action = hook.handler(self, hook, replace(event))
            if action is None:
                continue
            if action.replace_payload is not None and hook.can(Capability.MODIFY):
                event.payload = action.replace_payload
                event.modified = True
            if action.inject and hook.can(Capability.INJECT):
                for delay, to, src, dst, payload in action.inject:
                    if delay < 0:
                        continue  # nothing can be sent into the past: ignored
                    self.schedule(self.time + delay, to, src, dst,
                                  payload, f"adversary:{hook.adversary_id}")
            if action.drop and hook.can(Capability.DROP):
                event.dropped = True
                return

    def run_until(self, t_end: int) -> Transcript:
        queue, entities, transcript = self._queue, self.entities, self.transcript
        origins = self._origins
        while queue and queue[0][0] <= t_end:
            _, _, event, msg = heapq.heappop(queue)
            self.time = now = event.time
            dst = event.dst
            msg_type = _peek(event.payload) if msg is None else type(msg).__name__
            # settle the event's fate, record it once, then deliver it; the
            # hooks run only while the world has one (checked per event: a
            # scheduled action may attach one)
            if dst == "__world__":
                fn = self._actions.pop(event.seq, None)
                if fn is not None:
                    fn(self)
            elif self.adversaries:
                self._run_hooks(event)
                if event.modified:  # the receiver gets the adversary's bytes, decoded
                    msg_type = _peek(event.payload)
                    msg = None
            event.msg_type = msg_type
            transcript.append(event)
            if event.dropped:
                continue
            if dst == "__ether__":
                reply = messages.CellScanResponse(cells=self.active_cells())
                self.schedule(now + 1, Channel.INTERNAL, "__ether__", event.src,
                              messages.encode(reply), "world", reply)
                continue
            entity = entities.get(dst)
            if entity is None:
                continue  # the world itself, or an unknown node: explicit no-op
            if msg is None:  # bytes no entity encoded: raw, injected or rewritten
                try:
                    msg = messages.decode(event.payload)
                except Exception:
                    log.info("undecodable payload for %s ignored", dst)
                    continue
            ctx = StepContext(self, dst)
            entity.step(msg, event, ctx)
            if ctx.out:
                origin = origins[dst]
                for delay, channel, to, payload, sent in ctx.out:
                    self.schedule(now + delay, channel, dst, to, payload, origin, sent)
        self.time = max(self.time, t_end)
        return self.transcript
