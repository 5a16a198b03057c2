"""Wire messages and their canonical binary codec.

Every message carried on a simulated channel is a registered dataclass.
The encoding is length-prefixed and canonical: a 2-byte type tag followed
by the fields in declaration order (ints as 8-byte big-endian, byte
strings and text length-prefixed, lists counted).  Transcripts mirror the
same bytes as hex, so byte-level scans of a transcript see exactly what
an on-path observer sees.

Each wire class's codec is compiled the first time the class is encoded
or decoded, never at import, by one walk over its field types
(``_compile``) that emits two functions together: a writer that returns
the body from a single ``b"".join`` and a reader that walks the body by
offset.  A list field's item type goes through the same walk, as one
value without a class.  In both functions, one precompiled ``struct``
covers each run of consecutive fixed-width values (ints, booleans,
length prefixes and list counts).
The classes are plain, mutable dataclasses: the bus hands the sender's
object to the receiver, so a handler must never change a message it got.

A constrained field declares its width in bytes or its allowed values
once, on its class, with ``typing.Annotated`` (``Octets16``, ``Key``,
``AlgorithmId``); ``CONSTRAINTS`` holds the classes that declare any.
Entities refuse a message that breaks one (``violation``) where they take
it; the codec stays permissive, so an adversary's rewrite reaches them.
"""

import functools
import struct
import typing
from dataclasses import dataclass, fields

from .identity import KEY_LEN

_REGISTRY: list[type] = []  # index = tag

RUNNING_ALGORITHMS = frozenset({0, 2})  # null, AES-based: ``crypto`` refuses the others
Octets16 = typing.Annotated[bytes, 16]  # RAND, AUTN, RES, XRES
Key = typing.Annotated[bytes, KEY_LEN]
AlgorithmId = typing.Annotated[int, RUNNING_ALGORITHMS]
CONSTRAINTS: dict[type, tuple] = {}  # wire class -> ((field, constraint), ...), if any


def _eq(self, other):
    return vars(self) == vars(other) if type(other) is type(self) else NotImplemented


def _repr(self):
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
    return f"{type(self).__qualname__}({shown})"


def wire(cls):
    """Register a dataclass as a wire message/struct, with its declared
    constraints.  Every wire class shares one ``__eq__`` and one
    ``__repr__`` (the text and the semantics ``dataclass`` would generate),
    so import compiles no per-class copies; the name docstring spares
    ``dataclass`` building a signature text."""
    cls.__doc__ = cls.__doc__ or cls.__name__
    cls = dataclass(cls, repr=False, eq=False)
    cls.__eq__, cls.__repr__, cls.__hash__ = _eq, _repr, None
    _REGISTRY.append(cls)
    if declared := tuple((f.name, f.type.__metadata__[0]) for f in fields(cls)
                         if typing.get_origin(f.type) is typing.Annotated):
        CONSTRAINTS[cls] = declared
    return cls


def violation(msg) -> str | None:
    """``Class.field`` of the first declared constraint ``msg`` breaks, or None."""
    for name, allowed in CONSTRAINTS.get(type(msg), ()):
        value = getattr(msg, name)
        if len(value) != allowed if type(allowed) is int else value not in allowed:
            return f"{type(msg).__name__}.{name}"
    return None


_HEAD = struct.Struct(">IH").pack  # frame length, type tag
_U32, _U16 = (struct.Struct(f).unpack_from for f in (">I", ">H"))


def _define(name: str, params: str, lines: list[str], env: dict):
    exec(f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in lines), env)
    return env[name]


class _Runs:
    """Source of a compiled writer or reader, with its runs of fixed-width
    values handed to one precompiled ``struct`` each."""

    def __init__(self):
        self.env: dict = {}
        self.lines: list[str] = []
        self.codes = ""  # struct codes of the open run
        self.values: list[str] = []  # its values: expressions, or names to unpack into

    def fixed(self, code: str, value: str) -> None:
        self.codes += code
        self.values.append(value)

    def bind(self, value) -> str:
        """A global name of the compiled function for ``value``."""
        name = f"_g{len(self.env)}"
        self.env[name] = value
        return name

    def close(self, method: str) -> tuple[str, str]:
        """Close the open run: the global name of its struct's ``method``, and its values."""
        name = self.bind(getattr(struct.Struct(">" + self.codes), method))
        values, self.codes, self.values = ", ".join(self.values), "", []
        return name, values


def _compile(values: list, cls=None) -> tuple:
    """(write, read) of ``values``, ``(expression, wire type)`` pairs in wire
    order, from one walk over their types.  Of a class's fields:
    write(msg) -> body and read(data, pos, end) -> msg.  Of one list item
    (no class): write(item) -> bytes and read(data, pos) -> (item, next pos)."""
    w, r, parts, args = _Runs(), _Runs(), [], []

    def close() -> int:  # close the open runs; their width, which ``pos`` has yet to step past
        if not r.values:
            return 0
        width = struct.calcsize(">" + r.codes)
        packer, packed = w.close("pack")
        parts.append(f"{packer}({packed})")
        unpacker, names = r.close("unpack_from")
        r.lines.append(f"{names}, = {unpacker}(data, pos)")
        return width

    for i, (value, ftype) in enumerate(values):
        args.append(f"v{i}")
        if ftype is int:
            w.fixed("q", f"int({value})")
            r.fixed("q", f"v{i}")
        elif ftype is bool:
            w.fixed("?", value)
            r.fixed("B", f"v{i}")
            args[-1] += " == 1"
        elif typing.get_origin(ftype) is list:
            (inner,) = typing.get_args(ftype)
            write_item, read_item = _compile([("item", inner)])
            w.fixed("H", f"len(v{i} := {value})")
            r.fixed("H", f"n{i}")
            r.lines.append(f"pos += {close()}")
            parts.append(f"*map({w.bind(write_item)}, v{i})")
            r.lines += [f"v{i} = []",
                        f"for _ in range(n{i}):",  # a forged count fails at the first gap
                        f"    item, pos = {r.bind(read_item)}(data, pos)",
                        f"    v{i}.append(item)"]
        else:
            if ftype is str:
                value = f"{value}.encode()"
            elif ftype in _REGISTRY:
                value = f"{w.bind(_plan(ftype)[1])}({value})"
            elif ftype is not bytes:
                raise TypeError(f"unsupported wire field type {ftype!r}")
            w.fixed("I", f"len(v{i} := {value})")
            r.fixed("I", f"n{i}")
            start = f"pos + {close()}"
            parts.append(f"v{i}")
            read = f"data[{start}:(pos := {start} + n{i})]"
            if ftype is str:
                read += ".decode()"
            elif ftype in _REGISTRY:
                read = f"{r.bind(_plan(ftype)[2])}(data, {start}, (pos := {start} + n{i}))"
            r.lines.append(f"v{i} = {read}")
    if width := close():
        r.lines.append(f"pos += {width}")
    body = f"{w.bind(b''.join)}(({', '.join(parts)},))" if parts else 'b""'
    if cls is None:
        write = _define("write", "item", [f"return {body}"], w.env)
        return write, _define("read", "data, pos", r.lines + [f"return {args[0]}, pos"], r.env)
    # past ``end`` too: a short slice still moves ``pos`` its full width
    r.lines += ["if pos != end:",
                f"    raise ValueError('length mismatch decoding {cls.__name__}')",
                f"return {r.bind(cls)}({', '.join(args)})"]
    write = _define("write", "msg", [f"return {body}"], w.env)
    return write, _define("read", "data, pos, end", r.lines, r.env)


@functools.cache
def _plan(cls) -> tuple:
    """(tag, write(msg) -> body, read(data, pos, end) -> msg) of a wire
    class, compiled at its first use."""
    hints = typing.get_type_hints(cls)
    values = [(f"msg.{f.name}", hints[f.name]) for f in fields(cls)]
    return (_REGISTRY.index(cls), *_compile(values, cls))


def encode(msg) -> bytes:
    """Length-prefixed canonical encoding of a registered message."""
    tag, write, _ = _plan(type(msg))
    try:
        body = write(msg)
        return _HEAD(len(body) + 2, tag) + body
    except struct.error as exc:  # an int, a length or a count past its width
        raise OverflowError(str(exc)) from None


def decode(data: bytes):
    try:
        if _U32(data, 0)[0] != len(data) - 4:
            raise ValueError("bad message framing")
        return _plan(_REGISTRY[_U16(data, 4)[0]])[2](data, 6, len(data))
    except struct.error as exc:  # an unpacker ran past the end of ``data``
        raise ValueError(f"truncated message: {exc}") from None


def peek_type(data: bytes) -> str:
    """Message type name without a full decode; a frame cut inside its
    tag is refused, as ``decode`` refuses it."""
    if len(data) < 6:
        raise ValueError("truncated message: no type tag")
    return _REGISTRY[_U16(data, 4)[0]].__name__


@dataclass
class _Secured:
    """The fields every protected wrapper carries, in wire order."""

    count: int
    direction: int
    nea_id: int
    nia_id: int
    mac_tag: bytes
    body: bytes


# ---------------------------------------------------------------------------
# Radio control plane (RRC)
# ---------------------------------------------------------------------------


@wire
class RrcConnectionRequest:
    c_rnti: bytes
    slice_id: str
    ue_nonce: bytes


@wire
class RrcConnectionSetup:
    c_rnti: bytes
    ran_ue_id: int


@wire
class RrcConnectionReject:
    cause: str


@wire
class AsSecurityModeCommand:
    nea_id: AlgorithmId
    nia_id: AlgorithmId


@wire
class AsSecurityModeComplete:
    pass


@wire
class SecuredRrc(_Secured):
    """Integrity/ciphering wrapper for RRC signaling after AS security."""


@wire
class SecuredUp(_Secured):
    """User-plane radio packet protected with the UP keys."""


@wire
class AppData:
    payload: bytes


# ---------------------------------------------------------------------------
# NAS (UE <-> core control plane)
# ---------------------------------------------------------------------------


@wire
class RegistrationRequest:
    suci: bytes
    slice_id: str
    ue_nonce: bytes


@wire
class AttachRequest4G:
    """Legacy attach used in non-standalone mode: identity in clear."""

    imsi: str
    slice_id: str
    ue_nonce: bytes


@wire
class RegistrationReject:
    cause: int
    signature: bytes  # empty = unsigned


@wire
class AuthenticationRequest:
    rand: bytes
    autn: Octets16
    ngksi: int
    abba: bytes


@wire
class AuthenticationResponse:
    res: Octets16


@wire
class AuthenticationFailure:
    cause: str


@wire
class AuthenticationReject:
    pass


@wire
class NasSecurityModeCommand:
    nea_id: AlgorithmId
    nia_id: AlgorithmId
    ngksi: int
    request_pei: bool


@wire
class NasSecurityModeComplete:
    pei: str


@wire
class RegistrationAccept:
    guti: bytes


@wire
class PduSessionRequest:
    slice_id: str


@wire
class PduSessionAccept:
    up_ciphering: bool
    up_integrity: bool


@wire
class SecuredNas(_Secured):
    """Integrity/ciphering wrapper for NAS messages after security mode setup."""


# ---------------------------------------------------------------------------
# N2 / N3 (RAN <-> core)
# ---------------------------------------------------------------------------


@wire
class InitialUeMessage:
    ran_ue_id: int
    cell_id: str
    plmn: str
    ue_radio_ref: str
    nas: bytes


@wire
class UplinkNas:
    ran_ue_id: int
    nas: bytes


@wire
class DownlinkNas:
    ran_ue_id: int
    nas: bytes


@wire
class InitialContextSetupRequest:
    ran_ue_id: int
    ue_radio_ref: str
    k_gnb: Key
    nea_id: AlgorithmId
    nia_id: AlgorithmId


@wire
class InitialContextSetupResponse:
    ran_ue_id: int


@wire
class UeContextActive:
    ran_ue_id: int


@wire
class PduResourceSetup:
    ran_ue_id: int
    up_ciphering: bool
    up_integrity: bool


@wire
class GtpData:
    teid: int
    payload: bytes


# ---------------------------------------------------------------------------
# Service-based interfaces (core <-> core)
# ---------------------------------------------------------------------------


@wire
class AuthRequestSbi:
    session: str
    suci: bytes
    serving_network_name: str


@wire
class AuthResponseSbi:
    session: str
    rand: Octets16
    autn: bytes
    hxres: bytes
    k_seaf: Key


@wire
class AuthRejectSbi:
    session: str
    cause: str


@wire
class UdmAuthRequest:
    session: str
    suci: bytes
    serving_network_name: str


@wire
class UdmAuthResponse:
    session: str
    supi: str
    rand: Octets16
    autn: bytes
    xres: Octets16
    k_ausf: Key


@wire
class UdmAuthReject:
    session: str
    cause: str


@wire
class ConfirmRequestSbi:
    session: str
    res: bytes


@wire
class ConfirmResponseSbi:
    session: str
    success: bool
    supi: str


@wire
class SmfSessionRequest:
    session: str
    slice_id: str


@wire
class SmfSessionResponse:
    session: str
    up_ciphering: bool
    up_integrity: bool


@wire
class NfToken:
    consumer_id: str
    service: str
    expiry: int


@wire
class NfTokenRequest:
    consumer_id: str
    producer_service: str


@wire
class NfTokenResponse:
    ok: bool
    token: bytes
    error: str


@wire
class NfServiceRequest:
    consumer_id: str
    service: str
    token: bytes


@wire
class NfServiceResponse:
    ok: bool
    error: str


# ---------------------------------------------------------------------------
# Inter-operator link (SEPP <-> SEPP)
# ---------------------------------------------------------------------------


@wire
class SeppHello:
    plmn: str
    peer_plmn: str
    nonce: bytes
    signature: bytes


@wire
class SeppHelloAck:
    plmn: str
    peer_plmn: str
    echo_nonce: bytes
    signature: bytes


@wire
class SeppReject:
    reason: str


@wire
class SeppForward:
    inner: bytes


# ---------------------------------------------------------------------------
# Internal bus traffic (timers, triggers, administration)
# ---------------------------------------------------------------------------


@wire
class TimerFired:
    timer_id: int


@wire
class TriggerRegistration:
    target_cell: str  # empty = pick by signal strength


@wire
class TriggerPduSession:
    pass


@wire
class TriggerAppData:
    payload: bytes


@wire
class PowerCycle:
    pass


@wire
class CellScanRequest:
    pass


@wire
class CellInfo:
    cell_id: str
    plmn: str
    strength: int
    kind: str
    verification_key: bytes  # empty = none broadcast
    blacklist: list[str]


@wire
class CellScanResponse:
    cells: list[CellInfo]


@wire
class AdminSetActive:
    active: bool


@wire
class AdminSetNetworkName:
    serving_network_name: str


@wire
class WorldAction:
    label: str
