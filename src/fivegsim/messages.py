"""Wire messages and their canonical binary codec.

Every message carried on a simulated channel is a registered dataclass.
The encoding is length-prefixed and canonical: a 2-byte type tag followed
by the fields in declaration order (ints as 8-byte big-endian, byte
strings and text length-prefixed, lists counted).  Transcripts mirror the
same bytes as hex, so byte-level scans of a transcript see exactly what
an on-path observer sees.
"""

from __future__ import annotations

import functools
import struct
import typing
from dataclasses import dataclass, fields

_REGISTRY: list[type] = []  # index = tag


def wire(cls):
    """Register a dataclass as a wire message/struct."""
    cls = dataclass(cls)
    _REGISTRY.append(cls)
    return cls


_INT, _U32, _U16, _U8 = (struct.Struct(f).unpack_from for f in (">q", ">I", ">H", ">B"))


def _write_bytes(value, out: bytearray) -> None:
    out += len(value).to_bytes(4, "big") + value


# scalar type -> (write(value, out), read(data, pos) -> (value, next pos))
_SCALARS = {
    int: (lambda value, out: out.extend(int(value).to_bytes(8, "big", signed=True)),
          lambda data, pos: (_INT(data, pos)[0], pos + 8)),
    bool: (lambda value, out: out.append(1 if value else 0),
           lambda data, pos: (_U8(data, pos)[0] == 1, pos + 1)),
    bytes: (_write_bytes,
            lambda data, pos: (data[pos + 4:(end := pos + 4 + _U32(data, pos)[0])], end)),
    str: (lambda value, out: _write_bytes(value.encode("utf-8"), out),
          lambda data, pos: (data[pos + 4:(end := pos + 4 + _U32(data, pos)[0])].decode(), end)),
}


def _field_codec(ftype) -> tuple:
    """(write, read) for a scalar, a list (2-byte count) or a wire struct (4-byte length)."""
    if typing.get_origin(ftype) is list:
        (inner,) = typing.get_args(ftype)
        write_item, read_item = _field_codec(inner)

        def write(value, out):
            out += len(value).to_bytes(2, "big")
            for item in value:
                write_item(item, out)

        def read(data, pos):
            items, pos = [], pos + 2
            for _ in range(_U16(data, pos - 2)[0]):  # a forged count fails at the first gap
                item, pos = read_item(data, pos)
                items.append(item)
            return items, pos
        return write, read
    if ftype in _REGISTRY:
        def write(value, out):
            _plan(ftype)[1](value, body := bytearray())
            _write_bytes(body, out)
        return write, lambda data, pos: (
            _read(ftype, data, pos + 4, end := pos + 4 + _U32(data, pos)[0]), end)
    if ftype in _SCALARS:
        return _SCALARS[ftype]
    raise TypeError(f"unsupported wire field type {ftype!r}")


@functools.cache
def _plan(cls) -> tuple:
    """(tag, write(msg, out), field readers) of a wire class, once."""
    hints = typing.get_type_hints(cls)
    codecs = [(f.name, *_field_codec(hints[f.name])) for f in fields(cls)]

    def write(msg, out):
        for name, write_field, _ in codecs:
            write_field(getattr(msg, name), out)
    return _REGISTRY.index(cls).to_bytes(2, "big"), write, tuple(read for *_, read in codecs)


def _read(cls, data: bytes, pos: int, end: int):
    """The ``cls`` message whose fields fill ``data[pos:end]``."""
    values = []
    for read in _plan(cls)[2]:
        value, pos = read(data, pos)
        values.append(value)
    if pos != end:  # past ``end`` too: a short slice still moves ``pos`` its full width
        raise ValueError(f"length mismatch decoding {cls.__name__}")
    return cls(*values)


def encode(msg) -> bytes:
    """Length-prefixed canonical encoding of a registered message."""
    tag, write, _ = _plan(type(msg))
    write(msg, body := bytearray(tag))
    return len(body).to_bytes(4, "big") + body


def decode(data: bytes):
    try:
        if _U32(data, 0)[0] != len(data) - 4:
            raise ValueError("bad message framing")
        return _read(_REGISTRY[_U16(data, 4)[0]], data, 6, len(data))
    except struct.error as exc:  # an unpacker ran past the end of ``data``
        raise ValueError(f"truncated message: {exc}") from None


def peek_type(data: bytes) -> str:
    """Message type name without a full decode."""
    return _REGISTRY[int.from_bytes(data[4:6], "big")].__name__


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
    nea_id: int
    nia_id: int


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
    autn: bytes
    ngksi: int
    abba: bytes


@wire
class AuthenticationResponse:
    res: bytes


@wire
class AuthenticationFailure:
    cause: str


@wire
class AuthenticationReject:
    pass


@wire
class NasSecurityModeCommand:
    nea_id: int
    nia_id: int
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
    k_gnb: bytes
    nea_id: int
    nia_id: int


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
    rand: bytes
    autn: bytes
    hxres: bytes
    k_seaf: bytes


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
    rand: bytes
    autn: bytes
    xres: bytes
    k_ausf: bytes


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
