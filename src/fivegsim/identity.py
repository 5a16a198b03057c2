"""Subscriber and equipment identifiers plus the per-session security state.

Covers the permanent identity (SUPI), its concealed form (SUCI), the
equipment identity (PEI), temporary identifiers (5G-GUTI), the
long-term subscriber credential and the per-session security context,
whose keys are a plain name -> key dict that ``crypto`` derives along the
chain of ``data/kdf_labels.json``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .randomness import RandomStream

GUTI_LEN = 10
KEY_LEN = 32
SQN_MAX = 2**48 - 1


class SuciScheme(enum.IntEnum):
    """Identity concealment schemes selectable by the USIM."""

    NULL = 0
    PROFILE_A = 1  # Curve25519
    PROFILE_B = 2  # secp256r1


def _require_digits(value: str, what: str) -> None:
    if not value.isascii() or not value.isdigit():
        raise ValueError(f"{what} must be decimal digits, got {value!r}")


@dataclass(frozen=True)
class SubscriberIdentity:
    """Permanent subscriber identity: mcc + mnc + msin."""

    mcc: str
    mnc: str
    msin: str

    def __post_init__(self):
        _require_digits(self.mcc, "mcc")
        _require_digits(self.mnc, "mnc")
        _require_digits(self.msin, "msin")
        if len(self.mcc) != 3:
            raise ValueError("mcc must be exactly 3 digits")
        if len(self.mnc) not in (2, 3):
            raise ValueError("mnc must be 2 or 3 digits")
        if not 1 <= len(self.msin) <= 10:
            raise ValueError("msin must be 1..10 digits")

    @property
    def plmn(self) -> str:
        return self.mcc + self.mnc


@dataclass(frozen=True)
class EquipmentIdentity:
    """Permanent equipment identity (15 decimal digits)."""

    pei: str

    def __post_init__(self):
        _require_digits(self.pei, "pei")
        if len(self.pei) != 15:
            raise ValueError("pei must be exactly 15 digits")


def format_supi(identity: SubscriberIdentity) -> str:
    return "imsi-" + identity.mcc + identity.mnc + identity.msin


def parse_supi(text: str, mnc_digits: int | None = None) -> SubscriberIdentity:
    """Inverse of format_supi.

    The digit string does not delimit mcc/mnc/msin, so the mnc width must
    be known.  When ``mnc_digits`` is None a 2-digit mnc is assumed unless
    the total length is 16 (only reachable with a 3-digit mnc and a
    10-digit msin).
    """
    if not text.startswith("imsi-"):
        raise ValueError(f"not a supi encoding: {text!r}")
    digits = text[len("imsi-"):]
    _require_digits(digits, "supi digits")
    if mnc_digits is None:
        mnc_digits = 3 if len(digits) == 16 else 2
    if mnc_digits not in (2, 3):
        raise ValueError("mnc_digits must be 2 or 3")
    return SubscriberIdentity(
        mcc=digits[:3], mnc=digits[3:3 + mnc_digits], msin=digits[3 + mnc_digits:]
    )


def format_pei(identity: EquipmentIdentity) -> str:
    return "pei-" + identity.pei


def parse_pei(text: str) -> EquipmentIdentity:
    if not text.startswith("pei-"):
        raise ValueError(f"not a pei encoding: {text!r}")
    return EquipmentIdentity(pei=text[len("pei-"):])


@dataclass(frozen=True)
class ConcealedIdentity:
    """Concealed subscriber identity as sent in a registration request.

    The home network id travels in clear; the msin is either copied
    verbatim (null scheme) or ECIES-encrypted with an ephemeral public key
    and an 8-byte tag.
    """

    mcc: str
    mnc: str
    scheme: SuciScheme
    ciphertext: bytes
    ephemeral_public_key: bytes | None = None
    mac_tag: bytes | None = None

    def __post_init__(self):
        _require_digits(self.mcc, "mcc")
        _require_digits(self.mnc, "mnc")
        if self.scheme == SuciScheme.NULL:
            if self.ephemeral_public_key is not None or self.mac_tag is not None:
                raise ValueError("null scheme carries no key material")
            if not self.ciphertext.isdigit():
                raise ValueError("null scheme ciphertext must be the msin digits")
        else:
            expected = 32 if self.scheme == SuciScheme.PROFILE_A else 33
            if self.ephemeral_public_key is None or len(self.ephemeral_public_key) != expected:
                raise ValueError(f"scheme {self.scheme.name} needs a {expected}-byte ephemeral key")
            if self.mac_tag is None or len(self.mac_tag) != 8:
                raise ValueError("ecies schemes need an 8-byte tag")

    @property
    def plmn(self) -> str:
        return self.mcc + self.mnc

    def to_bytes(self) -> bytes:
        out = bytearray()
        out.append(int(self.scheme))
        out += self.mcc.encode()
        out.append(len(self.mnc))
        out += self.mnc.encode()
        if self.scheme == SuciScheme.NULL:
            out.append(len(self.ciphertext))
            out += self.ciphertext
        else:
            out.append(len(self.ephemeral_public_key))
            out += self.ephemeral_public_key
            out.append(len(self.ciphertext))
            out += self.ciphertext
            out += self.mac_tag
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ConcealedIdentity":
        """Inverse of to_bytes; short, over-long or malformed input is a
        ValueError (UnsupportedScheme for an unknown scheme byte)."""
        pos = 0

        def take(n: int) -> bytes:
            nonlocal pos
            if pos + n > len(data):
                raise ValueError("truncated suci encoding")
            pos += n
            return data[pos - n:pos]

        def take_prefixed() -> bytes:
            return take(take(1)[0])

        scheme_id = take(1)[0]
        try:
            scheme = SuciScheme(scheme_id)
        except ValueError as exc:
            raise UnsupportedScheme(f"unknown suci scheme id {scheme_id}") from exc
        mcc = take(3).decode()
        mnc = take_prefixed().decode()
        if scheme == SuciScheme.NULL:
            parts = {"ciphertext": take_prefixed()}
        else:
            parts = {"ephemeral_public_key": take_prefixed(),
                     "ciphertext": take_prefixed(), "mac_tag": take(8)}
        if pos != len(data):
            raise ValueError("trailing bytes in suci encoding")
        return cls(mcc=mcc, mnc=mnc, scheme=scheme, **parts)


class UnsupportedScheme(ValueError):
    """Raised when a SUCI names a concealment scheme this build cannot handle."""


@dataclass(frozen=True)
class TemporaryIdentity:
    """5G-GUTI with its allocation epoch."""

    guti: bytes
    allocation_epoch: int

    def __post_init__(self):
        if len(self.guti) != GUTI_LEN:
            raise ValueError(f"guti must be {GUTI_LEN} bytes")
        if self.allocation_epoch < 1:
            raise ValueError("allocation epoch starts at 1")


class GutiAllocator:
    """Allocates fresh temporary identities from a seeded stream.

    Every allocation in one run is distinct and the epoch counter strictly
    increases; the same stream seed replays the same sequence.
    """

    def __init__(self, rng: RandomStream):
        self._rng = rng
        self._epoch = 0
        self._issued: set[bytes] = set()

    def allocate(self) -> TemporaryIdentity:
        while True:
            guti = self._rng.take(GUTI_LEN)
            if guti not in self._issued:
                break
        self._issued.add(guti)
        self._epoch += 1
        return TemporaryIdentity(guti=guti, allocation_epoch=self._epoch)


@dataclass
class LongTermCredential:
    """Long-term key K and the sequence counter shared UE-side and UDM-side."""

    k: bytes
    sqn: int = 1

    def __post_init__(self):
        if len(self.k) != 16:
            raise ValueError("k must be 16 bytes")
        if not 0 <= self.sqn <= SQN_MAX:
            raise ValueError("sqn out of 48-bit range")

    def advanced(self) -> "LongTermCredential":
        if self.sqn >= SQN_MAX:
            raise ValueError("sqn exhausted")
        return replace(self, sqn=self.sqn + 1)


@dataclass
class SecurityContext:
    """Per-session NAS security state shared by UE and AMF."""

    ng_ksi: int
    keys: dict[str, bytes]  # key name -> key, as crypto derives them
    nea_id: int
    nia_id: int
    abba: bytes = b"\x00\x00"

    def __post_init__(self):
        if not 0 <= self.ng_ksi <= 0x0F:
            raise ValueError("ng_ksi is a 4-bit value")
        if len(self.abba) != 2:
            raise ValueError("abba is 2 bytes")
        if self.nea_id not in (0, 1, 2, 3) or self.nia_id not in (0, 1, 2, 3):
            raise ValueError("algorithm ids are 0..3")
