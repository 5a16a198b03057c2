"""Cryptographic core: identity concealment, challenge/response vectors,
the key-derivation chain, message protection, the secure links built on
it and every Ed25519 signature (signed reject messages among them).

All keyed PRFs are HMAC-SHA-256 with domain labels read from
``data/kdf_labels.json``; the test oracle recomputes everything from that
same file with independent primitives.
"""

from __future__ import annotations

import enum
import hashlib
import hmac as hmac_mod
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import CTR
from cryptography.hazmat.primitives.cmac import CMAC

from . import messages
from .identity import (
    KEY_LEN,
    ConcealedIdentity,
    LongTermCredential,
    SubscriberIdentity,
    SuciScheme,
    UnsupportedScheme,
)
from .randomness import RandomStream

_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

# the authentication management field every challenge carries
_AMF_FIELD = b"\x80\x00"


def load_labels() -> dict:
    with resources.files("fivegsim.data").joinpath("kdf_labels.json").open("rb") as fh:
        return json.load(fh)


_LABELS = load_labels()

# Fixed derivation DAG, child -> parent, parents before children: the
# "chain" table of data/kdf_labels.json, which lists it in that order.
KEY_PARENT: dict[str, str] = {
    child: spec["parent"] for child, spec in _LABELS["chain"].items()}


class IntegrityFailure(Exception):
    """MAC verification failed on a protected or concealed payload."""


class MacMismatch(Exception):
    """Challenge token MAC does not verify under the subscriber key."""


class SqnStale(Exception):
    """Challenge sequence number is not fresh (replay)."""


class StubAlgorithm(Exception):
    """Algorithm id is registered but not implemented in this build."""


_sha256 = hashlib.sha256
# RFC 2104 pads as bytes.translate tables: each byte of the zero-padded
# key XOR 0x36 for the inner hash, XOR 0x5c for the outer one
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _hmac(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA-256 from two SHA-256 calls; a key over the 64-byte block
    is hashed first."""
    if len(key) > 64:
        key = _sha256(key).digest()
    key = key.ljust(64, b"\x00")
    inner = _sha256(key.translate(_IPAD) + msg).digest()
    return _sha256(key.translate(_OPAD) + inner).digest()


def _aes_key(key32: bytes) -> bytes:
    # 128-bit algorithm key = low-order 16 bytes of the 256-bit chain key.
    return key32[16:]


# ---------------------------------------------------------------------------
# Home network key pairs and SUPI concealment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomeNetworkKeyPair:
    """Asymmetric pair the home network publishes for identity concealment.

    A pair built from a seed keeps the private key that derived its public
    one; the public key is parsed at its first use and kept with the pair.
    """

    scheme: SuciScheme
    public_bytes: bytes
    # neither compared nor hashed: a pair is named by its public bytes, so the
    # agreement memo below hits across the worlds one seed builds
    private_key: object = field(compare=False, repr=False)

    @classmethod
    def from_seed(cls, scheme: SuciScheme, seed: bytes) -> "HomeNetworkKeyPair":
        priv, pub = _keypair(scheme, seed)
        return cls(scheme=scheme, public_bytes=pub, private_key=priv)

    @cached_property
    def _public_key(self):
        return _parse_public(self.scheme, self.public_bytes)


# Entries per memo of the key work in this module: concealment key pairs,
# AES-CTR and keyed CMAC contexts and Ed25519 key parses by their input
# bytes, and ECIES agreements by both public keys.  Worlds built from one
# seed repeat those inputs, so each recent one is derived once per
# process; a raised error is never cached.  A lookup that misses costs
# under 1 us against 2 us and more for the step.  A memoized object with
# state (an AES-CTR context) is shared by every caller of its key, which
# is safe because one thread runs worlds, as it runs the bus; a keyed
# CMAC is only ever copied, so its state never moves.
_MEMO_SIZE = 256
_memo = lru_cache(maxsize=_MEMO_SIZE)


@_memo
def _keypair(scheme: SuciScheme, secret: bytes):
    """(private key, public bytes) of a concealment scheme's key pair from
    32 secret bytes; P-256 maps them to a nonzero scalar."""
    if len(secret) != 32:
        raise ValueError("key pair secret must be 32 bytes")
    if scheme == SuciScheme.PROFILE_A:
        priv = X25519PrivateKey.from_private_bytes(secret)
        return priv, priv.public_key().public_bytes_raw()
    if scheme == SuciScheme.PROFILE_B:
        scalar = int.from_bytes(secret, "big") % (_P256_ORDER - 1) + 1
        priv = ec.derive_private_key(scalar, ec.SECP256R1())
        point = priv.public_key().public_numbers()  # SEC 1 §2.3.3 compressed point
        pub = bytes([2 | point.y & 1]) + point.x.to_bytes(32, "big")
        return priv, pub
    raise ValueError("null scheme has no key pair")


def _parse_public(scheme: SuciScheme, encoded: bytes):
    try:
        if scheme == SuciScheme.PROFILE_A:
            return X25519PublicKey.from_public_bytes(encoded)
        return ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), encoded)
    except ValueError as exc:
        raise ValueError(f"malformed public point for {scheme.name}") from exc


def _ecies_shared(scheme: SuciScheme, private_key, peer_key) -> bytes:
    try:
        if scheme == SuciScheme.PROFILE_A:
            return private_key.exchange(peer_key)
        return private_key.exchange(ec.ECDH(), peer_key)
    except ValueError as exc:
        raise ValueError(f"malformed public point for {scheme.name}") from exc


# ECIES keys (enc_key, icb, mac_key) of an agreement by its two public
# keys, the home pair and the ephemeral one.  Both sides' exchanges give one
# shared secret (the Diffie-Hellman property, RFC 7748 §6.1), so whichever
# side computes it first fills the entry and the other reads it: the home
# network reads the exchange its UE ran.  The oldest entry is dropped first.
_agreements: dict[tuple[HomeNetworkKeyPair, bytes], tuple[bytes, bytes, bytes]] = {}


def _agreement(home: HomeNetworkKeyPair, eph_pub: bytes,
               exchange: Callable[[], bytes]) -> tuple[bytes, bytes, bytes]:
    """The ECIES keys of ``home`` with ``eph_pub``; ``exchange()`` runs the
    agreement on a miss, and an error it raises is not memoized."""
    key = (home, eph_pub)
    keys = _agreements.get(key)
    if keys is None:
        keys = _ecies_keys(exchange(), eph_pub)
        if len(_agreements) >= _MEMO_SIZE:
            del _agreements[next(iter(_agreements))]
        _agreements[key] = keys
    return keys


_agreement.cache_clear = _agreements.clear


def _x963_kdf(shared: bytes, sharedinfo: bytes, length: int) -> bytes:
    out = b""
    counter = 1
    while len(out) < length:
        out += hashlib.sha256(shared + counter.to_bytes(4, "big") + sharedinfo).digest()
        counter += 1
    return out[:length]


def _ecies_keys(shared: bytes, eph_pub: bytes) -> tuple[bytes, bytes, bytes]:
    spec = _LABELS["ecies"]
    total = spec["enc_key_len"] + spec["icb_len"] + spec["mac_key_len"]
    okm = _x963_kdf(shared, eph_pub, total)
    enc_key = okm[: spec["enc_key_len"]]
    icb = okm[spec["enc_key_len"]: spec["enc_key_len"] + spec["icb_len"]]
    mac_key = okm[-spec["mac_key_len"]:]
    return enc_key, icb, mac_key


@_memo
def _ctr_context(key: bytes):
    """The AES-128-CTR encryptor of a 16-byte key (ECIES, 128-NEA2), one
    per key and process; ``_aes_ctr`` re-points it at every use."""
    return Cipher(AES(key), CTR(bytes(16))).encryptor()


@_memo
def _cmac_context(key: bytes):
    """The AES-CMAC context keyed by a 16-byte key (128-NIA2), one per key
    and process; ``_cmac_tag`` computes each tag on a copy of it."""
    return CMAC(AES(key))


def _aes_ctr(ctr, icb: bytes, data: bytes) -> bytes:
    """``data`` XOR the keystream of an AES-128-CTR encryptor from a full
    16-byte initial counter block: enciphers and deciphers alike.  Both
    ends of a link and both sides of a SUCI share their key's encryptor,
    so each use re-points it, which also drops keystream left over from a
    use that ended mid-block.  CTR holds back no partial block, so
    ``update`` returns the whole output and ``finalize`` adds nothing."""
    ctr.reset_nonce(icb)
    return ctr.update(data)


def conceal_supi(
    identity: SubscriberIdentity,
    home_public: HomeNetworkKeyPair | None,
    scheme: SuciScheme,
    ephemeral_randomness: bytes | None = None,
) -> ConcealedIdentity:
    """Build the concealed identity sent in an initial registration.

    The null scheme copies the msin verbatim; the ECIES profiles run an
    ephemeral key agreement against the home network public key, encrypt
    the msin with AES-128-CTR and append a truncated HMAC tag.  The home
    network id always stays in clear.
    """
    if scheme == SuciScheme.NULL:
        return ConcealedIdentity(
            mcc=identity.mcc,
            mnc=identity.mnc,
            scheme=scheme,
            ciphertext=identity.msin.encode(),
        )
    if home_public is None:
        raise ValueError(f"{scheme.name} requires the home network public key")
    if home_public.scheme != scheme:
        raise ValueError(
            f"scheme {scheme.name} does not match key pair scheme {home_public.scheme.name}"
        )
    if ephemeral_randomness is None:
        raise ValueError("ephemeral randomness required for ecies schemes")
    eph_priv, eph_pub = _keypair(scheme, ephemeral_randomness)
    enc_key, icb, mac_key = _agreement(home_public, eph_pub, lambda: _ecies_shared(
        scheme, eph_priv, home_public._public_key))
    ciphertext = _aes_ctr(_ctr_context(enc_key), icb, identity.msin.encode())
    tag = _hmac(mac_key, ciphertext)[: _LABELS["ecies"]["tag_len"]]
    return ConcealedIdentity(
        mcc=identity.mcc,
        mnc=identity.mnc,
        scheme=scheme,
        ciphertext=ciphertext,
        ephemeral_public_key=eph_pub,
        mac_tag=tag,
    )


def deconceal_suci(
    suci: ConcealedIdentity, home_private: HomeNetworkKeyPair | None = None
) -> SubscriberIdentity:
    """Recover the subscriber identity from a concealed one (home network side)."""
    if suci.scheme == SuciScheme.NULL:
        return SubscriberIdentity(
            mcc=suci.mcc, mnc=suci.mnc, msin=suci.ciphertext.decode()
        )
    if suci.scheme not in (SuciScheme.PROFILE_A, SuciScheme.PROFILE_B):
        raise UnsupportedScheme(f"unknown scheme {suci.scheme}")
    if home_private is None or home_private.scheme != suci.scheme:
        raise ValueError("home private key missing or for the wrong scheme")
    eph_pub = suci.ephemeral_public_key
    enc_key, icb, mac_key = _agreement(home_private, eph_pub, lambda: _ecies_shared(
        suci.scheme, home_private.private_key, _parse_public(suci.scheme, eph_pub)))
    expected = _hmac(mac_key, suci.ciphertext)[: _LABELS["ecies"]["tag_len"]]
    if not hmac_mod.compare_digest(expected, suci.mac_tag):
        raise IntegrityFailure("suci tag mismatch")
    msin = _aes_ctr(_ctr_context(enc_key), icb, suci.ciphertext).decode(errors="replace")
    return SubscriberIdentity(mcc=suci.mcc, mnc=suci.mnc, msin=msin)


# ---------------------------------------------------------------------------
# Challenge/response authentication vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Autn:
    """Authentication token: concealed sequence number, field, MAC."""

    sqn_xor_ak: bytes
    amf_field: bytes
    mac: bytes

    def __post_init__(self):
        if len(self.sqn_xor_ak) != 6 or len(self.amf_field) != 2 or len(self.mac) != 8:
            raise ValueError("autn field widths are 6/2/8 bytes")

    def to_bytes(self) -> bytes:
        return self.sqn_xor_ak + self.amf_field + self.mac

    @classmethod
    def from_bytes(cls, data: bytes) -> "Autn":
        if len(data) != 16:
            raise ValueError("autn is 16 bytes")
        return cls(sqn_xor_ak=data[:6], amf_field=data[6:8], mac=data[8:16])


@dataclass(frozen=True)
class AuthVector:
    rand: bytes
    autn: Autn
    xres: bytes
    hxres: bytes
    k_ausf: bytes

    def __post_init__(self):
        if len(self.rand) != 16 or len(self.xres) != 16:
            raise ValueError("rand and xres are 16 bytes")
        if len(self.hxres) != 16 or len(self.k_ausf) != 32:
            raise ValueError("hxres is 16 bytes, k_ausf 32 bytes")


def _sqn_bytes(sqn: int) -> bytes:
    return sqn.to_bytes(6, "big")


def _xor(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two strings of the same length."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


# name -> (label bytes, input names, output length) of each AKA function
_AKA = {name: (spec["label"].encode(), tuple(spec["inputs"]), spec["length"])
        for name, spec in _LABELS["aka"].items()}


def _aka_prf(k: bytes, name: str, **inputs: bytes) -> bytes:
    msg, names, length = _AKA[name]
    for part in names:
        msg += inputs[part]
    return _hmac(k, msg)[:length]


def res_hash(rand: bytes, res_or_xres: bytes) -> bytes:
    """Response hash letting the serving network check a response it never knew."""
    if len(rand) != 16 or len(res_or_xres) != 16:
        raise ValueError("inputs are 16 bytes each")
    return hashlib.sha256(rand + res_or_xres).digest()[: _LABELS["res_hash"]["length"]]


def compute_auth_vector(
    cred: LongTermCredential,
    serving_network_name: str,
    rand: bytes,
) -> AuthVector:
    """Deterministic vector for a given challenge (home network side)."""
    sqn = _sqn_bytes(cred.sqn)
    sn = serving_network_name.encode()
    mac = _aka_prf(cred.k, "mac", sqn=sqn, rand=rand, amf_field=_AMF_FIELD)
    ak = _aka_prf(cred.k, "ak", rand=rand)
    xres = _aka_prf(cred.k, "xres", rand=rand)
    k_ausf = _aka_prf(cred.k, "k_ausf", rand=rand, serving_network_name=sn)
    autn = Autn(sqn_xor_ak=_xor(sqn, ak), amf_field=_AMF_FIELD, mac=mac)
    return AuthVector(
        rand=rand, autn=autn, xres=xres, hxres=res_hash(rand, xres), k_ausf=k_ausf
    )


def generate_auth_vector(
    cred: LongTermCredential,
    serving_network_name: str,
    rng: RandomStream,
) -> tuple[AuthVector, LongTermCredential]:
    """Draw a fresh challenge and advance the stored sequence counter."""
    rand = rng.take(16)
    vector = compute_auth_vector(cred, serving_network_name, rand)
    return vector, cred.advanced()


def ue_verify_challenge(
    cred: LongTermCredential,
    rand: bytes,
    autn: Autn,
    ue_sqn_window: int,
) -> tuple[bytes, int]:
    """USIM-side check of a challenge token.

    Returns the 16-byte response and the new highest accepted sequence
    number.  Raises MacMismatch on a bad token and SqnStale on replay;
    the two are deliberately distinct.
    """
    ak = _aka_prf(cred.k, "ak", rand=rand)
    sqn_bytes = _xor(autn.sqn_xor_ak, ak)
    mac = _aka_prf(cred.k, "mac", sqn=sqn_bytes, rand=rand, amf_field=autn.amf_field)
    if not hmac_mod.compare_digest(mac, autn.mac):
        raise MacMismatch("challenge token MAC mismatch")
    sqn = int.from_bytes(sqn_bytes, "big")
    if sqn <= ue_sqn_window:
        raise SqnStale(f"sqn {sqn} not above window {ue_sqn_window}")
    res = _aka_prf(cred.k, "xres", rand=rand)
    return res, sqn


def ue_k_ausf(cred: LongTermCredential, rand: bytes, serving_network_name: str) -> bytes:
    """UE-side anchor key for a verified challenge."""
    return _aka_prf(
        cred.k, "k_ausf", rand=rand, serving_network_name=serving_network_name.encode()
    )


# ---------------------------------------------------------------------------
# Key-derivation chain
# ---------------------------------------------------------------------------


# child -> (label bytes || 0x00, context input names) of each chain edge
_EDGES = {child: (spec["label"].encode() + b"\x00", tuple(spec["context"]))
          for child, spec in _LABELS["chain"].items()}


def _derive_edge(parent_key: bytes, child: str, ctx: dict[str, bytes]) -> bytes:
    msg, names = _EDGES[child]
    for name in names:
        msg += ctx[name]
    return _hmac(parent_key, msg)


def _context(**values: bytes) -> dict[str, bytes]:
    """Each input a cut holds as it enters an edge: 2-byte length, then value;
    an edge that reads an input its cut does not hold is a KeyError."""
    return {name: len(value).to_bytes(2, "big") + value for name, value in values.items()}


def _derive_from(root: str, key: bytes, names: list[str],
                 ctx: dict[str, bytes]) -> dict[str, bytes]:
    """``{root: key}`` plus each of ``names`` derived from its parent, in order."""
    if len(key) != KEY_LEN:
        raise ValueError(f"{root} must be {KEY_LEN} bytes")
    keys = {root: key}
    for child in names:
        keys[child] = _derive_edge(keys[KEY_PARENT[child]], child, ctx)
    return keys


def _below(root: str) -> list[str]:
    """The keys derived from ``root``, directly or not, in KEY_PARENT order."""
    below: list[str] = []
    for child, parent in KEY_PARENT.items():
        if parent == root or parent in below:
            below.append(child)
    return below


# The gNB derives the AS keys from k_gnb; the AMF derives the keys from
# k_seaf down to k_gnb, which it hands to the gNB.
_AS_KEYS = _below("k_gnb")
_SERVING_KEYS = [name for name in _below("k_seaf") if name not in _AS_KEYS]


def derive_k_seaf(k_ausf: bytes, serving_network_name: str) -> bytes:
    """Home-network chain: the anchor-to-serving edge alone."""
    ctx = _context(serving_network_name=serving_network_name.encode())
    return _derive_from("k_ausf", k_ausf, ["k_seaf"], ctx)["k_seaf"]


def derive_chain_from_seaf(
    k_seaf: bytes,
    supi: str,
    abba: bytes,
    nea_id: int,
    nia_id: int,
) -> dict[str, bytes]:
    """Serving-network chain: the AMF never sees the anchor key above k_seaf."""
    ctx = _context(supi=supi.encode(), abba=abba,
                   nea_id=bytes([nea_id]), nia_id=bytes([nia_id]))
    return _derive_from("k_seaf", k_seaf, _SERVING_KEYS, ctx)


def derive_as_keys(k_gnb: bytes, nea_id: int, nia_id: int) -> dict[str, bytes]:
    """Radio-side chain: the gNB starts from k_gnb and derives only AS keys."""
    ctx = _context(nea_id=bytes([nea_id]), nia_id=bytes([nia_id]))
    return _derive_from("k_gnb", k_gnb, _AS_KEYS, ctx)


# ---------------------------------------------------------------------------
# NAS/AS message protection
# ---------------------------------------------------------------------------


# algorithm ids that run, and ids registered as stubs that refuse to produce bytes
RUNNING_ALGORITHMS = messages.RUNNING_ALGORITHMS  # null, AES-based; wire declarations use it
STUB_ALGORITHMS = frozenset({1, 3})


def _require_running(kind: str, alg_id: int) -> None:
    if alg_id in RUNNING_ALGORITHMS:
        return
    if alg_id in STUB_ALGORITHMS:
        raise StubAlgorithm(f"{kind} algorithm {alg_id} is a stub in this build")
    raise ValueError(f"unknown algorithm id {alg_id}")


MAC_I_LEN = 4
_NULL_TAG = b"\x00" * MAC_I_LEN

# 128-NEA2 (TS 33.501 Annex D) counts up from a message's initial counter
# block, COUNT (4 bytes) || DIRECTION (1 byte) || 11 zero bytes: the pad
# is DIRECTION and the 11 zero bytes after it
_DIRECTION_PAD = (bytes(12), b"\x01" + bytes(11))


def _cmac_tag(mac, count: int, direction: int, ciphertext: bytes) -> bytes:
    """128-NIA2: AES-CMAC over COUNT || DIRECTION || the message, cut to
    MAC_I_LEN, on a copy of a ``SecureLink``'s keyed CMAC, which never
    absorbs a message itself."""
    mac = mac.copy()
    mac.update(count.to_bytes(4, "big") + bytes([direction & 1]) + ciphertext)
    return mac.finalize()[:MAC_I_LEN]


def protect(payload: bytes, ctr, mac, direction: int,
            count: int) -> tuple[bytes, bytes]:
    """(ciphertext, tag) of one message under a ``SecureLink``'s ciphering
    encryptor and keyed CMAC; ``None`` is the null algorithm.

    The null algorithms pass bytes through but the tag overhead is always
    present (four zero bytes under null integrity).
    """
    if ctr is not None:
        payload = _aes_ctr(ctr, count.to_bytes(4, "big") + _DIRECTION_PAD[direction & 1],
                           payload)
    if mac is None:
        return payload, _NULL_TAG
    return payload, _cmac_tag(mac, count, direction, payload)


def unprotect(ciphertext: bytes, mac_tag: bytes, ctr, mac,
              direction: int, count: int) -> bytes:
    """Verify the tag (unless null integrity) and decipher, under a
    ``SecureLink``'s ciphering encryptor and keyed CMAC; ``None`` is the
    null algorithm."""
    if mac is not None:
        expected = _cmac_tag(mac, count, direction, ciphertext)
        if not hmac_mod.compare_digest(expected, mac_tag):
            raise IntegrityFailure("message tag mismatch")
    if ctr is None:
        return ciphertext
    return _aes_ctr(ctr, count.to_bytes(4, "big") + _DIRECTION_PAD[direction & 1],
                    ciphertext)


# COUNT is a 32-bit algorithm input.  A wrapper counted above it, or below
# the next count its receiver expects, can never be a fresh message.
COUNT_MAX = 2**32 - 1


class LinkReject(enum.Enum):
    """Why ``SecureLink.open`` refused a wrapper."""

    DIRECTION = "direction"  # sent in the receiving end's own direction
    ALGORITHM = "algorithm"  # header ids other than the negotiated ones
    COUNT = "count"  # below the next expected (a replay) or outside 0..COUNT_MAX
    INTEGRITY = "integrity"  # the tag does not verify


_LINK_KEYS = {
    messages.SecuredNas: ("k_nas_enc", "k_nas_int"),
    messages.SecuredRrc: ("k_rrc_enc", "k_rrc_int"),
    messages.SecuredUp: ("k_up_enc", "k_up_int"),
}


class SecureLink:
    """One end of a protected NAS, RRC or user-plane link.

    The one place that knows a link's algorithms and keys: it refuses ids
    that do not run, and reads from ``keys`` (by wrapper type) only the
    keys its algorithms use, once, when it is built.  Holds the direction
    this end sends in (0 uplink, 1 downlink) and one counter per
    direction.  ``open`` checks the header against the link before any
    cryptography, so a relabeled, replayed or out-of-range wrapper is a
    typed rejection, never an exception.
    """

    def __init__(self, wrapper: type, keys, nea_id: int, nia_id: int,
                 direction: int):
        _require_running("ciphering", nea_id)
        _require_running("integrity", nia_id)
        enc_name, int_name = _LINK_KEYS[wrapper]
        self.wrapper = wrapper
        # a null algorithm needs no key; a missing one is a KeyError here.
        # The end keeps its key's AES-CTR encryptor and keyed CMAC, so a
        # message makes no memo lookup and builds no context
        self._ctr = _ctr_context(_aes_key(keys[enc_name])) if nea_id else None
        self._mac = _cmac_context(_aes_key(keys[int_name])) if nia_id else None
        self.nea_id = nea_id
        self.nia_id = nia_id
        self.direction = direction
        self.next_tx = 0
        self.next_rx = 0

    def seal(self, inner, integrity_only: bool = False):
        """Protect one message under the next send count.  Security mode
        commands go integrity-only: the peer must read the algorithms they
        name before it can derive the keys."""
        count = self.next_tx
        self.next_tx = count + 1
        ctr, nea_id = (None, 0) if integrity_only else (self._ctr, self.nea_id)
        body, mac_tag = protect(messages.encode(inner), ctr, self._mac,
                                self.direction, count)
        return self.wrapper(count, self.direction, nea_id, self.nia_id, mac_tag, body)

    def open(self, wrapper, integrity_only: bool = False) -> bytes | LinkReject:
        """The inner plaintext, or why the wrapper was refused.  Only an
        accepted wrapper advances the receive count.  Under null integrity
        nothing vouches for a count, so there is no replay window: one
        forged count must not block the packets after it."""
        if wrapper.direction != 1 - self.direction:
            return LinkReject.DIRECTION
        ctr, nea_id = (None, 0) if integrity_only else (self._ctr, self.nea_id)
        if wrapper.nea_id != nea_id or wrapper.nia_id != self.nia_id:
            return LinkReject.ALGORITHM
        count = wrapper.count
        if not (self.next_rx if self.nia_id else 0) <= count <= COUNT_MAX:
            return LinkReject.COUNT
        if len(wrapper.mac_tag) != MAC_I_LEN:
            return LinkReject.INTEGRITY
        try:
            payload = unprotect(wrapper.body, wrapper.mac_tag, ctr, self._mac,
                                wrapper.direction, count)
        except IntegrityFailure:
            return LinkReject.INTEGRITY
        self.next_rx = count + 1
        return payload


# ---------------------------------------------------------------------------
# Ed25519 signatures: signed reject messages (pre-security-context network
# authentication), the roaming proxies' handshake and the NF service tokens
# ---------------------------------------------------------------------------


@_memo
def _ed25519_private(seed: bytes):
    return Ed25519PrivateKey.from_private_bytes(seed)


def verification_key(seed: bytes) -> bytes:
    """The raw 32-byte public key of an Ed25519 signing seed."""
    return _ed25519_private(seed).public_key().public_bytes_raw()


def sign(seed: bytes, message: bytes) -> bytes:
    return _ed25519_private(seed).sign(message)


def verify(key: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(key).verify(signature, message)
        return True
    except InvalidSignature:
        return False


@dataclass(frozen=True)
class RejectSigningKeyPair:
    """Ed25519 pair a network uses to sign pre-context reject messages.

    Only the seed is kept; the verification key is derived at its first
    read, so a network whose cells sign no rejects never parses it.
    """

    signing_key: bytes

    def __post_init__(self):
        if len(self.signing_key) != 32:
            raise ValueError("seed must be 32 bytes")

    @classmethod
    def from_seed(cls, seed: bytes) -> "RejectSigningKeyPair":
        return cls(signing_key=seed)

    @cached_property
    def verification_key(self) -> bytes:
        return verification_key(self.signing_key)


def _reject_message(reject_cause: int, cell_id: str, ue_nonce: bytes) -> bytes:
    ctx = _LABELS["reject_signature"]["context"].encode()
    cell = cell_id.encode()
    return (
        ctx + bytes([reject_cause])
        + len(cell).to_bytes(2, "big") + cell
        + len(ue_nonce).to_bytes(2, "big") + ue_nonce
    )


def sign_reject(
    signing_key: bytes, reject_cause: int, cell_id: str, ue_nonce: bytes
) -> bytes:
    """Sign a reject over (cause, cell, the UE's request nonce); 64 bytes out."""
    if len(signing_key) != 32:
        raise ValueError("signing key is 32 bytes")
    return sign(signing_key, _reject_message(reject_cause, cell_id, ue_nonce))


def verify_reject(
    verification_key: bytes,
    reject_cause: int,
    cell_id: str,
    ue_nonce: bytes,
    signature: bytes,
) -> bool:
    if len(verification_key) != 32 or len(signature) != 64:
        return False  # no Ed25519 key or signature can verify
    return verify(verification_key, _reject_message(reject_cause, cell_id, ue_nonce),
                  signature)
