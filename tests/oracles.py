"""Independent reference computations used to cross-check the package.

Everything here is rebuilt from scratch on top of hashlib.sha256 alone:
HMAC is re-derived from its padding definition, AES-128 is a table
implementation, and both curves use their textbook group laws.  The wire
encoder and decoder write and read through an ``io.BytesIO`` with one
closure per field, the codec's first design.  None of it calls into
fivegsim or the cryptography package, so agreement between these
functions and the package is a genuine dual-route check.

The shared inputs are the domain-label file src/fivegsim/data/
kdf_labels.json, which is the protocol definition itself, and the list of
wire classes that ``encode_wire`` and ``decode_wire`` are given.

The last section reads what the package wrote, and computes none of it:
identifiers readable on the radio in a transcript, and the values of the
known-answer vector file.  It also empties the package's crypto memos,
so that a test counting key work starts from cold ones.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import pathlib
import typing
from dataclasses import fields

LABELS = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent
     / "src" / "fivegsim" / "data" / "kdf_labels.json").read_text()
)


# ---------------------------------------------------------------------------
# HMAC-SHA-256 from first principles
# ---------------------------------------------------------------------------

def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    key = key.ljust(64, b"\x00")
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    return hashlib.sha256(opad + hashlib.sha256(ipad + msg).digest()).digest()


# ---------------------------------------------------------------------------
# AES-128 (encrypt direction only), CTR mode and CMAC
# ---------------------------------------------------------------------------

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _expand_key_128(key: bytes) -> list[list[int]]:
    words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return [sum(words[4 * r:4 * r + 4], []) for r in range(11)]


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    round_keys = _expand_key_128(key)
    state = [b ^ k for b, k in zip(block, round_keys[0])]
    for rnd in range(1, 11):
        state = [_SBOX[b] for b in state]
        # ShiftRows on the column-major byte layout
        s = state
        state = [
            s[0], s[5], s[10], s[15],
            s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7],
            s[12], s[1], s[6], s[11],
        ]
        if rnd != 10:
            mixed = []
            for c in range(4):
                col = state[4 * c:4 * c + 4]
                mixed += [
                    _xtime(col[0]) ^ (_xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3],
                    col[0] ^ _xtime(col[1]) ^ (_xtime(col[2]) ^ col[2]) ^ col[3],
                    col[0] ^ col[1] ^ _xtime(col[2]) ^ (_xtime(col[3]) ^ col[3]),
                    (_xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ _xtime(col[3]),
                ]
            state = mixed
        state = [b ^ k for b, k in zip(state, round_keys[rnd])]
    return bytes(state)


def aes128_ctr(key: bytes, icb: bytes, data: bytes) -> bytes:
    out = bytearray()
    counter = int.from_bytes(icb, "big")
    for i in range(0, len(data), 16):
        keystream = aes128_encrypt_block(key, counter.to_bytes(16, "big"))
        counter = (counter + 1) % 2**128
        chunk = data[i:i + 16]
        out += bytes(a ^ b for a, b in zip(chunk, keystream))
    return bytes(out)


def _cmac_double(block: int) -> int:
    """Doubling in GF(2^128) with the RFC 4493 constant R_128 = 0x87."""
    block <<= 1
    return block ^ 0x87 ^ (1 << 128) if block >> 128 else block


def cmac(key: bytes, msg: bytes) -> bytes:
    """AES-CMAC (RFC 4493 section 2.4), the full 16-byte tag."""
    k1 = _cmac_double(int.from_bytes(aes128_encrypt_block(key, bytes(16)), "big"))
    k2 = _cmac_double(k1)
    *head, tail = [msg[i:i + 16] for i in range(0, len(msg), 16)] or [b""]
    if len(tail) == 16:
        last = int.from_bytes(tail, "big") ^ k1
    else:  # padded with a one bit, then zeros
        last = int.from_bytes(tail + b"\x80" + bytes(15 - len(tail)), "big") ^ k2
    x = 0
    for block in head:
        x = int.from_bytes(aes128_encrypt_block(
            key, (x ^ int.from_bytes(block, "big")).to_bytes(16, "big")), "big")
    return aes128_encrypt_block(key, (x ^ last).to_bytes(16, "big"))


# ---------------------------------------------------------------------------
# Curve25519 (RFC 7748 montgomery ladder)
# ---------------------------------------------------------------------------

_P25519 = 2**255 - 19
_A24 = 121665


def _clamp25519(scalar: bytes) -> int:
    k = bytearray(scalar)
    k[0] &= 248
    k[31] &= 127
    k[31] |= 64
    return int.from_bytes(k, "little")


def x25519(scalar: bytes, u_bytes: bytes) -> bytes:
    k = _clamp25519(scalar)
    u = int.from_bytes(u_bytes, "little") & (2**255 - 1)
    x1, x2, z2, x3, z3 = u, 1, 0, u, 1
    swap = 0
    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        if swap ^ k_t:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t
        a = (x2 + z2) % _P25519
        aa = a * a % _P25519
        b = (x2 - z2) % _P25519
        bb = b * b % _P25519
        e = (aa - bb) % _P25519
        c = (x3 + z3) % _P25519
        d = (x3 - z3) % _P25519
        da = d * a % _P25519
        cb = c * b % _P25519
        x3 = (da + cb) % _P25519
        x3 = x3 * x3 % _P25519
        z3 = (da - cb) % _P25519
        z3 = x1 * (z3 * z3) % _P25519
        x2 = aa * bb % _P25519
        z2 = e * (aa + _A24 * e) % _P25519
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return (x2 * pow(z2, _P25519 - 2, _P25519) % _P25519).to_bytes(32, "little")


def x25519_public(scalar: bytes) -> bytes:
    return x25519(scalar, (9).to_bytes(32, "little"))


# ---------------------------------------------------------------------------
# secp256r1 (affine double-and-add)
# ---------------------------------------------------------------------------

_P256_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
_P256_A = _P256_P - 3
_P256_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
_P256_G = (
    0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
)


def _p256_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % _P256_P == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1 + _P256_A) * pow(2 * y1, _P256_P - 2, _P256_P) % _P256_P
    else:
        lam = (y2 - y1) * pow(x2 - x1, _P256_P - 2, _P256_P) % _P256_P
    x3 = (lam * lam - x1 - x2) % _P256_P
    y3 = (lam * (x1 - x3) - y1) % _P256_P
    return (x3, y3)


def p256_scalar_mult(k: int, point=None):
    if point is None:
        point = _P256_G
    result = None
    addend = point
    while k:
        if k & 1:
            result = _p256_add(result, addend)
        addend = _p256_add(addend, addend)
        k >>= 1
    return result


def p256_compress(point) -> bytes:
    x, y = point
    return bytes([2 + (y & 1)]) + x.to_bytes(32, "big")


def p256_decompress(data: bytes):
    sign = data[0] - 2
    x = int.from_bytes(data[1:], "big")
    y_sq = (pow(x, 3, _P256_P) + _P256_A * x + _P256_B) % _P256_P
    y = pow(y_sq, (_P256_P + 1) // 4, _P256_P)
    if y & 1 != sign:
        y = _P256_P - y
    return (x, y)


def p256_scalar_from_seed(seed: bytes) -> int:
    return int.from_bytes(seed, "big") % (P256_ORDER - 1) + 1


# ---------------------------------------------------------------------------
# Identity concealment reference
# ---------------------------------------------------------------------------

def x963_kdf(shared: bytes, sharedinfo: bytes, length: int) -> bytes:
    out = b""
    counter = 1
    while len(out) < length:
        out += hashlib.sha256(shared + counter.to_bytes(4, "big") + sharedinfo).digest()
        counter += 1
    return out[:length]


def ecies_conceal(scheme: str, home_seed: bytes, eph_randomness: bytes, msin: str) -> dict:
    """Reference concealment; scheme is 'a' (Curve25519) or 'b' (secp256r1)."""
    if scheme == "a":
        home_pub = x25519_public(home_seed)
        eph_pub = x25519_public(eph_randomness)
        shared = x25519(eph_randomness, home_pub)
    else:
        home_scalar = p256_scalar_from_seed(home_seed)
        home_pub_point = p256_scalar_mult(home_scalar)
        home_pub = p256_compress(home_pub_point)
        eph_scalar = p256_scalar_from_seed(eph_randomness)
        eph_pub = p256_compress(p256_scalar_mult(eph_scalar))
        shared_point = p256_scalar_mult(eph_scalar, home_pub_point)
        shared = shared_point[0].to_bytes(32, "big")
    spec = LABELS["ecies"]
    okm = x963_kdf(shared, eph_pub, spec["enc_key_len"] + spec["icb_len"] + spec["mac_key_len"])
    enc_key = okm[: spec["enc_key_len"]]
    icb = okm[spec["enc_key_len"]: spec["enc_key_len"] + spec["icb_len"]]
    mac_key = okm[-spec["mac_key_len"]:]
    ciphertext = aes128_ctr(enc_key, icb, msin.encode())
    tag = hmac_sha256(mac_key, ciphertext)[: spec["tag_len"]]
    return {
        "home_public": home_pub,
        "ephemeral_public": eph_pub,
        "ciphertext": ciphertext,
        "tag": tag,
    }


# ---------------------------------------------------------------------------
# Challenge vector and key-chain reference
# ---------------------------------------------------------------------------

def aka_prf(k: bytes, name: str, **inputs: bytes) -> bytes:
    spec = LABELS["aka"][name]
    msg = spec["label"].encode()
    for part in spec["inputs"]:
        msg += inputs[part]
    return hmac_sha256(k, msg)[: spec["length"]]


def auth_vector(k: bytes, sqn: int, rand: bytes, sn_name: str,
                amf_field: bytes = b"\x80\x00") -> dict:
    sqn_b = sqn.to_bytes(6, "big")
    mac = aka_prf(k, "mac", sqn=sqn_b, rand=rand, amf_field=amf_field)
    ak = aka_prf(k, "ak", rand=rand)
    xres = aka_prf(k, "xres", rand=rand)
    k_ausf = aka_prf(k, "k_ausf", rand=rand, serving_network_name=sn_name.encode())
    sqn_xor_ak = bytes(a ^ b for a, b in zip(sqn_b, ak))
    return {
        "autn": sqn_xor_ak + amf_field + mac,
        "mac": mac,
        "ak": ak,
        "xres": xres,
        "k_ausf": k_ausf,
        "hxres": res_hash(rand, xres),
    }


def res_hash(rand: bytes, res: bytes) -> bytes:
    return hashlib.sha256(rand + res).digest()[: LABELS["res_hash"]["length"]]


def _context_bytes(names, ctx):
    out = b""
    for name in names:
        value = ctx[name]
        out += len(value).to_bytes(2, "big") + value
    return out


def key_chain(k_ausf: bytes, sn_name: str, supi: str, abba: bytes,
              nea_id: int, nia_id: int) -> dict[str, bytes]:
    ctx = {
        "serving_network_name": sn_name.encode(),
        "supi": supi.encode(),
        "abba": abba,
        "nea_id": bytes([nea_id]),
        "nia_id": bytes([nia_id]),
    }
    keys = {"k_ausf": k_ausf}
    order = ["k_seaf", "k_amf", "k_nas_int", "k_nas_enc", "k_gnb",
             "k_rrc_int", "k_rrc_enc", "k_up_int", "k_up_enc"]
    for child in order:
        spec = LABELS["chain"][child]
        msg = spec["label"].encode() + b"\x00" + _context_bytes(spec["context"], ctx)
        keys[child] = hmac_sha256(keys[spec["parent"]], msg)
    return keys


# ---------------------------------------------------------------------------
# Wire decoder: one stream, one closure per field
# ---------------------------------------------------------------------------

def _take(stream: io.BytesIO, n: int) -> bytes:
    if len(raw := stream.read(n)) != n:
        raise ValueError("truncated message")
    return raw


def _read_bytes(stream: io.BytesIO) -> bytes:
    return _take(stream, int.from_bytes(_take(stream, 4), "big"))


_SCALAR_READERS = {
    int: lambda stream: int.from_bytes(_take(stream, 8), "big", signed=True),
    bool: lambda stream: _take(stream, 1) == b"\x01",
    bytes: _read_bytes,
    str: lambda stream: _read_bytes(stream).decode("utf-8"),
}


def _field_reader(ftype, registry: tuple):
    """read(stream) for a scalar, a list (2-byte count) or a wire struct (4-byte length)."""
    if typing.get_origin(ftype) is list:
        (inner,) = typing.get_args(ftype)
        read_item = _field_reader(inner, registry)
        return lambda stream: [
            read_item(stream) for _ in range(int.from_bytes(_take(stream, 2), "big"))]
    if ftype in registry:
        return lambda stream: _read_to(
            ftype, registry, stream, int.from_bytes(_take(stream, 4), "big"))
    if ftype in _SCALAR_READERS:
        return _SCALAR_READERS[ftype]
    raise TypeError(f"unsupported wire field type {ftype!r}")


@functools.cache
def _reader(cls, registry: tuple):
    hints = typing.get_type_hints(cls)
    readers = [_field_reader(hints[f.name], registry) for f in fields(cls)]
    return lambda stream: cls(*[read(stream) for read in readers])


def _read_to(cls, registry: tuple, stream: io.BytesIO, length: int):
    """The ``cls`` message that fills the next ``length`` bytes."""
    end = stream.tell() + length
    msg = _reader(cls, registry)(stream)
    if stream.tell() != end:
        raise ValueError(f"trailing bytes decoding {cls.__name__}")
    return msg


def decode_wire(registry: tuple, data: bytes):
    """The message framed in ``data``; ``registry[tag]`` is the wire class of a tag."""
    if int.from_bytes(data[:4], "big") != len(data) - 4:
        raise ValueError("bad message framing")
    body = data[6:]
    return _read_to(registry[int.from_bytes(data[4:6], "big")], registry,
                    io.BytesIO(body), len(body))


# ---------------------------------------------------------------------------
# Wire encoder: one stream, one closure per field
# ---------------------------------------------------------------------------

def _write_bytes(stream: io.BytesIO, value: bytes) -> None:
    stream.write(len(value).to_bytes(4, "big"))
    stream.write(value)


_SCALAR_WRITERS = {
    int: lambda stream, value: stream.write(int(value).to_bytes(8, "big", signed=True)),
    bool: lambda stream, value: stream.write(b"\x01" if value else b"\x00"),
    bytes: _write_bytes,
    str: lambda stream, value: _write_bytes(stream, value.encode("utf-8")),
}


def _field_writer(ftype, registry: tuple):
    """write(stream, value) for a scalar, a list (2-byte count) or a wire struct (4-byte length)."""
    if typing.get_origin(ftype) is list:
        (inner,) = typing.get_args(ftype)
        write_item = _field_writer(inner, registry)

        def write_list(stream, value):
            stream.write(len(value).to_bytes(2, "big"))
            for item in value:
                write_item(stream, item)
        return write_list
    if ftype in registry:
        return lambda stream, value: _write_bytes(stream, _body(ftype, value, registry))
    if ftype in _SCALAR_WRITERS:
        return _SCALAR_WRITERS[ftype]
    raise TypeError(f"unsupported wire field type {ftype!r}")


@functools.cache
def _writer(cls, registry: tuple):
    hints = typing.get_type_hints(cls)
    writers = [(f.name, _field_writer(hints[f.name], registry)) for f in fields(cls)]

    def write(stream, msg):
        for name, write_field in writers:
            write_field(stream, getattr(msg, name))
    return write


def _body(cls, msg, registry: tuple) -> bytes:
    """The fields of ``msg`` written as those of ``cls``."""
    stream = io.BytesIO()
    _writer(cls, registry)(stream, msg)
    return stream.getvalue()


def encode_wire(registry: tuple, msg) -> bytes:
    """The framed encoding of ``msg``; its tag is its class's index in ``registry``."""
    body = registry.index(type(msg)).to_bytes(2, "big") + _body(type(msg), msg, registry)
    return len(body).to_bytes(4, "big") + body


# ---------------------------------------------------------------------------
# Uniform draws by rejection sampling
# ---------------------------------------------------------------------------

def below(rng, bound: int) -> int:
    """Uniform integer in [0, bound) from a byte stream with ``take(n)``, by
    rejection sampling over whole bytes; ``RandomStream.digits`` is this
    sampler at bound 10."""
    nbytes = (bound.bit_length() + 7) // 8
    limit = (256**nbytes // bound) * bound
    while True:
        value = int.from_bytes(rng.take(nbytes), "big")
        if value < limit:
            return value % bound


# ---------------------------------------------------------------------------
# Readers of the package's outputs
# ---------------------------------------------------------------------------

def radio_plaintext_count(transcript, pattern: bytes) -> int:
    """Occurrences of a byte pattern in the payloads a transcript shows
    delivered on the two radio channels: an identifier sent in the clear."""
    from fivegsim.netsim import RADIO_CHANNELS

    return sum(entry.payload.count(pattern)
               for entry in transcript.delivered(RADIO_CHANNELS))


def parse_vectors(text: str) -> dict[str, bytes]:
    """The ``name = hex`` lines of a known-answer vector file, by name."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            name, _, value = line.partition(" = ")
            out[name] = bytes.fromhex(value)
    return out


def clear_crypto_memos() -> None:
    """Empty every memo in ``fivegsim.crypto``: each module-level name
    with a ``cache_clear``, so a memo added later is cleared too."""
    from fivegsim import crypto

    for value in vars(crypto).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
