import ast
import dataclasses
import gc
import hmac
import pathlib
import types
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from key_cuts import composed_chain
from fivegsim import crypto, messages
from fivegsim.identity import (
    ConcealedIdentity,
    LongTermCredential,
    SubscriberIdentity,
    SuciScheme,
    UnsupportedScheme,
)
from fivegsim.flows import run_registration
from fivegsim.randomness import RandomStream
from fivegsim.vectors import generate_vectors
from fivegsim.worldfile import roaming_world, single_network_world

DATA = pathlib.Path(__file__).parent / "data"

# Frozen outputs, precomputed with the reference implementations in
# oracles.py for the fixed inputs in fivegsim.vectors.
KAT = {
    "suci_profile_a_home_public": "07a37cbc142093c8b755dc1b10e86cb426374ad16aa853ed0bdfc0b2b86d1c7c",
    "suci_profile_a_ephemeral_public": "2fe57da347cd62431528daac5fbb290730fff684afc4cfc2ed90995f58cb3b74",
    "suci_profile_a_ciphertext": "afa5332e8486545af36e",
    "suci_profile_a_tag": "cf381010f24c434b",
    "suci_profile_b_home_public": "02accf0106ef858fa2d919331346805a78b58bbad0b844e5c7892879146187dd26",
    "suci_profile_b_ephemeral_public": "036b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
    "suci_profile_b_ciphertext": "575c63e1502d169056e0",
    "suci_profile_b_tag": "3a42d243ac869e72",
    "aka_autn": "4e24fd15e1568000a836e3922ca017ba",
    "aka_xres": "d4d6a15a239de4692ae0fe2f84ea8a56",
    "aka_hxres": "7f1639193d6f3dd6038e8f07e767a3cb",
    "aka_k_ausf": "9abd71af3d62150a95206541f59e46f478e309161fb4a95db1a52419cb314022",
    "res_hash_zero": "66687aadf862bd776c8fc18b8e9f8e20",
    "chain_k_nas_enc": "4c6bd2a76dfd24c3451cd9a75558cf404d3baab27b81fd92609571a11a843fb0",
}

HOME_SEED = bytes(range(1, 33))
TEST_IDENTITY = SubscriberIdentity(mcc="001", mnc="01", msin="0123456789")


def _keypair(scheme):
    return crypto.HomeNetworkKeyPair.from_seed(scheme, HOME_SEED)


# the least-recently-used memos a registration world fills, beside the
# agreement memo; the Ed25519 one is fed on its own
_MEMOS = (crypto._keypair, crypto._ctr_context, crypto._cmac_context)


# ---------------------------------------------------------------------------
# HMAC-SHA-256
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key_len", [0, 16, 32, 64, 65, 100])
def test_hmac_matches_the_standard_library(key_len):
    # oracles.hmac_sha256 builds HMAC the same two-hash way; the standard
    # library's hmac module is the independent reference
    rng = RandomStream(7, f"hmac-{key_len}")
    key = rng.take(key_len) if key_len else b""
    for msg_len in (0, 1, 31, 55, 56, 64, 65, 200):
        msg = rng.take(msg_len) if msg_len else b""
        assert crypto._hmac(key, msg) == hmac.new(key, msg, "sha256").digest(), msg_len


# ---------------------------------------------------------------------------
# Identity concealment
# ---------------------------------------------------------------------------


def test_null_scheme_copies_msin_verbatim():
    suci = crypto.conceal_supi(TEST_IDENTITY, None, SuciScheme.NULL)
    assert suci.ciphertext == b"0123456789"
    assert suci.ephemeral_public_key is None and suci.mac_tag is None
    assert crypto.deconceal_suci(suci) == TEST_IDENTITY


@pytest.mark.parametrize("scheme,prefix", [
    (SuciScheme.PROFILE_A, "suci_profile_a"),
    (SuciScheme.PROFILE_B, "suci_profile_b"),
])
def test_ecies_known_answer(scheme, prefix):
    keypair = _keypair(scheme)
    suci = crypto.conceal_supi(TEST_IDENTITY, keypair, scheme, bytes(32))
    assert keypair.public_bytes.hex() == KAT[f"{prefix}_home_public"]
    assert suci.ephemeral_public_key.hex() == KAT[f"{prefix}_ephemeral_public"]
    assert suci.ciphertext.hex() == KAT[f"{prefix}_ciphertext"]
    assert suci.mac_tag.hex() == KAT[f"{prefix}_tag"]


@pytest.mark.parametrize("scheme,letter", [
    (SuciScheme.PROFILE_A, "a"),
    (SuciScheme.PROFILE_B, "b"),
])
def test_ecies_matches_live_oracle_on_random_inputs(scheme, letter):
    rng = RandomStream(99, f"ecies-{letter}")
    for _ in range(25):
        home_seed = rng.take(32)
        eph = rng.take(32)
        msin = rng.digits(10)
        ident = SubscriberIdentity(mcc="001", mnc="01", msin=msin)
        keypair = crypto.HomeNetworkKeyPair.from_seed(scheme, home_seed)
        suci = crypto.conceal_supi(ident, keypair, scheme, eph)
        ref = oracles.ecies_conceal(letter, home_seed, eph, msin)
        assert keypair.public_bytes == ref["home_public"]
        assert suci.ephemeral_public_key == ref["ephemeral_public"]
        assert suci.ciphertext == ref["ciphertext"]
        assert suci.mac_tag == ref["tag"]


@pytest.mark.parametrize("scheme", [SuciScheme.PROFILE_A, SuciScheme.PROFILE_B])
def test_ecies_round_trip(scheme):
    rng = RandomStream(1, f"rt-{scheme}")
    keypair = _keypair(scheme)
    for _ in range(100):
        ident = SubscriberIdentity(mcc="310", mnc="260", msin=rng.digits(10))
        suci = crypto.conceal_supi(ident, keypair, scheme, rng.take(32))
        assert crypto.deconceal_suci(suci, keypair) == ident


def _flipped_tag(suci: ConcealedIdentity) -> ConcealedIdentity:
    return dataclasses.replace(
        suci, mac_tag=bytes([suci.mac_tag[0] ^ 0x01]) + suci.mac_tag[1:])


def test_tag_bit_flip_is_integrity_failure():
    keypair = _keypair(SuciScheme.PROFILE_A)
    suci = crypto.conceal_supi(TEST_IDENTITY, keypair, SuciScheme.PROFILE_A, bytes(32))
    with pytest.raises(crypto.IntegrityFailure):
        crypto.deconceal_suci(_flipped_tag(suci), keypair)


def _with_ephemeral_key(suci: ConcealedIdentity, key: bytes) -> ConcealedIdentity:
    """``suci`` carrying ``key``, past the width check its constructor makes."""
    forged = dataclasses.replace(suci)
    object.__setattr__(forged, "ephemeral_public_key", key)
    return forged


@pytest.mark.parametrize("scheme,key", [
    (SuciScheme.PROFILE_A, bytes(31)),
    (SuciScheme.PROFILE_A, bytes(32)),  # the all-zero point: no shared secret
    (SuciScheme.PROFILE_B, b"\xff" * 33),
], ids=["short", "zero-x25519", "bad-p256"])
def test_malformed_ephemeral_point_is_refused_every_time(scheme, key):
    keypair = _keypair(scheme)
    suci = crypto.conceal_supi(TEST_IDENTITY, keypair, scheme, bytes(32))
    forged = _with_ephemeral_key(suci, key)
    held = dict(crypto._agreements)
    for _ in range(2):  # a refusal is not memoized as an answer
        with pytest.raises(ValueError, match="malformed public point"):
            crypto.deconceal_suci(forged, keypair)
    assert crypto._agreements == held


def _counted_exchanges(monkeypatch) -> list:
    """The scheme of each ECIES exchange run from here on, in order."""
    schemes = []

    def counted(scheme, *args, _fn=crypto._ecies_shared):
        schemes.append(scheme)
        return _fn(scheme, *args)

    monkeypatch.setattr(crypto, "_ecies_shared", counted)
    return schemes


def test_flipped_tag_fails_after_its_agreement_is_memoized(monkeypatch):
    keypair = _keypair(SuciScheme.PROFILE_A)
    suci = crypto.conceal_supi(TEST_IDENTITY, keypair, SuciScheme.PROFILE_A, bytes(32))
    assert (keypair, suci.ephemeral_public_key) in crypto._agreements
    exchanges = _counted_exchanges(monkeypatch)
    assert crypto.deconceal_suci(suci, keypair) == TEST_IDENTITY
    with pytest.raises(crypto.IntegrityFailure):
        crypto.deconceal_suci(_flipped_tag(suci), keypair)
    assert crypto.deconceal_suci(suci, keypair) == TEST_IDENTITY
    assert exchanges == []  # each of the three read the UE's agreement


@pytest.mark.parametrize("scheme,letter", [
    (SuciScheme.PROFILE_A, "a"),
    (SuciScheme.PROFILE_B, "b"),
])
def test_the_home_exchange_gives_the_keys_the_ue_left(scheme, letter, monkeypatch):
    # Diffie-Hellman symmetry: home private x ephemeral public is the
    # secret the UE computed as ephemeral private x home public
    rng = RandomStream(98, f"ecies-dh-{letter}")
    exchanges = _counted_exchanges(monkeypatch)
    for _ in range(25):
        home_seed, eph, msin = rng.take(32), rng.take(32), rng.digits(10)
        ident = SubscriberIdentity(mcc="001", mnc="01", msin=msin)
        keypair = crypto.HomeNetworkKeyPair.from_seed(scheme, home_seed)
        suci = crypto.conceal_supi(ident, keypair, scheme, eph)
        agreement = (keypair, suci.ephemeral_public_key)
        ue_keys = crypto._agreements[agreement]
        oracles.clear_crypto_memos()
        exchanges.clear()
        assert crypto.deconceal_suci(suci, keypair) == ident
        assert exchanges == [scheme]
        assert crypto._agreements == {agreement: ue_keys}
        ref = oracles.ecies_conceal(letter, home_seed, eph, msin)
        assert (suci.ciphertext, suci.mac_tag) == (ref["ciphertext"], ref["tag"])


@pytest.mark.parametrize("scheme,letter", [
    (SuciScheme.PROFILE_A, "a"),
    (SuciScheme.PROFILE_B, "b"),
])
def test_a_suci_concealed_elsewhere_is_read_by_the_home_exchange(scheme, letter):
    # no UE in this process made the ephemeral key, so the home side runs
    # the agreement itself: a path honest runs never take
    rng = RandomStream(97, f"ecies-home-{letter}")
    home_seed, eph, msin = rng.take(32), rng.take(32), rng.digits(10)
    ref = oracles.ecies_conceal(letter, home_seed, eph, msin)
    keypair = crypto.HomeNetworkKeyPair.from_seed(scheme, home_seed)
    suci = ConcealedIdentity(
        mcc="001", mnc="01", scheme=scheme, ciphertext=ref["ciphertext"],
        ephemeral_public_key=ref["ephemeral_public"], mac_tag=ref["tag"])
    oracles.clear_crypto_memos()
    with pytest.raises(crypto.IntegrityFailure):
        crypto.deconceal_suci(_flipped_tag(suci), keypair)
    oracles.clear_crypto_memos()
    assert crypto.deconceal_suci(suci, keypair) == SubscriberIdentity(
        mcc="001", mnc="01", msin=msin)


def test_memos_stay_bounded_and_hold_no_world():
    world, builder = single_network_world(5, ue_count=crypto._MEMO_SIZE + 10)
    for ue_id in builder.ues:
        assert run_registration(world, ue_id).success
    for memo in _MEMOS:
        info = memo.cache_info()
        assert info.maxsize == crypto._MEMO_SIZE
        assert info.currsize <= info.maxsize < info.misses
    # one agreement per registration, 10 more than the memo keeps
    assert len(crypto._agreements) == crypto._MEMO_SIZE
    dropped = weakref.ref(world)
    del world, builder
    gc.collect()
    assert dropped() is None


def test_ed25519_memo_stays_bounded():
    # no registration world parses this many signing seeds
    seeds = [i.to_bytes(32, "big") for i in range(crypto._MEMO_SIZE + 10)]
    keys = [crypto.verification_key(seed) for seed in seeds]
    info = crypto._ed25519_private.cache_info()
    assert info.maxsize == crypto._MEMO_SIZE
    assert info.currsize <= info.maxsize < info.misses
    # the oldest seed was evicted and is parsed again, to the same key
    assert crypto.verification_key(seeds[0]) == keys[0]
    assert crypto._ed25519_private.cache_info().misses == info.misses + 1


def test_scheme_mismatch_rejected():
    keypair = _keypair(SuciScheme.PROFILE_B)
    with pytest.raises(ValueError):
        crypto.conceal_supi(TEST_IDENTITY, keypair, SuciScheme.PROFILE_A, bytes(32))


def test_malformed_public_point_rejected():
    malformed = crypto.HomeNetworkKeyPair(
        scheme=SuciScheme.PROFILE_B, public_bytes=b"\xff" * 33, private_key=None)
    with pytest.raises(ValueError):
        crypto.conceal_supi(TEST_IDENTITY, malformed, SuciScheme.PROFILE_B, bytes(32))


def test_unknown_scheme_byte_rejected():
    suci = crypto.conceal_supi(TEST_IDENTITY, None, SuciScheme.NULL)
    raw = bytearray(suci.to_bytes())
    raw[0] = 9
    with pytest.raises(UnsupportedScheme):
        ConcealedIdentity.from_bytes(bytes(raw))


def test_suci_wire_round_trip():
    keypair = _keypair(SuciScheme.PROFILE_A)
    suci = crypto.conceal_supi(TEST_IDENTITY, keypair, SuciScheme.PROFILE_A, bytes(32))
    assert ConcealedIdentity.from_bytes(suci.to_bytes()) == suci


# ---------------------------------------------------------------------------
# Challenge vectors
# ---------------------------------------------------------------------------


def test_auth_vector_known_answer():
    cred = LongTermCredential(k=bytes(16), sqn=0)
    vector = crypto.compute_auth_vector(cred, "5G:test", bytes(16))
    assert vector.autn.to_bytes().hex() == KAT["aka_autn"]
    assert vector.xres.hex() == KAT["aka_xres"]
    assert vector.hxres.hex() == KAT["aka_hxres"]
    assert vector.k_ausf.hex() == KAT["aka_k_ausf"]


def test_generate_advances_sqn_and_changes_token():
    rng = RandomStream(3, "aka")
    cred = LongTermCredential(k=bytes(range(16)), sqn=1)
    v1, cred = crypto.generate_auth_vector(cred, "5G:test", rng)
    v2, cred = crypto.generate_auth_vector(cred, "5G:test", rng)
    assert cred.sqn == 3
    assert v1.autn.sqn_xor_ak != v2.autn.sqn_xor_ak


def test_serving_network_changes_k_ausf_not_xres():
    cred = LongTermCredential(k=bytes(range(16)), sqn=4)
    rand = bytes(range(16))
    v1 = crypto.compute_auth_vector(cred, "5G:alpha", rand)
    v2 = crypto.compute_auth_vector(cred, "5G:beta", rand)
    assert v1.xres == v2.xres
    assert v1.k_ausf != v2.k_ausf
    ref1 = oracles.auth_vector(cred.k, 4, rand, "5G:alpha")
    ref2 = oracles.auth_vector(cred.k, 4, rand, "5G:beta")
    assert (v1.xres, v1.k_ausf) == (ref1["xres"], ref1["k_ausf"])
    assert (v2.xres, v2.k_ausf) == (ref2["xres"], ref2["k_ausf"])


def test_challenge_round_trip_and_hxres():
    rng = RandomStream(5, "aka")
    cred = LongTermCredential(k=rng.take(16), sqn=1)
    vector, _ = crypto.generate_auth_vector(cred, "5G:test", rng)
    res, new_sqn = crypto.ue_verify_challenge(cred, vector.rand, vector.autn, 0)
    assert crypto.res_hash(vector.rand, res) == vector.hxres
    assert new_sqn == 1


def test_replayed_token_is_stale():
    rng = RandomStream(6, "aka")
    cred = LongTermCredential(k=rng.take(16), sqn=1)
    vector, _ = crypto.generate_auth_vector(cred, "5G:test", rng)
    _, window = crypto.ue_verify_challenge(cred, vector.rand, vector.autn, 0)
    with pytest.raises(crypto.SqnStale):
        crypto.ue_verify_challenge(cred, vector.rand, vector.autn, window)


def test_flipped_mac_is_mismatch():
    rng = RandomStream(7, "aka")
    cred = LongTermCredential(k=rng.take(16), sqn=1)
    vector, _ = crypto.generate_auth_vector(cred, "5G:test", rng)
    bad = crypto.Autn(
        sqn_xor_ak=vector.autn.sqn_xor_ak,
        amf_field=vector.autn.amf_field,
        mac=bytes([vector.autn.mac[0] ^ 0x80]) + vector.autn.mac[1:],
    )
    with pytest.raises(crypto.MacMismatch):
        crypto.ue_verify_challenge(cred, vector.rand, bad, 0)


def test_res_hash_known_answer_and_separation():
    assert crypto.res_hash(bytes(16), bytes(16)).hex() == KAT["res_hash_zero"]
    rng = RandomStream(8, "res")
    rand = rng.take(16)
    xres = rng.take(16)
    hx = crypto.res_hash(rand, xres)
    for _ in range(1000):
        other = rng.take(16)
        if other != xres:
            assert crypto.res_hash(rand, other) != hx


# ---------------------------------------------------------------------------
# Key chain
# ---------------------------------------------------------------------------

CHAIN_ARGS = (bytes(range(32)), "5G:test", "imsi-001010123456789", b"\x00\x00", 2, 2)


def test_chain_known_answer_and_determinism():
    h1 = composed_chain(*CHAIN_ARGS)
    h2 = composed_chain(*CHAIN_ARGS)
    assert h1.get("k_nas_enc").hex() == KAT["chain_k_nas_enc"]
    assert h1 == h2


def test_chain_matches_oracle():
    ref = oracles.key_chain(*CHAIN_ARGS)
    hier = composed_chain(*CHAIN_ARGS)
    for name, value in ref.items():
        assert hier.get(name) == value, name


def test_abba_change_moves_k_amf_but_not_k_seaf():
    base = composed_chain(*CHAIN_ARGS)
    other = composed_chain(
        CHAIN_ARGS[0], CHAIN_ARGS[1], CHAIN_ARGS[2], b"\x00\x01", 2, 2
    )
    assert base.get("k_seaf") == other.get("k_seaf")
    assert base.get("k_amf") != other.get("k_amf")
    for name in ("k_nas_int", "k_nas_enc", "k_gnb", "k_rrc_int",
                 "k_rrc_enc", "k_up_int", "k_up_enc"):
        assert base.get(name) != other.get(name), name
    ref = oracles.key_chain(CHAIN_ARGS[0], CHAIN_ARGS[1], CHAIN_ARGS[2],
                            b"\x00\x01", 2, 2)
    assert other.get("k_amf") == ref["k_amf"]


_SERVING_CHAIN = ["k_seaf", "k_amf", "k_nas_int", "k_nas_enc", "k_gnb"]
_AS_CHAIN = ["k_gnb", "k_rrc_int", "k_rrc_enc", "k_up_int", "k_up_enc"]


def test_partial_chains_agree_with_full_chain():
    # each cut agrees with the oracle's whole chain, and is its root, then
    # the root's descendants in file order
    full = oracles.key_chain(*CHAIN_ARGS)
    assert [*_SERVING_CHAIN, *_AS_CHAIN[1:]] == list(oracles.LABELS["chain"])
    assert crypto.derive_k_seaf(CHAIN_ARGS[0], CHAIN_ARGS[1]) == full["k_seaf"]
    amf_side = crypto.derive_chain_from_seaf(
        full["k_seaf"], CHAIN_ARGS[2], CHAIN_ARGS[3], 2, 2
    )
    assert amf_side == {name: full[name] for name in _SERVING_CHAIN}
    assert list(amf_side) == _SERVING_CHAIN
    gnb_side = crypto.derive_as_keys(full["k_gnb"], 2, 2)
    assert gnb_side == {name: full[name] for name in _AS_CHAIN}
    assert list(gnb_side) == _AS_CHAIN


@pytest.mark.parametrize("length", [0, 31, 33])
@pytest.mark.parametrize("derive", [
    lambda root: crypto.derive_k_seaf(root, CHAIN_ARGS[1]),
    lambda root: crypto.derive_chain_from_seaf(root, *CHAIN_ARGS[2:]),
    lambda root: crypto.derive_as_keys(root, 2, 2),
], ids=["derive_k_seaf", "derive_chain_from_seaf", "derive_as_keys"])
def test_chain_root_of_wrong_length_is_refused(derive, length):
    with pytest.raises(ValueError):
        derive(bytes(length))


# ---------------------------------------------------------------------------
# Message protection
# ---------------------------------------------------------------------------

KEY_ENC = bytes(range(32))
KEY_INT = bytes(range(32, 64))
NAS_KEYS = {"k_nas_enc": KEY_ENC, "k_nas_int": KEY_INT}
INNER = messages.AppData(payload=b"secret")


def ctr_icb(count: int, direction: int) -> bytes:
    """The initial counter block of one message: COUNT, DIRECTION, zeros."""
    return count.to_bytes(4, "big") + bytes([direction]) + bytes(11)


def nia2_tag(k_int: bytes, count: int, direction: int, body: bytes) -> bytes:
    """128-NIA2 from the CMAC oracle: COUNT || DIRECTION || body, cut to 4 bytes."""
    message = count.to_bytes(4, "big") + bytes([direction]) + body
    return oracles.cmac(k_int[16:], message)[:crypto.MAC_I_LEN]


def oracle_wrapper(wrapper, key_enc, key_int, body, count, direction, nea=2, nia=2):
    """A wrapper of ``body`` built by the CTR and CMAC oracles alone."""
    if nea:
        body = oracles.aes128_ctr(key_enc[16:], ctr_icb(count, direction), body)
    tag = nia2_tag(key_int, count, direction, body) if nia else bytes(crypto.MAC_I_LEN)
    return wrapper(count=count, direction=direction, nea_id=nea, nia_id=nia,
                   mac_tag=tag, body=body)


def nas_wrapper(body, count, direction, nea=2, nia=2):
    return oracle_wrapper(messages.SecuredNas, KEY_ENC, KEY_INT, body, count, direction,
                          nea, nia)


def nas_end(direction, nea=2, nia=2, next_tx=0, next_rx=0):
    """One end of a NAS link under ``NAS_KEYS``, its counters set."""
    end = crypto.SecureLink(messages.SecuredNas, NAS_KEYS, nea, nia, direction)
    end.next_tx, end.next_rx = next_tx, next_rx
    return end


def test_a_link_runs_ids_0_and_2_and_refuses_the_others():
    """Ids 0 and 2 run, 1 and 3 are registered stubs and 7 is not
    registered, for ciphering and integrity alike."""
    assert crypto.RUNNING_ALGORITHMS == {0, 2} and crypto.STUB_ALGORITHMS == {1, 3}
    for nea, nia in ((0, 0), (2, 0), (0, 2), (2, 2)):  # implemented, both kinds
        assert nas_end(1, nea, nia).open(nas_end(0, nea, nia).seal(INNER)) == \
            messages.encode(INNER)
    for alg, error in ((1, crypto.StubAlgorithm), (3, crypto.StubAlgorithm), (7, ValueError)):
        for nea, nia in ((alg, 0), (0, alg)):  # ciphering, then integrity
            with pytest.raises(error):
                nas_end(0, nea, nia)
    assert not issubclass(crypto.StubAlgorithm, ValueError)


def test_null_algorithms_are_transparent_with_tag_overhead():
    sealed = crypto.SecureLink(messages.SecuredNas, {}, 0, 0, 0).seal(INNER)
    assert (sealed.body, sealed.mac_tag) == (messages.encode(INNER), b"\x00\x00\x00\x00")
    receiver = crypto.SecureLink(messages.SecuredNas, {}, 0, 0, 1)
    assert receiver.open(nas_wrapper(b"payload-bytes", 0, 0, 0, 0)) == b"payload-bytes"


def test_a_link_round_trip_aes():
    sealed = nas_end(1, next_tx=7).seal(INNER)
    plaintext = messages.encode(INNER)
    assert sealed.count == 7 and sealed.body != plaintext
    assert sealed == nas_wrapper(plaintext, 7, 1)
    assert nas_end(0).open(sealed) == plaintext


def test_tamper_detected_under_real_integrity():
    sealed = nas_end(0, next_tx=3).seal(INNER)
    forged = dataclasses.replace(sealed, body=bytes([sealed.body[0] ^ 1]) + sealed.body[1:])
    assert nas_end(1).open(forged) is crypto.LinkReject.INTEGRITY


def test_tamper_accepted_under_null_integrity():
    assert nas_end(1, 0, 0).open(nas_wrapper(b"sEcret", 3, 0, 0, 0)) == b"sEcret"


@given(st.binary(max_size=256), st.integers(0, 2**24 - 1), st.integers(0, 1))
@settings(max_examples=200, deadline=None)
def test_a_link_round_trip_property(payload, count, direction):
    receiver = nas_end(1 - direction, next_rx=count)
    assert receiver.open(nas_wrapper(payload, count, direction)) == payload
    inner = messages.AppData(payload=payload)
    sealed = nas_end(direction, next_tx=count).seal(inner)
    assert nas_end(1 - direction, next_rx=count).open(sealed) == messages.encode(inner)


# bodies around the 16-byte block, a full-size packet and a long message of
# more than 128 blocks
KEYSTREAM_SIZES = (0, 1, 15, 16, 17, 1400, 16 * 128 + 5)


def keystream_body(size: int, salt: int = 0) -> bytes:
    return bytes((i * 7 + salt) % 256 for i in range(size))


@pytest.mark.parametrize("size", KEYSTREAM_SIZES)
@pytest.mark.parametrize("count", [0, crypto.COUNT_MAX])
@pytest.mark.parametrize("direction", [0, 1])
def test_ciphering_is_aes_ctr_from_count_and_direction(size, count, direction):
    body = keystream_body(size)
    receiver = nas_end(1 - direction, 2, 0)
    assert receiver.open(nas_wrapper(body, count, direction, 2, 0)) == body
    inner = messages.AppData(payload=body)
    sealed = nas_end(direction, 2, 0, next_tx=count).seal(inner)
    assert sealed == nas_wrapper(messages.encode(inner), count, direction, 2, 0)


RFC4493_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC4493_MESSAGE = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710")


@pytest.mark.parametrize("length,tag", [
    (0, "bb1d6929e95937287fa37d129b756746"),
    (16, "070a16b46b4d4144f79bdd9dd04a287c"),
    (40, "dfa66747de9ae63030ca32611497c827"),
    (64, "51f0bebf7e3b9d92fc49741779363cfe"),
])
def test_cmac_oracle_matches_rfc_4493_examples(length, tag):
    assert oracles.cmac(RFC4493_KEY, RFC4493_MESSAGE[:length]).hex() == tag


def test_count_direction_bind_the_tag():
    sealed = nas_end(0, next_tx=3).seal(INNER)
    assert nas_end(1).open(dataclasses.replace(sealed, count=4)) is crypto.LinkReject.INTEGRITY
    # an end that sends uplink reads the relabeled downlink wrapper
    assert nas_end(0).open(dataclasses.replace(sealed, direction=1)) is \
        crypto.LinkReject.INTEGRITY
    assert nas_end(1).open(sealed) == messages.encode(INNER)


# ---------------------------------------------------------------------------
# Signed rejects
# ---------------------------------------------------------------------------


def test_reject_sign_verify_round_trip():
    pair = crypto.RejectSigningKeyPair.from_seed(bytes(range(64, 96)))
    sig = crypto.sign_reject(pair.signing_key, 3, "cell-1", b"nonce123")
    assert len(sig) == 64
    assert crypto.verify_reject(pair.verification_key, 3, "cell-1", b"nonce123", sig)


@pytest.mark.parametrize("wrong", ["other", "short", "long"])
def test_reject_wrong_key_refused(wrong):
    pair = crypto.RejectSigningKeyPair.from_seed(bytes(range(64, 96)))
    # another pair's key, and keys of 31 and 33 bytes, which no Ed25519 key is
    key = {"other": crypto.RejectSigningKeyPair.from_seed(bytes(range(96, 128))).verification_key,
           "short": pair.verification_key[:31],
           "long": pair.verification_key + b"\x00"}[wrong]
    sig = crypto.sign_reject(pair.signing_key, 3, "cell-1", b"nonce123")
    assert not crypto.verify_reject(key, 3, "cell-1", b"nonce123", sig)


def test_reject_replay_with_new_nonce_refused():
    pair = crypto.RejectSigningKeyPair.from_seed(bytes(range(64, 96)))
    sig = crypto.sign_reject(pair.signing_key, 3, "cell-1", b"nonce123")
    assert not crypto.verify_reject(pair.verification_key, 3, "cell-1", b"other456", sig)


def test_reject_keypair_invariant():
    pair = crypto.RejectSigningKeyPair.from_seed(bytes(32))
    for msg_nonce in (b"a", b"b", b"c"):
        sig = crypto.sign_reject(pair.signing_key, 6, "cell-2", msg_nonce)
        assert crypto.verify_reject(pair.verification_key, 6, "cell-2", msg_nonce, sig)


# ---------------------------------------------------------------------------
# Key parses: each holder parses a key once, at its first use
# ---------------------------------------------------------------------------


def _count_key_parses(monkeypatch) -> Counter:
    """Count the key constructors crypto calls, by the names it binds,
    from cold memos."""
    oracles.clear_crypto_memos()
    parses = Counter()

    def counted(cls, method):
        def parse(*args, _fn=getattr(cls, method)):
            parses[cls.__name__] += 1
            return _fn(*args)
        monkeypatch.setattr(crypto, cls.__name__,
                            types.SimpleNamespace(**{method: parse}))

    counted(crypto.X25519PrivateKey, "from_private_bytes")
    counted(crypto.X25519PublicKey, "from_public_bytes")
    counted(crypto.Ed25519PrivateKey, "from_private_bytes")
    return parses


def test_key_parses_of_ten_registrations(monkeypatch):
    parses = _count_key_parses(monkeypatch)
    world, builder = single_network_world(3, ue_count=10)
    for ue_id in sorted(builder.ues):
        assert run_registration(world, ue_id).success
    # the home key once and one ephemeral key per concealment; the home
    # public key once, and no ephemeral one, for the home reads the
    # agreement its UE ran; the NRF seed never, for no token is checked
    assert parses == {"X25519PrivateKey": 11, "X25519PublicKey": 1}


def test_a_second_world_of_the_same_seed_parses_no_concealment_key(monkeypatch):
    parses = _count_key_parses(monkeypatch)
    for _ in range(2):
        parses.clear()
        world, builder = single_network_world(3, ue_count=10)
        for ue_id in sorted(builder.ues):
            assert run_registration(world, ue_id).success
    # the same home seed and ephemeral secrets: every pair and agreement
    # is the first world's
    assert parses == {}


def test_key_parses_of_a_roaming_registration(monkeypatch):
    parses = _count_key_parses(monkeypatch)
    world, _ = roaming_world(3)
    assert run_registration(world, "ue1").success
    # each proxy's seed once, for the other's allowlist and to sign its
    # half of the handshake; neither NRF's seed
    assert parses["Ed25519PrivateKey"] == 2


def test_only_crypto_imports_cryptography():
    # every asymmetric key is parsed, and every signature made, in one module
    package = pathlib.Path(crypto.__file__).parent
    importers = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "cryptography" for name in names):
                importers.add(path.relative_to(package).as_posix())
    assert importers == {"crypto.py"}


def test_cipher_classes_are_bound_at_import():
    # cryptography wraps some modules (ciphers.algorithms, ciphers.modes) in a
    # ModuleType subclass whose every attribute lookup runs a Python
    # __getattr__; crypto binds the classes it needs instead of the modules
    wrapped = sorted(name for name, value in vars(crypto).items()
                     if isinstance(value, types.ModuleType)
                     and value.__name__.split(".")[0] == "cryptography"
                     and type(value) is not types.ModuleType)
    assert wrapped == []


# ---------------------------------------------------------------------------
# Vector file
# ---------------------------------------------------------------------------


def test_vector_file_matches_checked_in_copy():
    assert generate_vectors() == (DATA / "known_answers.txt").read_text()


def test_vector_file_values_match_frozen_kat():
    values = oracles.parse_vectors((DATA / "known_answers.txt").read_text())
    for name, hexval in KAT.items():
        assert values[name].hex() == hexval, name
