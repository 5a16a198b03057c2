"""SecureLink: one protection path for NAS, RRC and user-plane wrappers.

The unit tests pin the link's per-direction counters and its rejection
reasons.  The world tests replay, relabel and rewrite wrappers on the
radio link; each attempt must end in a typed rejection from ``open`` and
an ignored transition: no exception escapes the world and nothing is
delivered twice.
"""

from collections import Counter
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.cmac import CMAC

import oracles
from fivegsim import crypto, messages
from fivegsim.entities.base import try_decode
from fivegsim.flows import (
    establish_user_plane,
    find_amf_session,
    run_registration,
    send_app_data,
)
from fivegsim.identity import SuciScheme
from fivegsim.netsim import RADIO_CHANNELS, Action, AdversaryHook, Capability, Channel
from fivegsim.policy import OperatorPolicy
from fivegsim.worldfile import single_network_world
from test_crypto import (
    HOME_SEED,
    TEST_IDENTITY,
    ctr_icb,
    keystream_body,
    nia2_tag,
    oracle_wrapper,
)

KEYS = {
    name: bytes([i + 1]) * 32
    for i, name in enumerate(("k_nas_enc", "k_nas_int", "k_rrc_enc",
                              "k_rrc_int", "k_up_enc", "k_up_int"))
}
WRAPPERS = (messages.SecuredNas, messages.SecuredRrc, messages.SecuredUp)
INNER = messages.AppData(payload=b"inner-bytes")


def _pair(wrapper=messages.SecuredNas, nea=2, nia=2):
    """Two ends of one link: the uplink sender and its receiver."""
    return (crypto.SecureLink(wrapper, KEYS, nea, nia, direction=0),
            crypto.SecureLink(wrapper, KEYS, nea, nia, direction=1))


# ---------------------------------------------------------------------------
# The link itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("wrapper", WRAPPERS, ids=lambda w: w.__name__)
@pytest.mark.parametrize("nea,nia", [(0, 0), (0, 2), (2, 0), (2, 2)])
def test_seal_then_open_round_trip(wrapper, nea, nia):
    ue_end, network_end = _pair(wrapper, nea, nia)
    sealed = ue_end.seal(INNER)
    assert type(sealed) is wrapper
    assert (sealed.count, sealed.direction, sealed.nea_id, sealed.nia_id) == (0, 0, nea, nia)
    assert (sealed.body == messages.encode(INNER)) == (nea == 0)
    assert network_end.open(sealed) == messages.encode(INNER)


@pytest.mark.parametrize("wrapper", WRAPPERS, ids=lambda w: w.__name__)
def test_a_link_refuses_at_construction(wrapper):
    """A link checks its ids and keys once, when it is built: a stub or an
    unknown id, or a missing key of a non-null algorithm, never reaches a
    seal.  The null algorithms need no key."""
    for alg, error in ((1, crypto.StubAlgorithm), (3, crypto.StubAlgorithm), (7, ValueError)):
        for nea, nia in ((alg, 0), (0, alg)):  # ciphering, then integrity
            with pytest.raises(error):
                crypto.SecureLink(wrapper, KEYS, nea, nia, direction=0)
    for missing, (nea, nia) in zip(crypto._LINK_KEYS[wrapper], ((2, 0), (0, 2))):
        keys = {name: key for name, key in KEYS.items() if name != missing}
        with pytest.raises(KeyError):
            crypto.SecureLink(wrapper, keys, nea, nia, direction=0)
    ue_end, network_end = (crypto.SecureLink(wrapper, {}, 0, 0, d) for d in (0, 1))
    assert network_end.open(ue_end.seal(INNER)) == messages.encode(INNER)


def test_secure_link_counts_never_decrease():
    ue_end, network_end = _pair()
    first, second = ue_end.seal(INNER), ue_end.seal(INNER)
    assert (first.count, second.count) == (0, 1)
    assert network_end.open(second) == messages.encode(INNER)
    assert network_end.open(first) is crypto.LinkReject.COUNT
    assert network_end.open(second) is crypto.LinkReject.COUNT
    # each direction keeps its own counter
    assert network_end.seal(INNER).count == 0
    assert ue_end.open(network_end.seal(INNER)) == messages.encode(INNER)


def _up_wrapper(body: bytes, count: int, direction: int):
    """A user-plane wrapper of ``body`` under ``KEYS`` from the oracles."""
    return oracle_wrapper(messages.SecuredUp, KEYS["k_up_enc"], KEYS["k_up_int"], body,
                          count, direction)


# a run of bodies of mixed sizes: empty ones, partial blocks, whole blocks,
# full-size packets and one of more than 128 blocks
MIXED_SIZES = (17, 0, 1400, 1, 16, 0, 2053, 15, 64, 0, 1400)


@pytest.mark.parametrize("wrapper", WRAPPERS, ids=lambda w: w.__name__)
def test_a_link_seals_as_the_ctr_and_cmac_oracles_do(wrapper):
    """One AES context and one prepared integrity key serve every message
    of a link; in both directions, each body and tag matches the CTR and
    CMAC oracles."""
    enc_name, int_name = crypto._LINK_KEYS[wrapper]
    for direction in (0, 1):
        sender = crypto.SecureLink(wrapper, KEYS, 2, 2, direction=direction)
        receiver = crypto.SecureLink(wrapper, KEYS, 2, 2, direction=1 - direction)
        for count, size in enumerate(MIXED_SIZES):
            inner = messages.AppData(payload=keystream_body(size, salt=count))
            plaintext = messages.encode(inner)
            sealed = sender.seal(inner)
            assert sealed.body == oracles.aes128_ctr(KEYS[enc_name][16:],
                                                     ctr_icb(count, direction), plaintext)
            assert sealed.mac_tag == nia2_tag(KEYS[int_name], count, direction, sealed.body)
            assert receiver.open(sealed) == plaintext


@pytest.mark.parametrize("first", [0, crypto.COUNT_MAX + 1 - len(MIXED_SIZES)])
def test_a_link_opens_empty_and_long_bodies_between_others(first):
    """Empty bodies reach the receiving link's keystream too (``seal``
    always has a header to cipher); the messages after them still open."""
    _, network_end = _pair(messages.SecuredUp)
    network_end.next_rx = first
    for count, size in enumerate(MIXED_SIZES, start=first):
        body = keystream_body(size, salt=count)
        assert network_end.open(_up_wrapper(body, count, 0)) == body


# bodies that end mid-block, and empty ones
MID_BLOCK_SIZES = (1, 0, 17, 1399, 0, 17, 1)


def test_one_link_end_seals_and_opens_through_one_keystream():
    """The network end alternately seals downlink and opens uplink bodies
    that end mid-block, so its one AES context serves both directions and
    must carry nothing over from one message to the next: each body is the
    CTR oracle's at its own count and direction."""
    _, network_end = _pair(messages.SecuredUp)
    key_enc = KEYS["k_up_enc"]
    for count, size in enumerate(MID_BLOCK_SIZES):
        inner = messages.AppData(payload=keystream_body(size, salt=count))
        plaintext = messages.encode(inner)
        sealed = network_end.seal(inner)
        assert sealed.body == oracles.aes128_ctr(key_enc[16:], ctr_icb(count, 1), plaintext)
        body = keystream_body(size, salt=count + 1)
        assert network_end.open(_up_wrapper(body, count, 0)) == body


def test_a_forged_body_leaves_the_next_packet_deciphered_at_its_own_count():
    """Without UP integrity a forged body is deciphered as any other; it
    ends mid-block, and the genuine packets on either side of it still
    match the CTR oracle."""
    ue_end, network_end = _pair(messages.SecuredUp, nea=2, nia=0)
    key = KEYS["k_up_enc"][16:]
    forged = messages.SecuredUp(count=7, direction=0, nea_id=2, nia_id=0,
                                mac_tag=bytes(crypto.MAC_I_LEN), body=keystream_body(5))
    for count, packet in enumerate((messages.AppData(payload=keystream_body(1389)),
                                    messages.AppData(payload=keystream_body(7, salt=1)))):
        plaintext = messages.encode(packet)
        sealed = ue_end.seal(packet)
        assert sealed.body == oracles.aes128_ctr(key, ctr_icb(count, 0), plaintext)
        assert network_end.open(sealed) == plaintext
        assert network_end.open(forged) == oracles.aes128_ctr(key, ctr_icb(7, 0), forged.body)


def _send_checked(sender, receiver, count: int, size: int) -> None:
    """One message from ``sender`` at ``count``: its body is the CTR
    oracle's at that count and the sender's direction, its tag the CMAC
    oracle's, and it opens."""
    inner = messages.AppData(payload=keystream_body(size, salt=count + sender.direction))
    plaintext = messages.encode(inner)
    sealed = sender.seal(inner)
    assert sealed.count == count
    key_enc = KEYS[crypto._LINK_KEYS[sender.wrapper][0]]
    assert sealed.body == oracles.aes128_ctr(key_enc[16:], ctr_icb(count, sender.direction),
                                             plaintext)
    key_int = KEYS[crypto._LINK_KEYS[sender.wrapper][1]]
    assert sealed.mac_tag == nia2_tag(key_int, count, sender.direction, sealed.body)
    assert receiver.open(sealed) == plaintext


def test_the_two_ends_of_a_link_share_one_context():
    """Both ends of a link cipher with their key's one AES context.  They
    alternate on bodies that end mid-block, and each body is still the CTR
    oracle's at its own count and direction."""
    oracles.clear_crypto_memos()
    ue_end, network_end = _pair(messages.SecuredNas)
    for count, size in enumerate(MID_BLOCK_SIZES):
        _send_checked(ue_end, network_end, count, size)
        _send_checked(network_end, ue_end, count, size)
    assert ue_end._ctr is network_end._ctr


def test_a_ciphering_link_end_holds_its_key_context_from_construction():
    """A link end takes its key's one AES-CTR encryptor when it is built,
    before it seals anything; a null-ciphering end holds none."""
    oracles.clear_crypto_memos()
    for wrapper in WRAPPERS:
        key_enc = KEYS[crypto._LINK_KEYS[wrapper][0]]
        end = crypto.SecureLink(wrapper, KEYS, 2, 2, direction=0)
        assert end._ctr is crypto._ctr_context(key_enc[16:])
        assert crypto.SecureLink(wrapper, KEYS, 0, 2, direction=0)._ctr is None


@pytest.mark.parametrize("memo, handle", [("_ctr_context", "_ctr"), ("_cmac_context", "_mac")],
                         ids=["ctr", "cmac"])
def test_a_link_whose_context_was_evicted_still_seals_and_opens(memo, handle):
    """A link end keeps its AES-CTR encryptor and its keyed CMAC after
    their memo has dropped them."""
    oracles.clear_crypto_memos()
    ue_end, network_end = _pair(messages.SecuredRrc)
    _send_checked(ue_end, network_end, 0, 17)
    for i in range(crypto._MEMO_SIZE):  # every entry is now another key's
        getattr(crypto, memo)(b"\xee" + i.to_bytes(15, "big"))
    _send_checked(ue_end, network_end, 1, 1399)
    _send_checked(network_end, ue_end, 0, 1)
    # an end made after the eviction builds a new context for the key and
    # still reads the older end
    late_end = crypto.SecureLink(messages.SecuredRrc, KEYS, 2, 2, direction=1)
    _send_checked(ue_end, late_end, 2, 33)
    assert getattr(late_end, handle) is not getattr(ue_end, handle)


def test_both_ends_of_a_link_hold_one_keyed_cmac_from_construction():
    """A link end takes its key's one keyed CMAC when it is built, and the
    other end of the link takes the same one; a null-integrity end holds
    none."""
    oracles.clear_crypto_memos()
    for wrapper in WRAPPERS:
        key_int = KEYS[crypto._LINK_KEYS[wrapper][1]]
        ue_end, network_end = _pair(wrapper)
        assert ue_end._mac is network_end._mac is crypto._cmac_context(key_int[16:])
        assert crypto.SecureLink(wrapper, KEYS, 2, 0, direction=0)._mac is None


def test_tags_on_one_shared_cmac_stay_the_oracles_over_many_messages():
    """Every tag is computed on a copy of the link's one keyed CMAC, so no
    seal or open moves it: over 1,000 messages that alternate direction
    and size, each tag is the one a CMAC keyed for that message alone
    gives, and one in eleven is checked against the RFC 4493 oracle too
    (which costs milliseconds per tag)."""
    oracles.clear_crypto_memos()
    ue_end, network_end = _pair(messages.SecuredUp)
    key_int = KEYS["k_up_int"]
    for i in range(1000):
        sender, receiver = (ue_end, network_end) if i % 2 == 0 else (network_end, ue_end)
        inner = messages.AppData(payload=keystream_body((64, 512, 1400)[i % 3], salt=i))
        sealed = sender.seal(inner)
        fresh = CMAC(AES(key_int[16:]))
        fresh.update(sealed.count.to_bytes(4, "big") + bytes([sender.direction]) + sealed.body)
        assert sealed.mac_tag == fresh.finalize()[:crypto.MAC_I_LEN]
        if i % 11 == 0:
            assert sealed.mac_tag == nia2_tag(key_int, sealed.count, sender.direction,
                                              sealed.body)
        assert receiver.open(sealed) == messages.encode(inner)
    assert (ue_end.next_tx, network_end.next_tx) == (500, 500)
    assert ue_end._mac is network_end._mac


@pytest.mark.parametrize("scheme", [SuciScheme.PROFILE_A, SuciScheme.PROFILE_B],
                         ids=lambda s: s.name)
def test_a_suci_deconceals_after_a_link_ciphers_in_between(scheme):
    """Concealment and deconcealment share the SUCI key's one AES context;
    a link message ciphered between them, under its own key, leaves the
    identity recoverable."""
    oracles.clear_crypto_memos()
    keypair = crypto.HomeNetworkKeyPair.from_seed(scheme, HOME_SEED)
    suci = crypto.conceal_supi(TEST_IDENTITY, keypair, scheme, bytes(32))
    _send_checked(*_pair(messages.SecuredNas), 0, 17)
    assert crypto.deconceal_suci(suci, keypair) == TEST_IDENTITY


def test_each_up_packet_costs_one_protect_one_unprotect_and_no_cmac_built(monkeypatch):
    """Counts, not timings: once a link pair has carried its first packet,
    a packet is one protect and one unprotect call, with no CMAC, no AES
    key object and no cipher context built for it (each tag copies the
    link's keyed CMAC)."""
    calls = Counter()

    def count_calls(name):
        real = getattr(crypto, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(crypto, name, counted)

    for name in ("protect", "unprotect", "CMAC", "AES", "Cipher"):
        count_calls(name)
    ue_end, network_end = _pair(messages.SecuredUp, nea=2, nia=2)
    packets = [messages.AppData(payload=keystream_body(size, salt=i))
               for i, size in enumerate((64, 512, 1400) * 10)]
    assert network_end.open(ue_end.seal(packets[0])) == messages.encode(packets[0])
    calls.clear()
    for packet in packets[1:]:
        assert network_end.open(ue_end.seal(packet)) == messages.encode(packet)
    sent = len(packets) - 1
    assert calls["CMAC"] == 0
    assert calls == {"protect": sent, "unprotect": sent}


def test_open_rejects_own_direction():
    ue_end, _ = _pair()
    assert ue_end.open(ue_end.seal(INNER)) is crypto.LinkReject.DIRECTION
    relabeled = replace(ue_end.seal(INNER), direction=3)
    assert _pair()[1].open(relabeled) is crypto.LinkReject.DIRECTION


@pytest.mark.parametrize("header", [
    {"nea_id": 0, "nia_id": 0}, {"nea_id": 0}, {"nia_id": 0},
    {"nia_id": 1}, {"nia_id": 7}, {"nea_id": 3},
])
def test_open_pins_the_negotiated_algorithms(header):
    ue_end, network_end = _pair()
    relabeled = replace(ue_end.seal(INNER), **header)
    assert network_end.open(relabeled) is crypto.LinkReject.ALGORITHM


@pytest.mark.parametrize("count", [-1, 2**32, 2**63 - 1])
def test_open_rejects_count_outside_window(count):
    ue_end, network_end = _pair()
    assert network_end.open(replace(ue_end.seal(INNER), count=count)) \
        is crypto.LinkReject.COUNT


def test_null_integrity_has_no_replay_window():
    # nothing vouches for the count, so a forged one must not block later packets
    ue_end, network_end = _pair(messages.SecuredUp, nea=2, nia=0)
    forged = replace(ue_end.seal(INNER), count=10**6, body=b"\x00" * 8)
    for _ in range(2):
        assert isinstance(network_end.open(forged), bytes)
    assert network_end.open(ue_end.seal(INNER)) == messages.encode(INNER)
    assert network_end.open(replace(forged, count=-1)) is crypto.LinkReject.COUNT


def test_open_accepts_count_max():
    ue_end, network_end = _pair()
    ue_end.next_tx = crypto.COUNT_MAX
    assert network_end.open(ue_end.seal(INNER)) == messages.encode(INNER)


@pytest.mark.parametrize("field,value", [
    ("mac_tag", b"\x00\x00\x00\x01"), ("mac_tag", b"\x00"), ("body", b"\x00"),
])
def test_open_rejects_integrity_failure(field, value):
    ue_end, network_end = _pair()
    sealed = ue_end.seal(INNER)
    assert network_end.open(replace(sealed, **{field: value})) \
        is crypto.LinkReject.INTEGRITY
    # a rejection never advances the counter: the genuine wrapper still opens
    assert network_end.open(sealed) == messages.encode(INNER)


@pytest.mark.parametrize("nea", [0, 2])
def test_null_integrity_refuses_a_tag_that_is_not_four_bytes(nea):
    # no tag is compared under null integrity, so only its length is checked
    ue_end, network_end = _pair(nea=nea, nia=0)
    sealed = ue_end.seal(INNER)
    assert sealed.mac_tag == bytes(4)
    for tag in (bytes(3), bytes(5)):
        assert network_end.open(replace(sealed, mac_tag=tag)) is crypto.LinkReject.INTEGRITY
    assert network_end.open(sealed) == messages.encode(INNER)


def test_security_mode_command_is_integrity_only():
    ue_end, network_end = _pair()
    command = network_end.seal(INNER, integrity_only=True)
    assert (command.nea_id, command.nia_id) == (0, 2)
    assert command.body == messages.encode(INNER)
    assert ue_end.open(command) is crypto.LinkReject.ALGORITHM
    assert ue_end.open(command, integrity_only=True) == messages.encode(INNER)


# ---------------------------------------------------------------------------
# Attacks on the radio link
# ---------------------------------------------------------------------------


def _attach(world, handler, capability, channels=RADIO_CHANNELS):
    world.attach_adversary(AdversaryHook(
        adversary_id="mitm", vantage=frozenset(channels),
        capabilities=frozenset({Capability.OBSERVE, capability}),
        handler=handler))


def _replay_first(wrapper_name: str, captured: list):
    """Handler that re-sends the first uplink wrapper of a type once."""
    def handler(world, hook, event):
        if captured or event.src != "ue1" or \
                messages.peek_type(event.payload) != wrapper_name:
            return None
        captured.append(messages.decode(event.payload))
        return Action(inject=[(5, event.channel, event.src, event.dst, event.payload)])
    return handler


def _radio(builder):
    gnb = builder.networks["net"].cells[0]
    return gnb.ue_contexts[gnb.by_ue["ue1"]]


def _delivered(world, channel, msg_type):
    return [e for e in world.transcript.delivered({channel}) if e.msg_type == msg_type]


def _assert_nothing_twice(world, builder):
    active = [e.payload for e in _delivered(world, Channel.N2, "UeContextActive")]
    assert len(active) == len(set(active))
    payloads = [p for _, p in builder.networks["net"].upf.received]
    assert len(payloads) == len(set(payloads))


def _user_plane_world(seed):
    world, builder = single_network_world(
        seed=seed, policy=OperatorPolicy(up_integrity=True))
    assert run_registration(world, "ue1").success
    assert establish_user_plane(world, "ue1")
    return world, builder


def test_link_ends_agree_after_registration_and_traffic():
    world, builder = _user_plane_world(30)
    send_app_data(world, "ue1", b"one")
    send_app_data(world, "ue1", b"two")
    ue, radio = world.entities["ue1"], _radio(builder)
    session = find_amf_session(builder.networks["net"].amf, ue)
    # NAS: SMC, accept, session accept down; SMC complete, session request up
    assert (session.link.next_tx, ue.nas_link.next_rx) == (3, 3)
    assert (ue.nas_link.next_tx, session.link.next_rx) == (2, 2)
    assert (radio.rrc.next_tx, ue.rrc_link.next_rx, ue.rrc_link.next_tx,
            radio.rrc.next_rx) == (1, 1, 1, 1)
    assert (ue.up_link.next_tx, radio.up.next_rx) == (2, 2)
    assert (ue.up_link.nea_id, ue.up_link.nia_id) == (radio.up.nea_id, radio.up.nia_id) == (2, 2)


def test_replayed_up_packet_reaches_upf_once():
    world, builder = _user_plane_world(31)
    captured: list = []
    _attach(world, _replay_first("SecuredUp", captured), Capability.INJECT)
    send_app_data(world, "ue1", b"pay-once")
    assert [p for _, p in builder.networks["net"].upf.received] == [b"pay-once"]
    assert _radio(builder).up.open(captured[0]) is crypto.LinkReject.COUNT


def test_replayed_as_security_mode_complete_activates_once():
    world, builder = single_network_world(seed=32)
    captured: list = []
    _attach(world, _replay_first("SecuredRrc", captured), Capability.INJECT)
    assert run_registration(world, "ue1").success
    assert len(_delivered(world, Channel.N2, "UeContextActive")) == 1
    assert _radio(builder).rrc.open(captured[0]) is crypto.LinkReject.COUNT


def test_replayed_nas_security_mode_command_ignored():
    world, builder = single_network_world(seed=37)
    assert run_registration(world, "ue1").success
    ue = world.entities["ue1"]
    link = ue.nas_link
    command = next(
        e.payload for e in _delivered(world, Channel.RADIO_NAS, "SecuredNas")
        if e.dst == "ue1" and isinstance(
            try_decode(messages.decode(e.payload).body),
            messages.NasSecurityModeCommand))
    world.schedule(world.time + 1, Channel.RADIO_NAS, "cell-a", "ue1", command,
                   "adversary:mitm")
    world.run_until(world.time + 100)
    assert ue.phase.value == "registered" and ue.nas_link is link
    assert establish_user_plane(world, "ue1")


def test_replayed_as_security_mode_command_ignored():
    world, builder = single_network_world(seed=38)
    assert run_registration(world, "ue1").success
    link = world.entities["ue1"].rrc_link
    command = next(e.payload for e in _delivered(world, Channel.RADIO_RRC, "SecuredRrc")
                   if e.dst == "ue1")
    before = len(_delivered(world, Channel.RADIO_RRC, "SecuredRrc"))
    world.schedule(world.time + 1, Channel.RADIO_RRC, "cell-a", "ue1", command,
                   "adversary:mitm")
    world.run_until(world.time + 100)
    # only the replay itself: the UE answers nothing and keeps its link
    assert len(_delivered(world, Channel.RADIO_RRC, "SecuredRrc")) == before + 1
    assert world.entities["ue1"].rrc_link is link


def test_replayed_smf_session_response_keeps_the_up_links():
    # a second SmfSessionResponse for the same request must not rebuild the
    # user-plane links at count 0, which would reuse the AES-CTR keystream
    world, builder = _user_plane_world(39)
    response = _delivered(world, Channel.SBI, "SmfSessionResponse")[-1]
    send_app_data(world, "ue1", b"first")
    ue_link, radio_link = world.entities["ue1"].up_link, _radio(builder).up
    world.schedule(world.time + 1, Channel.SBI, response.src, response.dst,
                   response.payload, "adversary:mitm")
    world.run_until(world.time + 100)
    send_app_data(world, "ue1", b"second")
    assert world.entities["ue1"].up_link is ue_link and _radio(builder).up is radio_link
    counts = [messages.decode(e.payload).count
              for e in _delivered(world, Channel.RADIO_RRC, "SecuredUp")]
    assert counts == [0, 1]


def test_null_algorithm_up_forgery_not_forwarded():
    world, builder = _user_plane_world(33)
    forged = messages.SecuredUp(
        count=1000, direction=0, nea_id=0, nia_id=0, mac_tag=bytes(4),
        body=messages.encode(messages.AppData(payload=b"FORGED")))
    world.schedule(world.time + 1, Channel.RADIO_RRC, "ue1", "cell-a",
                   messages.encode(forged), "adversary:mitm")
    world.run_until(world.time + 100)
    assert builder.networks["net"].upf.received == []
    assert _radio(builder).up.open(forged) is crypto.LinkReject.ALGORITHM


def test_null_algorithm_nas_forgery_opens_no_session():
    world, builder = single_network_world(seed=34)
    assert run_registration(world, "ue1").success
    forged = messages.SecuredNas(
        count=1000, direction=0, nea_id=0, nia_id=0, mac_tag=bytes(4),
        body=messages.encode(messages.PduSessionRequest(slice_id="forged-slice")))
    world.schedule(world.time + 1, Channel.RADIO_NAS, "ue1", "cell-a",
                   messages.encode(forged), "adversary:mitm")
    world.run_until(world.time + 500)
    assert _delivered(world, Channel.SBI, "SmfSessionRequest") == []
    session = find_amf_session(builder.networks["net"].amf, world.entities["ue1"])
    assert session.link.open(forged) is crypto.LinkReject.ALGORITHM


# rrc_ciphering or up_ciphering off, and the AES-CTR contexts a world
# builds from cleared memos: one per ciphering key, the SUCI's (SA only),
# NAS's and that of whichever of RRC and the user plane still ciphers
NULL_CIPHERING = {
    "rrc-sa": (OperatorPolicy(rrc_ciphering=False), 3),
    "rrc-nsa": (OperatorPolicy(mode="NSA", rrc_ciphering=False), 2),
    "up": (OperatorPolicy(up_ciphering=False, up_integrity=True), 3),
}


@pytest.mark.parametrize("case", list(NULL_CIPHERING))
def test_a_null_ciphered_link_carries_a_session_and_a_packet(case):
    """Both ends of a link under null ciphering hold no encryptor, its
    wrappers read (nea, nia) = (0, 2), and a registration, a PDU session
    and one packet still go through."""
    policy, contexts = NULL_CIPHERING[case]
    oracles.clear_crypto_memos()
    world, builder = single_network_world(1, policy)
    assert run_registration(world, "ue1").success
    assert establish_user_plane(world, "ue1")
    send_app_data(world, "ue1", b"in-clear")
    net = builder.networks["net"]
    assert [p for _, p in net.upf.received] == [b"in-clear"]
    node = net.engnb or net.cells[0]  # NSA runs AS security on its en-gNB
    ue, radio = world.entities["ue1"], node.ue_contexts[node.by_ue["ue1"]]
    if case == "up":
        ends = (ue.up_link, radio.up)
        [packet] = [messages.decode(e.payload)
                    for e in _delivered(world, Channel.RADIO_RRC, "SecuredUp")]
        assert (packet.nea_id, packet.nia_id) == (0, 2)
        assert packet.body == messages.encode(messages.AppData(payload=b"in-clear"))
        assert packet.mac_tag == nia2_tag(ue.as_keys["k_up_int"], packet.count,
                                          packet.direction, packet.body)
    else:
        ends = (ue.rrc_link, radio.rrc)
        sealed = [messages.decode(e.payload)
                  for e in _delivered(world, Channel.RADIO_RRC, "SecuredRrc")]
        assert sealed and {(w.nea_id, w.nia_id) for w in sealed} == {(0, 2)}
    assert [end._ctr for end in ends] == [None, None]
    assert crypto._ctr_context.cache_info().misses == contexts


HEADERS = {
    "nia=7": ({"nia_id": 7}, "ALGORITHM"),
    "nia=1": ({"nia_id": 1}, "ALGORITHM"),
    "count=2**32": ({"count": 2**32}, "COUNT"),
    "count=-1": ({"count": -1}, "COUNT"),
}


def _receiver(builder, wrapper_name):
    if wrapper_name == "SecuredNas":
        return next(iter(builder.networks["net"].amf.sessions.values())).link
    radio = _radio(builder)
    return radio.rrc if wrapper_name == "SecuredRrc" else radio.up


@pytest.mark.parametrize("wrapper_name", [w.__name__ for w in WRAPPERS])
@pytest.mark.parametrize("header", list(HEADERS))
def test_malformed_header_is_a_typed_rejection(wrapper_name, header):
    change, reason = HEADERS[header]
    world, builder = single_network_world(seed=35)
    modified: list = []

    def rewrite(w, hook, event):
        if modified or event.src != "ue1" or \
                messages.peek_type(event.payload) != wrapper_name:
            return None
        modified.append(replace(messages.decode(event.payload), **change))
        return Action(replace_payload=messages.encode(modified[0]))

    _attach(world, rewrite, Capability.MODIFY)
    run_registration(world, "ue1")
    establish_user_plane(world, "ue1")
    send_app_data(world, "ue1", b"first")
    send_app_data(world, "ue1", b"second")
    assert modified
    _assert_nothing_twice(world, builder)
    assert _receiver(builder, wrapper_name).open(modified[0]) \
        is crypto.LinkReject[reason]


@pytest.mark.parametrize("inner_algorithms", [(0, 0), (0, 2)])
def test_ue_refuses_null_integrity_security_mode_command(inner_algorithms):
    world, _ = single_network_world(seed=36)
    ue = world.entities["ue1"]
    nea, nia = inner_algorithms

    def bid_down(w, hook, event):
        if messages.peek_type(event.payload) != "SecuredNas":
            return None
        wrapper = messages.decode(event.payload)
        smc = try_decode(wrapper.body) if wrapper.nea_id == 0 else None
        if not isinstance(smc, messages.NasSecurityModeCommand):
            return None
        body = messages.encode(replace(smc, nea_id=nea, nia_id=nia))
        return Action(replace_payload=messages.encode(
            replace(wrapper, nia_id=0, mac_tag=bytes(4), body=body)))

    _attach(world, bid_down, Capability.MODIFY, {Channel.RADIO_NAS})
    outcome = run_registration(world, "ue1")
    assert not outcome.success
    assert oracles.radio_plaintext_count(world.transcript, ue.pei.pei.encode()) == 0
    assert ue.context is None and ue.nas_link is None
