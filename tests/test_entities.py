import dataclasses

import pytest

from oracles import clear_crypto_memos, radio_plaintext_count
from fivegsim import crypto, messages
from fivegsim.entities import (
    Amf,
    Sepp,
    TokenExpired,
    UnknownConsumer,
    WrongAudience,
    authorize_nf,
    validate_nf_token,
)
from fivegsim.entities.base import open_secured
from fivegsim.entities.core import TOKEN_TTL, AmfState, InvalidToken, Nrf, NfProducer
from fivegsim.entities.ran import SliceAdmission
from fivegsim.entities.sepp import SeppSession
from fivegsim.entities.ue import Awaiting, UePhase
from fivegsim.flows import (
    establish_user_plane,
    find_amf_session,
    run_registration,
    send_app_data,
    trigger,
)
from fivegsim.identity import format_supi
from fivegsim.netsim import Channel, SimEvent, StepContext, World
from fivegsim.policy import OperatorPolicy
from fivegsim.worldfile import WorldBuilder, roaming_world, single_network_world

SHARED_KEYS = ("k_amf", "k_nas_int", "k_nas_enc", "k_gnb")


def test_honest_registration_key_agreement():
    world, builder = single_network_world(seed=1)
    outcome = run_registration(world, "ue1")
    assert outcome.success
    ue = world.entities["ue1"]
    session = find_amf_session(builder.networks["net"].amf, ue)
    for name in SHARED_KEYS:
        assert outcome.ue_context.keys.get(name) == session.context.keys.get(name), name
    assert (outcome.ue_context.nea_id, outcome.ue_context.nia_id) == \
        (session.context.nea_id, session.context.nia_id)


def test_registration_request_carries_suci_never_supi():
    world, _ = single_network_world(seed=2)
    run_registration(world, "ue1")
    ue = world.entities["ue1"]
    requests = [
        messages.decode(e.payload)
        for e in world.transcript.delivered({Channel.RADIO_NAS})
        if e.msg_type == "RegistrationRequest"
    ]
    assert requests
    for req in requests:
        suci = __import__("fivegsim.identity", fromlist=["ConcealedIdentity"]) \
            .ConcealedIdentity.from_bytes(req.suci)
        assert suci.scheme.name == "PROFILE_A"
        assert ue.identity.msin.encode() not in req.suci
    assert radio_plaintext_count(world.transcript, ue.identity.msin.encode()) == 0


# (mode, HMAC-SHA-256 calls of one registration from cold memos): in both,
# the key DAG takes 18, each of its edges derived once on each side, and
# the AKA functions 8; SA adds the SUCI's tag, computed and checked
AMF_CUTS = [("SA", 28), ("NSA", 26)]


@pytest.mark.parametrize("mode, hmacs", AMF_CUTS, ids=[mode for mode, _ in AMF_CUTS])
def test_gnb_never_holds_nas_keys_amf_never_holds_k(monkeypatch, mode, hmacs):
    # each party holds its cut of the key DAG: the AMF k_seaf down to k_gnb,
    # the radio node (the en-gNB in NSA) k_gnb and the AS keys
    world, builder = single_network_world(seed=3, policy=OperatorPolicy(mode=mode))
    clear_crypto_memos()
    calls = []

    def counted(*args, _fn=crypto._hmac):
        calls.append(1)
        return _fn(*args)

    monkeypatch.setattr(crypto, "_hmac", counted)
    assert run_registration(world, "ue1").success
    net = builder.networks["net"]
    gnb = net.engnb if mode == "NSA" else net.cells[0]
    radio = next(iter(gnb.ue_contexts.values()))
    assert set(radio.as_keys) == {"k_gnb", "k_rrc_int", "k_rrc_enc",
                                  "k_up_int", "k_up_enc"}
    ue = world.entities["ue1"]
    session = find_amf_session(net.amf, ue)
    assert set(session.context.keys) == {"k_seaf", "k_amf", "k_nas_int", "k_nas_enc", "k_gnb"}
    assert session.context.keys["k_gnb"] == ue.context.keys["k_gnb"]
    assert ue.credential.k not in session.context.keys.values()
    assert len(calls) == hmacs


def test_supi_reaches_amf_only_with_home_confirmation():
    world, builder = single_network_world(seed=4)
    run_registration(world, "ue1")
    amf = builder.networks["net"].amf
    session = next(iter(amf.sessions.values()))
    assert session.supi == format_supi(world.entities["ue1"].identity)
    confirm_times = [
        e.time for e in world.transcript.delivered({Channel.SBI})
        if e.msg_type == "ConfirmResponseSbi" and e.dst == amf.entity_id
    ]
    assert confirm_times and session.supi_learned_at == confirm_times[0]


def test_pei_requested_after_security_and_stored():
    world, builder = single_network_world(seed=5)
    run_registration(world, "ue1")
    ue = world.entities["ue1"]
    session = find_amf_session(builder.networks["net"].amf, ue)
    assert session.pei == ue.pei.pei
    # ciphering on by default: the equipment identity never shows on radio
    assert radio_plaintext_count(world.transcript, ue.pei.pei.encode()) == 0


def test_pei_visible_when_nas_ciphering_off():
    world, _ = single_network_world(
        seed=5, policy=OperatorPolicy(nas_ciphering=False))
    outcome = run_registration(world, "ue1")
    assert outcome.success
    ue = world.entities["ue1"]
    assert radio_plaintext_count(world.transcript, ue.pei.pei.encode()) == 1


def test_nsa_attach_sends_imsi_plaintext_once():
    world, builder = single_network_world(seed=6, policy=OperatorPolicy(mode="NSA"))
    outcome = run_registration(world, "ue1")
    assert outcome.success
    ue = world.entities["ue1"]
    imsi = format_supi(ue.identity).encode()
    assert radio_plaintext_count(world.transcript, imsi) == 1
    # user plane flows through the dedicated NSA radio node
    assert establish_user_plane(world, "ue1")
    send_app_data(world, "ue1", b"nsa-payload")
    assert builder.networks["net"].upf.received[-1][1] == b"nsa-payload"


def test_guti_allocated_and_used_for_context():
    world, builder = single_network_world(seed=7)
    run_registration(world, "ue1")
    ue = world.entities["ue1"]
    amf = builder.networks["net"].amf
    session = find_amf_session(amf, ue)
    assert ue.guti is not None and session is not None
    assert session.context.keys.get("k_amf") == ue.context.keys.get("k_amf")


def test_concurrent_registrations_across_cells_keep_their_sessions():
    # each cell numbers its RAN UE ids from 1, so with 12 UEs on 3 cells the
    # AMF sees every id from several cells while the registrations overlap
    world, builder = single_network_world(seed=4, ue_count=12, cell_count=3)
    amf = builder.networks["net"].amf
    cells = {f"ue{i + 1}": "cell-" + "abc"[i % 3] for i in range(12)}
    for i, (ue_id, cell) in enumerate(cells.items()):
        trigger(world, ue_id, messages.TriggerRegistration(target_cell=cell),
                delay=1 + 3 * i)
    world.run_until(20_000)
    ran_ids = [(s.gnb, s.ran_ue_id) for s in amf.sessions.values()]
    assert len({rid for _, rid in ran_ids}) < len(set(ran_ids))  # ids collide
    for ue_id, cell in cells.items():
        ue = world.entities[ue_id]
        assert ue.phase == UePhase.REGISTERED, ue_id
        assert ue.serving_gnb == cell
        session = find_amf_session(amf, ue)
        assert session.context.keys.get("k_amf") == ue.context.keys.get("k_amf"), ue_id
    assert len({find_amf_session(amf, world.entities[ue_id]).sid for ue_id in cells}) == 12


def test_nsa_engnb_keeps_ues_of_two_enbs_apart():
    # each eNB numbers its UEs from 1; the shared en-gNB must not mix them up
    world, builder = single_network_world(
        seed=1, policy=OperatorPolicy(mode="NSA"), ue_count=2, cell_count=2)
    net = builder.networks["net"]
    trigger(world, "ue1", messages.TriggerRegistration(target_cell="cell-a"), delay=1)
    trigger(world, "ue2", messages.TriggerRegistration(target_cell="cell-b"), delay=4)
    world.run_until(20_000)
    for ue_id in ("ue1", "ue2"):
        ue = world.entities[ue_id]
        assert ue.phase == UePhase.REGISTERED, ue_id
        session = find_amf_session(net.amf, ue)
        assert session.context.keys.get("k_amf") == ue.context.keys.get("k_amf"), ue_id
    assert len(net.engnb.ue_contexts) == 2
    for ue_id in ("ue1", "ue2"):
        assert establish_user_plane(world, ue_id)
        send_app_data(world, ue_id, f"payload-of-{ue_id}".encode())
    assert sorted(payload for _, payload in net.upf.received) == [
        b"payload-of-ue1", b"payload-of-ue2"]


def _set_field(name, value):
    return lambda msg: dataclasses.replace(msg, **{name: value(getattr(msg, name))})


# (message type, rewrite of the decoded message) for each field that once
# raised out of the bus when a radio adversary mangled it
MALFORMED_FIELDS = {
    "autn_5_bytes": ("AuthenticationRequest", _set_field("autn", lambda v: v[:5])),
    "res_3_bytes": ("AuthenticationResponse", _set_field("res", lambda v: v[:3])),
    "suci_scheme_9": ("RegistrationRequest", _set_field("suci", lambda v: b"\x09" + v[1:])),
    "suci_empty": ("RegistrationRequest", _set_field("suci", lambda v: b"")),
    "suci_6_bytes": ("RegistrationRequest", _set_field("suci", lambda v: v[:6])),
    "attach_bad_imsi": ("RegistrationRequest", lambda msg: messages.AttachRequest4G(
        imsi="imsi-12", slice_id=msg.slice_id, ue_nonce=msg.ue_nonce)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
def test_malformed_field_is_an_ignored_transition(case):
    from fivegsim.netsim import RADIO_CHANNELS, Action, AdversaryHook, Capability
    msg_type, rewrite = MALFORMED_FIELDS[case]
    world, _ = single_network_world(seed=3, ue_count=2)
    rewritten = []

    def mangle(w, hook, event):
        if "ue1" in (event.src, event.dst) and messages.peek_type(event.payload) == msg_type:
            rewritten.append(event.seq)
            return Action(replace_payload=messages.encode(
                rewrite(messages.decode(event.payload))))
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="mangler", vantage=RADIO_CHANNELS,
        capabilities=frozenset({Capability.MODIFY}), handler=mangle))
    trigger(world, "ue1", messages.TriggerRegistration(target_cell=""), delay=1)
    trigger(world, "ue2", messages.TriggerRegistration(target_cell=""), delay=4)
    world.run_until(20_000)  # nothing escapes
    assert rewritten
    assert world.entities["ue2"].phase == UePhase.REGISTERED


# (mode, message type, rewrite) for each N2 or SBI field that once raised
# out of the bus when an adversary on an unprotected link mangled it
MALFORMED_CORE_FIELDS = {
    "k_gnb_5_bytes": ("SA", "InitialContextSetupRequest",
                      _set_field("k_gnb", lambda v: v[:5])),
    "k_gnb_5_bytes_en_gnb": ("NSA", "InitialContextSetupRequest",
                             _set_field("k_gnb", lambda v: v[:5])),
    "nia_stub_3": ("SA", "InitialContextSetupRequest", _set_field("nia_id", lambda v: 3)),
    "nia_unknown_7": ("SA", "InitialContextSetupRequest", _set_field("nia_id", lambda v: 7)),
    "nea_negative": ("SA", "InitialContextSetupRequest", _set_field("nea_id", lambda v: -1)),
    "k_seaf_5_bytes": ("SA", "AuthResponseSbi", _set_field("k_seaf", lambda v: v[:5])),
    "k_ausf_5_bytes_nsa": ("NSA", "UdmAuthResponse", _set_field("k_ausf", lambda v: v[:5])),
    "rand_5_bytes": ("SA", "UdmAuthResponse", _set_field("rand", lambda v: v[:5])),
    "xres_5_bytes": ("SA", "UdmAuthResponse", _set_field("xres", lambda v: v[:5])),
    # the same home vector fields, each taken by the entity that once missed it
    "k_ausf_5_bytes": ("SA", "UdmAuthResponse", _set_field("k_ausf", lambda v: v[:5])),
    "rand_5_bytes_nsa": ("NSA", "UdmAuthResponse", _set_field("rand", lambda v: v[:5])),
    "xres_5_bytes_nsa": ("NSA", "UdmAuthResponse", _set_field("xres", lambda v: v[:5])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CORE_FIELDS))
def test_malformed_core_field_is_an_ignored_transition(case):
    # the first such message is mangled; the entity that takes it ignores it,
    # and the UE's retransmission lets both registrations finish
    from fivegsim.netsim import Action, AdversaryHook, Capability
    mode, msg_type, rewrite = MALFORMED_CORE_FIELDS[case]
    policy = OperatorPolicy(mode=mode, n2_link_protected=False, sbi_link_protected=False)
    world, _ = single_network_world(seed=3, policy=policy, ue_count=2)
    rewritten = []

    def mangle(w, hook, event):
        if not rewritten and messages.peek_type(event.payload) == msg_type:
            rewritten.append(event.seq)
            return Action(replace_payload=messages.encode(
                rewrite(messages.decode(event.payload))))
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="mangler", vantage=frozenset({Channel.N2, Channel.SBI}),
        capabilities=frozenset({Capability.MODIFY}), handler=mangle))
    trigger(world, "ue1", messages.TriggerRegistration(target_cell=""), delay=1)
    trigger(world, "ue2", messages.TriggerRegistration(target_cell=""), delay=4)
    world.run_until(20_000)  # nothing escapes
    assert rewritten
    for ue_id in ("ue1", "ue2"):
        assert world.entities[ue_id].phase == UePhase.REGISTERED, ue_id


def test_short_challenge_rand_is_ignored_by_the_amf():
    # a 5-byte rand in the home vector, then a forged 16-byte response on the
    # radio before the UE can refuse the challenge: the AMF must not hash them
    from fivegsim.netsim import Action, AdversaryHook, Capability
    policy = OperatorPolicy(sbi_link_protected=False)
    world, builder = single_network_world(seed=3, policy=policy)
    forged = messages.encode(messages.AuthenticationResponse(res=bytes(16)))
    rewritten = []

    def mangle(w, hook, event):
        if not rewritten and messages.peek_type(event.payload) == "AuthResponseSbi":
            rewritten.append(event.seq)
            msg = messages.decode(event.payload)
            return Action(
                replace_payload=messages.encode(dataclasses.replace(msg, rand=msg.rand[:5])),
                inject=[(2, Channel.RADIO_NAS, "ue1", "cell-a", forged)])
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="mangler", vantage=frozenset({Channel.SBI}),
        capabilities=frozenset({Capability.MODIFY, Capability.INJECT}), handler=mangle))
    assert run_registration(world, "ue1").success  # nothing escapes
    assert rewritten
    assert [e.origin.startswith("adversary:") for e in world.transcript.entries
            if e.msg_type == "AuthenticationResponse"][0]


def test_registration_continues_after_single_losses():
    # drop the first RegistrationRequest only: retransmission recovers
    from fivegsim.netsim import Action, AdversaryHook, Capability
    world, _ = single_network_world(seed=8)
    state = {"dropped": False}

    def drop_once(w, hook, event):
        if not state["dropped"] and messages.peek_type(event.payload) == "RegistrationRequest":
            state["dropped"] = True
            return Action(drop=True)
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="glitch", vantage=frozenset({Channel.RADIO_NAS}),
        capabilities=frozenset({Capability.DROP}), handler=drop_once))
    outcome = run_registration(world, "ue1")
    assert outcome.success and state["dropped"]


def test_unknown_message_is_ignored_not_fatal():
    world, _ = single_network_world(seed=9)
    # a core-side message delivered to a device makes no sense; it is ignored
    request = messages.SmfSessionRequest(session="x", slice_id="embb")
    world.schedule(world.time + 1, Channel.SBI, "world", "ue1", messages.encode(request),
                   "world", request)
    world.run_until(10)
    outcome = run_registration(world, "ue1")
    assert outcome.success


# ---------------------------------------------------------------------------
# Reject handling and power cycling
# ---------------------------------------------------------------------------


def _rogue_world(seed, policy=None, cause=3, own_key=True):
    world, builder = single_network_world(seed=seed, policy=policy)
    builder.networks["net"].cells[0].strength = 5
    rogue = builder.add_rogue_cell("rogue-z", "00101", strength=99,
                                   reject_cause=cause, broadcast_own_key=own_key)
    return world, builder, rogue


# a reject answers a request: one from a node the UE never sent to is ignored
@pytest.mark.parametrize("channel,reject", [
    (Channel.RADIO_RRC, messages.RrcConnectionReject(cause="congestion")),
    (Channel.RADIO_NAS, messages.AuthenticationReject()),
], ids=["rrc", "auth"])
def test_reject_from_a_node_the_ue_never_sent_to_is_ignored(channel, reject):
    world, _ = single_network_world(seed=3)
    ue = world.entities["ue1"]
    trigger(world, "ue1", messages.TriggerRegistration(target_cell=""))
    # during the cell scan, then while the UE awaits its challenge
    for time, awaiting in ((2, Awaiting.SCAN), (8, Awaiting.AUTH_REQUEST)):
        world.schedule(time, channel, "nobody", "ue1", messages.encode(reject), "world", reject)
        world.run_until(time)
        assert ue.state is awaiting
    world.run_until(2000)
    assert ue.phase is UePhase.REGISTERED
    assert ue.attempts_log == ["registered"]


def test_persistent_reject_locks_plmn_until_power_cycle():
    world, builder, rogue = _rogue_world(seed=10)
    outcome = run_registration(world, "ue1")
    ue = world.entities["ue1"]
    assert outcome.outcome == "rejected_persistent"
    assert ue.phase == UePhase.PERMANENTLY_DEREGISTERED
    assert ue.forbidden_plmns == {"00101"}

    radio_before = sum(1 for _ in world.transcript.delivered(
        {Channel.RADIO_NAS, Channel.RADIO_RRC}))
    second = run_registration(world, "ue1")
    radio_after = sum(1 for _ in world.transcript.delivered(
        {Channel.RADIO_NAS, Channel.RADIO_RRC}))
    assert second.outcome == "no_cell"
    assert radio_before == radio_after  # zero attempts toward the locked plmn

    sqn_before = ue.sqn_window
    trigger(world, "ue1", messages.PowerCycle())
    world.run_until(world.time + 10)
    assert ue.phase == UePhase.DEREGISTERED
    assert ue.forbidden_plmns == set()
    assert ue.sqn_window == sqn_before  # USIM state survives the cycle
    trigger(world, "rogue-z", messages.AdminSetActive(active=False))
    world.run_until(world.time + 10)
    assert run_registration(world, "ue1").success


def test_transient_reject_retries_other_cells():
    world, builder, rogue = _rogue_world(seed=11, cause=22)
    outcome = run_registration(world, "ue1")
    assert outcome.success
    assert world.entities["ue1"].serving_gnb == "cell-a"


def test_signed_reject_blocks_only_cells_with_that_key():
    policy = OperatorPolicy(signed_reject_enabled=True)
    world, builder, rogue = _rogue_world(seed=12, policy=policy)
    # second rogue broadcasting the same key: both must be avoided
    twin = builder.world.entities["rogue-z"]
    second = builder.add_rogue_cell("rogue-y", "00101", strength=80,
                                    reject_cause=3, broadcast_own_key=True)
    second.verification_key = twin.verification_key
    second.reject_signing_key = twin.reject_signing_key
    outcome = run_registration(world, "ue1")
    ue = world.entities["ue1"]
    assert outcome.success
    assert ue.serving_gnb == "cell-a"
    assert ue.phase == UePhase.REGISTERED
    assert twin.verification_key in ue.forbidden_reject_keys
    # rejected by key, not by plmn: the genuine network stayed reachable
    assert ue.forbidden_plmns == set()
    pinned = dict(ue.pinned_network_keys)
    assert pinned  # the serving network's key got pinned on success
    trigger(world, "ue1", messages.PowerCycle())
    world.run_until(world.time + 10)
    assert ue.pinned_network_keys == pinned  # pins survive the cycle
    assert ue.forbidden_reject_keys == set()


def test_unsigned_reject_is_ignored_when_mitigation_on():
    policy = OperatorPolicy(signed_reject_enabled=True)
    world, builder, rogue = _rogue_world(seed=13, policy=policy, own_key=False)
    outcome = run_registration(world, "ue1")
    assert outcome.success
    assert world.entities["ue1"].serving_gnb == "cell-a"


@pytest.mark.parametrize("key_length", [31, 33])
def test_a_reject_signed_under_a_key_of_the_wrong_length_is_refused(key_length):
    # a scanning UE takes a scan response from any sender: an injected one
    # lists a cell whose key is no Ed25519 key, and that cell's "signed"
    # reject must be refused without raising out of the run
    world, _ = single_network_world(seed=1, policy=OperatorPolicy(signed_reject_enabled=True))
    key = bytes(range(key_length))
    fake = messages.CellInfo(cell_id="fake", plmn="00101", strength=99, kind="nr",
                             verification_key=key, blacklist=[])
    for time, src, msg in ((2, "__ether__", messages.CellScanResponse(cells=[fake])),
                           (5, "fake", messages.RegistrationReject(cause=3,
                                                                   signature=bytes(64)))):
        world.schedule(time, Channel.RADIO_RRC, src, "ue1", messages.encode(msg),
                       "adversary:mallory")
    run_registration(world, "ue1")
    ue = world.entities["ue1"]
    assert key not in ue.forbidden_reject_keys
    assert ue.phase != UePhase.PERMANENTLY_DEREGISTERED
    assert [e.msg_type for e in world.transcript.delivered()
            if e.origin == "adversary:mallory"] == ["CellScanResponse", "RegistrationReject"]


@pytest.mark.parametrize("mode, sbi_path", [
    ("SA", ["AuthRequestSbi:net-ausf", "UdmAuthRequest:net-udm",
            "UdmAuthReject:net-ausf", "AuthRejectSbi:net-amf"]),
    ("NSA", ["UdmAuthRequest:net-udm", "UdmAuthReject:net-amf"]),
])
def test_unknown_subscriber_is_rejected_by_the_home_network(mode, sbi_path):
    world, builder = single_network_world(seed=14, policy=OperatorPolicy(mode=mode))
    net = builder.networks["net"]
    net.udm.subscribers.clear()
    assert run_registration(world, "ue1").outcome == "auth_rejected"
    sbi = [f"{e.msg_type}:{e.dst}" for e in world.transcript.delivered({Channel.SBI})]
    assert sbi == sbi_path
    [session] = net.amf.sessions.values()
    assert (session.state, session.cause) == (AmfState.AUTH_REJECTED, "UnknownSubscriber")
    assert session.context is None


def test_full_slice_admission_refuses_the_connection():
    builder = WorldBuilder(seed=15)
    net = builder.add_network("net", "00101")
    builder.add_cell(net, "cell-a", admission=SliceAdmission(capacity=0))
    builder.add_ue("ue1", net)
    world = builder.world
    assert run_registration(world, "ue1").outcome == "rrc_rejected:congestion"
    assert [e.msg_type for e in world.transcript.delivered({Channel.RADIO_RRC})] == [
        "RrcConnectionRequest", "RrcConnectionReject"]
    assert world.entities["cell-a"].ue_contexts == {}


# ---------------------------------------------------------------------------
# Context renewal
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("interval", [1000, None])
def test_renewal_starts_one_authentication_once_its_interval_has_passed(interval):
    world, _ = single_network_world(
        seed=14, policy=OperatorPolicy(context_renewal_interval=interval))
    assert run_registration(world, "ue1", horizon=900).success
    # the AMF arms its renewal timer when the radio side reports security up
    active = next(e.time for e in world.transcript.delivered({Channel.N2})
                  if e.msg_type == "UeContextActive")
    world.run_until(active + 1500)
    # when the AMF sent each request: a message arrives one tick after its send
    sent = [e.time - 1 for e in world.transcript.delivered({Channel.SBI})
            if e.msg_type == "AuthRequestSbi"]
    assert sent[0] < active
    assert sent[1:] == ([] if interval is None else [active + interval])


@pytest.mark.parametrize("interval", [0, 1000, None])
def test_renewal_interval_of_zero_or_more_is_accepted(interval):
    assert OperatorPolicy(context_renewal_interval=interval) \
        .context_renewal_interval == interval


def test_negative_renewal_interval_is_refused():
    with pytest.raises(ValueError, match="context_renewal_interval"):
        OperatorPolicy(context_renewal_interval=-5)


def test_renewal_replaces_keys_end_to_end():
    world, builder = single_network_world(
        seed=15, policy=OperatorPolicy(context_renewal_interval=3000))
    outcome = run_registration(world, "ue1", horizon=2500)
    assert outcome.success
    ue = world.entities["ue1"]
    old = dict(ue.context.keys)
    old_guti = ue.guti
    world.run_until(world.time + 5_000)
    assert ue.context.keys.get("k_nas_enc") != old["k_nas_enc"]
    assert ue.context.keys.get("k_gnb") != old["k_gnb"]
    assert ue.guti != old_guti
    amf = builder.networks["net"].amf
    session = find_amf_session(amf, ue)
    for name in SHARED_KEYS:
        assert session.context.keys.get(name) == ue.context.keys.get(name)
    # a renewal keeps the UE registered; its re-authentication drops the last
    # SBI id, and its one session holds the new GUTI
    assert ue.phase == UePhase.REGISTERED
    assert amf.by_sbi == {session.sbi_sid: session.sid}
    assert list(amf.sessions) == [session.sid] and session.guti == ue.guti


# One answer of each kind, injected after the UE registered: each belongs to
# a step the session has left, so none may move it out of ``registered``.
STALE_ANSWERS = {
    "authentication_failure": (Channel.RADIO_NAS, "ue1", "cell-a",
                               messages.AuthenticationFailure(cause="MacMismatch")),
    "confirm_failure": (Channel.SBI, "net-ausf", "net-amf",
                        messages.ConfirmResponseSbi(session="net-amf-a1", success=False, supi="")),
    "auth_reject": (Channel.SBI, "net-ausf", "net-amf",
                    messages.AuthRejectSbi(session="net-amf-a1", cause="x")),
    "auth_response": (Channel.SBI, "net-ausf", "net-amf", messages.AuthResponseSbi(
        session="net-amf-a1", rand=bytes(16), autn=bytes(16), hxres=bytes(16), k_seaf=bytes(32))),
}


@pytest.mark.parametrize("case", sorted(STALE_ANSWERS))
def test_authentication_answer_is_taken_only_in_the_step_that_waits_for_it(case):
    world, builder = single_network_world(
        seed=3, policy=OperatorPolicy(context_renewal_interval=3000))
    assert run_registration(world, "ue1", horizon=2500).success
    amf, ue = builder.networks["net"].amf, world.entities["ue1"]
    session = find_amf_session(amf, ue)
    assert (session.state, session.sbi_sid) == (AmfState.REGISTERED, "net-amf-a1")
    keys = session.context.keys
    channel, src, dst, msg = STALE_ANSWERS[case]
    world.schedule(world.time + 1, channel, src, dst, messages.encode(msg), "attacker")
    world.run_until(world.time + 10_000)
    # the stale answer is ignored and the context renewal still fires
    assert session.state is AmfState.REGISTERED
    assert session.context.keys.get("k_amf") != keys.get("k_amf")
    assert ue.phase == UePhase.REGISTERED


def test_smf_answer_naming_an_authentication_id_is_ignored():
    # the AMF finds an SmfSessionResponse's session only by the id of a PDU
    # session request it made, never by a session's authentication id
    world, builder = single_network_world(seed=3)
    assert run_registration(world, "ue1").success
    amf = builder.networks["net"].amf
    session = find_amf_session(amf, world.entities["ue1"])
    forged = messages.SmfSessionResponse(
        session=session.sbi_sid, up_ciphering=False, up_integrity=False)
    start = len(world.transcript.entries)
    world.schedule(world.time + 1, Channel.SBI, "net-smf", "net-amf",
                   messages.encode(forged), "attacker")
    world.run_until(world.time + 100)
    assert [e.msg_type for e in world.transcript.entries[start:]] == ["SmfSessionResponse"]
    assert amf.by_sbi == {session.sbi_sid: session.sid}


# ---------------------------------------------------------------------------
# Roaming and interconnect
# ---------------------------------------------------------------------------


def test_roaming_registration_through_proxies():
    world, builder = roaming_world(seed=16)
    outcome = run_registration(world, "ue1")
    assert outcome.success
    serving = builder.networks["serv"]
    session = find_amf_session(serving.amf, world.entities["ue1"])
    assert session.supi == format_supi(world.entities["ue1"].identity)
    sepp_msgs = [e.msg_type for e in world.transcript.delivered({Channel.SEPP_LINK})]
    assert "SeppHello" in sepp_msgs and "SeppForward" in sepp_msgs


def test_establish_interconnect_checks():
    # the home proxy refuses a serving proxy that it does not allowlist, that
    # it revoked, or whose hello does not verify under the allowlisted key
    def refuse_unknown(home, serving):
        del home.allowlist[serving.plmn]

    def refuse_revoked(home, serving):
        home.revoke(serving.verification_key)

    def refuse_other_key(home, serving):
        home.allowlist[serving.plmn] = home.verification_key

    for tamper, reason in ((None, None), (refuse_unknown, "PeerUnknown"),
                           (refuse_revoked, "PeerRevoked"),
                           (refuse_other_key, "BadSignature")):
        world, builder = roaming_world(seed=16)
        serving, home = builder.networks["serv"].sepp, builder.networks["home"].sepp
        if tamper is not None:
            tamper(home, serving)
        outcome = run_registration(world, "ue1")
        if reason is None:
            assert outcome.success
            assert serving.rejections == home.rejections == []
            assert serving.sessions["99902"].established
            assert home.sessions["00101"].established
        else:
            assert not outcome.success, reason
            assert home.rejections == [reason]
            assert serving.rejections == [f"peer:{reason}"]
            assert "00101" not in home.sessions
            assert not serving.sessions["99902"].established


# the serving proxy checks the home proxy's ack as the home proxy checks its
# hello: against its own allowlist and revocations
ACK_REFUSALS = {
    "revoked": (lambda serving, home: serving.revoke(home.verification_key), "PeerInvalidOnAck"),
    "unlisted": (lambda serving, home: serving.allowlist.pop(home.plmn), "PeerInvalidOnAck"),
    "other-key": (lambda serving, home: serving.allowlist.update(
        {home.plmn: serving.verification_key}), "BadSignature"),
}


@pytest.mark.parametrize("case", sorted(ACK_REFUSALS))
def test_serving_sepp_refuses_an_ack_its_peer_does_not_pass(case):
    tamper, reason = ACK_REFUSALS[case]
    world, builder = roaming_world(seed=16)
    serving, home = builder.networks["serv"].sepp, builder.networks["home"].sepp
    tamper(serving, home)
    outcome = run_registration(world, "ue1")
    # each of the UE's three attempts sends a hello, and each ack is refused
    assert outcome.outcome == "timeout"
    assert serving.rejections == [reason] * 3
    assert home.rejections == []
    assert not serving.sessions["99902"].established


@pytest.mark.parametrize("peer_plmn", ["00101", "00199"])
def test_home_sepp_forwards_a_request_only_in_its_peers_name(peer_plmn):
    sepp = Sepp("h-sepp", "99902", bytes(range(32)), ausf_id="h-ausf")
    sepp.sessions[peer_plmn] = SeppSession(peer_id="v-sepp", established=True)
    # the name a standalone AMF of PLMN 00101 builds
    name = Amf("v-amf", "00101", OperatorPolicy()).serving_network_name
    assert name == "5G:00101"
    request = messages.AuthRequestSbi(session="s1", suci=b"\x00", serving_network_name=name)
    forward = messages.SeppForward(inner=messages.encode(request))
    ctx = StepContext(World(seed=0), sepp.entity_id)
    sepp.step(forward, SimEvent(time=0, seq=0, channel=Channel.SEPP_LINK, src="v-sepp",
                                dst=sepp.entity_id, payload=messages.encode(forward)), ctx)
    sent = [(channel, dst, msg) for _, channel, dst, _, msg in ctx.out]
    if peer_plmn == "00101":
        assert sent == [(Channel.SBI, "h-ausf", request)]
        assert sepp.rejections == []
    else:
        reject = messages.AuthRejectSbi(session="s1", cause="NetworkNameMismatch")
        assert sent == [(Channel.SEPP_LINK, "v-sepp",
                         messages.SeppForward(inner=messages.encode(reject)))]
        assert sepp.rejections == ["NetworkNameMismatch"]


# ---------------------------------------------------------------------------
# NF token authorization
# ---------------------------------------------------------------------------


def _nrf():
    nrf = Nrf("nrf", bytes(range(64, 96)))
    nrf.register_consumer("amf-1")
    return nrf


# A seed is refused when its holder is built, not at the first read of the
# verification key, which may come in the middle of a run.
@pytest.mark.parametrize("length", [0, 31, 33, 64])
def test_nrf_refuses_a_seed_that_is_not_32_bytes(length):
    with pytest.raises(ValueError, match="32 bytes"):
        Nrf("nrf", bytes(length))


@pytest.mark.parametrize("length", [0, 31, 33, 64])
def test_sepp_refuses_a_seed_that_is_not_32_bytes(length):
    with pytest.raises(ValueError, match="32 bytes"):
        Sepp("sepp", "00101", bytes(length))


def test_token_round_trip():
    nrf = _nrf()
    token = authorize_nf(nrf, "amf-1", "nsmf-pdusession", now=100)
    producer = NfProducer(service="nsmf-pdusession",
                          nrf_verification_key=nrf.verification_key)
    claim = validate_nf_token(producer, token, now=200)
    assert claim.consumer_id == "amf-1"


def test_token_wrong_audience():
    nrf = _nrf()
    token = authorize_nf(nrf, "amf-1", "nsmf-pdusession", now=100)
    other = NfProducer(service="nudm-sdm",
                       nrf_verification_key=nrf.verification_key)
    with pytest.raises(WrongAudience):
        validate_nf_token(other, token, now=200)


def test_token_expiry():
    nrf = _nrf()
    token = authorize_nf(nrf, "amf-1", "nsmf-pdusession", now=100)
    producer = NfProducer(service="nsmf-pdusession",
                          nrf_verification_key=nrf.verification_key)
    with pytest.raises(TokenExpired):
        validate_nf_token(producer, token, now=100 + TOKEN_TTL)


def test_token_unknown_consumer_and_forgery():
    nrf = _nrf()
    with pytest.raises(UnknownConsumer):
        authorize_nf(nrf, "stranger", "nsmf-pdusession", now=0)
    token = authorize_nf(nrf, "amf-1", "nsmf-pdusession", now=0)
    producer = NfProducer(service="nsmf-pdusession",
                          nrf_verification_key=nrf.verification_key)
    forged = token[:-1] + bytes([token[-1] ^ 1])
    with pytest.raises(InvalidToken):
        validate_nf_token(producer, forged, now=1)


def test_token_flow_over_the_bus():
    world, builder = single_network_world(seed=17)
    net = builder.networks["net"]
    net.nrf.register_consumer("client")

    received = []

    class Client:
        entity_id = "client"

        def step(self, msg, event, ctx):
            received.append(msg)
            if isinstance(msg, messages.NfTokenResponse) and msg.ok:
                ctx.emit(Channel.SBI, net.smf.entity_id, messages.NfServiceRequest(
                    consumer_id="client", service="nsmf-pdusession",
                    token=msg.token))

    world.add_entity(Client())
    request = messages.NfTokenRequest(consumer_id="client", producer_service="nsmf-pdusession")
    world.schedule(world.time + 1, Channel.SBI, "client", net.nrf.entity_id,
                   messages.encode(request), "entity:client", request)
    world.run_until(100)
    responses = [m for m in received if isinstance(m, messages.NfServiceResponse)]
    assert responses and responses[0].ok


def test_token_replay_to_wrong_producer_over_the_bus():
    world, builder = single_network_world(seed=18)
    net = builder.networks["net"]
    net.nrf.register_consumer("client")
    token = authorize_nf(net.nrf, "client", "nudm-sdm", now=world.time)

    received = []

    class Client:
        entity_id = "client"

        def step(self, msg, event, ctx):
            received.append(msg)

    world.add_entity(Client())
    request = messages.NfServiceRequest(consumer_id="client", service="nsmf-pdusession",
                                        token=token)
    world.schedule(world.time + 1, Channel.SBI, "client", net.smf.entity_id,
                   messages.encode(request), "entity:client", request)
    world.run_until(100)
    assert received and not received[0].ok
    assert received[0].error == "WrongAudience"


# ---------------------------------------------------------------------------
# AS security and user plane details
# ---------------------------------------------------------------------------


def test_as_keys_match_between_ue_and_cell():
    world, builder = single_network_world(seed=19)
    assert run_registration(world, "ue1").success
    ue = world.entities["ue1"]
    gnb = builder.networks["net"].cells[0]
    radio = next(iter(gnb.ue_contexts.values()))
    for name in ("k_rrc_int", "k_rrc_enc", "k_up_int", "k_up_enc"):
        assert ue.as_keys.get(name) == radio.as_keys.get(name), name
    # the cell reports the context active only once it took the UE's AS complete
    assert [e.src for e in world.transcript.delivered({Channel.N2})
            if e.msg_type == "UeContextActive"] == [gnb.entity_id]


def test_tampered_up_packet_dropped_when_integrity_on():
    from fivegsim.netsim import Action, AdversaryHook, Capability
    policy = OperatorPolicy(up_integrity=True)
    world, builder = single_network_world(seed=20, policy=policy)
    run_registration(world, "ue1")
    establish_user_plane(world, "ue1")

    def corrupt(w, hook, event):
        if messages.peek_type(event.payload) == "SecuredUp":
            msg = messages.decode(event.payload)
            tampered = messages.SecuredUp(
                count=msg.count, direction=msg.direction, nea_id=msg.nea_id,
                nia_id=msg.nia_id, mac_tag=msg.mac_tag,
                body=bytes([msg.body[0] ^ 1]) + msg.body[1:])
            return Action(replace_payload=messages.encode(tampered))
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="mitm", vantage=frozenset({Channel.RADIO_RRC}),
        capabilities=frozenset({Capability.MODIFY}), handler=corrupt))
    send_app_data(world, "ue1", b"genuine-bytes")
    assert builder.networks["net"].upf.received == []


def test_roaming_data_routing_flag_moves_upf():
    world, builder = roaming_world(seed=21)
    run_registration(world, "ue1")
    establish_user_plane(world, "ue1")
    send_app_data(world, "ue1", b"breakout-bytes")
    assert builder.networks["serv"].upf.received
    assert not builder.networks["home"].upf.received

    # home-routed: the serving cell sends its uplink to the home network's UPF
    world2, builder2 = roaming_world(seed=21)
    builder2.networks["serv"].cells[0].upf_id = builder2.networks["home"].upf.entity_id
    run_registration(world2, "ue1")
    establish_user_plane(world2, "ue1")
    send_app_data(world2, "ue1", b"home-routed-bytes")
    assert builder2.networks["home"].upf.received
    assert not builder2.networks["serv"].upf.received


def test_power_cycle_from_registered_drops_context():
    world, _ = single_network_world(seed=22)
    assert run_registration(world, "ue1").success
    ue = world.entities["ue1"]
    sqn = ue.sqn_window
    trigger(world, "ue1", messages.PowerCycle())
    world.run_until(world.time + 10)
    assert ue.phase == UePhase.DEREGISTERED
    assert ue.context is None and ue.as_keys is None and ue.guti is None
    assert ue.sqn_window == sqn
    assert run_registration(world, "ue1").success


def test_garbage_injection_never_crashes_entities():
    # hostile bytes at every entity on its own channels: explicit ignores
    world, builder = single_network_world(seed=23)
    targets = [
        (Channel.RADIO_NAS, "ue1"), (Channel.RADIO_RRC, "ue1"),
        (Channel.RADIO_NAS, "cell-a"), (Channel.RADIO_RRC, "cell-a"),
        (Channel.N2, "net-amf"), (Channel.SBI, "net-ausf"),
        (Channel.SBI, "net-udm"), (Channel.SBI, "net-smf"),
        (Channel.N3, "net-upf"), (Channel.SEPP_LINK, "net-amf"),
    ]
    for i, (channel, dst) in enumerate(targets):
        world.schedule(2 + i, channel, "attacker", dst, b"\xde\xad" * (i + 1),
                       "adversary:fuzz")
        # well-framed but contextually nonsensical messages too
        world.schedule(2 + i, channel, "attacker", dst,
                       messages.encode(messages.InitialContextSetupResponse(
                           ran_ue_id=999)),
                       "adversary:fuzz")
        world.schedule(2 + i, channel, "attacker", dst,
                       messages.encode(messages.SecuredNas(
                           count=0, direction=1, nea_id=0, nia_id=2,
                           mac_tag=b"\x00" * 4, body=b"\xff\xff")),
                       "adversary:fuzz")
    assert run_registration(world, "ue1").success


def test_sepp_ignores_auth_request_with_unparsable_suci():
    world, _ = roaming_world(seed=23)
    for i, suci in enumerate((b"", b"\x09" + bytes(20), b"\x00001")):
        world.schedule(1 + i, Channel.SBI, "attacker", "serv-sepp", messages.encode(
            messages.AuthRequestSbi(session=f"forged-{i}", suci=suci,
                                    serving_network_name="5G:00101")),
            "adversary:fuzz")
    assert run_registration(world, "ue1").success


def test_replayed_protected_message_is_ignored():
    from fivegsim.netsim import Action, AdversaryHook, Capability
    world, builder = single_network_world(seed=24)
    replayer_state = {}

    def capture_and_replay(w, hook, event):
        if messages.peek_type(event.payload) == "SecuredNas" and \
                "done" not in replayer_state:
            replayer_state["done"] = True
            return Action(inject=[(50, event.channel, event.src, event.dst,
                                   event.payload)])
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="replayer", vantage=frozenset({Channel.RADIO_NAS}),
        capabilities=frozenset({Capability.OBSERVE, Capability.INJECT}),
        handler=capture_and_replay))
    outcome = run_registration(world, "ue1")
    assert outcome.success and replayer_state.get("done")
    # the duplicate was delivered but changed nothing: keys still agree
    session = find_amf_session(builder.networks["net"].amf,
                               world.entities["ue1"])
    assert session.context.keys.get("k_nas_enc") == \
        outcome.ue_context.keys.get("k_nas_enc")


@pytest.mark.parametrize("seed", [0, 5])
def test_lost_security_mode_complete_is_resent_sealed_afresh(seed):
    # the first uplink SecuredNas (the UE's NAS security mode complete) is
    # lost; the retransmission must carry that complete, not the
    # AuthenticationResponse before it, under a fresh NAS count
    from fivegsim.netsim import Action, AdversaryHook, Capability
    world, _ = single_network_world(seed=seed)
    dropped = []

    def drop_first_secured_uplink(w, hook, event):
        if not dropped and event.src == "ue1" \
                and messages.peek_type(event.payload) == "SecuredNas":
            dropped.append(messages.decode(event.payload))
            return Action(drop=True)
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="loss", vantage=frozenset({Channel.RADIO_NAS}),
        capabilities=frozenset({Capability.DROP}), handler=drop_first_secured_uplink))
    outcome = run_registration(world, "ue1")
    assert dropped
    assert outcome.outcome == "registered"
    resent = [messages.decode(e.payload) for e in world.transcript.delivered()
              if e.src == "ue1" and e.msg_type == "SecuredNas"]
    assert resent[0].count > dropped[0].count
    ue_sent = [e.msg_type for e in world.transcript.entries if e.src == "ue1"]
    assert ue_sent.count("AuthenticationResponse") == 1


def test_lost_registration_accept_is_resent_without_a_second_context():
    # the second downlink SecuredNas to the UE (after the integrity-only
    # security mode command) carries the RegistrationAccept and is lost; the
    # UE resends its AS security mode complete, the gNB reports the context
    # active again, and the AMF must resend the same accept rather than
    # register the UE a second time
    from fivegsim.netsim import Action, AdversaryHook, Capability
    world, builder = single_network_world(
        seed=3, policy=OperatorPolicy(context_renewal_interval=50_000))
    downlinks = []

    def drop_first_accept(w, hook, event):
        if event.dst == "ue1" and messages.peek_type(event.payload) == "SecuredNas":
            downlinks.append(event.payload)
            if len(downlinks) == 2:
                return Action(drop=True)
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="loss", vantage=frozenset({Channel.RADIO_NAS}),
        capabilities=frozenset({Capability.DROP}), handler=drop_first_accept))
    outcome = run_registration(world, "ue1")
    assert outcome.outcome == "registered"
    assert [e.msg_type for e in world.transcript.delivered()].count("UeContextActive") == 2
    amf = builder.networks["net"].amf
    ue = world.entities["ue1"]
    session = find_amf_session(amf, ue)
    lost = messages.decode(downlinks[1])
    link = crypto.SecureLink(messages.SecuredNas, ue.context.keys,
                             lost.nea_id, lost.nia_id, direction=0)
    assert isinstance(open_secured(link, lost), messages.RegistrationAccept)
    assert session.guti == ue.guti
    assert list(amf.sessions) == [session.sid]
    assert list(amf._timers.values()) == [session.sid]


def test_lost_nas_security_mode_command_resends_the_authentication_response():
    # the DownlinkNas carrying the NAS security mode command is lost; while
    # the UE awaits the command, each expiry of its timer sends its
    # AuthenticationResponse again, with the same RES
    from fivegsim.netsim import Action, AdversaryHook, Capability
    world, _ = single_network_world(seed=3)
    lost = []

    def drop_first_command(w, hook, event):
        if not lost and messages.peek_type(event.payload) == "DownlinkNas":
            wrapper = messages.decode(messages.decode(event.payload).nas)
            if isinstance(wrapper, messages.SecuredNas) and wrapper.nea_id == 0 \
                    and isinstance(messages.decode(wrapper.body), messages.NasSecurityModeCommand):
                lost.append(event.time)
                return Action(drop=True)
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="loss", vantage=frozenset({Channel.N2}),
        capabilities=frozenset({Capability.DROP}), handler=drop_first_command))
    run_registration(world, "ue1")
    assert lost
    delivered = list(world.transcript.delivered())
    responses = [e for e in delivered
                 if e.src == "ue1" and e.msg_type == "AuthenticationResponse"]
    assert len(responses) >= 2
    assert len({messages.decode(event.payload).res for event in responses}) == 1
    fired = {e.time for e in delivered
             if e.dst == "ue1" and e.msg_type == "TimerFired"}
    assert all(event.time - 1 in fired for event in responses[1:])


def test_lost_challenge_leaves_one_amf_session():
    # the first downlink AuthenticationRequest is lost, so the UE resends its
    # RegistrationRequest on the same RAN leg; the AMF retires the session
    # left waiting at challenge_sent instead of keeping it beside the new one
    from fivegsim.netsim import Action, AdversaryHook, Capability
    world, builder = single_network_world(seed=3)
    lost = []

    def drop_first_challenge(w, hook, event):
        if not lost and event.dst == "ue1" \
                and messages.peek_type(event.payload) == "AuthenticationRequest":
            lost.append(event.payload)
            return Action(drop=True)
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="loss", vantage=frozenset({Channel.RADIO_NAS}),
        capabilities=frozenset({Capability.DROP}), handler=drop_first_challenge))
    assert run_registration(world, "ue1").outcome == "registered"
    assert lost
    requests = [e for e in world.transcript.delivered() if e.msg_type == "InitialUeMessage"]
    assert len(requests) == 2
    amf = builder.networks["net"].amf
    session = find_amf_session(amf, world.entities["ue1"])
    assert list(amf.sessions) == [session.sid] and session.state is AmfState.REGISTERED
    assert amf.by_sbi == {session.sbi_sid: session.sid}


@pytest.mark.parametrize("mode", ["SA", "NSA", "roaming"])
def test_re_registrations_keep_amf_indexes_constant(mode):
    # each power cycle starts a new registration on the UE's RAN leg, which
    # retires the previous session from every index of the AMF; the AUSF and
    # the two proxies forget an authentication once its confirm has passed
    if mode == "roaming":
        world, builder = roaming_world(seed=22)
        serving, home = builder.networks["serv"], builder.networks["home"]
    else:
        world, builder = single_network_world(seed=22, policy=OperatorPolicy(mode=mode))
        serving = home = builder.networks["net"]
    amf, ausf = serving.amf, home.ausf
    sizes = []
    for _ in range(20):
        assert run_registration(world, "ue1").success
        assert establish_user_plane(world, "ue1")
        assert find_amf_session(amf, world.entities["ue1"]) is not None
        sizes.append((len(amf.sessions), len(amf.by_sbi),
                      len(amf.by_ran), len(ausf.sessions), len(ausf.latest)))
        if mode == "roaming":
            assert serving.sepp.routes == {} and home.sepp.routes == {}
        trigger(world, "ue1", messages.PowerCycle())
        world.run_until(world.time + 10)
    # one session, the UE's GUTI's, and its authentication SBI id; the
    # initial leg, plus the en-gNB leg in NSA
    assert sizes == [(1, 1, 1 if mode != "NSA" else 2, 0, 0)] * 20
