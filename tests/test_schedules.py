"""Every single drop, every single replay and every drop pair over one
registration.

A hook on every wire channel numbers the wire events it sees from 0.  A
drop schedule drops the events it names; a replay schedule captures event
j and re-injects it, with delay 1, after event i > j.  Each schedule must
end without an exception escaping ``run_until`` (invariant (a)), with no
link end that runs integrity accepting one (direction, count) twice
(invariant (b)), and with at most one AUSF record and one SEPP route per
subscriber, and no route or queued request toward a peer that refused the
link (invariant (f)): the small-scope hypothesis, most defects show in
small cases.  A fourth world adds a PDU session and two packets to the
registration, so that N3 and the user-plane links carry wire events too.
"""

import contextlib
import itertools
from collections import defaultdict

import pytest

from fivegsim import crypto, messages
from fivegsim.entities.core import AmfState
from fivegsim.flows import trigger
from fivegsim.netsim import WIRE_CHANNELS, Action, AdversaryHook, Capability
from fivegsim.policy import OperatorPolicy
from fivegsim.worldfile import roaming_world, single_network_world

HORIZON = 200_000

WORLDS = {
    "single": lambda: single_network_world(3),
    "roaming": lambda: roaming_world(3),
    "nsa": lambda: single_network_world(3, policy=OperatorPolicy(mode="NSA")),
}
# the user-plane world: after its registration, ue1 opens a PDU session
# under UP integrity and sends two packets
UP_WORLD = "user_plane"
BUILDS = {**WORLDS,
          UP_WORLD: lambda: single_network_world(3, policy=OperatorPolicy(up_integrity=True))}
MARKERS = (b"marker-1", b"marker-2")
SESSION_TRIGGERS = ((3000, messages.TriggerPduSession()),
                    (4000, messages.TriggerAppData(payload=MARKERS[0])),
                    (4500, messages.TriggerAppData(payload=MARKERS[1])))
# wire events of one honest run in each world
WIRE_EVENTS = {"single": 25, "roaming": 35, "nsa": 21, UP_WORLD: 36}


def run_schedule(world_name, drops=(), replay=None):
    """Register ue1 (and, in the user-plane world, open its session and
    send its packets) under the drops of some event numbers or one replay
    (a pair (captured, after)); returns the world, its builder and the wire
    events the hook saw."""
    world, builder = BUILDS[world_name]()
    seen, captured = [], []

    def handler(w, hook, event):
        index = len(seen)
        seen.append(event)
        if index in drops:
            return Action(drop=True)
        if replay is not None and index == replay[0]:
            captured.append(event)
        if replay is not None and index == replay[1]:
            (old,) = captured
            return Action(inject=[(1, old.channel, old.src, old.dst, old.payload)])
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="schedule", vantage=WIRE_CHANNELS,
        capabilities=frozenset({Capability.DROP, Capability.INJECT}), handler=handler))
    trigger(world, "ue1", messages.TriggerRegistration(target_cell=""))
    for delay, msg in SESSION_TRIGGERS if world_name == UP_WORLD else ():
        trigger(world, "ue1", msg, delay)
    world.run_until(HORIZON)
    return world, builder, seen


@contextlib.contextmanager
def accepted_opens():
    """Record, per link end that runs integrity, the (direction, count) of
    each wrapper its ``open`` accepts."""
    accepted = defaultdict(list)
    real = crypto.SecureLink.open

    def recording(link, wrapper, integrity_only=False):
        payload = real(link, wrapper, integrity_only)
        if link.nia_id and not isinstance(payload, crypto.LinkReject):
            accepted[link].append((wrapper.direction, wrapper.count))
        return payload

    crypto.SecureLink.open = recording
    try:
        yield accepted
    finally:
        crypto.SecureLink.open = real


def assert_invariants(world_name, drops=(), replay=None):
    """Run one schedule: (a) no exception escapes, (b) no link end that runs
    integrity accepts one (direction, count) twice, and (f) the AUSF and the
    SEPPs hold at most one record and one route per subscriber, and a SEPP
    keeps no route and no pending request toward a peer that refused it."""
    with accepted_opens() as accepted:
        world, builder, _ = run_schedule(world_name, drops, replay)
    for opens in accepted.values():
        assert len(opens) == len(set(opens)), (drops, replay, opens)
    subscribers = len(builder.ues)
    for net in builder.networks.values():
        assert len(net.ausf.sessions) <= subscribers, (drops, replay, net.ausf.sessions)
        if net.sepp is not None:
            assert len(net.sepp.routes) <= subscribers, (drops, replay, net.sepp.routes)
            refused = {plmn for plmn, session in net.sepp.sessions.items()
                       if session.refused and not session.established}
            assert not any(net.sepp.sessions[plmn].pending for plmn in refused), \
                (drops, replay, net.sepp.sessions)
            assert all(route.home_plmn not in refused for route in net.sepp.routes.values()), \
                (drops, replay, net.sepp.routes)
    return world, builder


@pytest.mark.parametrize("world_name", sorted(WORLDS))
def test_honest_registration_has_the_enumerated_wire_events(world_name):
    world, _, seen = run_schedule(world_name)
    assert len(seen) == WIRE_EVENTS[world_name]
    assert world.entities["ue1"].last_outcome() == "registered"


def test_the_user_plane_world_delivers_both_packets():
    _, builder, seen = run_schedule(UP_WORLD)
    assert len(seen) == WIRE_EVENTS[UP_WORLD]
    assert [p for _, p in builder.networks["net"].upf.received] == list(MARKERS)


@pytest.mark.parametrize("world_name", sorted(WIRE_EVENTS))
def test_every_single_drop_ends_without_a_fault(world_name):
    for i in range(WIRE_EVENTS[world_name]):
        assert_invariants(world_name, drops=(i,))


@pytest.mark.parametrize("world_name", sorted(WIRE_EVENTS))
def test_every_single_replay_ends_without_a_fault(world_name):
    for pair in itertools.combinations(range(WIRE_EVENTS[world_name]), 2):
        assert_invariants(world_name, replay=pair)


@pytest.mark.parametrize("world_name", sorted(WORLDS))
def test_every_drop_pair_ends_without_a_fault(world_name):
    # 300, 595 and 210 pairs; a later number counts the events after the
    # first drop, retransmissions included
    for pair in itertools.combinations(range(WIRE_EVENTS[world_name]), 2):
        assert_invariants(world_name, drops=pair)


# Replaying the radio RegistrationRequest (event 2) or its InitialUeMessage
# (event 3) between the UE's NAS and AS security mode completes retires the
# AMF's session and opens a new one in auth_pending; the gNB's UeContextActive
# then reached that session, which has no NAS link yet, and the AMF's seal of
# the RegistrationAccept raised AttributeError out of run_until.
REPLAY_CRASH_SCHEDULES = (
    [("single", 2, i) for i in range(16, 21)] + [("single", 3, i) for i in range(17, 22)]
    + [("roaming", 2, i) for i in range(26, 31)] + [("roaming", 3, i) for i in range(27, 32)]
)


@pytest.mark.parametrize("world_name, captured, after", REPLAY_CRASH_SCHEDULES)
def test_replayed_initial_message_before_as_security_is_refused(world_name, captured, after):
    world, builder = assert_invariants(world_name, replay=(captured, after))
    # the UeContextActive is refused outside nas_secured and registered: the
    # UE times out, and the AMF holds only the session the replay opened,
    # whose challenge the UE was no longer waiting for
    amf = builder.networks["net" if world_name == "single" else "serv"].amf
    assert world.entities["ue1"].last_outcome() == "timeout"
    [session] = amf.sessions.values()
    assert session.state is AmfState.CHALLENGE_SENT


def first_event(world_name, msg_type):
    """The number of the first wire event of ``msg_type`` in an honest run."""
    _, _, seen = run_schedule(world_name)
    return next(i for i, event in enumerate(seen)
                if messages.peek_type(event.payload) == msg_type)


@pytest.mark.parametrize("world_name", ["single", "roaming"])
def test_a_lost_challenge_leaves_no_authentication_behind(world_name):
    # the UE resends its RegistrationRequest, and the AMF starts a second
    # authentication for the same SUCI: it supersedes the first at the AUSF,
    # which kept its record and its SEPP routes for good before
    lost = first_event(world_name, "AuthenticationRequest")
    world, builder = assert_invariants(world_name, drops=(lost,))
    assert world.entities["ue1"].last_outcome() == "registered"
    for net in builder.networks.values():
        assert net.ausf.sessions == {} and net.ausf.latest == {}
        assert net.sepp is None or (net.sepp.routes == {} and net.sepp.by_suci == {})


@pytest.mark.parametrize("world_name", ["single", "roaming"])
def test_a_duplicate_auth_request_leaves_the_live_record_and_the_registration(world_name):
    # the AuthRequestSbi replayed while its vector is out: the AUSF refuses
    # the duplicate of a live SBI id instead of asking the UDM again, so
    # the record keeps the XRES* the UE's answer matches
    request = [i for i, event in enumerate(run_schedule(world_name)[2])
               if messages.peek_type(event.payload) == "AuthRequestSbi"][-1]
    for after in range(request + 1, request + 6):
        world, builder = assert_invariants(world_name, replay=(request, after))
        assert world.entities["ue1"].last_outcome() == "registered", after


@pytest.mark.parametrize("world_name", ["single", "roaming"])
def test_a_second_vector_for_a_held_challenge_is_ignored(world_name):
    # the UdmAuthRequest replayed: the UDM answers with a fresh vector,
    # which the AUSF refuses once the record holds its XRES*
    request = first_event(world_name, "UdmAuthRequest")
    for after in range(request + 1, request + 6):
        world, builder = assert_invariants(world_name, replay=(request, after))
        assert world.entities["ue1"].last_outcome() == "registered", after


@pytest.mark.parametrize("world_name", ["single", "roaming"])
def test_a_late_vector_for_an_abandoned_request_leaves_the_newer_one(world_name):
    # a first registration whose every vector is lost ends at the UE's
    # timer, with an AUSF record left waiting for its vector; a second
    # registration (a new SUCI) has its challenge out when the first
    # record's UdmAuthRequest is replayed and brings that record a vector.
    # The vector is the later one, but the request is the earlier: it ends
    # the first record, and the second registration completes
    world, builder = WORLDS[world_name]()
    requests, phase = [], [1]

    def handler(w, hook, event):
        kind = messages.peek_type(event.payload)
        if phase[0] == 1 and kind == "UdmAuthRequest":
            requests.append(event)
        if phase[0] == 1 and kind == "UdmAuthResponse":
            return Action(drop=True)
        if phase[0] == 2 and kind == "AuthenticationRequest":
            phase[0], old = 3, requests[-1]
            return Action(inject=[(1, old.channel, old.src, old.dst, old.payload)])
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="schedule", vantage=WIRE_CHANNELS,
        capabilities=frozenset({Capability.DROP, Capability.INJECT}), handler=handler))
    trigger(world, "ue1", messages.TriggerRegistration(target_cell=""))
    world.run_until(HORIZON)
    assert world.entities["ue1"].last_outcome() == "timeout"
    phase[0] = 2
    trigger(world, "ue1", messages.TriggerRegistration(target_cell=""))
    world.run_until(2 * HORIZON)
    assert phase[0] == 3 and world.entities["ue1"].last_outcome() == "registered"
    for net in builder.networks.values():
        assert net.ausf.sessions == {} and net.ausf.latest == {}
        assert net.sepp is None or (net.sepp.routes == {} and net.sepp.by_suci == {})


@pytest.mark.parametrize("lost", ["SeppHello", "SeppHelloAck"])
def test_a_lost_sepp_hello_or_ack_is_sent_again(lost):
    # the UE's retransmitted request finds the serving SEPP's session to the
    # home network unanswered and sends the hello again; the requests that
    # waited for it go once it is answered, and the newest authentication ends
    world, builder = assert_invariants("roaming", drops=(first_event("roaming", lost),))
    assert world.entities["ue1"].last_outcome() == "registered"
    for net in builder.networks.values():
        assert net.ausf.sessions == {} and net.ausf.latest == {}
        assert net.sepp.routes == {} and net.sepp.by_suci == {}
