"""Every single drop and every single replay over one registration.

A hook on every wire channel numbers the wire events it sees from 0.  A
drop schedule drops event i; a replay schedule captures event j and
re-injects it, with delay 1, after event i > j.  Each schedule must end
without an exception escaping ``run_until`` (the small-scope hypothesis:
most defects show in small cases).
"""

import pytest

from fivegsim import messages
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
# wire events of one honest registration in each world
WIRE_EVENTS = {"single": 25, "roaming": 35, "nsa": 21}


def run_schedule(world_name, drop=None, replay=None):
    """Register ue1 under one drop (an event number) or one replay (a pair
    (captured, after)); returns the world, its builder and the number of
    wire events the hook saw."""
    world, builder = WORLDS[world_name]()
    seen, captured = [], []

    def handler(w, hook, event):
        index = len(seen)
        seen.append(event)
        if index == drop:
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
    world.run_until(HORIZON)
    return world, builder, len(seen)


@pytest.mark.parametrize("world_name", sorted(WORLDS))
def test_honest_registration_has_the_enumerated_wire_events(world_name):
    world, _, events = run_schedule(world_name)
    assert events == WIRE_EVENTS[world_name]
    assert world.entities["ue1"].last_outcome() == "registered"


@pytest.mark.parametrize("world_name", sorted(WORLDS))
def test_every_single_drop_ends_without_a_fault(world_name):
    for i in range(WIRE_EVENTS[world_name]):
        run_schedule(world_name, drop=i)


@pytest.mark.parametrize("world_name", sorted(WORLDS))
def test_every_single_replay_ends_without_a_fault(world_name):
    n = WIRE_EVENTS[world_name]
    for j in range(n):
        for i in range(j + 1, n):
            run_schedule(world_name, replay=(j, i))


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
    world, builder, _ = run_schedule(world_name, replay=(captured, after))
    # the UeContextActive is refused outside nas_secured and registered: the
    # UE times out, and the AMF holds only the session the replay opened,
    # whose challenge the UE was no longer waiting for
    amf = builder.networks["net" if world_name == "single" else "serv"].amf
    assert world.entities["ue1"].last_outcome() == "timeout"
    [session] = amf.sessions.values()
    assert session.state is AmfState.CHALLENGE_SENT
