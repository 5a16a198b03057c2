import hashlib
import itertools
import json

import pytest

from fivegsim import messages
from fivegsim.flows import run_registration
from fivegsim.netsim import (
    Action,
    AdversaryHook,
    Capability,
    Channel,
    JamWindow,
    Knowledge,
    SimEvent,
    WIRE_CHANNELS,
    TimeInPast,
    Transcript,
    World,
)
from fivegsim.policy import OperatorPolicy
from fivegsim.worldfile import single_network_world


def _payload(timer_id=0):
    return messages.encode(messages.TimerFired(timer_id=timer_id))


def test_priority_order_and_tiebreak():
    world = World(seed=0)
    order = []

    class Sink:
        entity_id = "sink"

        def step(self, msg, event, ctx):
            order.append((event.time, event.seq))

    world.add_entity(Sink())
    world.schedule(5, Channel.INTERNAL, "world", "sink", _payload(1), "world")
    world.schedule(3, Channel.INTERNAL, "world", "sink", _payload(2), "world")
    world.schedule(3, Channel.INTERNAL, "world", "sink", _payload(3), "world")
    world.run_until(100)
    assert order == [(3, 1), (3, 2), (5, 0)]


def test_schedule_in_past_rejected():
    world = World(seed=0)
    world.time = 10
    with pytest.raises(TimeInPast):
        world.schedule(3, Channel.INTERNAL, "world", "x", _payload(), "world")


def test_unknown_destination_is_noop():
    world = World(seed=0)
    world.schedule(1, Channel.INTERNAL, "world", "ghost", _payload(), "world")
    world.run_until(10)
    assert len(world.transcript.entries) == 1
    assert not world.transcript.entries[0].dropped


def test_same_seed_same_transcript_hash():
    def run(seed):
        world, _ = single_network_world(seed=seed)
        run_registration(world, "ue1")
        return world.transcript.sha256()

    assert run(3) == run(3)
    assert run(3) != run(4)


def test_conservation_every_delivery_has_origin():
    world, _ = single_network_world(seed=3)
    run_registration(world, "ue1")
    for entry in world.transcript.entries:
        origin = entry.origin
        assert origin == "world" or origin.startswith(("entity:", "adversary:"))
        if origin.startswith("entity:"):
            name = origin.split(":", 1)[1]
            assert name in world.entities or name == "__ether__"


def _writing(name: str):
    """A handler that writes the field ``name`` of each event it is handed
    and returns no Action."""
    value = b"forged" if name == "payload" else "adversary:eve"

    def write(world, hook, event):
        setattr(event, name, value)

    return write


@pytest.mark.parametrize("writes", [None, "src", "dst", "origin", "payload"])
def test_passive_adversary_never_alters_transcript(writes):
    # a handler gets a copy of the event: what it writes there reaches
    # neither delivery nor the export
    base, _ = single_network_world(seed=9)
    run_registration(base, "ue1")
    observed, _ = single_network_world(seed=9)
    observed.attach_adversary(AdversaryHook(
        adversary_id="eve",
        vantage=WIRE_CHANNELS,
        capabilities=frozenset({Capability.OBSERVE}),
        handler=None if writes is None else _writing(writes),
    ))
    assert run_registration(observed, "ue1").success
    assert base.transcript.to_jsonl() == observed.transcript.to_jsonl()
    assert base.transcript.sha256() == observed.transcript.sha256()


@pytest.mark.parametrize("vantage", [frozenset(Channel), frozenset({Channel.INTERNAL})],
                         ids=["every_channel", "internal"])
def test_adversary_vantage_is_wire_channels_only(vantage):
    # the internal channel carries timers and triggers, the app data among
    # them in plaintext: no adversary may stand on it
    world, _ = single_network_world(seed=3)
    with pytest.raises(ValueError, match="wire channels only"):
        world.attach_adversary(AdversaryHook(
            adversary_id="eve", vantage=vantage,
            capabilities=frozenset({Capability.OBSERVE})))
    assert world.adversaries == []


def test_adversary_without_observe_gets_no_bytes():
    world, _ = single_network_world(seed=5)
    mute = AdversaryHook(
        adversary_id="mute",
        vantage=frozenset({Channel.RADIO_NAS, Channel.RADIO_RRC}),
        capabilities=frozenset({Capability.DROP}),
        handler=lambda w, h, e: None,
    )
    world.attach_adversary(mute)
    run_registration(world, "ue1")
    assert mute.knowledge.seen == []


def test_adversary_vantage_limits_visibility():
    world, _ = single_network_world(seed=5)
    eve = AdversaryHook(
        adversary_id="eve",
        vantage=frozenset({Channel.RADIO_NAS}),
        capabilities=frozenset({Capability.OBSERVE}),
    )
    world.attach_adversary(eve)
    run_registration(world, "ue1")
    assert eve.knowledge.seen
    assert all(ch == Channel.RADIO_NAS.value for ch, _, _ in eve.knowledge.seen)


def test_link_protection_blocks_observation_without_key():
    policy = OperatorPolicy(n2_link_protected=True)
    world, _ = single_network_world(seed=5, policy=policy)
    tap = AdversaryHook(
        adversary_id="tap", vantage=frozenset({Channel.N2}),
        capabilities=frozenset({Capability.OBSERVE}),
    )
    world.attach_adversary(tap)
    run_registration(world, "ue1")
    assert tap.knowledge.seen == []

    world2, _ = single_network_world(seed=5, policy=policy)
    keyed = AdversaryHook(
        adversary_id="tap", vantage=frozenset({Channel.N2}),
        capabilities=frozenset({Capability.OBSERVE}),
    )
    keyed.knowledge.grant("link:N2", b"lifted")
    world2.attach_adversary(keyed)
    run_registration(world2, "ue1")
    assert keyed.knowledge.seen


def test_unprotected_link_is_observable():
    policy = OperatorPolicy(n2_link_protected=False)
    world, _ = single_network_world(seed=5, policy=policy)
    tap = AdversaryHook(
        adversary_id="tap", vantage=frozenset({Channel.N2}),
        capabilities=frozenset({Capability.OBSERVE}),
    )
    world.attach_adversary(tap)
    run_registration(world, "ue1")
    assert tap.knowledge.seen


def test_drop_all_radio_nas_forces_timeout():
    world, _ = single_network_world(seed=6)
    world.attach_adversary(AdversaryHook(
        adversary_id="dropper",
        vantage=frozenset({Channel.RADIO_NAS}),
        capabilities=frozenset({Capability.DROP}),
        handler=lambda w, h, e: Action(drop=True),
    ))
    outcome = run_registration(world, "ue1", horizon=5_000)
    assert outcome.outcome == "timeout"
    assert any(e.dropped for e in world.transcript.entries)


def test_drop_without_capability_is_ignored():
    world, _ = single_network_world(seed=6)
    world.attach_adversary(AdversaryHook(
        adversary_id="wannabe",
        vantage=frozenset({Channel.RADIO_NAS}),
        capabilities=frozenset({Capability.OBSERVE}),  # no Drop
        handler=lambda w, h, e: Action(drop=True),
    ))
    outcome = run_registration(world, "ue1")
    assert outcome.success


def test_jam_window_validation():
    with pytest.raises(ValueError):
        JamWindow(target_cell="c", t_start=5, t_end=5)
    with pytest.raises(ValueError):
        JamWindow(target_cell="c", t_start=9, t_end=5)


def test_jam_drops_only_access_attempts_in_window():
    world, _ = single_network_world(seed=7)
    world.apply_jam(JamWindow(target_cell="cell-a", t_start=0, t_end=2_000))
    first = run_registration(world, "ue1", horizon=1_800)
    assert first.outcome == "timeout"
    second = run_registration(world, "ue1")
    assert second.success


def test_jam_suppression_follows_the_cell_policy():
    # a cell with jam suppression enabled registers through the jam
    policy = OperatorPolicy(jam_suppression_enabled=True)
    world, _ = single_network_world(seed=7, policy=policy)
    world.apply_jam(JamWindow(target_cell="cell-a", t_start=0, t_end=2_000))
    assert run_registration(world, "ue1", horizon=1_800).success
    # a plain cell is jammed -> timeout
    world2, _ = single_network_world(seed=7)
    world2.apply_jam(JamWindow(target_cell="cell-a", t_start=0, t_end=2_000))
    assert run_registration(world2, "ue1", horizon=1_800).outcome == "timeout"


def test_jammer_is_a_hook_in_attachment_order():
    # a spy attached before the jammer sees the jammed access attempts,
    # one attached after it does not; the transcript is the same either way
    def spy():
        return AdversaryHook(adversary_id="spy", vantage=frozenset({Channel.RADIO_RRC}),
                             capabilities=frozenset({Capability.OBSERVE}))

    def requests_seen(hook):
        return sum(messages.peek_type(p) == "RrcConnectionRequest"
                   for p in hook.knowledge.payloads(Channel.RADIO_RRC))

    jam = JamWindow(target_cell="cell-a", t_start=0, t_end=2_000)
    before, _ = single_network_world(seed=7)
    early = spy()
    before.attach_adversary(early)
    assert before.apply_jam(jam) == "jammer:cell-a"
    after, _ = single_network_world(seed=7)
    after.apply_jam(jam)
    late = spy()
    after.attach_adversary(late)
    for world in (before, after):
        assert run_registration(world, "ue1", horizon=1_800).outcome == "timeout"

    jammed = [e for e in before.transcript.entries if e.msg_type == "RrcConnectionRequest"]
    assert jammed and all(e.dropped and not e.modified for e in jammed)
    assert requests_seen(early) == len(jammed)
    assert requests_seen(late) == 0
    assert before.transcript.sha256() == after.transcript.sha256()


def test_a_jam_or_hook_added_by_a_scheduled_action_applies_to_later_events():
    # the bus looks for jams and hooks at every event, not once per run_until
    jammed, _ = single_network_world(seed=7)
    jammed.schedule_action(0, "jam", lambda w: w.apply_jam(
        JamWindow(target_cell="cell-a", t_start=0, t_end=2_000)))
    assert run_registration(jammed, "ue1", horizon=1_800).outcome == "timeout"

    tapped, _ = single_network_world(seed=7)
    eve = AdversaryHook(adversary_id="eve", vantage=frozenset({Channel.RADIO_NAS}),
                        capabilities=frozenset({Capability.OBSERVE}))
    tapped.schedule_action(0, "tap", lambda w: w.attach_adversary(eve))
    assert run_registration(tapped, "ue1").success
    assert eve.knowledge.seen


def test_the_exported_injected_flag_is_read_from_the_origin():
    world, _ = single_network_world(seed=8)
    world.schedule(5, Channel.RADIO_RRC, "bot", "cell-a", b"\x00", "adversary:flood")
    run_registration(world, "ue1")
    lines = [json.loads(line) for line in world.transcript.to_jsonl().split("\n")]
    assert len(lines) == len(world.transcript.entries) > 2
    assert [line["injected"] for line in lines] == [
        line["origin"].startswith("adversary:") for line in lines]
    assert sum(line["injected"] for line in lines) == 1


def test_injected_events_are_annotated():
    world, _ = single_network_world(seed=8)
    world.schedule(5, Channel.RADIO_RRC, "bot", "cell-a",
                   messages.encode(messages.RrcConnectionRequest(
                       c_rnti=b"\x00\x01", slice_id="embb", ue_nonce=b"n" * 8)),
                   "adversary:flood")
    world.run_until(100)
    injected = [e for e in world.transcript.entries if e.origin.startswith("adversary:")]
    assert injected and injected[0].src == "bot"


def test_injection_into_the_past_is_ignored():
    # an INJECT item with a negative delay cannot be scheduled: it is ignored,
    # with no queue entry and no transcript line, and the run goes on
    payload = messages.encode(messages.RrcConnectionRequest(
        c_rnti=b"\x00\x01", slice_id="embb", ue_nonce=b"n" * 8))
    calls = []

    def into_the_past(w, hook, event):
        calls.append(event.seq)
        return Action(inject=[(-5, Channel.RADIO_RRC, "bot", "cell-a", payload)])

    world, _ = single_network_world(seed=3)
    world.attach_adversary(AdversaryHook(
        adversary_id="past", vantage=frozenset({Channel.RADIO_RRC}),
        capabilities=frozenset({Capability.INJECT}), handler=into_the_past))
    assert run_registration(world, "ue1").success
    assert calls
    assert not any(e.origin.startswith("adversary:") for e in world.transcript.entries)
    clean, _ = single_network_world(seed=3)
    run_registration(clean, "ue1")
    assert world.transcript.sha256() == clean.transcript.sha256()


# Strings JSON must escape: non-ASCII, quote, backslash, newline, control
# characters, U+2028 and a character outside the BMP.
_AWKWARD = ["ue-\u00fc1", 'a"b', "back\\slash", "line\nbreak", "ctl\x01\x1f",
            "sep\u2028x", "sat\U0001f4e1"]


def _reference_export(entry) -> dict:
    """The transcript line as a dict, for json.dumps(..., sort_keys=True)."""
    return {
        "time": entry.time,
        "seq": entry.seq,
        "channel": entry.channel.value,
        "src": entry.src,
        "dst": entry.dst,
        "msg": entry.msg_type,
        "payload": entry.payload.hex(),
        "origin": entry.origin,
        "modified": entry.modified,
        "injected": entry.origin.startswith("adversary:"),
        "dropped": entry.dropped,
    }


def test_transcript_lines_match_json_dumps():
    transcript = Transcript()
    channels = list(Channel)
    flags = list(itertools.product((False, True), (False, True), ("adversary:", "entity:")))
    for i, (text, (dropped, modified, origin)) in enumerate(
            itertools.product(_AWKWARD, flags)):
        transcript.append(SimEvent(time=2**40 + 7 * i, seq=2**41 + i,
                                   channel=channels[i % len(channels)],
                                   src=f"src {text}", dst=f"{text} dst",
                                   payload=b"" if i % 2 else bytes(range(200)) * 7,
                                   origin=origin + text, msg_type=f"Msg{text}",
                                   modified=modified, dropped=dropped))
    assert len(transcript.entries) == len(_AWKWARD) * 8
    assert len(transcript.entries[0].payload) == 1400

    exported = transcript.to_jsonl()
    assert exported.isascii()
    assert exported.split("\n") == [json.dumps(_reference_export(entry), sort_keys=True)
                                    for entry in transcript.entries]
    assert transcript.sha256() == hashlib.sha256(exported.encode()).hexdigest()


def test_knowledge_payload_filters():
    knowledge = Knowledge()
    knowledge.see(Channel.N2, b"abc", 5)
    knowledge.see(Channel.RADIO_NAS, b"def", 10)
    assert knowledge.payloads(Channel.N2) == [b"abc"]
    assert knowledge.payloads(after=6) == [b"def"]
    assert knowledge.contains(b"de")


def test_cell_selection_tie_breaks_on_lowest_cell_id():
    world, builder = single_network_world(seed=30, cell_count=1)
    net = builder.networks["net"]
    builder.add_cell(net, "cell-z", strength=10)  # ties with cell-a at 10
    outcome = run_registration(world, "ue1")
    assert outcome.success
    assert world.entities["ue1"].serving_gnb == "cell-a"


def test_adversary_hooks_apply_in_registration_order():
    world, _ = single_network_world(seed=31)
    seen_by_second = []

    def stamp(w, hook, event):
        if messages.peek_type(event.payload) == "RegistrationRequest":
            msg = messages.decode(event.payload)
            stamped = messages.RegistrationRequest(
                suci=msg.suci, slice_id="stamped", ue_nonce=msg.ue_nonce)
            return Action(replace_payload=messages.encode(stamped))
        return None

    def record(w, hook, event):
        if messages.peek_type(event.payload) == "RegistrationRequest":
            seen_by_second.append(messages.decode(event.payload).slice_id)
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="first", vantage=frozenset({Channel.RADIO_NAS}),
        capabilities=frozenset({Capability.MODIFY}), handler=stamp))
    world.attach_adversary(AdversaryHook(
        adversary_id="second", vantage=frozenset({Channel.RADIO_NAS}),
        capabilities=frozenset({Capability.OBSERVE}), handler=record))
    run_registration(world, "ue1")
    assert seen_by_second and seen_by_second[0] == "stamped"


def test_a_hook_injecting_on_another_channel_leaves_later_hooks_the_event_channel():
    world = World(seed=0)
    handled = {"replayer": [], "spy": [], "n2": []}

    def replay_on_n2(w, hook, event):
        handled["replayer"].append(event.channel)
        return Action(inject=[(1, Channel.N2, "eve", "ghost", event.payload)])

    def record(name):
        def handler(w, hook, event):
            handled[name].append(event.channel)
        return handler

    world.attach_adversary(AdversaryHook(
        adversary_id="replayer", vantage=frozenset({Channel.RADIO_NAS}),
        capabilities=frozenset({Capability.INJECT}), handler=replay_on_n2))
    world.attach_adversary(AdversaryHook(
        adversary_id="spy", vantage=frozenset({Channel.RADIO_NAS}),
        capabilities=frozenset({Capability.OBSERVE}), handler=record("spy")))
    world.attach_adversary(AdversaryHook(
        adversary_id="n2", vantage=frozenset({Channel.N2}),
        capabilities=frozenset({Capability.OBSERVE}), handler=record("n2")))
    for t in (1, 5):
        world.schedule(t, Channel.RADIO_NAS, "ue1", "ghost", _payload(t), "entity:ue1")
    world.run_until(20)
    assert handled == {"replayer": [Channel.RADIO_NAS] * 2,
                       "spy": [Channel.RADIO_NAS] * 2,
                       "n2": [Channel.N2] * 2}
    spy, n2 = world.adversaries[1].knowledge, world.adversaries[2].knowledge
    assert [(c, t) for c, _, t in spy.seen] == [("RadioNas", 1), ("RadioNas", 5)]
    assert [(c, t) for c, _, t in n2.seen] == [("N2", 2), ("N2", 6)]


def test_world_file_adversary_placement(tmp_path):
    from fivegsim.worldfile import load_world_file
    path = tmp_path / "world.ini"
    path.write_text("""
[world]
seed = 2

[network home]
plmn = 00101

[cell cell-a]
network = home

[ue ue1]
network = home

[adversary eve]
channels = RadioNas, RadioRrc
capabilities = Observe
""")
    world, builder = load_world_file(str(path))
    assert [a.adversary_id for a in world.adversaries] == ["eve"]
    outcome = run_registration(world, "ue1")
    assert outcome.success
    assert world.adversaries[0].knowledge.seen
