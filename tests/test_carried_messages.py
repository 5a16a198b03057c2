"""The bus hands a message that an entity encoded to its receiver as the
object the sender built, without decoding the payload; raw, injected and
rewritten bytes are decoded as before.  These tests pin that no receiver
can tell the two apart, that the adversary's bytes still win, and how
much codec work a registration costs.
"""

import dataclasses
import json
from collections import Counter

import pytest

import oracles
import test_golden
from fivegsim import crypto, messages
from fivegsim.entities import Entity
from fivegsim.flows import trigger
from fivegsim.netsim import Action, AdversaryHook, Capability, Channel
from fivegsim.worldfile import single_network_world


def _assert_same(got, want) -> None:
    """Equal field by field, with identical types all the way down."""
    assert type(got) is type(want)
    if dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            _assert_same(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, list):
        assert len(got) == len(want)
        for item, wanted in zip(got, want):
            _assert_same(item, wanted)
    else:
        assert got == want


@pytest.fixture
def checked_steps(monkeypatch):
    """Wrap ``Entity.step``: a carried message must equal its payload
    decoded, and after the handler every received message must still
    encode to its payload.  Returns the count of carried and decoded
    deliveries."""
    decode, step = messages.decode, Entity.step
    decoded: dict[int, object] = {}  # id -> every object decode returned, kept alive
    tally = Counter()

    def recording_decode(data):
        msg = decode(data)
        decoded[id(msg)] = msg
        return msg

    def checked_step(self, msg, event, ctx):
        if decoded.get(id(msg)) is msg:
            tally["decoded"] += 1
        else:
            tally["carried"] += 1
            _assert_same(msg, decode(event.payload))
        step(self, msg, event, ctx)
        assert messages.encode(msg) == event.payload, \
            f"{type(self).__name__} changed the {type(msg).__name__} it received"

    monkeypatch.setattr(messages, "decode", recording_decode)
    monkeypatch.setattr(Entity, "step", checked_step)
    return tally


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(test_golden.GOLDEN.read_text())


@pytest.mark.parametrize("case", test_golden.CASES)
def test_a_carried_message_is_its_payload_decoded(case, golden, checked_steps):
    assert test_golden.digest(case) == golden[case]
    # TS_12's worlds only inject: no message an entity sends reaches another
    assert checked_steps["carried"] > 0 or case.startswith("TS_12")


def _rrc_request(slice_id: str) -> messages.RrcConnectionRequest:
    return messages.RrcConnectionRequest(c_rnti=b"\xee\xee", slice_id=slice_id,
                                         ue_nonce=bytes(8))


@pytest.fixture
def received(monkeypatch):
    """Every (seq, message) an entity is handed, in delivery order."""
    deliveries, step = [], Entity.step

    def recording_step(self, msg, event, ctx):
        deliveries.append((event.seq, msg))
        step(self, msg, event, ctx)

    monkeypatch.setattr(Entity, "step", recording_step)
    return deliveries


@pytest.mark.parametrize("replacement", ["forged", "garbage"])
def test_a_rewritten_payload_reaches_the_receiver_as_the_adversary_wrote_it(
        replacement, received):
    world, _ = single_network_world(seed=3)
    payload = (messages.encode(_rrc_request("forged")) if replacement == "forged"
               else b"\x00\x00\x00\x02\xde\xad")
    rewritten = []

    def rewrite(w, hook, event):
        if rewritten or messages.peek_type(event.payload) != "RrcConnectionRequest":
            return None
        rewritten.append(event.seq)
        return Action(replace_payload=payload)

    world.attach_adversary(AdversaryHook(
        adversary_id="mitm", vantage=frozenset({Channel.RADIO_RRC}),
        capabilities=frozenset({Capability.MODIFY}), handler=rewrite))
    trigger(world, "ue1", messages.TriggerRegistration(target_cell=""))
    world.run_until(20_000)

    (seq,) = rewritten
    got = [msg for at, msg in received if at == seq]
    assert got == ([_rrc_request("forged")] if replacement == "forged" else [])
    entry = next(e for e in world.transcript.entries if e.seq == seq)
    assert entry.payload == payload


def _write_first_rrc_request(world, capabilities, payload: bytes):
    """Attach a hook on RADIO_RRC whose handler sets ``event.payload`` of the
    first ``RrcConnectionRequest`` itself, with no Action; returns the
    (seq, original payload) it rewrote."""
    rewritten = []

    def rewrite(w, hook, event):
        if rewritten or messages.peek_type(event.payload) != "RrcConnectionRequest":
            return None
        rewritten.append((event.seq, event.payload))
        event.payload = payload
        return None

    world.attach_adversary(AdversaryHook(
        adversary_id="mitm", vantage=frozenset({Channel.RADIO_RRC}),
        capabilities=frozenset(capabilities), handler=rewrite))
    return rewritten


@pytest.mark.parametrize("capability", [Capability.OBSERVE, Capability.MODIFY])
def test_a_payload_written_in_place_reaches_nothing(capability, received):
    # a handler gets a copy of the event: only the Action it returns acts,
    # even when its hook may MODIFY
    world, _ = single_network_world(seed=3)
    rewritten = _write_first_rrc_request(
        world, {capability}, messages.encode(_rrc_request("forged")))
    trigger(world, "ue1", messages.TriggerRegistration(target_cell=""))
    world.run_until(20_000)

    ((seq, original),) = rewritten
    entry = next(e for e in world.transcript.entries if e.seq == seq)
    assert not entry.modified and not entry.dropped
    assert (entry.msg_type, entry.payload) == ("RrcConnectionRequest", original)
    (got,) = [msg for at, msg in received if at == seq]
    assert got.slice_id != "forged" and messages.encode(got) == original
    assert world.entities["ue1"].last_outcome() == "registered"


# A storm of 50 registrations on three cells, and the codec and crypto
# calls it may make per registration, from cold crypto memos.
STORM_UES = 50
CODEC_BUDGET = {"encode": 41, "decode": 11, "peek_type": 3}
# HMAC-SHA-256 in the key chain, the AKA functions and the SUCI tag; one
# keyed CMAC per integrity key (NAS's and RRC's), shared by both ends of
# its link, however many tags they compute; one X25519 exchange, the UE's,
# which the home network reads to deconceal
CRYPTO_BUDGET = {"_hmac": 28, "CMAC": 2, "_ecies_shared": 1}
EVENT_BUDGET = 33  # bus events, 5 of them timers
# AES cipher contexts per registration: one per distinct key (the SUCI's,
# NAS's and RRC's), shared by both sides of the SUCI and both ends of each
# link, however many messages they carry
CIPHER_CONTEXTS = 3


def test_codec_work_per_registration_stays_within_budget(monkeypatch):
    oracles.clear_crypto_memos()
    calls = Counter()
    for module, names in ((messages, CODEC_BUDGET), (crypto, CRYPTO_BUDGET)):
        for name in names:
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)

    def counted_cipher(*args, _fn=crypto.Cipher):
        calls["cipher"] += 1
        return _fn(*args)

    def counted_link(self, *args, _fn=crypto.SecureLink.__init__, **kwargs):
        calls["link"] += 1
        _fn(self, *args, **kwargs)

    monkeypatch.setattr(crypto, "Cipher", counted_cipher)
    monkeypatch.setattr(crypto.SecureLink, "__init__", counted_link)
    world, _ = single_network_world(seed=5, ue_count=STORM_UES, cell_count=3)
    ues = [world.entities[f"ue{i + 1}"] for i in range(STORM_UES)]
    for i, ue in enumerate(ues):
        trigger(world, ue.entity_id, messages.TriggerRegistration(target_cell=""),
                delay=1 + i % 10)
    world.run_until(1_000_000)

    assert [ue.last_outcome() for ue in ues] == ["registered"] * STORM_UES
    per_registration = {name: calls[name] / STORM_UES for name in calls}
    per_registration["events"] = len(world.transcript.entries) / STORM_UES
    budget = {**CODEC_BUDGET, **CRYPTO_BUDGET, "events": EVENT_BUDGET}
    assert all(per_registration[name] <= budget[name] for name in budget), per_registration
    # 6 today: 4 links (NAS and RRC, each end) carry 6 ciphered messages
    assert per_registration["link"] <= 4, per_registration
    assert per_registration["cipher"] <= CIPHER_CONTEXTS, per_registration
