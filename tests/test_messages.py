import dataclasses
import io
import json
import typing
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fivegsim import messages
from fivegsim.entities import Entity
from fivegsim.netsim import Channel, World


def test_round_trip_simple():
    msg = messages.RegistrationRequest(suci=b"\x01\x02", slice_id="embb",
                                       ue_nonce=b"12345678")
    assert messages.decode(messages.encode(msg)) == msg


def test_round_trip_nested_list():
    cells = [
        messages.CellInfo(cell_id="cell-a", plmn="00101", strength=10, kind="nr",
                          verification_key=b"", blacklist=["rogue-z", "rogue-y"]),
        messages.CellInfo(cell_id="cell-b", plmn="00101", strength=3, kind="lte",
                          verification_key=b"\x11" * 32, blacklist=[]),
    ]
    msg = messages.CellScanResponse(cells=cells)
    assert messages.decode(messages.encode(msg)) == msg


def test_peek_type():
    msg = messages.TimerFired(timer_id=7)
    assert messages.peek_type(messages.encode(msg)) == "TimerFired"


@pytest.mark.parametrize("size", range(6))
def test_frame_cut_inside_its_tag_has_no_type(size):
    # every prefix of a correct 4-byte length over a one-byte tag
    frame = bytes.fromhex("0000000104")[:size]
    for read in (messages.peek_type, messages.decode):
        with pytest.raises(ValueError):
            read(frame)
    _, world = _deliver([frame])
    assert [e.msg_type for e in world.transcript.entries] == ["?"]


def test_framing_checked():
    raw = messages.encode(messages.TimerFired(timer_id=7))
    with pytest.raises(ValueError):
        messages.decode(raw + b"\x00")


def test_negative_and_large_ints():
    msg = messages.TimerFired(timer_id=-1)
    assert messages.decode(messages.encode(msg)).timer_id == -1


@given(st.binary(max_size=64), st.text(max_size=32), st.binary(max_size=16))
@settings(max_examples=200, deadline=None)
def test_round_trip_property(suci, slice_id, nonce):
    msg = messages.RegistrationRequest(suci=suci, slice_id=slice_id, ue_nonce=nonce)
    assert messages.decode(messages.encode(msg)) == msg


def test_encoding_is_canonical():
    msg = messages.AuthenticationRequest(rand=b"\x00" * 16, autn=b"\x01" * 16,
                                         ngksi=3, abba=b"\x00\x00")
    assert messages.encode(msg) == messages.encode(
        messages.decode(messages.encode(msg)))


def test_all_wire_types_round_trip_defaults():
    # every registered type survives encode/decode with simple field values
    defaults = {int: 1, bool: True, bytes: b"\x00", str: "x"}
    import typing
    from dataclasses import fields
    for cls in messages._REGISTRY:
        kwargs = {}
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            ftype = hints[f.name]
            if typing.get_origin(ftype) is list:
                kwargs[f.name] = []
            elif ftype in defaults:
                kwargs[f.name] = defaults[ftype]
            else:
                kwargs[f.name] = None
        msg = cls(**kwargs)
        assert messages.decode(messages.encode(msg)) == msg, cls.__name__


# Hex of sample() for every wire class, recorded once: the wire format must
# never move, whatever the codec's implementation.
FROZEN_HEX = json.loads(
    (Path(__file__).parent / "data" / "wire_samples.json").read_text())


def sample(cls, salt=0):
    """A fixed instance of a wire class: every field type, signed ints,
    both booleans, non-ASCII text and nested structs in lists."""
    hints = typing.get_type_hints(cls)
    values = {}
    for i, f in enumerate(fields(cls)):
        k = i + salt
        ftype = hints[f.name]
        if typing.get_origin(ftype) is list:
            (inner,) = typing.get_args(ftype)
            values[f.name] = ([f"{f.name}{k}", "é"] if inner is str
                              else [sample(inner, k + 1), sample(inner, k + 2)])
        elif ftype is bool:
            values[f.name] = k % 2 == 0
        elif ftype is int:
            values[f.name] = (-1) ** k * (k * 0x0102030405 + 7)
        elif ftype is bytes:
            values[f.name] = bytes(range(k, k + 3 + k % 4))
        elif ftype is str:
            values[f.name] = f"{f.name}-{k}é"
        else:
            values[f.name] = sample(ftype, k + 1)
    return cls(**values)


def test_frozen_hex_covers_every_wire_class():
    assert list(FROZEN_HEX) == [cls.__name__ for cls in messages._REGISTRY]


@pytest.mark.parametrize("cls", messages._REGISTRY, ids=lambda cls: cls.__name__)
def test_encoding_matches_frozen_hex(cls):
    assert messages.encode(sample(cls)).hex() == FROZEN_HEX[cls.__name__]


@pytest.mark.parametrize("cls", messages._REGISTRY, ids=lambda cls: cls.__name__)
def test_sample_round_trips(cls):
    msg = sample(cls)
    raw = messages.encode(msg)
    assert messages.decode(raw) == msg
    assert messages.peek_type(raw) == cls.__name__


@pytest.mark.parametrize("cls", messages._REGISTRY, ids=lambda cls: cls.__name__)
def test_shared_eq_and_repr_act_as_the_generated_ones(cls):
    # the reference: the same fields in a class that dataclass gives eq and repr
    ref = dataclasses.make_dataclass(cls.__name__, [(f.name, f.type) for f in fields(cls)])
    msg, twin, other = sample(cls), sample(cls), sample(cls, 1)
    assert (cls.__eq__, cls.__repr__) == (messages._eq, messages._repr)
    assert repr(msg) == repr(ref(**vars(msg)))
    assert msg == twin and not msg != twin
    for f in fields(cls):  # one field changed
        changed = dataclasses.replace(msg, **{f.name: getattr(other, f.name)})
        assert msg != changed and not msg == changed
    assert msg != ref(**vars(msg)) and msg.__eq__(ref(**vars(msg))) is NotImplemented
    assert msg != object()
    with pytest.raises(TypeError, match="unhashable"):
        hash(msg)


def _framed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def _nested_trailing_byte() -> bytes:
    # one byte appended to the CellInfo inside a CellScanResponse, with the
    # CellInfo's length prefix and the outer framing counting it
    raw = messages.encode(messages.CellScanResponse(cells=[sample(messages.CellInfo)]))
    cell_len = int.from_bytes(raw[8:12], "big")
    return _framed(raw[4:8] + (cell_len + 1).to_bytes(4, "big") + raw[12:] + b"\x00")


_GOOD = messages.encode(messages.RegistrationRequest(
    suci=b"\x01\x02", slice_id="embb", ue_nonce=b"12345678"))
MALFORMED = {
    "unknown_tag": _framed(len(messages._REGISTRY).to_bytes(2, "big") + _GOOD[6:]),
    "trailing_byte": _framed(_GOOD[4:] + b"\x00"),
    # the last field's 4-byte length prefix cut after two bytes
    "truncated_length_prefix": _framed(_GOOD[4:-8 - 2]),
    "nested_trailing_byte": _nested_trailing_byte(),
}


def _deliver(payloads):
    """(messages a sink entity receives, the world) after ``payloads`` are
    sent to it, in order, at time 1."""
    world = World(seed=0)
    delivered = []

    class Sink:
        entity_id = "sink"

        def step(self, msg, event, ctx):
            delivered.append(msg)

    world.add_entity(Sink())
    for payload in payloads:
        world.schedule(world.time + 1, Channel.INTERNAL, "world", "sink", payload, "world")
    world.run_until(10)
    return delivered, world


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_payload_is_a_decode_error_and_undecodable_at_the_bus(name):
    payload = MALFORMED[name]
    with pytest.raises((ValueError, IndexError)):
        messages.decode(payload)

    delivered, world = _deliver([payload, _GOOD])
    assert delivered == [messages.decode(_GOOD)]
    assert [e.payload for e in world.transcript.entries] == [payload, _GOOD]


def _refused_variants(cls) -> list[bytes]:
    """Every proper prefix of ``sample(cls)``'s fields and every one-byte
    extension of them, each behind the class tag with a correct outer length."""
    raw = messages.encode(sample(cls))
    tag, body = raw[4:6], raw[6:]
    return ([_framed(tag + body[:cut]) for cut in range(len(body))]
            + [_framed(tag + body + bytes([extra])) for extra in range(256)])


@pytest.mark.parametrize("cls", messages._REGISTRY, ids=lambda cls: cls.__name__)
def test_every_prefix_and_extension_is_refused(cls):
    variants = _refused_variants(cls)
    for payload in variants:
        with pytest.raises((ValueError, IndexError)):
            messages.decode(payload)

    delivered, world = _deliver([*variants, _GOOD])
    assert delivered == [messages.decode(_GOOD)]
    assert len(world.transcript.entries) == len(variants) + 1


def _mutate(body: bytes, kind: str, at: int, value: int) -> bytes:
    at %= len(body) + 1
    if kind == "flip" and at < len(body):
        return body[:at] + bytes([body[at] ^ 1 << value % 8]) + body[at + 1:]
    if kind == "delete":
        return body[:at] + body[at + 1:]
    if kind == "insert":
        return body[:at] + bytes([value % 256]) + body[at:]
    if kind == "forge_length":  # a 4-byte length or 2-byte count written over the body
        width = 4 if value % 2 else 2
        return body[:at] + (value >> 1).to_bytes(4, "big")[-width:] + body[at + width:]
    return body[:at]  # truncate


_MUTATION = st.tuples(st.sampled_from(["flip", "delete", "insert", "forge_length", "truncate"]),
                      st.integers(0, 400), st.integers(0, 2**33 - 1))


def _outcome(decode, *args):
    try:
        return decode(*args)
    except (ValueError, IndexError):
        return "refused"


@given(st.sampled_from(messages._REGISTRY), st.integers(0, 3),
       st.lists(_MUTATION, min_size=1, max_size=4), st.booleans())
@settings(max_examples=400, deadline=None)
def test_mutated_payloads_decode_as_the_reference_decoder_does(cls, salt, mutations, reframe):
    raw = messages.encode(sample(cls, salt))
    body = raw[4:]
    for mutation in mutations:
        body = _mutate(body, *mutation)
    payload = _framed(body) if reframe else raw[:4] + body
    codec = _outcome(messages.decode, payload)
    if len(payload) < 6:
        # a tag cut short: the reference decoder reads the one byte left as
        # a tag and accepts it for a class without fields
        assert codec == "refused"
    else:
        assert codec == _outcome(oracles.decode_wire, tuple(messages._REGISTRY), payload)


def _values(ftype):
    """Any value the codec takes for a field of type ``ftype``."""
    if typing.get_origin(ftype) is list:
        return st.lists(_values(typing.get_args(ftype)[0]), max_size=3)
    scalars = {int: st.integers(-2**63, 2**63 - 1), bool: st.booleans(),
               bytes: st.binary(max_size=40), str: st.text(max_size=12)}
    return scalars[ftype] if ftype in scalars else _instances(ftype)


def _instances(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{f.name: _values(hints[f.name]) for f in fields(cls)})


@given(st.sampled_from(messages._REGISTRY).flatmap(_instances))
@settings(max_examples=400, deadline=None)
def test_encoding_matches_the_reference_encoder(msg):
    raw = messages.encode(msg)
    assert raw == oracles.encode_wire(tuple(messages._REGISTRY), msg)
    assert messages.decode(raw) == msg


@pytest.mark.parametrize("ftype, value", [
    (list[int], [-1, 2**63 - 1, 0]), (list[bool], [True, False]),
    (list[bytes], [b"", b"\x00\x01"]), (list[list[str]], [["a", "é"], []]),
], ids=str)
def test_list_of_any_field_type_matches_the_reference_codec(ftype, value):
    # no wire class declares these lists yet; a later one may
    write, read = messages._compile([("item", ftype)])
    reference = io.BytesIO()
    oracles._field_writer(ftype, tuple(messages._REGISTRY))(reference, value)
    assert write(value) == reference.getvalue()
    assert read(reference.getvalue(), 0) == (value, len(reference.getvalue()))


def _cell(**change):
    return dataclasses.replace(sample(messages.CellInfo), **change)


# Inputs outside the wire types: the codec takes what the reference encoder
# takes, with the same value, and refuses the rest with the same exception.
ODD_INPUTS = {
    "int_too_large": messages.TimerFired(timer_id=2**63),
    "int_too_small": messages.TimerFired(timer_id=-2**63 - 1),
    "float_for_int": messages.TimerFired(timer_id=7.9),
    "text_for_int": messages.TimerFired(timer_id="12"),
    "none_for_int": messages.TimerFired(timer_id=None),
    "truthy_text_for_bool": messages.AdminSetActive(active="no"),
    "bytearray_for_bytes": messages.AppData(payload=bytearray(b"\x01\x02")),
    "text_for_bytes": messages.AppData(payload="\x01"),
    "bytes_for_text": messages.WorldAction(label=b"x"),
    "lone_surrogate": messages.WorldAction(label="\ud800"),
    "list_too_long": messages.CellScanResponse(cells=[sample(messages.CellInfo)] * 2**16),
    "text_for_list": messages.CellScanResponse(cells="ab"),
    "wrong_struct": messages.CellScanResponse(cells=[messages.TimerFired(timer_id=1)]),
    "nested_int_too_large": messages.CellScanResponse(cells=[_cell(strength=2**64)]),
    "nested_text_for_list": _cell(blacklist=[1]),
}


@pytest.mark.parametrize("name", sorted(ODD_INPUTS))
def test_odd_inputs_encode_as_the_reference_encoder_does(name):
    msg = ODD_INPUTS[name]

    def outcome(encode, *args):
        try:
            return encode(*args)
        except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
            return type(exc)

    assert outcome(messages.encode, msg) == outcome(
        oracles.encode_wire, tuple(messages._REGISTRY), msg)


def test_misspelt_handler_fails_at_class_creation():
    with pytest.raises(TypeError, match="on_timer_fird"):
        class Clumsy(Entity):
            def on_timer_fird(self, msg, event, ctx):
                pass

