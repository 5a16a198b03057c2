"""Every (state, message class) pair of the AMF, the UE, the AUSF, the
SEPP and the gNB, and every declared field constraint.

Each state the entity's table names is built (for the AUSF, the SEPP and
the gNB, also the state None: no record), then ``Entity.step`` is stepped
directly with a well-formed instance of every wire class (and, at the AMF
and the SEPP, with every wire class inside an ``UplinkNas`` or a
``SeppForward``).  No pair may raise, and every pair outside the table is
an ignored transition that sends nothing.  A message that breaks a width or algorithm id its class
declares is refused the same way by every entity that takes it, on its
own or nested in another message.
"""

import ast
import dataclasses
import pathlib
import typing

import pytest

from fivegsim import crypto, entities, messages
from fivegsim.entities import Amf, Ausf, Entity, GnbNode, Sepp
from fivegsim.entities.base import try_decode
from fivegsim.entities.core import ABBA, AmfSession, AmfState, AusfSession, AusfState
from fivegsim.entities.ran import RadioState, RadioUeContext
from fivegsim.entities.sepp import RouteState, SeppRoute, SeppSession
from fivegsim.entities.ue import Attempt, Awaiting, Ue, UePhase
from fivegsim.identity import SecurityContext, format_supi
from fivegsim.netsim import Channel, SimEvent, StepContext, World
from fivegsim.policy import OperatorPolicy
from fivegsim.worldfile import single_network_world
from key_cuts import composed_chain
from test_messages import sample

SRC = "cell-a"
NEA = NIA = 2
WIRE_CLASSES = messages._REGISTRY
# the states a session or a UE is in before any key exists: the first
# registration's authentication steps and its terminal outcomes
UNKEYED_AMF = (AmfState.AUTH_PENDING, AmfState.CHALLENGE_SENT, AmfState.CONFIRM_PENDING,
               AmfState.AUTH_REJECTED, AmfState.AUTH_FAILURE, AmfState.AUTH_FAILED)
UNKEYED_UE = (UePhase.DEREGISTERED, UePhase.PERMANENTLY_DEREGISTERED, Awaiting.SCAN,
              Awaiting.RRC_SETUP, Awaiting.AUTH_REQUEST, Awaiting.NAS_SMC)


def table_states(entity_cls) -> set:
    return {state for _, by_state in entity_cls._states.values() for state in by_state}


def step(entity, msg, src=SRC, channel=Channel.N2):
    world = World(seed=5)
    ctx = StepContext(world, entity.entity_id)
    event = SimEvent(time=0, seq=0, channel=channel, src=src, dst=entity.entity_id,
                     payload=messages.encode(msg))
    entity.step(msg, event, ctx)
    return ctx


def assert_refused(ctx):
    assert ctx.ignored and not ctx.out


def well_formed(cls):
    """``sample(cls)`` with every declared field inside its constraint."""
    return dataclasses.replace(sample(cls), **{
        name: bytes(range(allowed)) if type(allowed) is int else 2
        for name, allowed in messages.CONSTRAINTS.get(cls, ())})


# -- AMF ----------------------------------------------------------------------------


def test_every_amf_state_is_in_the_table():
    assert table_states(Amf) == set(AmfState)


def amf_in(state: AmfState, keyed: bool, msg) -> Amf:
    """An AMF with one session in ``state``, found by every finder for ``msg``;
    a keyed session has the NAS link and context a renewal keeps."""
    amf = Amf("amf", "00101", OperatorPolicy(context_renewal_interval=0),
              ausf_id="ausf", udm_id="udm", smf_id="smf")
    session = AmfSession(sid="amf-s1", seq=1, gnb=SRC, ran_ue_id=1, ue_radio_ref="ue1",
                         suci=b"", home_plmn="00101", ngksi=1, state=state, rand=bytes(16),
                         supi="imsi-001010000000001", sbi_sid="amf-a1")
    if keyed:
        keys = crypto.derive_chain_from_seaf(bytes(32), session.supi, ABBA, NEA, NIA)
        session.context = SecurityContext(ng_ksi=1, keys=keys, nea_id=NEA, nia_id=NIA)
        session.link = crypto.SecureLink(messages.SecuredNas, keys, NEA, NIA, direction=1)
        session.guti = bytes(10)
        amf.by_pdu[getattr(msg, "session", "amf-p2")] = session.sid
    amf.sessions[session.sid] = session
    for leg in ((SRC, 1), (SRC, getattr(msg, "ran_ue_id", 1))):
        amf.by_ran[leg] = session.sid
    amf.by_sbi[getattr(msg, "session", "amf-a1")] = session.sid
    if hasattr(msg, "timer_id"):
        amf._timers[msg.timer_id] = session.sid
    return amf


AMF_CASES = [(state, True) for state in AmfState] + [(state, False) for state in UNKEYED_AMF]


@pytest.mark.parametrize("state, keyed", AMF_CASES, ids=lambda v: getattr(v, "value", v))
def test_amf_takes_a_message_only_in_the_states_its_table_names(state, keyed):
    for cls in WIRE_CLASSES:
        msg = well_formed(cls)
        ctx = step(amf_in(state, keyed, msg), msg)
        find, by_state = Amf._states.get(cls, (None, {}))
        if cls not in Amf._handlers and (find is Amf._in_uplink_nas or state not in by_state):
            assert_refused(ctx)


@pytest.mark.parametrize("state, keyed", AMF_CASES, ids=lambda v: getattr(v, "value", v))
def test_amf_takes_a_nas_message_in_an_uplink_nas_only_in_its_states(state, keyed):
    for cls in WIRE_CLASSES:
        msg = messages.UplinkNas(ran_ue_id=1, nas=messages.encode(well_formed(cls)))
        ctx = step(amf_in(state, keyed, msg), msg)
        find, by_state = Amf._states.get(cls, (None, {}))
        if find is not Amf._in_uplink_nas or state not in by_state:
            assert_refused(ctx)


# -- UE -------------------------------------------------------------------------------


def test_every_ue_state_is_in_the_table():
    assert table_states(Ue) == set(UePhase) | set(Awaiting)


@pytest.fixture(scope="module")
def base():
    world, _ = single_network_world(seed=3)
    return world.entities["ue1"]


def ue_in(base: Ue, state, keyed: bool, timer_id: int) -> Ue:
    """A UE like ``base`` in ``state``; a keyed one holds the context and
    links that a registration leaves, as a UE registering again after a
    timeout does."""
    ue = Ue("ue1", base.identity, base.pei, base.credential, base.home_public, base.policy)
    cell = messages.CellInfo(cell_id=SRC, plmn="00101", strength=10, kind="nr",
                             verification_key=b"", blacklist=[])
    if keyed:
        keys = composed_chain(bytes(32), "5G:00101", format_supi(ue.identity), ABBA, NEA, NIA)
        ue.context = SecurityContext(ng_ksi=1, keys=keys, nea_id=NEA, nia_id=NIA)
        ue.nas_link = crypto.SecureLink(messages.SecuredNas, keys, NEA, NIA, direction=0)
        ue.as_keys = crypto.derive_as_keys(keys["k_gnb"], NEA, NIA)
        ue.rrc_link = crypto.SecureLink(messages.SecuredRrc, ue.as_keys, NEA, NIA, direction=0)
        ue.up_link = crypto.SecureLink(messages.SecuredUp, ue.as_keys, NEA, NIA, direction=0)
        ue.guti, ue.serving_gnb, ue.serving_plmn, ue.up_node = bytes(10), SRC, "00101", SRC
    if isinstance(state, UePhase):
        ue.phase = state
    else:
        ue.attempt = Attempt(target_cell="", awaiting=state, timer_id=timer_id)
        if state is not Awaiting.SCAN:
            ue.attempt.cell = cell
            ue.attempt.last_send = (Channel.RADIO_RRC, SRC, messages.RrcConnectionRequest(
                c_rnti=b"\x00\x01", slice_id="embb", ue_nonce=bytes(8)), None)
    if state in (Awaiting.NAS_SMC, UePhase.REGISTERED):
        ue._challenge = (bytes(32), "5G:00101", ABBA)
    return ue


UE_STATES = list(UePhase) + list(Awaiting)
UE_CASES = [(state, True) for state in UE_STATES] + [(state, False) for state in UNKEYED_UE]


@pytest.mark.parametrize("state, keyed", UE_CASES, ids=lambda v: getattr(v, "value", v))
def test_ue_takes_a_message_only_in_the_states_its_table_names(base, state, keyed):
    for cls in WIRE_CLASSES:
        msg = well_formed(cls)
        ue = ue_in(base, state, keyed, getattr(msg, "timer_id", -1))
        assert ue.state is state
        ctx = step(ue, msg)
        _, by_state = Ue._states.get(cls, (None, {}))
        if cls not in Ue._handlers and state not in by_state:
            assert_refused(ctx)


# -- AUSF, SEPP and gNB: one record in a state, or none ------------------------------

SUCI, SUPI = b"suci", "imsi-001010000000001"


def test_every_record_state_is_in_the_tables():
    assert table_states(Ausf) == {None, *AusfState}
    assert table_states(Sepp) == {None, *RouteState}
    assert table_states(GnbNode) == {None, *RadioState}


def ausf_with(state, msg) -> Ausf:
    """An AUSF whose record for ``msg``'s SBI id is in ``state`` (None: no record)."""
    ausf = Ausf("ausf", "00101", "udm")
    if state is not None:
        sid = getattr(msg, "session", "amf-a1")
        held = state is AusfState.CHALLENGE_OUT
        ausf.sessions[sid] = AusfSession("amf", "5G:00101", SUCI, state,
                                         supi=SUPI if held else "", xres=bytes(16))
        ausf.latest.update({SUCI: sid, **({SUPI: sid} if held else {})})
    return ausf


def sepp_with(state, msg) -> Sepp:
    """A SEPP with an established session to ``SRC`` and, for ``msg``'s SBI
    id, a route running ``state`` (None: no route)."""
    sepp = Sepp("sepp", "00101", bytes(32), ausf_id="ausf")
    sepp.sessions["99902"] = SeppSession(peer_id=SRC, established=True)
    sid = getattr(msg, "session", None) or getattr(try_decode(getattr(msg, "inner", b"")),
                                                   "session", "amf-a1")
    if state is not None:
        amf, peer, ausf = (Channel.SBI, "amf"), (Channel.SEPP_LINK, SRC), (Channel.SBI, "ausf")
        ends = (amf, peer) if state is RouteState.OUT else (peer, ausf)
        sepp.routes[sid] = SeppRoute(state, *ends, SUCI, "99902")
        sepp.by_suci[ends[0], SUCI] = sid
    return sepp


def gnb_with(state, msg) -> GnbNode:
    """A gNB whose radio context for the UE ``SRC``, under ``msg``'s RAN UE
    id, is in ``state`` (None: no context), with the links that state has."""
    gnb = GnbNode("cell-a", "00101", amf_id="amf", upf_id="upf")
    if state is not None:
        rid = getattr(msg, "ran_ue_id", 1)
        radio = RadioUeContext(SRC, rid)
        if state is not RadioState.CONNECTED:
            radio.as_keys = crypto.derive_as_keys(bytes(32), NEA, NIA)
            radio.rrc = crypto.SecureLink(messages.SecuredRrc, radio.as_keys, NEA, NIA, 1)
        if state is RadioState.USER_PLANE:
            radio.up = crypto.SecureLink(messages.SecuredUp, radio.as_keys, NEA, NIA, 1)
        assert radio.state is state
        gnb.ue_contexts[rid], gnb.by_ue[SRC] = radio, rid
    return gnb


RECORD_CASES = ([(Ausf, ausf_with, state) for state in (None, *AusfState)]
                + [(Sepp, sepp_with, state) for state in (None, *RouteState)]
                + [(GnbNode, gnb_with, state) for state in (None, *RadioState)])


@pytest.mark.parametrize("entity_cls, build, state", RECORD_CASES,
                         ids=lambda v: getattr(v, "value", getattr(v, "__name__", str(v))))
@pytest.mark.parametrize("channel", [Channel.SBI, Channel.SEPP_LINK], ids=lambda c: c.value)
def test_a_record_takes_a_message_only_in_the_states_its_table_names(
        entity_cls, build, state, channel):
    for cls in WIRE_CLASSES:
        msg = well_formed(cls)
        ctx = step(build(state, msg), msg, channel=channel)
        _, by_state = entity_cls._states.get(cls, (None, {}))
        if cls not in entity_cls._handlers and state not in by_state:
            assert_refused(ctx)


@pytest.mark.parametrize("state", [None, *RouteState], ids=lambda v: getattr(v, "value", v))
def test_a_sepp_takes_a_forwarded_message_only_by_its_route_table(state):
    for cls in WIRE_CLASSES:
        msg = messages.SeppForward(inner=messages.encode(well_formed(cls)))
        ctx = step(sepp_with(state, msg), msg, channel=Channel.SEPP_LINK)
        if state not in Sepp._states.get(cls, (None, {}))[1]:
            assert_refused(ctx)


def forwarded(msg):
    return messages.SeppForward(inner=messages.encode(msg))


def test_a_route_in_takes_its_answers_only_from_the_local_ausf():
    # a home SEPP with two established peers; the route is the first peer's
    sepp = Sepp("sepp", "00101", bytes(32), ausf_id="ausf")
    sepp.sessions = {"99902": SeppSession("sepp-a", True), "99903": SeppSession("sepp-b", True)}
    request = messages.AuthRequestSbi(session="serv-amf-a1", suci=SUCI,
                                      serving_network_name="5G:99902")
    step(sepp, forwarded(request), src="sepp-a", channel=Channel.SEPP_LINK)
    route = dataclasses.replace(sepp.routes["serv-amf-a1"])
    reject = messages.AuthRejectSbi(session="serv-amf-a1", cause="Superseded")
    confirm = dataclasses.replace(well_formed(messages.ConfirmRequestSbi), session="serv-amf-a1")
    for msg, src, channel in [
        (forwarded(reject), "sepp-b", Channel.SEPP_LINK),  # the second peer's forward
        (forwarded(confirm), "sepp-b", Channel.SEPP_LINK),
        (reject, "sepp-b", Channel.SEPP_LINK),  # not forwarded at all
        (reject, "sepp-a", Channel.SEPP_LINK),  # the asker does not answer
        (reject, "amf", Channel.SBI),  # a local NF that is not the AUSF
    ]:
        assert_refused(step(sepp, msg, src=src, channel=channel))
    assert sepp.routes == {"serv-amf-a1": route}
    ctx = step(sepp, reject, src="ausf", channel=Channel.SBI)
    assert [(dst, msg) for _, _, dst, _, msg in ctx.out] == [("sepp-a", forwarded(reject))]
    assert sepp.routes == {} and sepp.by_suci == {}


def test_a_route_out_takes_its_answers_only_from_the_home_sepp():
    sepp = sepp_with(RouteState.OUT, messages.AuthRejectSbi(session="amf-a1", cause=""))
    sepp.sessions["99903"] = SeppSession("sepp-b", True)
    answer = dataclasses.replace(well_formed(messages.AuthResponseSbi), session="amf-a1")
    for msg, src, channel in [
        (answer, "ausf", Channel.SBI), (answer, "amf", Channel.SBI),  # raw over SBI
        (answer, "stranger", Channel.SEPP_LINK),  # raw, from a SEPP with no session
        (forwarded(answer), "sepp-b", Channel.SEPP_LINK),  # another peer's forward
    ]:
        assert_refused(step(sepp, msg, src=src, channel=channel))
    ctx = step(sepp, forwarded(answer), channel=Channel.SEPP_LINK)
    assert [(dst, msg) for _, _, dst, _, msg in ctx.out] == [("amf", answer)]
    assert list(sepp.routes) == ["amf-a1"]  # the challenge does not end the route


def test_a_duplicate_request_or_a_second_vector_leaves_the_ausf_record():
    ausf = Ausf("ausf", "00101", "udm")
    request = messages.AuthRequestSbi(session="amf-a1", suci=SUCI,
                                      serving_network_name="5G:00101")
    vector = dataclasses.replace(well_formed(messages.UdmAuthResponse),
                                 session="amf-a1", supi=SUPI)
    step(ausf, request, channel=Channel.SBI)
    step(ausf, vector, channel=Channel.SBI)
    held = dataclasses.replace(ausf.sessions["amf-a1"])
    assert held.state is AusfState.CHALLENGE_OUT
    # a duplicate of the live id, then a fresh vector for it: both outside the table
    assert_refused(step(ausf, request, channel=Channel.SBI))
    assert_refused(step(ausf, dataclasses.replace(vector, xres=bytes(range(1, 17))),
                        channel=Channel.SBI))
    assert ausf.sessions == {"amf-a1": held}
    assert ausf.latest == {SUCI: "amf-a1", SUPI: "amf-a1"}


def test_a_newer_authentication_supersedes_the_older_record():
    ausf = Ausf("ausf", "00101", "udm")
    vector = dataclasses.replace(well_formed(messages.UdmAuthResponse), supi=SUPI)
    for sid, suci in (("amf-a1", b"first"), ("amf-a2", b"second")):
        step(ausf, messages.AuthRequestSbi(session=sid, suci=suci,
                                           serving_network_name="5G:00101"))
        ctx = step(ausf, dataclasses.replace(vector, session=sid))
    # the second vector for the SUPI ends the first challenge, and says so
    # back along its route; a third request for the second SUCI ends the second
    assert [type(msg).__name__ for *_, msg in ctx.out] == ["AuthRejectSbi", "AuthResponseSbi"]
    assert ctx.out[0][4] == messages.AuthRejectSbi(session="amf-a1", cause="Superseded")
    assert list(ausf.sessions) == ["amf-a2"]
    ctx = step(ausf, messages.AuthRequestSbi(session="amf-a3", suci=b"second",
                                             serving_network_name="5G:00101"))
    assert ctx.out[0][4] == messages.AuthRejectSbi(session="amf-a2", cause="Superseded")
    assert list(ausf.sessions) == ["amf-a3"] and ausf.latest == {b"second": "amf-a3"}


def test_a_late_vector_for_an_older_request_ends_that_request_not_the_newer_one():
    # the first request's vector was lost, the second's challenge is out; then
    # a replayed UdmAuthRequest brings the first request its vector after all
    ausf = Ausf("ausf", "00101", "udm")
    vector = dataclasses.replace(well_formed(messages.UdmAuthResponse), supi=SUPI)
    for sid, suci in (("amf-a1", b"first"), ("amf-a2", b"second")):
        step(ausf, messages.AuthRequestSbi(session=sid, suci=suci,
                                           serving_network_name="5G:00101"))
    step(ausf, dataclasses.replace(vector, session="amf-a2"))
    ctx = step(ausf, dataclasses.replace(vector, session="amf-a1"))
    assert [msg for *_, msg in ctx.out] == [
        messages.AuthRejectSbi(session="amf-a1", cause="Superseded")]
    assert list(ausf.sessions) == ["amf-a2"]
    assert ausf.sessions["amf-a2"].state is AusfState.CHALLENGE_OUT
    assert ausf.latest == {b"second": "amf-a2", SUPI: "amf-a2"}


# -- declared field constraints ---------------------------------------------------------

RUNNING = frozenset({0, 2})
SMC_CLASSES = ("AsSecurityModeCommand", "NasSecurityModeCommand", "InitialContextSetupRequest")
DECLARED = {
    "AuthenticationRequest.autn": 16,
    "AuthenticationResponse.res": 16,
    "AuthResponseSbi.rand": 16,
    "AuthResponseSbi.k_seaf": 32,
    "UdmAuthResponse.rand": 16,
    "UdmAuthResponse.xres": 16,
    "UdmAuthResponse.k_ausf": 32,
    "InitialContextSetupRequest.k_gnb": 32,
    **{f"{cls}.{name}": RUNNING for cls in SMC_CLASSES for name in ("nea_id", "nia_id")},
}
CONSTRAINED = [(cls, name, allowed)
               for cls, declared in messages.CONSTRAINTS.items() for name, allowed in declared]


def test_the_declared_constraints_are_these():
    annotated = {f"{cls.__name__}.{name}" for cls in messages._REGISTRY
                 for name, hint in typing.get_type_hints(cls, include_extras=True).items()
                 if typing.get_origin(hint) is typing.Annotated}
    table = {f"{cls.__name__}.{name}": allowed for cls, name, allowed in CONSTRAINED}
    assert table == DECLARED and set(table) == annotated
    assert crypto.RUNNING_ALGORITHMS is messages.RUNNING_ALGORITHMS


def breaking(msg, name: str, allowed) -> list:
    """``msg`` with its field ``name`` one byte short, or with a stub id and an unknown one."""
    values = [getattr(msg, name)[:-1]] if type(allowed) is int else [1, 7]
    return [dataclasses.replace(msg, **{name: value}) for value in values]


def entity_classes(root=Entity) -> list:
    return [sub for direct in root.__subclasses__() for sub in (direct, *entity_classes(direct))
            if sub.__module__.startswith("fivegsim.entities")]


@pytest.mark.parametrize("cls, name, allowed", CONSTRAINED,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in CONSTRAINED])
def test_a_message_that_breaks_a_declaration_is_refused(cls, name, allowed):
    good = well_formed(cls)
    assert messages.violation(good) is None
    takers = [e for e in entity_classes() if cls in e._handlers or cls in e._states]
    for bad in breaking(good, name, allowed):
        assert messages.violation(bad) == f"{cls.__name__}.{name}"
        assert messages.decode(messages.encode(bad)) == bad  # the codec stays permissive
        # nested in an UplinkNas, a SeppForward or a protected wrapper's body
        assert try_decode(messages.encode(bad)) is None
        for entity_cls in takers:
            # an entity with an id and no other state: any handler or finder
            # would raise, so a clean refusal comes from the check before dispatch
            entity = entity_cls.__new__(entity_cls)
            Entity.__init__(entity, "bare")
            assert_refused(step(entity, bad))


def test_an_authentication_failure_ends_the_challenge_with_its_cause():
    nas = messages.encode(messages.AuthenticationFailure(cause="MacMismatch"))
    msg = messages.UplinkNas(ran_ue_id=1, nas=nas)
    amf = amf_in(AmfState.CHALLENGE_SENT, False, msg)
    ctx = step(amf, msg)
    session = amf.sessions["amf-s1"]
    assert (session.state, session.cause) == (AmfState.AUTH_FAILURE, "MacMismatch")
    assert not ctx.ignored and not ctx.out


def test_an_uplink_nas_with_a_short_res_is_refused_by_the_amf():
    nas = messages.encode(messages.AuthenticationResponse(res=bytes(3)))
    msg = messages.UplinkNas(ran_ue_id=1, nas=nas)
    # taken, the RES would be hashed and found wrong: the AMF would send a reject
    assert_refused(step(amf_in(AmfState.CHALLENGE_SENT, False, msg), msg))


# which message a hand guard inspects, by the name a handler gives it
_MESSAGE_NAMES = {"msg", "inner", "wrapper", "smc"}


def hand_guards(source: str) -> list[str]:
    """Each comparison of ``len(<message>.<field>)`` and each use of
    ``RUNNING_ALGORITHMS`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                if isinstance(operand, ast.Call) and isinstance(operand.func, ast.Name) \
                        and operand.func.id == "len" and len(operand.args) == 1 \
                        and isinstance(arg := operand.args[0], ast.Attribute) \
                        and isinstance(arg.value, ast.Name) and arg.value.id in _MESSAGE_NAMES:
                    found.append(f"{node.lineno}: len({arg.value.id}.{arg.attr})")
        # a name, an attribute or an imported name
        if "RUNNING_ALGORITHMS" in (getattr(node, key, None) for key in ("id", "attr", "name")):
            found.append(f"{node.lineno}: RUNNING_ALGORITHMS")
    return found


def test_no_entity_module_guards_a_field_by_hand():
    # a width or an algorithm rule is a declaration on the wire class
    guards = {path.name: hand_guards(path.read_text())
              for path in sorted(pathlib.Path(entities.__file__).parent.glob("*.py"))}
    assert guards and all(found == [] for found in guards.values()), guards
