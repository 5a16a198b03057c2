"""Every (state, message class) pair of the AMF and the UE, and every
declared field constraint.

Each state the entity's table names is built, then ``Entity.step`` is
stepped directly with a well-formed instance of every wire class (and, at
the AMF, with every wire class inside an ``UplinkNas``).  No pair may
raise, and every pair outside the table is an ignored transition that
sends nothing.  A message that breaks a width or algorithm id its class
declares is refused the same way by every entity that takes it, on its
own or nested in another message.
"""

import ast
import dataclasses
import pathlib
import typing

import pytest

from fivegsim import crypto, entities, messages
from fivegsim.entities import Amf, Entity
from fivegsim.entities.base import try_decode
from fivegsim.entities.core import ABBA, AmfSession, AmfState
from fivegsim.entities.ue import Attempt, Awaiting, Ue, UePhase
from fivegsim.identity import SecurityContext, format_supi
from fivegsim.netsim import Channel, SimEvent, StepContext, World
from fivegsim.policy import OperatorPolicy
from fivegsim.worldfile import single_network_world
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


def step(entity, msg, src=SRC):
    world = World(seed=5)
    ctx = StepContext(world, entity.entity_id)
    event = SimEvent(time=0, seq=0, channel=Channel.N2, src=src, dst=entity.entity_id,
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
        amf.contexts[session.guti.hex()] = session.sid
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
        keys = crypto.derive_key_chain(bytes(32), "5G:00101", format_supi(ue.identity),
                                       ABBA, NEA, NIA)
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
