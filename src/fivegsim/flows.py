"""High-level drivers: run a registration to quiescence, set up a PDU
session and push user data over it."""

from __future__ import annotations

from dataclasses import dataclass

from . import messages
from .entities import Amf, Ue
from .identity import SecurityContext
from .netsim import Channel, World

DEFAULT_HORIZON = 20_000


def trigger(world: World, ue_id: str, msg, delay: int = 1) -> None:
    """Schedule an internal control message toward a device."""
    world.schedule(world.time + delay, Channel.INTERNAL, "world", ue_id,
                   messages.encode(msg), "world", msg)


@dataclass
class RegistrationOutcome:
    success: bool
    outcome: str
    ue_context: SecurityContext | None
    amf_context: SecurityContext | None


def find_amf_session(amf: Amf, ue: Ue):
    """The AMF session owning this device's current temporary identity."""
    if ue.guti is not None:  # the AMF never issues one GUTI twice
        return next((s for s in amf.sessions.values() if s.guti == ue.guti), None)
    return None


def run_registration(world: World, ue_id: str,
                     horizon: int = DEFAULT_HORIZON) -> RegistrationOutcome:
    """Trigger one registration and drive the world to quiescence."""
    ue = world.entities[ue_id]
    trigger(world, ue_id, messages.TriggerRegistration(target_cell=""))
    world.run_until(world.time + horizon)
    outcome = ue.last_outcome() or "stalled"
    amf_context = None
    for entity in world.entities.values():
        if isinstance(entity, Amf):
            session = find_amf_session(entity, ue)
            if session is not None:
                amf_context = session.context
                break
    return RegistrationOutcome(
        success=outcome == "registered",
        outcome=outcome,
        ue_context=ue.context,
        amf_context=amf_context,
    )


def establish_user_plane(world: World, ue_id: str) -> bool:
    trigger(world, ue_id, messages.TriggerPduSession())
    world.run_until(world.time + 2_000)
    return world.entities[ue_id].up_link is not None


def send_app_data(world: World, ue_id: str, payload: bytes) -> None:
    trigger(world, ue_id, messages.TriggerAppData(payload=payload))
    world.run_until(world.time + 1_000)
