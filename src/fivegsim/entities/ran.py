"""Radio access nodes: genuine gNBs, legacy eNBs, NSA user-plane nodes and
rogue cells.

A genuine node forwards NAS traffic between the radio and its core,
derives radio-level keys from the key handed over in the context setup,
and never holds NAS keys.  A rogue node answers registration attempts
with a reject cause of its choosing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import crypto, messages
from ..netsim import Channel
from ..policy import algorithms
from .base import Entity, State, open_secured, takes


@dataclass
class SliceAdmission:
    """Token-counter admission control per network slice."""

    capacity: int
    reserved: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def admit(self, slice_id: str) -> bool:
        used = self.counts.get(slice_id, 0)
        if used < self.reserved.get(slice_id, 0):
            self.counts[slice_id] = used + 1
            return True
        free_pool = self.capacity - sum(self.reserved.values())
        free_used = sum(
            max(0, n - self.reserved.get(s, 0)) for s, n in self.counts.items()
        )
        if free_used < free_pool:
            self.counts[slice_id] = used + 1
            return True
        return False


class RadioState(State):
    """How far a radio UE context is, as the links it holds say;
    ``GnbNode._states`` says which message each step takes.  A context is
    found by the UE that sends, or by the RAN UE id the core names."""

    CONNECTED = "connected"
    SECURED = "secured"  # the AS keys and the RRC link
    USER_PLANE = "user_plane"  # and the user-plane link


@dataclass
class RadioUeContext:
    ue_id: str
    ran_ue_id: int
    as_keys: dict[str, bytes] | None = None
    rrc: crypto.SecureLink | None = None
    up: crypto.SecureLink | None = None

    @property
    def state(self) -> RadioState:
        return (RadioState.CONNECTED if self.rrc is None else RadioState.SECURED
                if self.up is None else RadioState.USER_PLANE)


class GnbNode(Entity):
    def __init__(
        self,
        entity_id: str,
        plmn: str,
        kind: str = "gnb",  # gnb | enb | engnb (a rogue cell is a gnb with a reject cause)
        strength: int = 10,
        amf_id: str = "",
        upf_id: str = "",
        verification_key: bytes = b"",
        blacklist: list[str] | None = None,
        reject_cause: int | None = None,
        reject_signing_key: bytes = b"",
        admission: SliceAdmission | None = None,
        jam_suppression_enabled: bool = False,
    ):
        super().__init__(entity_id)
        self.plmn = plmn
        self.kind = kind
        self.strength = strength
        self.amf_id = amf_id
        self.upf_id = upf_id
        self.verification_key = verification_key
        self.blacklist = blacklist or []
        self.reject_cause = reject_cause
        self.reject_signing_key = reject_signing_key
        self.admission = admission
        self.jam_suppression_enabled = jam_suppression_enabled
        self.active = True
        self.ue_contexts: dict[int, RadioUeContext] = {}
        self.by_ue: dict[str, int] = {}
        self._next_ran_ue_id = 1

    # -- broadcast -------------------------------------------------------------

    def broadcast_info(self) -> messages.CellInfo | None:
        if not self.active or self.kind == "engnb":
            return None
        radio = "lte" if self.kind == "enb" else "nr"
        return messages.CellInfo(
            cell_id=self.entity_id,
            plmn=self.plmn,
            strength=self.strength,
            kind=radio,
            verification_key=self.verification_key,
            blacklist=list(self.blacklist),
        )

    def on_admin_set_active(self, msg, event, ctx) -> None:
        self.active = msg.active

    # -- radio access ------------------------------------------------------------

    def _by_ue(self, msg, event) -> RadioUeContext | None:
        return self.ue_contexts.get(self.by_ue.get(event.src))

    def _by_ran_ue_id(self, msg, event) -> RadioUeContext | None:
        return self.ue_contexts.get(msg.ran_ue_id)

    @takes(None, *RadioState, find=_by_ue)
    def on_rrc_connection_request(self, radio, msg, event, ctx) -> None:
        if not self.active:
            ctx.ignore()
            return
        if self.admission is not None and not self.admission.admit(msg.slice_id):
            ctx.emit(Channel.RADIO_RRC, event.src,
                     messages.RrcConnectionReject(cause="congestion"))
            return
        if radio is None:
            self.by_ue[event.src] = self._next_ran_ue_id
            self._next_ran_ue_id += 1
        rid = self.by_ue[event.src]
        self.ue_contexts[rid] = RadioUeContext(event.src, rid)
        ctx.emit(Channel.RADIO_RRC, event.src,
                 messages.RrcConnectionSetup(c_rnti=msg.c_rnti, ran_ue_id=rid))

    # -- NAS transport ------------------------------------------------------------

    @takes(*RadioState, find=_by_ue,
           message=(messages.RegistrationRequest, messages.AttachRequest4G))
    def _initial_nas(self, radio, msg, event, ctx) -> None:
        """A rejecting cell answers the attempt; any other forwards it."""
        if self.reject_cause is not None:
            signature = b""
            if self.reject_signing_key:
                signature = crypto.sign_reject(
                    self.reject_signing_key, self.reject_cause,
                    self.entity_id, msg.ue_nonce,
                )
            ctx.emit(Channel.RADIO_NAS, event.src, messages.RegistrationReject(
                cause=self.reject_cause, signature=signature,
            ))
            return
        ctx.emit(Channel.N2, self.amf_id, messages.InitialUeMessage(
            ran_ue_id=radio.ran_ue_id,
            cell_id=self.entity_id,
            plmn=self.plmn,
            ue_radio_ref=event.src,
            nas=messages.encode(msg),
        ))

    @takes(*RadioState, find=_by_ue, message=(
        messages.AuthenticationResponse, messages.AuthenticationFailure, messages.SecuredNas))
    def _forward_uplink(self, radio, msg, event, ctx) -> None:
        if not self.amf_id:
            ctx.ignore()
            return
        ctx.emit(Channel.N2, self.amf_id, messages.UplinkNas(
            ran_ue_id=radio.ran_ue_id, nas=messages.encode(msg),
        ))

    @takes(*RadioState, find=_by_ran_ue_id)
    def on_downlink_nas(self, radio, msg, event, ctx) -> None:
        ctx.emit_raw(Channel.RADIO_NAS, radio.ue_id, msg.nas)

    # -- AS security --------------------------------------------------------------

    @takes(None, *RadioState, find=_by_ran_ue_id)
    def on_initial_context_setup_request(self, radio, msg, event, ctx) -> None:
        if radio is None:
            # NSA user-plane node: context arrives without a prior RRC setup
            radio = RadioUeContext(msg.ue_radio_ref, msg.ran_ue_id)
            self.ue_contexts[msg.ran_ue_id] = radio
            self.by_ue[msg.ue_radio_ref] = msg.ran_ue_id
        radio.as_keys = crypto.derive_as_keys(msg.k_gnb, msg.nea_id, msg.nia_id)
        radio.rrc = crypto.SecureLink(messages.SecuredRrc, radio.as_keys,
                                      msg.nea_id, msg.nia_id, direction=1)
        # the user plane's keys are gone; the next session setup rebuilds its link
        radio.up = None
        ctx.emit(Channel.N2, event.src,
                 messages.InitialContextSetupResponse(ran_ue_id=msg.ran_ue_id))
        ctx.emit(Channel.RADIO_RRC, radio.ue_id, radio.rrc.seal(
            messages.AsSecurityModeCommand(nea_id=msg.nea_id, nia_id=msg.nia_id),
            integrity_only=True,
        ))

    @takes(RadioState.SECURED, RadioState.USER_PLANE, find=_by_ue)
    def on_secured_rrc(self, radio, wrapper, event, ctx) -> None:
        inner = open_secured(radio.rrc, wrapper)
        if isinstance(inner, messages.AsSecurityModeComplete):
            if self.amf_id:
                ctx.emit(Channel.N2, self.amf_id,
                         messages.UeContextActive(ran_ue_id=radio.ran_ue_id))
        else:
            ctx.ignore()

    @takes(RadioState.SECURED, RadioState.USER_PLANE, find=_by_ran_ue_id)
    def on_pdu_resource_setup(self, radio, msg, event, ctx) -> None:
        nea, nia = algorithms(msg.up_ciphering, msg.up_integrity)
        radio.up = crypto.SecureLink(messages.SecuredUp, radio.as_keys, nea, nia,
                                     direction=1)

    @takes(RadioState.USER_PLANE, find=_by_ue)
    def on_secured_up(self, radio, wrapper, event, ctx) -> None:
        inner = open_secured(radio.up, wrapper)
        if isinstance(inner, messages.AppData) and self.upf_id:
            ctx.emit(Channel.N3, self.upf_id, messages.GtpData(
                teid=radio.ran_ue_id, payload=inner.payload,
            ))
        else:
            ctx.ignore()
