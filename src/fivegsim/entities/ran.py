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
from .base import Entity, open_secured


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


@dataclass
class RadioUeContext:
    ue_id: str
    as_keys: dict[str, bytes] | None = None
    rrc: crypto.SecureLink | None = None
    up: crypto.SecureLink | None = None


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

    def _ue_ctx(self, ue_id: str) -> RadioUeContext | None:
        rid = self.by_ue.get(ue_id)
        return self.ue_contexts.get(rid) if rid is not None else None

    def on_rrc_connection_request(self, msg, event, ctx) -> None:
        if not self.active:
            ctx.ignore()
            return
        if self.admission is not None and not self.admission.admit(msg.slice_id):
            ctx.emit(Channel.RADIO_RRC, event.src,
                     messages.RrcConnectionReject(cause="congestion"))
            return
        rid = self.by_ue.get(event.src)
        if rid is None:
            rid = self._next_ran_ue_id
            self._next_ran_ue_id += 1
            self.by_ue[event.src] = rid
        self.ue_contexts[rid] = RadioUeContext(ue_id=event.src)
        ctx.emit(Channel.RADIO_RRC, event.src,
                 messages.RrcConnectionSetup(c_rnti=msg.c_rnti, ran_ue_id=rid))

    # -- NAS transport ------------------------------------------------------------

    def _initial_nas(self, msg, event, ctx) -> None:
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
        if self._ue_ctx(event.src) is None:
            ctx.ignore()
            return
        ctx.emit(Channel.N2, self.amf_id, messages.InitialUeMessage(
            ran_ue_id=self.by_ue[event.src],
            cell_id=self.entity_id,
            plmn=self.plmn,
            ue_radio_ref=event.src,
            nas=messages.encode(msg),
        ))

    on_registration_request = _initial_nas
    on_attach_request_4g = _initial_nas

    def _forward_uplink(self, msg, event, ctx) -> None:
        radio = self._ue_ctx(event.src)
        if radio is None or not self.amf_id:
            ctx.ignore()
            return
        ctx.emit(Channel.N2, self.amf_id, messages.UplinkNas(
            ran_ue_id=self.by_ue[event.src], nas=messages.encode(msg),
        ))

    on_authentication_response = _forward_uplink
    on_authentication_failure = _forward_uplink
    on_secured_nas = _forward_uplink

    def on_downlink_nas(self, msg, event, ctx) -> None:
        radio = self.ue_contexts.get(msg.ran_ue_id)
        if radio is None:
            ctx.ignore()
            return
        ctx.emit_raw(Channel.RADIO_NAS, radio.ue_id, msg.nas)

    # -- AS security --------------------------------------------------------------

    def on_initial_context_setup_request(self, msg, event, ctx) -> None:
        radio = self.ue_contexts.get(msg.ran_ue_id)
        if radio is None:
            # NSA user-plane node: context arrives without a prior RRC setup
            radio = RadioUeContext(ue_id=msg.ue_radio_ref)
            self.ue_contexts[msg.ran_ue_id] = radio
            self.by_ue[msg.ue_radio_ref] = msg.ran_ue_id
        radio.as_keys = crypto.derive_as_keys(msg.k_gnb, msg.nea_id, msg.nia_id)
        radio.rrc = crypto.SecureLink(messages.SecuredRrc, radio.as_keys,
                                      msg.nea_id, msg.nia_id, direction=1)
        radio.up = None  # its keys are gone; the next session setup rebuilds it
        ctx.emit(Channel.N2, event.src,
                 messages.InitialContextSetupResponse(ran_ue_id=msg.ran_ue_id))
        ctx.emit(Channel.RADIO_RRC, radio.ue_id, radio.rrc.seal(
            messages.AsSecurityModeCommand(nea_id=msg.nea_id, nia_id=msg.nia_id),
            integrity_only=True,
        ))

    def on_secured_rrc(self, wrapper, event, ctx) -> None:
        radio = self._ue_ctx(event.src)
        inner = open_secured(radio.rrc if radio else None, wrapper)
        if isinstance(inner, messages.AsSecurityModeComplete):
            if self.amf_id:
                ctx.emit(Channel.N2, self.amf_id,
                         messages.UeContextActive(ran_ue_id=self.by_ue[event.src]))
        else:
            ctx.ignore()

    def on_pdu_resource_setup(self, msg, event, ctx) -> None:
        radio = self.ue_contexts.get(msg.ran_ue_id)
        if radio is None or radio.as_keys is None:
            ctx.ignore()
            return
        nea, nia = algorithms(msg.up_ciphering, msg.up_integrity)
        radio.up = crypto.SecureLink(messages.SecuredUp, radio.as_keys, nea, nia,
                                     direction=1)

    def on_secured_up(self, wrapper, event, ctx) -> None:
        radio = self._ue_ctx(event.src)
        inner = open_secured(radio.up if radio else None, wrapper)
        if isinstance(inner, messages.AppData) and self.upf_id:
            ctx.emit(Channel.N3, self.upf_id, messages.GtpData(
                teid=self.by_ue[event.src], payload=inner.payload,
            ))
        else:
            ctx.ignore()
