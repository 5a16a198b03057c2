"""User equipment state machine.

Drives registration (standalone and legacy-attach), challenge/response
verification on the USIM, NAS and AS security mode setup, reject-cause
handling (including the signed-reject and blacklist mitigations), power
cycling and user-plane traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .. import crypto, messages
from ..identity import (
    EquipmentIdentity,
    LongTermCredential,
    SecurityContext,
    SubscriberIdentity,
    format_supi,
)
from ..netsim import Channel
from ..policy import OperatorPolicy, algorithms, cause_is_persistent, serving_network_name
from .base import Entity, State, open_secured, takes, try_decode

REG_TIMER_MS = 200
MAX_RETRANSMISSIONS = 2
# AuthenticationFailure cause -> outcome of the attempt it ends
_AUTH_FAILURE_OUTCOMES = {"MacMismatch": "auth_failure_mac", "SqnStale": "auth_failure_sqn"}


class UePhase(State):
    DEREGISTERED = "deregistered"
    REGISTERED = "registered"
    PERMANENTLY_DEREGISTERED = "permanently_deregistered"


class Awaiting(State):
    """The step of a running registration attempt: what it waits for."""

    SCAN = "scan"
    RRC_SETUP = "rrc_setup"
    AUTH_REQUEST = "auth_request"
    NAS_SMC = "nas_smc"
    AS_SMC = "as_smc"
    REG_ACCEPT = "reg_accept"


# the steps after the attempt picked a cell and sent to it
_ON_CELL = tuple(step for step in Awaiting if step is not Awaiting.SCAN)


@dataclass
class Attempt:
    target_cell: str
    cells: list = field(default_factory=list)
    excluded: set = field(default_factory=set)
    cell: messages.CellInfo | None = None
    ue_nonce: bytes = b""
    awaiting: Awaiting = Awaiting.SCAN
    # (channel, dst, msg, link): a retransmission seals msg on the link again
    last_send: tuple | None = None
    retries: int = MAX_RETRANSMISSIONS
    timer_id: int = -1
    rejects_seen: int = 0


class Ue(Entity):
    """A subscriber device; mode, concealment and reject checks follow its home's ``policy``."""

    def __init__(
        self,
        entity_id: str,
        identity: SubscriberIdentity,
        pei: EquipmentIdentity,
        credential: LongTermCredential,
        home_public: crypto.HomeNetworkKeyPair | None,
        policy: OperatorPolicy,
        slice_id: str = "embb",
        nsa_up_node: str = "",  # user-plane radio node in NSA mode; else the serving cell
    ):
        super().__init__(entity_id)
        self.identity = identity
        self.pei = pei
        self.credential = credential
        self.home_public = home_public
        self.policy = policy
        self.slice_id = slice_id
        self.nsa_up_node = nsa_up_node

        self.phase = UePhase.DEREGISTERED
        self.sqn_window = 0
        self.attempt: Attempt | None = None
        self.attempts_log: list[str] = []  # outcome of each finished attempt
        self._timer_seq = 0

        self.context: SecurityContext | None = None
        self.as_keys: dict[str, bytes] | None = None
        self.nas_link: crypto.SecureLink | None = None
        self.rrc_link: crypto.SecureLink | None = None
        self.up_link: crypto.SecureLink | None = None

        self.guti: bytes | None = None
        self.serving_gnb: str | None = None
        self.serving_plmn: str | None = None
        self.up_node: str | None = None

        self.forbidden_plmns: set[str] = set()
        self.forbidden_reject_keys: set[bytes] = set()
        self.pinned_network_keys: dict[str, bytes] = {}

        # (k_ausf, serving network name, abba) of the challenge last answered,
        # until a security mode command derives the key chain from it
        self._challenge: tuple[bytes, str, bytes] | None = None

    @property
    def state(self) -> Awaiting | UePhase:
        """The running attempt's step, or the phase when no attempt runs;
        ``Ue._states`` says which message each state takes."""
        return self.phase if self.attempt is None else self.attempt.awaiting

    # -- helpers -------------------------------------------------------------

    def _await(self, ctx, awaiting: Awaiting, channel, dst, msg, link=None) -> None:
        """Wait for ``awaiting``; on timeout ``msg`` is resent, sealed again
        on ``link`` when it has one."""
        attempt = self.attempt
        attempt.awaiting = awaiting
        attempt.last_send = (channel, dst, msg, link)
        self._timer_seq += 1
        attempt.timer_id = self._timer_seq
        ctx.timer(REG_TIMER_MS, self._timer_seq)

    def _send_awaiting(self, ctx, channel, dst, msg, awaiting: Awaiting) -> None:
        self._await(ctx, awaiting, channel, dst, msg)
        ctx.emit(channel, dst, msg)

    def _finish_attempt(self, outcome: str) -> None:
        self.attempts_log.append(outcome)
        self.attempt = None

    def last_outcome(self) -> str | None:
        return self.attempts_log[-1] if self.attempts_log else None

    # how an attempt's answers find it (see ``Entity``): the UE itself, if
    # the cell it sent to answers, or the timer it armed last fires

    def _from_its_cell(self, msg, event) -> Ue | None:
        cell = self.attempt and self.attempt.cell
        return self if cell and cell.cell_id == event.src else None

    def _by_timer(self, msg, event) -> Ue | None:
        return self if self.attempt and self.attempt.timer_id == msg.timer_id else None

    # -- registration trigger and cell selection ------------------------------

    # one attempt at a time, and none while registered
    @takes(UePhase.DEREGISTERED, UePhase.PERMANENTLY_DEREGISTERED)
    def on_trigger_registration(self, msg, event, ctx) -> None:
        self.attempt = Attempt(target_cell=msg.target_cell)
        ctx.emit(Channel.INTERNAL, "__ether__", messages.CellScanRequest())

    def _candidate_cells(self) -> list[messages.CellInfo]:
        attempt = self.attempt
        wanted_kind = "lte" if self.policy.mode == "NSA" else "nr"
        blacklist = {cell_id for cell in attempt.cells for cell_id in cell.blacklist}
        return [cell for cell in attempt.cells
                if cell.kind == wanted_kind and cell.plmn not in self.forbidden_plmns
                and cell.cell_id not in attempt.excluded and cell.cell_id not in blacklist
                and not (cell.verification_key
                         and cell.verification_key in self.forbidden_reject_keys)
                and (not attempt.target_cell or cell.cell_id == attempt.target_cell)]

    def _select_and_access(self, ctx) -> None:
        candidates = self._candidate_cells()
        if not candidates:
            self._finish_attempt("no_cell")
            return
        cell = min(candidates, key=lambda c: (-c.strength, c.cell_id))
        attempt = self.attempt
        attempt.cell = cell
        c_rnti = ctx.rng("crnti").take(2)
        attempt.ue_nonce = ctx.rng("nonce").take(8)
        self._send_awaiting(
            ctx, Channel.RADIO_RRC, cell.cell_id,
            messages.RrcConnectionRequest(
                c_rnti=c_rnti,
                slice_id=self.slice_id,
                ue_nonce=attempt.ue_nonce,
            ),
            Awaiting.RRC_SETUP,
        )

    @takes(Awaiting.SCAN)
    def on_cell_scan_response(self, msg, event, ctx) -> None:
        self.attempt.cells = msg.cells
        self._select_and_access(ctx)

    # -- RRC connection --------------------------------------------------------

    @takes(Awaiting.RRC_SETUP, find=_from_its_cell)
    def on_rrc_connection_setup(self, _, msg, event, ctx) -> None:
        attempt = self.attempt
        if self.policy.mode == "NSA":
            request = messages.AttachRequest4G(
                imsi=format_supi(self.identity),
                slice_id=self.slice_id,
                ue_nonce=attempt.ue_nonce,
            )
        else:
            suci = crypto.conceal_supi(
                self.identity, self.home_public, self.policy.suci_scheme,
                ctx.rng("ecies").take(32),
            )
            request = messages.RegistrationRequest(
                suci=suci.to_bytes(),
                slice_id=self.slice_id,
                ue_nonce=attempt.ue_nonce,
            )
        self._send_awaiting(ctx, Channel.RADIO_NAS, attempt.cell.cell_id,
                            request, Awaiting.AUTH_REQUEST)

    @takes(Awaiting.RRC_SETUP, find=_from_its_cell)
    def on_rrc_connection_reject(self, _, msg, event, ctx) -> None:
        self._finish_attempt(f"rrc_rejected:{msg.cause}")

    # -- pre-security reject handling -------------------------------------------

    @takes(*_ON_CELL, find=_from_its_cell)
    def on_registration_reject(self, _, msg, event, ctx) -> None:
        attempt = self.attempt
        cell = attempt.cell
        persistent = cause_is_persistent(msg.cause)
        signed = self.policy.signed_reject_enabled
        if signed:
            # authentic: signed with the cell's key, which is the key pinned
            # for its network if there is one
            key = cell.verification_key
            if persistent and msg.signature and key \
                    and self.pinned_network_keys.get(cell.plmn, key) == key \
                    and crypto.verify_reject(key, msg.cause, cell.cell_id,
                                             attempt.ue_nonce, msg.signature):
                # scope of the lockout is the signing key, not the plmn
                self.forbidden_reject_keys.add(key)
        elif persistent:
            # legacy behavior: an unauthenticated reject is honored
            self.forbidden_plmns.add(cell.plmn)
            self.phase = UePhase.PERMANENTLY_DEREGISTERED
            self._finish_attempt("rejected_persistent")
            return
        attempt.excluded.add(cell.cell_id)  # any other reject: avoid only this cell
        attempt.rejects_seen += 1
        if attempt.rejects_seen > (8 if signed else 2):
            self._finish_attempt("rejected")
            return
        self._select_and_access(ctx)

    # -- authentication ----------------------------------------------------------

    @takes(Awaiting.AUTH_REQUEST, UePhase.REGISTERED)
    def on_authentication_request(self, msg, event, ctx) -> None:
        attempt = self.attempt  # None when the network renews the context
        autn = crypto.Autn.from_bytes(msg.autn)  # 16 bytes, as its class declares
        try:
            res, new_window = crypto.ue_verify_challenge(
                self.credential, msg.rand, autn, self.sqn_window)
        except (crypto.MacMismatch, crypto.SqnStale) as exc:
            cause = type(exc).__name__
            ctx.emit(Channel.RADIO_NAS, event.src,
                     messages.AuthenticationFailure(cause=cause))
            if attempt is not None:
                self._finish_attempt(_AUTH_FAILURE_OUTCOMES[cause])
            return
        self.sqn_window = new_window
        name = serving_network_name(
            self.policy.mode, self.serving_plmn if attempt is None else attempt.cell.plmn)
        self._challenge = (crypto.ue_k_ausf(self.credential, msg.rand, name), name, msg.abba)
        if attempt is None:
            ctx.emit(Channel.RADIO_NAS, event.src,
                     messages.AuthenticationResponse(res=res))
        else:
            self._send_awaiting(ctx, Channel.RADIO_NAS, attempt.cell.cell_id,
                                messages.AuthenticationResponse(res=res), Awaiting.NAS_SMC)

    @takes(*_ON_CELL, find=_from_its_cell)
    def on_authentication_reject(self, _, msg, event, ctx) -> None:
        self._finish_attempt("auth_rejected")

    # -- NAS security ----------------------------------------------------------

    def _accept_smc(self, ctx, wrapper, smc, derive, channel, dst, complete,
                    awaiting: Awaiting):
        """(keys, link) of a NAS or AS security mode command, keys from
        ``derive(nea, nia)``, once ``complete`` is sent sealed on the link;
        None (ignored) unless its own tag verifies (its ids run, as declared)."""
        # bidding down: never null integrity (the link checks its wrapper's id)
        if smc.nia_id == 0:
            ctx.ignore()
            return None
        keys = derive(smc.nea_id, smc.nia_id)
        link = crypto.SecureLink(type(wrapper), keys, smc.nea_id, smc.nia_id, direction=0)
        if isinstance(link.open(wrapper, integrity_only=True), crypto.LinkReject):
            ctx.ignore()
            return None
        ctx.emit(channel, dst, link.seal(complete))
        # a renewal has no attempt: fresh AS keys follow via a new context setup
        if self.attempt is not None:
            self._await(ctx, awaiting, channel, dst, complete, link)
        return keys, link

    def _handle_nas_smc(self, wrapper, smc, ctx, reply_dst) -> None:
        if self._challenge is None:
            ctx.ignore()
            return
        k_ausf, name, abba = self._challenge

        def derive(nea_id: int, nia_id: int) -> dict[str, bytes]:
            # the NAS context stops at k_gnb, as the AMF's does: the AS keys
            # come from the AS command's ids (on_secured_rrc)
            k_seaf = crypto.derive_k_seaf(k_ausf, name)
            return {"k_ausf": k_ausf, **crypto.derive_chain_from_seaf(
                k_seaf, format_supi(self.identity), abba, nea_id, nia_id)}

        accepted = self._accept_smc(
            ctx, wrapper, smc, derive, Channel.RADIO_NAS, reply_dst,
            messages.NasSecurityModeComplete(pei=self.pei.pei if smc.request_pei else ""),
            Awaiting.AS_SMC)
        if accepted is None:
            return
        keys, self.nas_link = accepted
        self.context = SecurityContext(
            ng_ksi=smc.ngksi, keys=keys, nea_id=smc.nea_id, nia_id=smc.nia_id, abba=abba,
        )
        self.rrc_link = self.up_link = None  # the radio side re-keys from this context
        self._challenge = None  # one command per challenge: replays find none

    @takes(Awaiting.NAS_SMC, Awaiting.REG_ACCEPT, UePhase.REGISTERED)
    def on_secured_nas(self, wrapper, event, ctx) -> None:
        if wrapper.nea_id == 0:
            inner = try_decode(wrapper.body)
            if isinstance(inner, messages.NasSecurityModeCommand):
                self._handle_nas_smc(wrapper, inner, ctx, event.src)
                return
        inner = open_secured(self.nas_link, wrapper)
        if isinstance(inner, messages.RegistrationAccept):
            self.guti = inner.guti
            self.phase = UePhase.REGISTERED
            if self.attempt is not None:
                self.serving_gnb = self.attempt.cell.cell_id
                self.serving_plmn = self.attempt.cell.plmn
                key = self.attempt.cell.verification_key
                if key:
                    self.pinned_network_keys.setdefault(self.attempt.cell.plmn, key)
                self._finish_attempt("registered")
            self.up_node = self.nsa_up_node or self.serving_gnb
        elif isinstance(inner, messages.PduSessionAccept) and self.as_keys is not None:
            nea, nia = algorithms(inner.up_ciphering, inner.up_integrity)
            self.up_link = crypto.SecureLink(messages.SecuredUp, self.as_keys, nea, nia,
                                             direction=0)
        else:
            ctx.ignore()

    # -- AS security -------------------------------------------------------------

    @takes(Awaiting.AS_SMC, UePhase.REGISTERED)
    def on_secured_rrc(self, wrapper, event, ctx) -> None:
        smc = try_decode(wrapper.body) if wrapper.nea_id == 0 else None
        if self.rrc_link is not None or not isinstance(smc, messages.AsSecurityModeCommand):
            ctx.ignore()
            return
        accepted = self._accept_smc(
            ctx, wrapper, smc, partial(crypto.derive_as_keys, self.context.keys.get("k_gnb")),
            Channel.RADIO_RRC, event.src, messages.AsSecurityModeComplete(), Awaiting.REG_ACCEPT)
        if accepted is not None:
            self.as_keys, self.rrc_link = accepted

    # -- user plane ---------------------------------------------------------------

    @takes(UePhase.REGISTERED)
    def on_trigger_pdu_session(self, msg, event, ctx) -> None:
        ctx.emit(Channel.RADIO_NAS, self.serving_gnb, self.nas_link.seal(
            messages.PduSessionRequest(slice_id=self.slice_id)))

    def on_trigger_app_data(self, msg, event, ctx) -> None:
        if self.up_link is None:
            ctx.ignore()
            return
        ctx.emit(Channel.RADIO_RRC, self.up_node or self.serving_gnb,
                 self.up_link.seal(messages.AppData(payload=msg.payload)))

    # -- power cycle and timers ------------------------------------------------------

    def on_power_cycle(self, msg, event, ctx) -> None:
        self.phase = UePhase.DEREGISTERED
        self.forbidden_plmns.clear()
        self.forbidden_reject_keys.clear()
        self.context = None
        self.as_keys = None
        self.nas_link = self.rrc_link = self.up_link = None
        self.guti = None
        self.serving_gnb = None
        self.serving_plmn = None
        self.attempt = None
        self._challenge = None

    # nothing is awaited before the first send (during the cell scan)
    @takes(*_ON_CELL, find=_by_timer)
    def on_timer_fired(self, _, msg, event, ctx) -> None:
        attempt = self.attempt
        if attempt.retries == 0:
            self._finish_attempt("timeout")
            return
        attempt.retries -= 1
        channel, dst, message, link = attempt.last_send
        self._await(ctx, attempt.awaiting, *attempt.last_send)
        ctx.emit(channel, dst, message if link is None else link.seal(message))
