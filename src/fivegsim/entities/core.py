"""Core network functions: AMF/SEAF, AUSF, UDM, SMF, UPF and the NRF
token-authorization service."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .. import crypto, messages
from ..identity import (
    ConcealedIdentity,
    GutiAllocator,
    LongTermCredential,
    SecurityContext,
    SuciScheme,
    UnsupportedScheme,
    format_supi,
    parse_supi,
)
from ..netsim import Channel
from ..policy import OperatorPolicy, algorithms, serving_network_name
from .base import _NO_ROW, Entity, State, open_secured, takes, try_decode


# no anti-bidding-down features are signalled, so every challenge carries ABBA 0x0000
ABBA = b"\x00\x00"


class AmfState(State):
    """The step an AMF session is in; ``Amf._states`` says which message
    each step takes.  The last three end an authentication, with the cause
    in ``AmfSession.cause``."""

    AUTH_PENDING = "auth_pending"
    CHALLENGE_SENT = "challenge_sent"
    CONFIRM_PENDING = "confirm_pending"
    SMC_SENT = "smc_sent"
    NAS_SECURED = "nas_secured"
    REGISTERED = "registered"
    AUTH_REJECTED = "auth_rejected"  # the home network's reject
    AUTH_FAILURE = "auth_failure"  # the UE's AuthenticationFailure
    AUTH_FAILED = "auth_failed"  # the serving or home check of RES


@dataclass
class AmfSession:
    sid: str
    seq: int  # unique at the AMF: the RAN UE id toward an NSA en-gNB
    gnb: str
    ran_ue_id: int
    ue_radio_ref: str
    suci: bytes
    home_plmn: str
    ngksi: int
    state: AmfState = AmfState.AUTH_PENDING
    cause: str = ""  # why a terminal state ended the authentication
    nsa: bool = False
    rand: bytes = b""
    hxres: bytes = b""
    k_seaf: bytes = b""
    xres: bytes = b""  # NSA only: legacy direct check
    supi: str | None = None
    supi_learned_at: int | None = None
    pei: str = ""
    context: SecurityContext | None = None
    link: crypto.SecureLink | None = None
    guti: bytes | None = None
    sbi_sid: str = ""
    # (radio node, RAN UE id) carrying the user plane, once NAS is secured
    up_leg: tuple[str, int] | None = None


class Amf(Entity):
    """Access and mobility management with the security anchor inside.

    Holds k_seaf/k_amf and the NAS keys after a successful authentication,
    never the long-term key; learns the permanent identity only from the
    home network's confirmation.
    """

    def __init__(
        self,
        entity_id: str,
        plmn: str,
        policy: OperatorPolicy,
        ausf_id: str = "",
        udm_id: str = "",
        smf_id: str = "",
    ):
        super().__init__(entity_id)
        self.plmn = plmn
        self.policy = policy
        self.ausf_id = ausf_id
        self.udm_id = udm_id
        self.smf_id = smf_id
        self.sepp_id = ""  # set with the network's SEPP, if it has one
        self.engnb_id = ""  # set with the network's en-gNB (NSA)
        self.serving_network_name = serving_network_name(policy.mode, plmn)
        self.sessions: dict[str, AmfSession] = {}
        self.by_ran: dict[tuple[str, int], str] = {}
        self.by_sbi: dict[str, str] = {}  # authentication SBI id -> session id
        self.by_pdu: dict[str, str] = {}  # PDU session SBI id -> session id, until answered
        self._session_seq = 0
        self._sbi_seq = 0
        self._timer_seq = 0
        self._timers: dict[int, str] = {}  # renewal timer id -> session id
        self._guti_alloc: GutiAllocator | None = None

    # -- helpers ---------------------------------------------------------------

    def on_admin_set_network_name(self, msg, event, ctx) -> None:
        self.serving_network_name = msg.serving_network_name

    def _allocator(self, ctx) -> GutiAllocator:
        if self._guti_alloc is None:
            self._guti_alloc = GutiAllocator(ctx.rng("guti"))
        return self._guti_alloc

    def _auth_route(self, home_plmn: str) -> str:
        if self.policy.mode == "NSA":
            return self.udm_id
        if home_plmn != self.plmn and self.sepp_id:
            return self.sepp_id
        return self.ausf_id

    # how each message class finds its session (see ``Entity``)

    def _by_leg(self, msg, event) -> AmfSession | None:
        return self.sessions.get(self.by_ran.get((event.src, msg.ran_ue_id)))

    def _by_sbi(self, msg, event) -> AmfSession | None:
        return self.sessions.get(self.by_sbi.get(msg.session))

    def _by_pdu(self, msg, event) -> AmfSession | None:
        # the SMF answers each request once, so its id goes with the answer
        return self.sessions.get(self.by_pdu.pop(msg.session, None))

    def _by_timer(self, msg, event) -> AmfSession | None:
        return self.sessions.get(self._timers.pop(msg.timer_id, None))

    def _in_uplink_nas(self, msg, event) -> None:
        return None  # NAS reaches the AMF only inside an UplinkNas, with its session

    def _new_sbi_sid(self, session: AmfSession) -> str:
        self.by_sbi.pop(session.sbi_sid, None)  # a re-authentication ends the last one
        self._sbi_seq += 1
        sbi_sid = f"{self.entity_id}-a{self._sbi_seq}"
        session.sbi_sid = sbi_sid
        self.by_sbi[sbi_sid] = session.sid
        return sbi_sid

    def _retire(self, session: AmfSession) -> None:
        """Drop a session from every index: its UE started a new registration."""
        del self.sessions[session.sid]
        self.by_sbi.pop(session.sbi_sid, None)
        for leg in ((session.gnb, session.ran_ue_id), session.up_leg):
            if self.by_ran.get(leg) == session.sid:
                del self.by_ran[leg]

    def _downlink(self, ctx, session: AmfSession, nas_bytes: bytes) -> None:
        ctx.emit(Channel.N2, session.gnb, messages.DownlinkNas(
            ran_ue_id=session.ran_ue_id, nas=nas_bytes,
        ))

    def _reject(self, ctx, session: AmfSession, state: AmfState, cause: str) -> None:
        session.state, session.cause = state, cause
        self._downlink(ctx, session, messages.encode(messages.AuthenticationReject()))

    def _start_authentication(self, ctx, session: AmfSession) -> None:
        sbi_sid = self._new_sbi_sid(session)
        session.state = AmfState.AUTH_PENDING
        request = (messages.UdmAuthRequest if self.policy.mode == "NSA"
                   else messages.AuthRequestSbi)
        ctx.emit(Channel.SBI, self._auth_route(session.home_plmn), request(
            session=sbi_sid, suci=session.suci,
            serving_network_name=self.serving_network_name,
        ))

    # -- registration entry ------------------------------------------------------

    def on_initial_ue_message(self, msg, event, ctx) -> None:
        inner = try_decode(msg.nas)
        if inner is None:
            ctx.ignore()
            return
        self._session_seq += 1
        seq = self._session_seq
        try:
            if isinstance(inner, messages.RegistrationRequest):
                suci_bytes, nsa = inner.suci, False
                home_plmn = ConcealedIdentity.from_bytes(suci_bytes).plmn
            elif isinstance(inner, messages.AttachRequest4G):
                # legacy attach: identity arrives in clear; wrap it in the
                # null-scheme container so the subscriber lookup is uniform
                ident = parse_supi(inner.imsi)
                suci_bytes = crypto.conceal_supi(ident, None, SuciScheme.NULL).to_bytes()
                nsa, home_plmn = True, ident.plmn
            else:
                ctx.ignore()
                return
        except ValueError:  # an identity that does not parse
            ctx.ignore()
            return
        leg = (event.src, msg.ran_ue_id)
        if leg in self.by_ran:  # a retransmission, or a UE registering anew
            self._retire(self.sessions[self.by_ran[leg]])
        sid = f"{self.entity_id}-s{seq}"
        session = AmfSession(
            sid=sid, seq=seq, gnb=event.src, ran_ue_id=msg.ran_ue_id,
            ue_radio_ref=msg.ue_radio_ref, suci=suci_bytes, home_plmn=home_plmn,
            ngksi=seq % 16, nsa=nsa,
        )
        self.sessions[sid] = session
        self.by_ran[leg] = sid
        self._start_authentication(ctx, session)

    # -- authentication (standalone path) ------------------------------------------

    def _challenge(self, ctx, session: AmfSession, vector) -> None:
        """Send the challenge of a home vector (AuthResponseSbi or UdmAuthResponse)."""
        session.rand = vector.rand
        session.state = AmfState.CHALLENGE_SENT
        self._downlink(ctx, session, messages.encode(messages.AuthenticationRequest(
            rand=vector.rand, autn=vector.autn, ngksi=session.ngksi, abba=ABBA,
        )))

    @takes(AmfState.AUTH_PENDING, find=_by_sbi)
    def on_auth_response_sbi(self, session, msg, event, ctx) -> None:
        session.hxres = msg.hxres
        session.k_seaf = msg.k_seaf
        self._challenge(ctx, session, msg)

    @takes(AmfState.AUTH_PENDING, find=_by_sbi)
    def on_auth_reject_sbi(self, session, msg, event, ctx) -> None:
        self._reject(ctx, session, AmfState.AUTH_REJECTED, msg.cause)

    # -- authentication (legacy direct path) ----------------------------------------

    @takes(AmfState.AUTH_PENDING, find=_by_sbi)
    def on_udm_auth_response(self, session, msg, event, ctx) -> None:
        session.xres = msg.xres
        session.k_seaf = crypto.derive_k_seaf(msg.k_ausf, self.serving_network_name)
        session.supi = msg.supi  # legacy trust model: home hands it over
        session.supi_learned_at = ctx.now
        self._challenge(ctx, session, msg)

    on_udm_auth_reject = on_auth_reject_sbi

    # -- NAS uplink -------------------------------------------------------------------

    @takes(*AmfState, find=_by_leg)
    def on_uplink_nas(self, session, msg, event, ctx) -> None:
        # the NAS message inside takes its own class's row of the table
        inner = try_decode(msg.nas)
        find, by_state = self._states.get(type(inner), _NO_ROW)
        handler = by_state.get(session.state) if find is Amf._in_uplink_nas else None
        if handler is None:
            ctx.ignore()
            return
        handler(self, session, inner, event, ctx)

    @takes(AmfState.CHALLENGE_SENT, find=_in_uplink_nas)
    def on_authentication_response(self, session, msg, event, ctx) -> None:
        if session.nsa:
            if msg.res == session.xres:
                self._establish_context(session, ctx)
            else:
                self._reject(ctx, session, AmfState.AUTH_FAILED, "res_mismatch")
            return
        if crypto.res_hash(session.rand, msg.res) != session.hxres:
            self._reject(ctx, session, AmfState.AUTH_FAILED, "hxres_mismatch")
            return
        session.state = AmfState.CONFIRM_PENDING
        ctx.emit(Channel.SBI, self._auth_route(session.home_plmn), messages.ConfirmRequestSbi(
            session=session.sbi_sid, res=msg.res,
        ))

    @takes(AmfState.CHALLENGE_SENT, find=_in_uplink_nas)
    def on_authentication_failure(self, session, msg, event, ctx) -> None:
        session.state, session.cause = AmfState.AUTH_FAILURE, msg.cause

    @takes(AmfState.CONFIRM_PENDING, find=_by_sbi)
    def on_confirm_response_sbi(self, session, msg, event, ctx) -> None:
        if not msg.success:
            self._reject(ctx, session, AmfState.AUTH_FAILED, "home_check")
            return
        # the one transition where the serving network learns the identity
        session.supi = msg.supi
        session.supi_learned_at = ctx.now
        self._establish_context(session, ctx)

    def _establish_context(self, session: AmfSession, ctx) -> None:
        nea, nia = algorithms(self.policy.nas_ciphering, True)
        keys = crypto.derive_chain_from_seaf(session.k_seaf, session.supi, ABBA, nea, nia)
        session.context = SecurityContext(
            ng_ksi=session.ngksi, keys=keys, nea_id=nea, nia_id=nia, abba=ABBA,
        )
        session.link = crypto.SecureLink(messages.SecuredNas, keys, nea, nia, direction=1)
        session.state = AmfState.SMC_SENT
        self._send_protected_nas(ctx, session, messages.NasSecurityModeCommand(
            nea_id=nea, nia_id=nia, ngksi=session.ngksi, request_pei=True,
        ), integrity_only=True)

    # in any step: a renewal's re-authentication keeps the old link until
    # its security mode command replaces it
    @takes(*AmfState, find=_in_uplink_nas)
    def on_secured_nas(self, session, wrapper, event, ctx) -> None:
        inner = open_secured(session.link, wrapper)
        if isinstance(inner, messages.NasSecurityModeComplete):
            session.pei = inner.pei
            session.state = AmfState.NAS_SECURED
            # an en-gNB serves UEs of several eNBs, whose RAN UE ids collide
            target, ran_ue_id = session.up_leg = (
                (self.engnb_id, session.seq) if session.nsa
                else (session.gnb, session.ran_ue_id))
            # UeContextActive comes from the target, under this RAN UE id
            self.by_ran[session.up_leg] = session.sid
            nea, nia = algorithms(self.policy.rrc_ciphering, True)
            ctx.emit(Channel.N2, target, messages.InitialContextSetupRequest(
                ran_ue_id=ran_ue_id, ue_radio_ref=session.ue_radio_ref,
                k_gnb=session.context.keys.get("k_gnb"), nea_id=nea, nia_id=nia,
            ))
        elif isinstance(inner, messages.PduSessionRequest):
            self._sbi_seq += 1
            sbi_sid = f"{self.entity_id}-p{self._sbi_seq}"
            self.by_pdu[sbi_sid] = session.sid
            ctx.emit(Channel.SBI, self.smf_id, messages.SmfSessionRequest(
                session=sbi_sid, slice_id=inner.slice_id,
            ))
        else:
            ctx.ignore()

    def on_initial_context_setup_response(self, msg, event, ctx) -> None:
        pass  # registration continues when the radio side reports security up

    @takes(AmfState.NAS_SECURED, find=_by_leg)
    def on_ue_context_active(self, session, msg, event, ctx) -> None:
        temp = self._allocator(ctx).allocate()
        session.guti = temp.guti
        session.state = AmfState.REGISTERED
        if self.policy.context_renewal_interval is not None:
            self._timer_seq += 1
            self._timers[self._timer_seq] = session.sid
            ctx.timer(self.policy.context_renewal_interval, self._timer_seq)
        self._send_protected_nas(ctx, session, messages.RegistrationAccept(guti=temp.guti))

    @takes(AmfState.REGISTERED, find=_by_leg, message=(messages.UeContextActive,))
    def _resend_accept(self, session, msg, event, ctx) -> None:
        """The UE resent its AS complete: its accept was lost."""
        self._send_protected_nas(ctx, session, messages.RegistrationAccept(guti=session.guti))

    def _send_protected_nas(self, ctx, session: AmfSession, inner,
                            integrity_only: bool = False) -> None:
        wrapper = session.link.seal(inner, integrity_only=integrity_only)
        self._downlink(ctx, session, messages.encode(wrapper))

    # -- session setup ------------------------------------------------------------------

    # a PDU session's id is made only once its request came over the NAS link
    @takes(*AmfState, find=_by_pdu)
    def on_smf_session_response(self, session, msg, event, ctx) -> None:
        node, ran_ue_id = session.up_leg or (session.gnb, session.ran_ue_id)
        ctx.emit(Channel.N2, node,
                 messages.PduResourceSetup(
                     ran_ue_id=ran_ue_id,
                     up_ciphering=msg.up_ciphering, up_integrity=msg.up_integrity,
                 ))
        self._send_protected_nas(ctx, session, messages.PduSessionAccept(
            up_ciphering=msg.up_ciphering, up_integrity=msg.up_integrity,
        ))

    # -- context renewal ------------------------------------------------------------------

    # the timer is armed once the context is up, for exactly the interval
    @takes(AmfState.REGISTERED, find=_by_timer)
    def on_timer_fired(self, session, msg, event, ctx) -> None:
        self._start_authentication(ctx, session)


class AusfState(State):
    """The step an AUSF record is in; ``Ausf._states`` says which message
    each step takes."""

    VECTOR_PENDING = "vector_pending"
    CHALLENGE_OUT = "challenge_out"  # XRES* is held until the confirm


@dataclass
class AusfSession:
    reply_to: str
    serving_network_name: str
    suci: bytes
    state: AusfState = AusfState.VECTOR_PENDING
    supi: str = ""
    xres: bytes = b""


class Ausf(Entity):
    """Home-network authentication server: transforms the home vector so the
    serving network can check the response without ever knowing it.

    The confirm or a UDM reject ends a record, and so does a later request
    for its SUCI or for its SUPI (see ``_supersede``): an ``AuthRejectSbi``
    then ends the abandoned record's SEPP routes on its way back."""

    def __init__(self, entity_id: str, plmn: str, udm_id: str):
        super().__init__(entity_id)
        self.plmn = plmn
        self.udm_id = udm_id
        self.sessions: dict[str, AusfSession] = {}  # by SBI id
        self.latest: dict[bytes | str, str] = {}  # a live record's SUCI or SUPI -> its SBI id

    def _by_sbi(self, msg, event) -> AusfSession | None:
        return self.sessions.get(msg.session)

    def _supersede(self, ctx, subscriber: bytes | str, sid: str) -> bool:
        """End the earlier request (``sessions`` is in request order) of ``sid``
        and the record holding ``subscriber``; whether ``sid`` is left."""
        held = self.latest.setdefault(subscriber, sid)
        if held != sid:
            older = next(s for s in self.sessions if s in (held, sid))
            self._end(older, ctx, "Superseded")
            self.latest[subscriber] = held if older == sid else sid
        return sid in self.sessions

    def _end(self, sid: str, ctx, cause: str = "") -> None:
        session = self.sessions.pop(sid)
        del self.latest[session.suci]
        self.latest.pop(session.supi, None)
        if cause:
            ctx.emit(Channel.SBI, session.reply_to,
                     messages.AuthRejectSbi(session=sid, cause=cause))

    @takes(None, find=_by_sbi)
    def on_auth_request_sbi(self, _, msg, event, ctx) -> None:
        self.sessions[msg.session] = AusfSession(event.src, msg.serving_network_name, msg.suci)
        self._supersede(ctx, msg.suci, msg.session)
        ctx.emit(Channel.SBI, self.udm_id, messages.UdmAuthRequest(
            session=msg.session, suci=msg.suci,
            serving_network_name=msg.serving_network_name,
        ))

    @takes(AusfState.VECTOR_PENDING, find=_by_sbi)
    def on_udm_auth_response(self, session, msg, event, ctx) -> None:
        if not self._supersede(ctx, msg.supi, msg.session):
            return  # a later authentication of the subscriber holds it
        session.state, session.supi, session.xres = AusfState.CHALLENGE_OUT, msg.supi, msg.xres
        hxres = crypto.res_hash(msg.rand, msg.xres)
        k_seaf = crypto.derive_k_seaf(msg.k_ausf, session.serving_network_name)
        ctx.emit(Channel.SBI, session.reply_to, messages.AuthResponseSbi(
            session=msg.session, rand=msg.rand, autn=msg.autn,
            hxres=hxres, k_seaf=k_seaf,
        ))

    @takes(AusfState.VECTOR_PENDING, find=_by_sbi)
    def on_udm_auth_reject(self, session, msg, event, ctx) -> None:
        self._end(msg.session, ctx, msg.cause)

    @takes(AusfState.CHALLENGE_OUT, find=_by_sbi)
    def on_confirm_request_sbi(self, session, msg, event, ctx) -> None:
        self._end(msg.session, ctx)  # the confirm ends the authentication
        success = msg.res == session.xres
        ctx.emit(Channel.SBI, event.src, messages.ConfirmResponseSbi(
            session=msg.session, success=success,
            supi=session.supi if success else "",
        ))


class Udm(Entity):
    """Home subscriber database: long-term keys, concealment private key."""

    def __init__(self, entity_id: str, plmn: str,
                 home_keypair: crypto.HomeNetworkKeyPair | None = None):
        super().__init__(entity_id)
        self.plmn = plmn
        self.home_keypair = home_keypair
        self.subscribers: dict[str, LongTermCredential] = {}

    def add_subscriber(self, supi: str, credential: LongTermCredential) -> None:
        self.subscribers[supi] = credential

    def on_udm_auth_request(self, msg, event, ctx) -> None:
        try:
            suci = ConcealedIdentity.from_bytes(msg.suci)
            supi = format_supi(crypto.deconceal_suci(suci, self.home_keypair))
            cause = "" if supi in self.subscribers else "UnknownSubscriber"
        except UnsupportedScheme:
            cause = "UnsupportedScheme"
        except (crypto.IntegrityFailure, ValueError):
            cause = "IntegrityFailure"
        if cause:
            ctx.emit(Channel.SBI, event.src, messages.UdmAuthReject(
                session=msg.session, cause=cause))
            return
        vector, self.subscribers[supi] = crypto.generate_auth_vector(
            self.subscribers[supi], msg.serving_network_name, ctx.rng("rand"),
        )
        ctx.emit(Channel.SBI, event.src, messages.UdmAuthResponse(
            session=msg.session, supi=supi, rand=vector.rand,
            autn=vector.autn.to_bytes(), xres=vector.xres, k_ausf=vector.k_ausf,
        ))


class Smf(Entity):
    """Session management: answers session requests with the user-plane
    protection policy; also a producer of a service whose tokens the NRF
    signs.  The NRF's key is read at the first token check."""

    def __init__(self, entity_id: str, policy: OperatorPolicy, nrf: Nrf):
        super().__init__(entity_id)
        self.policy = policy
        self.nrf = nrf

    @cached_property
    def producer(self) -> NfProducer:
        return NfProducer(service="nsmf-pdusession",
                          nrf_verification_key=self.nrf.verification_key)

    def on_smf_session_request(self, msg, event, ctx) -> None:
        ctx.emit(Channel.SBI, event.src, messages.SmfSessionResponse(
            session=msg.session,
            up_ciphering=self.policy.up_ciphering,
            up_integrity=self.policy.up_integrity,
        ))

    def on_nf_service_request(self, msg, event, ctx) -> None:
        try:
            validate_nf_token(self.producer, msg.token, ctx.now)
        except (TokenExpired, WrongAudience, InvalidToken) as exc:
            ctx.emit(Channel.SBI, event.src, messages.NfServiceResponse(
                ok=False, error=type(exc).__name__))
            return
        ctx.emit(Channel.SBI, event.src, messages.NfServiceResponse(ok=True, error=""))


class Upf(Entity):
    """User-plane sink: collects forwarded payloads."""

    def __init__(self, entity_id: str):
        super().__init__(entity_id)
        self.received: list[tuple[int, bytes]] = []

    def on_gtp_data(self, msg, event, ctx) -> None:
        self.received.append((msg.teid, msg.payload))


# ---------------------------------------------------------------------------
# NF token authorization
# ---------------------------------------------------------------------------


class UnknownConsumer(KeyError):
    pass


class TokenExpired(ValueError):
    pass


class WrongAudience(ValueError):
    pass


class InvalidToken(ValueError):
    pass


@dataclass
class NfProducer:
    service: str
    nrf_verification_key: bytes


TOKEN_TTL = 10_000


class Nrf(Entity):
    """Repository function acting as the token authorization server.

    Its verification key is derived from the seed at its first read, so a
    world that checks no token never parses it.
    """

    def __init__(self, entity_id: str, signing_seed: bytes):
        super().__init__(entity_id)
        if len(signing_seed) != 32:
            raise ValueError("signing seed must be 32 bytes")
        self.signing_seed = signing_seed
        self.consumers: set[str] = set()

    @cached_property
    def verification_key(self) -> bytes:
        return crypto.verification_key(self.signing_seed)

    def register_consumer(self, consumer_id: str) -> None:
        self.consumers.add(consumer_id)

    def on_nf_token_request(self, msg, event, ctx) -> None:
        try:
            token = authorize_nf(self, msg.consumer_id, msg.producer_service, ctx.now)
        except UnknownConsumer:
            ctx.emit(Channel.SBI, event.src, messages.NfTokenResponse(
                ok=False, token=b"", error="UnknownConsumer"))
            return
        ctx.emit(Channel.SBI, event.src, messages.NfTokenResponse(
            ok=True, token=token, error=""))


def authorize_nf(nrf: Nrf, consumer_id: str, producer_service: str, now: int) -> bytes:
    """Issue a signed token binding (consumer, service, expiry)."""
    if consumer_id not in nrf.consumers:
        raise UnknownConsumer(consumer_id)
    body = messages.encode(messages.NfToken(
        consumer_id=consumer_id, service=producer_service,
        expiry=now + TOKEN_TTL,
    ))
    return body + crypto.sign(nrf.signing_seed, body)


def validate_nf_token(producer: NfProducer, token: bytes, now: int) -> messages.NfToken:
    """Producer-side check: signature, audience, expiry."""
    if len(token) < 64:
        raise InvalidToken("token too short")
    body, signature = token[:-64], token[-64:]
    if not crypto.verify(producer.nrf_verification_key, body, signature):
        raise InvalidToken("bad signature")
    claim = messages.decode(body)
    if claim.service != producer.service:
        raise WrongAudience(f"token for {claim.service}, producer is {producer.service}")
    if now >= claim.expiry:
        raise TokenExpired(f"expired at {claim.expiry}, now {now}")
    return claim

