"""Security edge protection proxies: the mutually authenticated gateway
between operators.

A SEPP forwards control-plane traffic only over sessions with allowlisted,
non-revoked peers, and checks that the serving network name inside a
forwarded authentication request matches the peer the session was
established with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .. import crypto, messages
from ..identity import ConcealedIdentity
from ..netsim import Channel
from ..policy import serving_network_name
from .base import Entity, try_decode


class PeerUnknown(KeyError):
    pass


class PeerRevoked(PermissionError):
    pass


# the answers that end an authentication, and with it the route it took
_FINAL_ANSWERS = (messages.AuthRejectSbi, messages.ConfirmResponseSbi)


def _hello_context(plmn: str, peer_plmn: str, nonce: bytes) -> bytes:
    return b"sepp-hello|" + plmn.encode() + b"|" + peer_plmn.encode() + b"|" + nonce


@dataclass
class SeppSession:
    peer_id: str
    established: bool = False
    pending: list[bytes] = field(default_factory=list)


class Sepp(Entity):
    def __init__(
        self,
        entity_id: str,
        plmn: str,
        signing_seed: bytes,
        ausf_id: str = "",
        peers: dict[str, str] | None = None,  # plmn -> sepp entity id
        allowlist: dict[str, bytes] | None = None,  # plmn -> verification key
    ):
        super().__init__(entity_id)
        if len(signing_seed) != 32:
            raise ValueError("signing seed must be 32 bytes")
        self.plmn = plmn
        self.signing_seed = signing_seed
        self.ausf_id = ausf_id
        self.peers = peers or {}
        self.allowlist = allowlist or {}
        self.revoked: set[bytes] = set()
        self.sessions: dict[str, SeppSession] = {}  # by peer plmn
        self.routes_out: dict[str, tuple[str, str]] = {}  # sbi sid -> (requester, peer plmn)
        self.routes_in: dict[str, str] = {}  # sbi session -> peer sepp id
        self.rejections: list[str] = []

    @cached_property
    def verification_key(self) -> bytes:
        """Derived from the seed at its first read: only a peer's allowlist
        and a revocation name it."""
        return crypto.verification_key(self.signing_seed)

    def revoke(self, verification_key: bytes) -> None:
        self.revoked.add(verification_key)

    # -- peer validation -------------------------------------------------------

    def _validate_peer(self, plmn: str) -> bytes:
        key = self.allowlist.get(plmn)
        if key is None:
            raise PeerUnknown(plmn)
        if key in self.revoked:
            raise PeerRevoked(plmn)
        return key

    # -- outbound (serving side) --------------------------------------------------

    def _session_for(self, peer_plmn: str, ctx) -> SeppSession | None:
        session = self.sessions.get(peer_plmn)
        if session is not None:
            return session
        peer_id = self.peers.get(peer_plmn)
        if peer_id is None:
            return None
        session = SeppSession(peer_id=peer_id)
        self.sessions[peer_plmn] = session
        nonce = ctx.rng("nonce").take(16)
        ctx.emit(Channel.SEPP_LINK, peer_id, messages.SeppHello(
            plmn=self.plmn, peer_plmn=peer_plmn, nonce=nonce,
            signature=crypto.sign(self.signing_seed,
                                  _hello_context(self.plmn, peer_plmn, nonce)),
        ))
        return session

    def _forward_out(self, inner_bytes: bytes, peer_plmn: str, ctx) -> bool:
        session = self._session_for(peer_plmn, ctx)
        if session is None:
            return False
        if session.established:
            ctx.emit(Channel.SEPP_LINK, session.peer_id,
                     messages.SeppForward(inner=inner_bytes))
        else:
            session.pending.append(inner_bytes)
        return True

    def on_auth_request_sbi(self, msg, event, ctx) -> None:
        # local AMF asks the home network of the concealed identity
        try:
            home_plmn = ConcealedIdentity.from_bytes(msg.suci).plmn
        except ValueError:
            ctx.ignore()
            return
        if self._forward_out(messages.encode(msg), home_plmn, ctx):
            self.routes_out[msg.session] = (event.src, home_plmn)
        else:
            ctx.emit(Channel.SBI, event.src, messages.AuthRejectSbi(
                session=msg.session, cause="PeerUnknown"))

    def on_confirm_request_sbi(self, msg, event, ctx) -> None:
        route = self.routes_out.get(msg.session)
        if route is None:
            ctx.ignore()
            return
        self._forward_out(messages.encode(msg), route[1], ctx)

    # -- responses from the local home core (home side) -----------------------------

    def _return_in(self, msg, event, ctx) -> None:
        peer_id = self.routes_in.get(msg.session)
        if peer_id is None:
            ctx.ignore()
            return
        if isinstance(msg, _FINAL_ANSWERS):
            del self.routes_in[msg.session]
        ctx.emit(Channel.SEPP_LINK, peer_id,
                 messages.SeppForward(inner=messages.encode(msg)))

    on_auth_response_sbi = _return_in
    on_auth_reject_sbi = _return_in
    on_confirm_response_sbi = _return_in

    # -- handshake -------------------------------------------------------------------

    def on_sepp_hello(self, msg, event, ctx) -> None:
        try:
            key = self._validate_peer(msg.plmn)
        except (PeerUnknown, PeerRevoked) as exc:
            reason = type(exc).__name__
            self.rejections.append(reason)
            ctx.emit(Channel.SEPP_LINK, event.src, messages.SeppReject(reason=reason))
            return
        if msg.peer_plmn != self.plmn or not crypto.verify(
            key, _hello_context(msg.plmn, msg.peer_plmn, msg.nonce), msg.signature
        ):
            self.rejections.append("BadSignature")
            ctx.emit(Channel.SEPP_LINK, event.src, messages.SeppReject(reason="BadSignature"))
            return
        session = self.sessions.setdefault(msg.plmn, SeppSession(peer_id=event.src))
        session.peer_id = event.src
        session.established = True
        ctx.emit(Channel.SEPP_LINK, event.src, messages.SeppHelloAck(
            plmn=self.plmn, peer_plmn=msg.plmn, echo_nonce=msg.nonce,
            signature=crypto.sign(self.signing_seed,
                                  _hello_context(self.plmn, msg.plmn, msg.nonce)),
        ))

    def on_sepp_hello_ack(self, msg, event, ctx) -> None:
        session = self.sessions.get(msg.plmn)
        if session is None:
            ctx.ignore()
            return
        try:
            key = self._validate_peer(msg.plmn)
        except (PeerUnknown, PeerRevoked):
            self.rejections.append("PeerInvalidOnAck")
            return
        if not crypto.verify(key, _hello_context(msg.plmn, self.plmn, msg.echo_nonce),
                             msg.signature):
            self.rejections.append("BadSignature")
            return
        session.established = True
        for inner in session.pending:
            ctx.emit(Channel.SEPP_LINK, session.peer_id,
                     messages.SeppForward(inner=inner))
        session.pending.clear()

    def on_sepp_reject(self, msg, event, ctx) -> None:
        self.rejections.append(f"peer:{msg.reason}")

    # -- inbound forwards (home side) ----------------------------------------------

    def on_sepp_forward(self, msg, event, ctx) -> None:
        peer_plmn = next((plmn for plmn, session in self.sessions.items()
                          if session.established and session.peer_id == event.src), None)
        if peer_plmn is None:
            ctx.emit(Channel.SEPP_LINK, event.src, messages.SeppReject(reason="NoSession"))
            return
        inner = try_decode(msg.inner)
        if inner is None:
            ctx.ignore()
            return
        if isinstance(inner, (messages.AuthRequestSbi, messages.ConfirmRequestSbi)):
            # only standalone AMFs send an AuthRequestSbi: it names the peer it came from
            if isinstance(inner, messages.AuthRequestSbi) and \
                    inner.serving_network_name != serving_network_name("SA", peer_plmn):
                self.rejections.append("NetworkNameMismatch")
                reject = messages.AuthRejectSbi(session=inner.session, cause="NetworkNameMismatch")
                ctx.emit(Channel.SEPP_LINK, event.src,
                         messages.SeppForward(inner=messages.encode(reject)))
                return
            self.routes_in[inner.session] = event.src
            ctx.emit(Channel.SBI, self.ausf_id, inner)
            return
        # a response coming back to the serving side
        session_id = getattr(inner, "session", None)
        route = self.routes_out.get(session_id)
        if route is None:
            ctx.ignore()
            return
        if isinstance(inner, _FINAL_ANSWERS):
            del self.routes_out[session_id]
        ctx.emit(Channel.SBI, route[0], inner)

