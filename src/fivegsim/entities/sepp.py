"""Security edge protection proxies: the mutually authenticated gateway
between operators.

A SEPP forwards control-plane traffic only over sessions with allowlisted,
non-revoked peers, and checks that the serving network name inside a
forwarded authentication request matches the peer the session was
established with.  Each authentication it carries has a route, found by
its SBI id, that its answers take back.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .. import crypto, messages
from ..identity import ConcealedIdentity
from ..netsim import Channel
from ..policy import serving_network_name
from .base import Entity, State, takes, try_decode


_ANSWERS = (messages.AuthResponseSbi, messages.AuthRejectSbi, messages.ConfirmResponseSbi)


def _hello_context(plmn: str, peer_plmn: str, nonce: bytes) -> bytes:
    return b"sepp-hello|" + plmn.encode() + b"|" + peer_plmn.encode() + b"|" + nonce


class RouteState(State):
    """Which way an authentication's route through a SEPP runs; ``Sepp._states``
    says which message each way takes."""

    OUT = "out"  # from a local AMF to the home network's SEPP
    IN = "in"  # from a peer SEPP to the local AUSF


@dataclass
class SeppRoute:
    state: RouteState
    # (channel, entity) of the end that asks and gets the answers: the local AMF or the
    # peer SEPP; and of the end that answers: the home network's SEPP or the local AUSF
    asker: tuple[Channel, str]
    answerer: tuple[Channel, str]
    suci: bytes
    home_plmn: str = ""  # out: where its requests go


@dataclass
class SeppSession:
    peer_id: str
    established: bool = False
    refused: bool = False  # the peer answered a hello with a SeppReject
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
        self.routes: dict[str, SeppRoute] = {}  # by SBI id
        self.by_suci: dict[tuple, str] = {}  # (asker, SUCI) of each route -> its SBI id
        self.rejections: list[str] = []

    @cached_property
    def verification_key(self) -> bytes:
        """Derived from the seed at its first read: only a peer's allowlist
        and a revocation name it."""
        return crypto.verification_key(self.signing_seed)

    def revoke(self, verification_key: bytes) -> None:
        self.revoked.add(verification_key)

    # -- peer validation -------------------------------------------------------

    def _refusal(self, plmn: str) -> str | None:
        """Why the peer of ``plmn`` is refused, or None: it is not on the
        allowlist, or its allowlisted key is revoked."""
        key = self.allowlist.get(plmn)
        if key is None:
            return "PeerUnknown"
        return "PeerRevoked" if key in self.revoked else None

    # -- outbound (serving side) --------------------------------------------------

    def _session_for(self, peer_plmn: str, ctx) -> SeppSession | None:
        session = self.sessions.get(peer_plmn)
        if session is None and peer_plmn in self.peers:
            session = self.sessions[peer_plmn] = SeppSession(peer_id=self.peers[peer_plmn])
        if session is not None and not (session.established or session.refused):
            # the first request to the peer, or one after a hello or an ack was lost
            nonce = ctx.rng("nonce").take(16)
            ctx.emit(Channel.SEPP_LINK, session.peer_id, messages.SeppHello(
                plmn=self.plmn, peer_plmn=peer_plmn, nonce=nonce,
                signature=crypto.sign(self.signing_seed,
                                      _hello_context(self.plmn, peer_plmn, nonce)),
            ))
        return session

    def _forward_out(self, inner_bytes: bytes, session: SeppSession, ctx) -> bool:
        """Send a request over the session, or queue it until the link is up;
        False, and nothing sent or queued, if the peer refused the link."""
        if session.established:
            ctx.emit(Channel.SEPP_LINK, session.peer_id,
                     messages.SeppForward(inner=inner_bytes))
        elif session.refused:
            return False
        else:
            session.pending.append(inner_bytes)
        return True

    def _route(self, msg, event) -> SeppRoute | None:
        return self.routes.get(msg.session)

    def _from_its_end(self, msg, event) -> SeppRoute | None:
        """The route, if a confirm comes from its asker or an answer from its answerer."""
        route = self.routes.get(msg.session)
        end = route and (route.answerer if isinstance(msg, _ANSWERS) else route.asker)
        return route if end == (event.channel, event.src) else None

    def _open(self, sid: str, route: SeppRoute) -> None:
        # a new request for a SUCI from the same asker: it abandoned the older authentication
        self.routes.pop(self.by_suci.get((route.asker, route.suci)), None)
        self.routes[sid], self.by_suci[route.asker, route.suci] = route, sid

    def _close(self, sid: str) -> None:
        route = self.routes.pop(sid)
        del self.by_suci[route.asker, route.suci]

    def _end(self, msg) -> None:
        if not isinstance(msg, messages.AuthResponseSbi):  # the authentication is over
            self._close(msg.session)

    @takes(None, find=_route)
    def on_auth_request_sbi(self, _, msg, event, ctx) -> None:
        if event.channel is Channel.SEPP_LINK:  # a peer asks the local home network
            # only standalone AMFs send an AuthRequestSbi: it names the peer it came from
            if msg.serving_network_name == serving_network_name(
                    "SA", self._peer_plmn(event.src)):
                self._open(msg.session, SeppRoute(RouteState.IN, (event.channel, event.src),
                                                  (Channel.SBI, self.ausf_id), msg.suci))
                ctx.emit(Channel.SBI, self.ausf_id, msg)
                return
            self.rejections.append("NetworkNameMismatch")
            reject = messages.AuthRejectSbi(session=msg.session, cause="NetworkNameMismatch")
            ctx.emit(Channel.SEPP_LINK, event.src,
                     messages.SeppForward(inner=messages.encode(reject)))
            return
        # the local AMF asks the home network of the concealed identity
        try:
            home_plmn = ConcealedIdentity.from_bytes(msg.suci).plmn
        except ValueError:
            ctx.ignore()
            return
        session = self._session_for(home_plmn, ctx)
        if session is None:
            ctx.emit(Channel.SBI, event.src, messages.AuthRejectSbi(
                session=msg.session, cause="PeerUnknown"))
        elif self._forward_out(messages.encode(msg), session, ctx):
            peer = (Channel.SEPP_LINK, session.peer_id)
            self._open(msg.session, SeppRoute(RouteState.OUT, (event.channel, event.src),
                                              peer, msg.suci, home_plmn))
        else:  # toward a peer that refused the link: no route, nothing queued
            ctx.ignore()

    @takes(RouteState.OUT, find=_from_its_end)
    def on_confirm_request_sbi(self, route, msg, event, ctx) -> None:
        # never toward a peer that refused the link: its refusal ended the route
        self._forward_out(messages.encode(msg), self._session_for(route.home_plmn, ctx), ctx)

    @takes(RouteState.OUT, find=_from_its_end, message=_ANSWERS)
    def _answer_out(self, route, msg, event, ctx) -> None:
        self._end(msg)
        ctx.emit(Channel.SBI, route.asker[1], msg)

    @takes(RouteState.IN, find=_from_its_end, message=(messages.ConfirmRequestSbi,))
    def _confirm_in(self, route, msg, event, ctx) -> None:
        ctx.emit(Channel.SBI, self.ausf_id, msg)

    @takes(RouteState.IN, find=_from_its_end, message=_ANSWERS)
    def _answer_in(self, route, msg, event, ctx) -> None:
        self._end(msg)
        ctx.emit(Channel.SEPP_LINK, route.asker[1],
                 messages.SeppForward(inner=messages.encode(msg)))

    # -- handshake -------------------------------------------------------------------

    def on_sepp_hello(self, msg, event, ctx) -> None:
        reason = self._refusal(msg.plmn)
        if reason is None and (msg.peer_plmn != self.plmn or not crypto.verify(
                self.allowlist[msg.plmn], _hello_context(msg.plmn, msg.peer_plmn, msg.nonce),
                msg.signature)):
            reason = "BadSignature"
        if reason is not None:
            self.rejections.append(reason)
            ctx.emit(Channel.SEPP_LINK, event.src, messages.SeppReject(reason=reason))
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
        if self._refusal(msg.plmn) is not None:
            self.rejections.append("PeerInvalidOnAck")
            return
        if not crypto.verify(self.allowlist[msg.plmn],
                             _hello_context(msg.plmn, self.plmn, msg.echo_nonce),
                             msg.signature):
            self.rejections.append("BadSignature")
            return
        session.established = True
        for inner in session.pending:
            ctx.emit(Channel.SEPP_LINK, session.peer_id,
                     messages.SeppForward(inner=inner))
        session.pending.clear()

    def on_sepp_reject(self, msg, event, ctx) -> None:
        """The peer refused the link: what waits for it is dropped, and the
        authentications it was to answer end."""
        self.rejections.append(f"peer:{msg.reason}")
        for plmn, session in self.sessions.items():
            if session.peer_id == event.src and not session.established:
                session.refused = True
                session.pending.clear()
                for sid in [sid for sid, route in self.routes.items()
                            if route.home_plmn == plmn]:
                    self._close(sid)

    # -- forwards from a peer --------------------------------------------------------

    def _peer_plmn(self, peer_id: str) -> str | None:
        return next((plmn for plmn, session in self.sessions.items()
                     if session.established and session.peer_id == peer_id), None)

    def on_sepp_forward(self, msg, event, ctx) -> None:
        if self._peer_plmn(event.src) is None:
            ctx.emit(Channel.SEPP_LINK, event.src, messages.SeppReject(reason="NoSession"))
        elif type(inner := try_decode(msg.inner)) in self._states:
            # a request or an answer steps as if it came over the link alone
            self.step(inner, replace(event, payload=msg.inner), ctx)
        else:
            ctx.ignore()
