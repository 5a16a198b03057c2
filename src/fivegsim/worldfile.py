"""World construction: programmatic builders and the text world file.

A world bundles one or more operator networks (core functions plus
cells), subscriber devices, link-protection settings and adversary
placement.  The text format is INI-style key/value sections, one section
per entity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import crypto
from .entities import Amf, Ausf, GnbNode, Nrf, Sepp, Smf, Udm, Ue, Upf
from .entities.ran import SliceAdmission
from .identity import (
    EquipmentIdentity,
    LongTermCredential,
    SubscriberIdentity,
    SuciScheme,
    format_supi,
)
from .netsim import AdversaryHook, Capability, Channel, Knowledge, World
from .policy import OperatorPolicy, parse_bool, parse_policy_value


@dataclass
class NetworkHandles:
    name: str
    plmn: str
    policy: OperatorPolicy
    amf: Amf
    ausf: Ausf
    udm: Udm
    smf: Smf
    upf: Upf
    nrf: Nrf
    sepp: Sepp | None = None
    engnb: GnbNode | None = None
    cells: list[GnbNode] = field(default_factory=list)
    home_keypair: crypto.HomeNetworkKeyPair | None = None
    reject_keypair: crypto.RejectSigningKeyPair | None = None


class WorldBuilder:
    """Assembles a deterministic world from network/UE declarations."""

    def __init__(self, seed: int = 0):
        self.world = World(seed=seed)
        self.networks: dict[str, NetworkHandles] = {}
        self.ues: dict[str, Ue] = {}

    def _seed32(self, label: str) -> bytes:
        return self.world.streams.stream(f"build:{label}").take(32)

    def add_network(self, name: str, plmn: str,
                    policy: OperatorPolicy | None = None) -> NetworkHandles:
        policy = policy or OperatorPolicy()
        scheme = policy.suci_scheme
        home_keypair = None
        if scheme != SuciScheme.NULL:
            home_keypair = crypto.HomeNetworkKeyPair.from_seed(
                scheme, self._seed32(f"{name}:homekey"))
        reject_keypair = crypto.RejectSigningKeyPair.from_seed(
            self._seed32(f"{name}:rejectkey"))
        udm = Udm(f"{name}-udm", plmn, home_keypair)
        ausf = Ausf(f"{name}-ausf", plmn, udm.entity_id)
        nrf = Nrf(f"{name}-nrf", self._seed32(f"{name}:nrfkey"))
        smf = Smf(f"{name}-smf", policy, nrf)
        upf = Upf(f"{name}-upf")
        amf = Amf(
            f"{name}-amf", plmn, policy,
            ausf_id=ausf.entity_id, udm_id=udm.entity_id, smf_id=smf.entity_id,
        )
        handles = NetworkHandles(
            name=name, plmn=plmn, policy=policy, amf=amf, ausf=ausf, udm=udm,
            smf=smf, upf=upf, nrf=nrf, home_keypair=home_keypair,
            reject_keypair=reject_keypair,
        )
        for entity in (amf, ausf, udm, smf, upf, nrf):
            self.world.add_entity(entity)
        if policy.mode == "NSA":
            engnb = GnbNode(
                f"{name}-engnb", plmn, kind="engnb",
                amf_id=amf.entity_id, upf_id=upf.entity_id,
            )
            amf.engnb_id = engnb.entity_id
            handles.engnb = engnb
            self.world.add_entity(engnb)
        self.networks[name] = handles
        # link protection is worldwide; the first network's policy decides
        if len(self.networks) == 1:
            self.world.link_protected[Channel.N2] = policy.n2_link_protected
            self.world.link_protected[Channel.N3] = policy.n2_link_protected
            self.world.link_protected[Channel.SBI] = policy.sbi_link_protected
        return handles

    def add_cell(self, network: NetworkHandles, cell_id: str, strength: int = 10,
                 blacklist: list[str] | None = None,
                 admission: SliceAdmission | None = None) -> GnbNode:
        policy = network.policy
        kind = "enb" if policy.mode == "NSA" else "gnb"
        verification_key = b""
        signing_key = b""
        if policy.signed_reject_enabled:
            verification_key = network.reject_keypair.verification_key
            signing_key = network.reject_keypair.signing_key
        cell = GnbNode(
            cell_id, network.plmn, kind=kind, strength=strength,
            amf_id=network.amf.entity_id, upf_id=network.upf.entity_id,
            verification_key=verification_key, reject_signing_key=signing_key,
            reject_cause=None, blacklist=blacklist,
            admission=admission,
            jam_suppression_enabled=policy.jam_suppression_enabled,
        )
        network.cells.append(cell)
        self.world.add_entity(cell)
        return cell

    def add_rogue_cell(self, cell_id: str, plmn: str, strength: int,
                       reject_cause: int | None = 3,
                       broadcast_own_key: bool = False) -> GnbNode:
        """A cell the attacker operates: claims a network, rejects attaches."""
        verification_key = b""
        signing_key = b""
        if broadcast_own_key:
            pair = crypto.RejectSigningKeyPair.from_seed(
                self._seed32(f"rogue:{cell_id}"))
            verification_key = pair.verification_key
            signing_key = pair.signing_key
        cell = GnbNode(
            cell_id, plmn, strength=strength, reject_cause=reject_cause,
            verification_key=verification_key, reject_signing_key=signing_key,
        )
        self.world.add_entity(cell)
        return cell

    def add_sepp(self, network: NetworkHandles) -> Sepp:
        sepp = Sepp(
            f"{network.name}-sepp", network.plmn,
            self._seed32(f"{network.name}:seppkey"),
            ausf_id=network.ausf.entity_id,
        )
        network.sepp = sepp
        network.amf.sepp_id = sepp.entity_id
        self.world.add_entity(sepp)
        return sepp

    def connect_sepps(self, net_a: NetworkHandles, net_b: NetworkHandles) -> None:
        """Declare the two proxies to each other (allowlist + routing)."""
        sepp_a, sepp_b = net_a.sepp, net_b.sepp
        sepp_a.peers[net_b.plmn] = sepp_b.entity_id
        sepp_b.peers[net_a.plmn] = sepp_a.entity_id
        sepp_a.allowlist[net_b.plmn] = sepp_b.verification_key
        sepp_b.allowlist[net_a.plmn] = sepp_a.verification_key

    def add_ue(self, ue_id: str, home: NetworkHandles,
               msin: str = "0123456789", pei: str | None = None,
               slice_id: str = "embb") -> Ue:
        mcc, mnc = home.plmn[:3], home.plmn[3:]
        identity = SubscriberIdentity(mcc=mcc, mnc=mnc, msin=msin)
        if pei is None:
            pei = self.world.streams.stream(f"build:{ue_id}:pei").digits(15)
        credential = LongTermCredential(k=self._seed32(f"{ue_id}:k")[:16], sqn=1)
        home.udm.add_subscriber(format_supi(identity), LongTermCredential(
            k=credential.k, sqn=credential.sqn))
        ue = Ue(ue_id, identity, EquipmentIdentity(pei=pei), credential,
                home.home_keypair, home.policy, slice_id=slice_id,
                nsa_up_node=home.engnb.entity_id if home.engnb else "")
        self.ues[ue_id] = ue
        self.world.add_entity(ue)
        return ue


def single_network_world(seed: int = 0, policy: OperatorPolicy | None = None,
                         ue_count: int = 1, cell_count: int = 1,
                         ) -> tuple[World, WorldBuilder]:
    """The standard bench world: one operator, n cells, n subscribers."""
    builder = WorldBuilder(seed)
    net = builder.add_network("net", "00101", policy)
    for i in range(cell_count):
        builder.add_cell(net, f"cell-{chr(ord('a') + i)}", strength=10 - i)
    for i in range(ue_count):
        builder.add_ue(f"ue{i + 1}", net, msin=f"{100000000 + i:010d}")
    return builder.world, builder


def roaming_world(seed: int = 0, home_routed_data: bool = False,
                  ) -> tuple[World, WorldBuilder]:
    """A subscriber of network B under coverage of network A only.

    ``home_routed_data`` switches the user plane from local breakout at
    the serving network to routing through the home network; the only
    visible difference is which user-plane function the data reaches.
    """
    builder = WorldBuilder(seed)
    serving = builder.add_network("serv", "00101")
    home = builder.add_network("home", "99902")
    cell = builder.add_cell(serving, "cell-a", strength=10)
    if home_routed_data:
        cell.upf_id = home.upf.entity_id
    builder.add_sepp(serving)
    builder.add_sepp(home)
    builder.connect_sepps(serving, home)
    builder.add_ue("ue1", home)
    return builder.world, builder


# ---------------------------------------------------------------------------
# Text world files
# ---------------------------------------------------------------------------


class WorldFileError(ValueError):
    pass


_CHANNELS = {c.value: c for c in Channel}
_CAPABILITIES = {c.value: c for c in Capability}
# section kind -> (whether its header names an entity, the keys it takes; None:
# checked where read, policy keys as they parse, overrides by the scenario run)
_SECTIONS = {
    "world": (False, {"seed"}), "policy": (False, None), "overrides": (False, None),
    "network": (True, {"plmn"}),
    "cell": (True, {"network", "strength", "rogue", "reject_cause", "broadcast_own_key"}),
    "ue": (True, {"network", "msin", "pei", "slice"}),
    "adversary": (True, {"channels", "capabilities"}),
}
# the keys a [DEFAULT] section may give: those a named section kind takes
# ([policy] reads only the keys it sets itself, so no policy key)
_DEFAULT_KEYS = frozenset().union(*(keys for _, keys in _SECTIONS.values() if keys))


def _read(path: str, what: str):
    """The INI text at ``path``, its values taken as written (no ``%``
    interpolation); unreadable or malformed text is a WorldFileError."""
    import configparser  # only world and override files need it

    parser = configparser.ConfigParser(interpolation=None)
    try:
        if parser.read(path):
            return parser
    except (configparser.Error, UnicodeDecodeError) as exc:  # no header, a repeated name
        raise WorldFileError(str(exc)) from exc
    raise WorldFileError(f"cannot read {what} file {path!r}")


def _own_items(parser, section: str) -> list[tuple[str, str]]:
    """The keys ``section`` sets itself, not those [DEFAULT] gives every section."""
    return list(parser._sections[section].items())


def load_override_file(path: str) -> dict[str, str]:
    """Scenario override file: the same key=value text as a world file,
    with overrides in the [policy] and/or [overrides] sections, its
    sections checked as a world file's are."""
    parser = _read(path, "override")
    _check_sections(parser)
    out: dict[str, str] = {}
    for section in ("policy", "overrides"):
        if parser.has_section(section):
            out.update(_own_items(parser, section))
    return out


def _check_sections(parser) -> None:
    """Refuse a section of an unknown kind, a header that lacks its name or
    has one it does not take, a key its section does not read and a
    [DEFAULT] key that no section reads."""
    unknown = sorted(set(parser.defaults()) - _DEFAULT_KEYS)
    if unknown:
        raise WorldFileError(f"[DEFAULT]: unknown key {unknown[0]!r}")
    for section in parser.sections():
        kind, _, name = section.partition(" ")
        named, keys = _SECTIONS.get(kind, (None, None))
        if named is None:
            raise WorldFileError(f"unknown section kind [{section}]")
        if named != bool(name):
            raise WorldFileError(f"[{section}]: {'needs an id' if named else 'takes no name'}")
        unknown = sorted({key for key, _ in _own_items(parser, section)} - keys) if keys else []
        if unknown:
            raise WorldFileError(f"[{section}]: unknown key {unknown[0]!r}")


def load_world_file(path: str) -> tuple[World, WorldBuilder]:
    import configparser  # as in _read: only world and override files need it

    parser = _read(path, "world")
    _check_sections(parser)
    try:
        return _build_from_parser(parser)
    except (configparser.Error, KeyError, ValueError) as exc:  # a KeyError's text, not its repr
        raise WorldFileError(exc.args[0] if isinstance(exc, KeyError) else str(exc)) from exc


def _build_from_parser(parser) -> tuple[World, WorldBuilder]:
    seed = 0
    if parser.has_section("world"):
        seed = parser.getint("world", "seed", fallback=0)
    policy_kwargs = {}
    if parser.has_section("policy"):
        for key, raw in _own_items(parser, "policy"):
            policy_kwargs[key] = parse_policy_value(key, raw)
    policy = OperatorPolicy(**policy_kwargs)
    builder = WorldBuilder(seed)
    networks_by_name: dict[str, NetworkHandles] = {}
    for section in parser.sections():
        if section.startswith("network "):
            name = section.split(" ", 1)[1]
            plmn = parser.get(section, "plmn")
            networks_by_name[name] = builder.add_network(name, plmn, policy)
    for section in parser.sections():
        parts = section.split(" ", 1)
        if parts[0] == "cell":
            net = networks_by_name[parser.get(section, "network")]
            strength = parser.getint(section, "strength", fallback=10)
            if parse_bool(parser.get(section, "rogue", fallback="false")):
                builder.add_rogue_cell(
                    parts[1], net.plmn, strength,
                    reject_cause=parser.getint(section, "reject_cause", fallback=3),
                    broadcast_own_key=parse_bool(
                        parser.get(section, "broadcast_own_key", fallback="false")),
                )
            else:
                builder.add_cell(net, parts[1], strength)
        elif parts[0] == "ue":
            net = networks_by_name[parser.get(section, "network")]
            builder.add_ue(
                parts[1], net,
                msin=parser.get(section, "msin", fallback="0123456789"),
                pei=parser.get(section, "pei", fallback=None),
                slice_id=parser.get(section, "slice", fallback="embb"),
            )
        elif parts[0] == "adversary":
            vantage = frozenset(
                _CHANNELS[v.strip()]
                for v in parser.get(section, "channels").split(",")
            )
            capabilities = frozenset(
                _CAPABILITIES[v.strip()]
                for v in parser.get(section, "capabilities", fallback="Observe").split(",")
            )
            builder.world.attach_adversary(AdversaryHook(
                adversary_id=parts[1], vantage=vantage,
                capabilities=capabilities, knowledge=Knowledge(),
            ))
    return builder.world, builder
