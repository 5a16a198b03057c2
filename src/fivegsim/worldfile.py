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
from .netsim import AdversaryHook, Capability, Channel, World
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

    def add_rogue_cell(self, cell_id: str, plmn: str, strength: int = 10,
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
        supi = format_supi(identity)
        if supi in home.udm.subscribers:  # a second key would replace the first UE's
            raise ValueError(f"msin: {supi} is already a subscriber of {home.name}")
        credential = LongTermCredential(k=self._seed32(f"{ue_id}:k")[:16], sqn=1)
        home.udm.add_subscriber(supi, LongTermCredential(k=credential.k, sqn=credential.sqn))
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


def roaming_world(seed: int = 0) -> tuple[World, WorldBuilder]:
    """A subscriber of network B under coverage of network A only, its user
    plane broken out at the serving network."""
    builder = WorldBuilder(seed)
    serving = builder.add_network("serv", "00101")
    home = builder.add_network("home", "99902")
    builder.add_cell(serving, "cell-a", strength=10)
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


def _list_of(enum):
    """The reader of a comma list of ``enum`` values."""
    return lambda text: frozenset(enum(value.strip()) for value in text.split(","))


def _up_to(top: int, what: str):
    """The reader of an integer in 0..``top``."""
    def read(text: str) -> int:
        value = int(text)
        if not 0 <= value <= top:
            raise ValueError(f"{value} is not {what}")
        return value
    return read


# a 5GMM cause is one octet (TS 24.501 9.11.3.2); a world seed, 64 bits
_octet = _up_to(255, "one octet (0..255)")
_seed = _up_to(2**64 - 1, "an unsigned 64-bit integer (0..2^64-1)")


def _plmn(text: str) -> str:
    """An MCC of 3 decimal digits and an MNC of 2 or 3 (TS 23.003 2.2)."""
    if not (text.isascii() and text.isdigit() and len(text) in (5, 6)):
        raise ValueError(f"{text!r} is not 5 or 6 decimal digits")
    return text


# the keys of a genuine cell -> the reader of each key's text
_CELL = {"network": str, "strength": int, "rogue": parse_bool}
# section kind -> (whether its header names an entity, the reader of each key it
# takes; None: text, policy keys checked as they parse, overrides by the scenario
# run).  A cell takes the rogue keys only with rogue = true.
_SECTIONS = {
    "world": (False, {"seed": _seed}), "policy": (False, None), "overrides": (False, None),
    "network": (True, {"plmn": _plmn}),
    "cell": (True, {**_CELL, "reject_cause": _octet, "broadcast_own_key": parse_bool}),
    "ue": (True, {"network": str, "msin": str, "pei": str, "slice": str}),
    "adversary": (True, {"channels": _list_of(Channel), "capabilities": _list_of(Capability)}),
}
# the keys a [DEFAULT] section may give: those a named section kind takes
# ([policy] reads only the keys it sets itself, so no policy key)
_DEFAULT_KEYS = frozenset().union(*(readers for _, readers in _SECTIONS.values() if readers))


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


class _Values(dict):
    """One section's values: a key its build needs and it lacks is a WorldFileError."""

    def __init__(self, section: str, values: dict):
        super().__init__(values)
        self.section = section

    def __missing__(self, key: str):
        raise WorldFileError(f"[{self.section}]: missing key {key!r}")


def _value(section: str, key: str, reader, text: str):
    try:
        return reader(text)
    except (KeyError, ValueError) as exc:
        raise WorldFileError(f"[{section}] {key}: {exc}") from None


def _read_sections(parser) -> dict[str, _Values]:
    """Each section's values by its header, in file order: its own keys and
    the [DEFAULT] keys its kind takes, read by their readers.  Refuses a
    section of an unknown kind, a header that lacks its name or has one it
    does not take, a key its section does not read, a [DEFAULT] key that no
    section reads, a value its reader refuses and a cell or UE on a network
    that no section declares."""
    defaults = parser.defaults()
    unknown = sorted(set(defaults) - _DEFAULT_KEYS)
    if unknown:
        raise WorldFileError(f"[DEFAULT]: unknown key {unknown[0]!r}")
    sections = {}
    for section in parser.sections():
        kind, _, name = section.partition(" ")
        named, readers = _SECTIONS.get(kind, (None, None))
        if named is None:
            raise WorldFileError(f"unknown section kind [{section}]")
        if named != bool(name):
            raise WorldFileError(f"[{section}]: {'needs an id' if named else 'takes no name'}")
        own = parser._sections[section]  # the keys it sets itself, without [DEFAULT]'s
        if readers is None:
            sections[section] = _Values(section, own)
            continue
        if kind == "cell" and not _value(section, "rogue", parse_bool,
                                         parser.get(section, "rogue", fallback="false")):
            readers = _CELL
        unknown = sorted(own.keys() - readers.keys())
        if unknown:
            raise WorldFileError(f"[{section}]: unknown key {unknown[0]!r}")
        values = sections[section] = _Values(section, {
            key: _value(section, key, readers[key], text)
            for key, text in {**defaults, **own}.items() if key in readers})
        if kind in ("cell", "ue") and not parser.has_section(f"network {values['network']}"):
            raise WorldFileError(f"[{section}] network: unknown network {values['network']!r}")
    return sections


def load_override_file(path: str) -> dict[str, str]:
    """Scenario override file: the same key=value text as a world file,
    with overrides in the [policy] and/or [overrides] sections.  All its
    sections are built into a world that is discarded, so a scenario run
    refuses every policy value and entity a registration run refuses; the
    scenario parses the overrides as it parses ``--set``."""
    sections = _read_sections(_read(path, "override"))
    _checked_build(sections)
    return {**sections.get("policy", {}), **sections.get("overrides", {})}


def load_world_file(path: str) -> tuple[World, WorldBuilder]:
    return _checked_build(_read_sections(_read(path, "world")))


def _checked_build(sections: dict[str, _Values]) -> tuple[World, WorldBuilder]:
    try:
        return _build(sections)
    except (KeyError, ValueError) as exc:  # a KeyError's text, not its repr
        raise WorldFileError(exc.args[0] if isinstance(exc, KeyError) else str(exc)) from exc


def _build(sections: dict[str, _Values]) -> tuple[World, WorldBuilder]:
    """The world of the read sections: the networks first, for the cells and
    UEs that name one, then the other entities in file order."""
    policy = OperatorPolicy(**{key: parse_policy_value(key, text)
                               for key, text in sections.get("policy", {}).items()})
    builder = WorldBuilder(sections.get("world", {}).get("seed", 0))
    networks = {}
    for section, values in sections.items():
        kind, _, name = section.partition(" ")
        if kind == "network":
            networks[name] = builder.add_network(name, values["plmn"], policy)
    for section, values in sections.items():
        kind, _, name = section.partition(" ")
        args = {key: value for key, value in values.items() if key not in ("network", "rogue")}
        if kind in ("cell", "ue"):
            network = networks[values["network"]]
        if kind == "cell" and values.get("rogue"):
            builder.add_rogue_cell(name, network.plmn, **args)
        elif kind == "cell":
            builder.add_cell(network, name, **args)
        elif kind == "ue":
            if "slice" in args:
                args["slice_id"] = args.pop("slice")
            try:
                builder.add_ue(name, network, **args)
            except ValueError as exc:  # a refused msin or pei: its text starts with the key
                raise WorldFileError(f"[{section}] {exc}") from None
        elif kind == "adversary":
            builder.world.attach_adversary(AdversaryHook(
                adversary_id=name, vantage=values["channels"],
                capabilities=values.get("capabilities", frozenset({Capability.OBSERVE}))))
    return builder.world, builder
