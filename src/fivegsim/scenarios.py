"""Executable threat scenarios TS_01..TS_12.

Each scenario builds a world, places an adversary, runs to quiescence and
evaluates named boolean outcome predicates.  Compromise-based scenarios
start from an instantaneous capability grant (stolen key material or a
removed node) with the attack cost carried as metadata only; what the
adversary then achieves is computed exclusively from bytes it observed
plus the granted material.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import crypto, messages
from .entities import Sepp
from .entities.base import open_secured, try_decode
from .entities.ran import SliceAdmission
from .flows import run_registration, trigger
from .identity import ConcealedIdentity, LongTermCredential, format_supi
from .netsim import (
    Action,
    AdversaryHook,
    Capability,
    Channel,
    JamWindow,
    RADIO_CHANNELS,
    World,
)
from .policy import (
    CAUSE_ILLEGAL_UE,
    OperatorPolicy,
    POLICY_TYPES,
    parse_bool,
    parse_policy_value,
    serving_network_name,
)
from .risk import Impact, Likelihood, RiskCell, place
from .worldfile import NetworkHandles, WorldBuilder


class UnknownScenario(KeyError):
    pass


class InvalidOverride(ValueError):
    pass


@dataclass(frozen=True)
class ThreatScenario:
    scenario_id: str
    title: str
    stride: str  # subset of "STRIDE", canonical letter order
    assets: tuple[str, ...]
    likelihood: Likelihood | tuple[Likelihood, Likelihood]
    impact: Impact | tuple[Impact, Impact]
    predicates: tuple[str, ...]
    mitigations: tuple[str, ...]
    threat_agents: str
    attack_cost: str


@dataclass
class ScenarioReport:
    scenario_id: str
    seed: int
    outcome: dict[str, bool]
    transcript_sha256: str
    risk: RiskCell
    overrides: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_id,
            "seed": self.seed,
            "outcome": self.outcome,
            "transcript_sha256": self.transcript_sha256,
            "risk": {
                "likelihood": self.risk.likelihood.label,
                "impact": self.risk.impact.label,
                "level": self.risk.level.label,
            },
            "overrides": {k: str(v) for k, v in self.overrides.items()},
        }


_L = Likelihood
_I = Impact

CATALOG: dict[str, ThreatScenario] = {s.scenario_id: s for s in [
    ThreatScenario(
        "TS_01", "Subscriber key database theft",
        "STRIDE", ("Long term keys of UEs in a given network",),
        _L.UNLIKELY, _I.CRITICAL,
        ("all_subscriber_traffic_decryptable", "network_impersonation"),
        (),
        "malicious or blackmailed employee; criminal organization buyer",
        "insider access to the subscriber database plus HSM extraction time",
    ),
    ThreatScenario(
        "TS_02", "Roaming partner impersonation with a stolen gateway key",
        "SRIE", ("Private key used by a SEPP to authenticate to other networks",),
        _L.UNLIKELY, _I.VERY_HIGH,
        ("impersonation_as_stolen_plmn", "supi_disclosed_to_attacker",
         "other_network_name_refused", "name_mismatch_detected"),
        ("revoke_stolen_sepp",),
        "criminal organizations, foreign government agencies",
        "~50k side-channel/fault lab work against the proxy key, plus rogue infrastructure",
    ),
    ThreatScenario(
        "TS_03", "Subscriber key extraction from one UICC",
        "SRIDE", ("Device keys", "Data transmitted or received by a device",
                  "Device service continuity"),
        _L.UNLIKELY, _I.HIGH,
        ("target_traffic_decrypted", "other_devices_unaffected"),
        (),
        "security researchers, criminal organizations, government agencies",
        "up to 1M invasive hardware attack, one device per attack",
    ),
    ThreatScenario(
        "TS_04", "Security context dump from the mobile equipment",
        "SRIDE", ("Device security context", "Data confidentiality and integrity"),
        _L.PROBABLE, _I.HIGH,
        ("context_extracted", "attacker_decrypts_later_traffic"),
        ("context_renewal_interval",),
        "opportunistic hackers, criminals, security researchers",
        "malware with sufficient privilege on the ME; no hardware lab needed",
    ),
    ThreatScenario(
        "TS_05", "Persistent lockout through reject causes from a rogue cell",
        "D", ("Service availability",),
        _L.PROBABLE, _I.MODERATE,
        ("dos_persistent", "recovered_after_power_cycle", "reattached_to_genuine"),
        ("signed_reject_enabled", "blacklist_rogue"),
        "criminal and terrorist organizations",
        "~5k software-defined radio with a minimal cell implementation",
    ),
    ThreatScenario(
        "TS_06", "Identity catching on the radio link",
        "I", ("Location tracking",),
        _L.VERY_PROBABLE, _I.MODERATE,
        ("pei_captured", "supi_captured", "home_network_learned"),
        ("nas_ciphering",),
        "criminals, terrorist organizations, foreign government agencies",
        "~1k passive radio interception",
    ),
    ThreatScenario(
        "TS_07", "Jamming a cell's random access",
        "D", ("Service availability",),
        _L.PROBABLE, _I.MODERATE,
        ("jam_window_timeout", "post_window_success"),
        ("jam_suppression_enabled",),
        "criminals",
        "~5k directional jammer or modified device spamming access slots",
    ),
    ThreatScenario(
        "TS_08", "Compromised cell software",
        "TRIDE", ("Service availability", "Data confidentiality and integrity",
                  "Device location"),
        _L.PROBABLE, (_I.HIGH, _I.CATASTROPHIC),
        ("up_traffic_exposed", "nas_protected_from_gnb", "dos_possible"),
        (),
        "malicious insiders at the vendor, exploit developers, state actors",
        "firmware implant or remotely exploitable vulnerability in the cell",
    ),
    ThreatScenario(
        "TS_09", "Compromised core network function",
        "TRID", ("Service availability", "Data confidentiality and integrity"),
        _L.UNLIKELY, _I.VERY_HIGH,
        ("nas_traffic_exposed", "root_key_not_exposed"),
        (),
        "opportunistic hackers, criminal organizations, government agencies",
        "software exploit against a core function or its hypervisor",
    ),
    ThreatScenario(
        "TS_10", "Link-protection key lifting between network functions",
        "TI", ("Device data",),
        _L.VERY_PROBABLE, _I.HIGH,
        ("k_gnb_extracted", "up_traffic_exposed"),
        (),
        "criminals, hackers, security researchers",
        "software key-extraction against the link endpoints",
    ),
    ThreatScenario(
        "TS_11", "Cell theft or physical takedown",
        "D", ("Service availability", "Network performance"),
        _L.VERY_PROBABLE, _I.MODERATE,
        ("coverage_lost", "service_maintained"),
        ("overlap_cell",),
        "hacktivists",
        "physical access to an insufficiently protected site",
    ),
    ThreatScenario(
        "TS_12", "Priority-slice resource exhaustion",
        "D", ("Network performance",),
        (_L.UNLIKELY, _L.PROBABLE), _I.MODERATE,
        ("victim_slice_starved", "priority_slice_unaffected"),
        ("reserved_for_victim",),
        "criminals, terrorists, an abusive sharing partner",
        "a fleet of devices admitted to the favored slice",
    ),
]}

SCENARIO_IDS = tuple(sorted(CATALOG))


def list_scenarios() -> list[ThreatScenario]:
    """The ordered catalog TS_01..TS_12."""
    return [CATALOG[sid] for sid in SCENARIO_IDS]


# ---------------------------------------------------------------------------
# Adversary-side analytics (operate on observed bytes + granted material)
# ---------------------------------------------------------------------------


def _decode_all(payloads: list[bytes]) -> list:
    return [m for m in map(try_decode, payloads) if m is not None]


def _candidate_chains(decoded: list, k: bytes, supi: str, sn_name: str) -> list:
    """Every NAS key set derivable from a stolen long-term key plus the
    parameters visible in the captured exchange (the ids of a security
    mode command ride in clear, integrity-protected only)."""
    cred = LongTermCredential(k=k, sqn=1)
    algs = {(smc.nea_id, smc.nia_id) for m in decoded
            if isinstance(m, messages.SecuredNas) and m.nea_id == 0
            for smc in (try_decode(m.body),)
            if isinstance(smc, messages.NasSecurityModeCommand)} or {(2, 2)}
    k_seafs = [(m.abba, crypto.derive_k_seaf(crypto.ue_k_ausf(cred, m.rand, sn_name), sn_name))
               for m in decoded if isinstance(m, messages.AuthenticationRequest)]
    return [crypto.derive_chain_from_seaf(k_seaf, supi, abba, nea, nia)
            for abba, k_seaf in k_seafs for nea, nia in algs]


def _open_captured(wrapper, keys):
    """The message inside a captured wrapper, opened as its receiver would
    through a fresh link built from the adversary's keys and the captured
    header; None when those keys do not open it."""
    try:
        link = crypto.SecureLink(type(wrapper), keys, wrapper.nea_id, wrapper.nia_id,
                                 direction=1 - wrapper.direction)
    except (KeyError, ValueError, crypto.StubAlgorithm):
        return None  # no receiver runs the header's ids, or the keys lack one
    return open_secured(link, wrapper)


def _opened(decoded: list, key_sets, wrapper_cls, keep=lambda wrapper: True) -> list:
    """The messages inside the captured ``wrapper_cls`` wrappers that ``keep``
    accepts, opened with each key set in turn: the one pass of the
    analytics over captured wrappers with keys."""
    wrappers = [m for m in decoded if isinstance(m, wrapper_cls) and keep(m)]
    opened = (_open_captured(m, keys) for keys in key_sets for m in wrappers)
    return [inner for inner in opened if inner is not None]


def recover_peis(observed: list[bytes], k: bytes, supi: str, sn_name: str) -> set[str]:
    """Offline attack: with a stolen subscriber key, walk the captured radio
    exchange and decrypt whatever security-mode-complete messages verify."""
    decoded = _decode_all(observed)
    return {m.pei for m in _opened(decoded, _candidate_chains(decoded, k, supi, sn_name),
                                   messages.SecuredNas, lambda wrapper: wrapper.direction == 0)
            if isinstance(m, messages.NasSecurityModeComplete) and m.pei}


def decrypt_up_payloads(observed: list[bytes], as_keys_list: list) -> list[bytes]:
    """Attempt user-plane decryption with each candidate radio key set."""
    return [m.payload for m in _opened(_decode_all(observed), as_keys_list, messages.SecuredUp)
            if isinstance(m, messages.AppData)]


def _nas_opened(payloads: list[bytes], keys) -> bool:
    """Whether the keys open any ciphered NAS message among the payloads."""
    return bool(_opened(_decode_all(payloads), [keys], messages.SecuredNas,
                        lambda wrapper: wrapper.nea_id != 0))


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------

HORIZON = 30_000
_MARKER_A = b"meter-reading-0042"
_MARKER_B = b"meter-reading-0043"
_REGISTER = messages.TriggerRegistration(target_cell="")
_PDU_SESSION = messages.TriggerPduSession()
# register, open a session, then send one marked payload
_TRAFFIC_A = ((10, _REGISTER), (1000, _PDU_SESSION),
              (1500, messages.TriggerAppData(payload=_MARKER_A)))


def _base_policy(overrides: dict, **scenario_defaults) -> OperatorPolicy:
    policy_overrides = {k: v for k, v in overrides.items() if k in POLICY_TYPES}
    try:
        return replace(OperatorPolicy(**scenario_defaults), **policy_overrides)
    except ValueError as exc:  # a value the policy refuses
        raise InvalidOverride(str(exc)) from None


def _stage(seed: int, policy: OperatorPolicy, strength: int = 10,
           **cell) -> tuple[WorldBuilder, NetworkHandles]:
    """The common world: network "net" on PLMN 00101 with cell "cell-a"."""
    builder = WorldBuilder(seed)
    net = builder.add_network("net", "00101", policy)
    builder.add_cell(net, "cell-a", strength=strength, **cell)
    return builder, net


def _spy(world: World, adversary_id: str, channels=RADIO_CHANNELS,
         capabilities=(), handler=None) -> AdversaryHook:
    """Attach an observing adversary with the given extra capabilities."""
    hook = AdversaryHook(
        adversary_id=adversary_id,
        vantage=frozenset(channels),
        capabilities=frozenset({Capability.OBSERVE, *capabilities}),
        handler=handler,
    )
    world.attach_adversary(hook)
    return hook


def _script(world: World, dst: str, *steps) -> None:
    """Schedule (time, control message) steps toward one entity."""
    for at, msg in steps:
        trigger(world, dst, msg, delay=at)


def _run_ts01(seed: int, overrides: dict) -> tuple[World, dict]:
    policy = _base_policy(overrides)
    builder, genuine = _stage(seed, policy)
    rogue_net = builder.add_network("rog", "00101", policy)
    rogue_cell = builder.add_cell(rogue_net, "rog-cell", strength=99)
    rogue_cell.active = False
    ue = builder.add_ue("ue1", genuine)
    world = builder.world
    spy = _spy(world, "insider", capabilities={Capability.IMPERSONATE})
    _script(world, "ue1", *_TRAFFIC_A)

    def steal(w: World) -> None:
        db = {supi: cred.k for supi, cred in genuine.udm.subscribers.items()}
        spy.knowledge.grant("udm_db", db)
        spy.knowledge.grant("home_private", genuine.udm.home_keypair)
        rogue_net.udm.subscribers = {
            supi: LongTermCredential(k=c.k, sqn=c.sqn)
            for supi, c in genuine.udm.subscribers.items()
        }
        rogue_net.udm.home_keypair = genuine.udm.home_keypair
        rogue_cell.active = True

    world.schedule_action(2000, "udm-database-theft", steal)
    _script(world, "ue1", (2100, messages.PowerCycle()), (2500, _REGISTER))
    world.run_until(HORIZON)

    supi = format_supi(ue.identity)
    stolen_k = spy.knowledge.keys["udm_db"][supi]
    peis = recover_peis(spy.knowledge.payloads(), stolen_k, supi,
                        serving_network_name(genuine.policy.mode, genuine.plmn))
    outcome = {
        "all_subscriber_traffic_decryptable": ue.pei.pei in peis,
        "network_impersonation": (
            ue.phase.value == "registered" and ue.serving_gnb == "rog-cell"
        ),
    }
    return world, outcome


def _run_ts02(seed: int, overrides: dict) -> tuple[World, dict]:
    policy = _base_policy(overrides)
    builder = WorldBuilder(seed)
    home = builder.add_network("home", "99902", policy)
    builder.add_sepp(home)
    partner = builder.add_network("partner", "00101", policy)
    builder.add_sepp(partner)
    # the attacker's serving network presents the partner's stolen key
    atk = builder.add_network("atk", "00101", policy)
    stolen_seed = partner.sepp.signing_seed
    atk_sepp = Sepp("atk-sepp", "00101", stolen_seed,
                    peers={"99902": home.sepp.entity_id},
                    allowlist={"99902": home.sepp.verification_key})
    builder.world.add_entity(atk_sepp)
    atk.sepp = atk_sepp
    atk.amf.sepp_id = atk_sepp.entity_id
    builder.add_cell(atk, "atk-cell", strength=10)
    home.sepp.allowlist["00101"] = partner.sepp.verification_key
    home.sepp.peers["00101"] = atk_sepp.entity_id
    ue1 = builder.add_ue("ue1", home, msin="1000000001")
    ue2 = builder.add_ue("ue2", home, msin="1000000002")
    world = builder.world
    if overrides.get("revoke_stolen_sepp"):
        home.sepp.revoke(partner.sepp.verification_key)

    _script(world, "ue1", (10, _REGISTER))
    _script(world, atk.amf.entity_id,
            (5000, messages.AdminSetNetworkName(serving_network_name="5G:00199")))
    _script(world, "ue2", (5100, _REGISTER))
    world.run_until(HORIZON)

    supi1 = format_supi(ue1.identity)
    outcome = {
        "impersonation_as_stolen_plmn": (
            ue1.phase.value == "registered" and ue1.serving_gnb == "atk-cell"
        ),
        "supi_disclosed_to_attacker": any(
            s.supi == supi1 for s in atk.amf.sessions.values()
        ),
        "other_network_name_refused": ue2.phase.value != "registered",
        "name_mismatch_detected": "NetworkNameMismatch" in home.sepp.rejections,
    }
    return world, outcome


def _run_ts03(seed: int, overrides: dict) -> tuple[World, dict]:
    builder, net = _stage(seed, _base_policy(overrides))
    ue1 = builder.add_ue("ue1", net, msin="1000000001")
    ue2 = builder.add_ue("ue2", net, msin="1000000002")
    world = builder.world
    spy = _spy(world, "lab")
    spy.knowledge.grant("stolen_k", ue1.credential.k)
    spy.knowledge.grant("stolen_supi", format_supi(ue1.identity))

    _script(world, "ue1", *_TRAFFIC_A)
    _script(world, "ue2", (3000, _REGISTER), (4000, _PDU_SESSION),
            (4500, messages.TriggerAppData(payload=_MARKER_B)))
    world.run_until(HORIZON)

    held = spy.knowledge.keys
    peis = recover_peis(spy.knowledge.payloads(), held["stolen_k"], held["stolen_supi"],
                        serving_network_name(net.policy.mode, net.plmn))
    outcome = {
        "target_traffic_decrypted": ue1.pei.pei in peis,
        "other_devices_unaffected": ue2.pei.pei not in peis,
    }
    return world, outcome


def _run_ts04(seed: int, overrides: dict) -> tuple[World, dict]:
    builder, net = _stage(seed, _base_policy(overrides))
    ue = builder.add_ue("ue1", net)
    world = builder.world
    spy = _spy(world, "malware")
    _script(world, "ue1", *_TRAFFIC_A)

    def dump_context(w: World) -> None:
        if ue.context is not None:
            spy.knowledge.grant("nas_keys", dict(ue.context.keys))
        if ue.as_keys is not None:
            spy.knowledge.grant("as_keys", dict(ue.as_keys))

    world.schedule_action(4000, "me-context-dump", dump_context)
    _script(world, "ue1", (8000, _PDU_SESSION),
            (8500, messages.TriggerAppData(payload=_MARKER_B)))
    world.run_until(HORIZON)

    stolen = spy.knowledge.keys.get("as_keys", {})
    late_up = decrypt_up_payloads(spy.knowledge.payloads(after=8000), [stolen])
    outcome = {
        "context_extracted": bool(stolen),
        "attacker_decrypts_later_traffic": _MARKER_B in late_up,
    }
    return world, outcome


def _run_ts05(seed: int, overrides: dict) -> tuple[World, dict]:
    blacklist = ["rogue-z"] if overrides.get("blacklist_rogue") else None
    builder, net = _stage(seed, _base_policy(overrides), strength=5, blacklist=blacklist)
    builder.add_rogue_cell(
        "rogue-z", "00101", strength=99,
        reject_cause=CAUSE_ILLEGAL_UE, broadcast_own_key=True,
    )
    ue = builder.add_ue("ue1", net)
    world = builder.world
    probe: dict = {}
    _script(world, "ue1", (10, _REGISTER), (2000, _REGISTER))

    def snapshot(w: World) -> None:
        probe["phase"] = ue.phase.value
        probe["serving"] = ue.serving_gnb

    world.schedule_action(3900, "pre-powercycle-probe", snapshot)
    _script(world, "rogue-z", (4000, messages.AdminSetActive(active=False)))
    _script(world, "ue1", (4100, messages.PowerCycle()), (5000, _REGISTER))
    world.run_until(HORIZON)

    outcome = {
        "dos_persistent": probe.get("phase") == "permanently_deregistered",
        "recovered_after_power_cycle": ue.phase.value == "registered",
        "reattached_to_genuine": (
            probe.get("phase") == "registered" and probe.get("serving") == "cell-a"
        ),
    }
    return world, outcome


def _run_ts06(seed: int, overrides: dict) -> tuple[World, dict]:
    builder, net = _stage(seed, _base_policy(overrides, nas_ciphering=False))
    ue = builder.add_ue("ue1", net)
    world = builder.world
    spy = _spy(world, "catcher")
    _script(world, "ue1", (10, _REGISTER))
    world.run_until(HORIZON)

    home_learned = any(
        isinstance(m, messages.RegistrationRequest)
        and ConcealedIdentity.from_bytes(m.suci).plmn == ue.identity.plmn
        for m in _decode_all(spy.knowledge.payloads())
    )
    outcome = {
        "pei_captured": spy.knowledge.contains(ue.pei.pei.encode()),
        "supi_captured": spy.knowledge.contains(ue.identity.msin.encode()),
        "home_network_learned": home_learned,
    }
    return world, outcome


def _run_ts07(seed: int, overrides: dict) -> tuple[World, dict]:
    builder, net = _stage(seed, _base_policy(overrides))
    builder.add_ue("ue1", net)
    world = builder.world
    world.apply_jam(JamWindow(target_cell="cell-a", t_start=0, t_end=3000))

    first = run_registration(world, "ue1", horizon=2800)
    second = run_registration(world, "ue1", horizon=5000)
    outcome = {
        "jam_window_timeout": first.outcome == "timeout",
        "post_window_success": second.success or first.success,
    }
    return world, outcome


def _run_ts08(seed: int, overrides: dict) -> tuple[World, dict]:
    builder, net = _stage(seed, _base_policy(overrides))
    ue1 = builder.add_ue("ue1", net, msin="1000000001")
    ue2 = builder.add_ue("ue2", net, msin="1000000002")
    world = builder.world

    def tampered_cell(w: World, hook, event):
        if 6000 <= w.time < 12000 and "cell-a" in (event.src, event.dst):
            return Action(drop=True)
        return None

    spy = _spy(world, "implant", capabilities={Capability.DROP}, handler=tampered_cell)
    _script(world, "ue1", (10, _REGISTER), (1000, _PDU_SESSION))

    def lift_radio_keys(w: World) -> None:
        for radio in net.cells[0].ue_contexts.values():
            if radio.ue_id == "ue1" and radio.as_keys is not None:
                spy.knowledge.grant("gnb_keys", dict(radio.as_keys))

    world.schedule_action(4000, "gnb-key-lift", lift_radio_keys)
    _script(world, "ue1", (4500, messages.TriggerAppData(payload=_MARKER_A)))
    _script(world, "ue2", (6100, _REGISTER))
    world.run_until(HORIZON)

    stolen = spy.knowledge.keys.get("gnb_keys", {})
    up = decrypt_up_payloads(spy.knowledge.payloads(), [stolen])
    outcome = {
        "up_traffic_exposed": _MARKER_A in up,
        "nas_protected_from_gnb": not _nas_opened(spy.knowledge.payloads(), stolen),
        "dos_possible": ue2.last_outcome() == "timeout",
    }
    return world, outcome


def _run_ts09(seed: int, overrides: dict) -> tuple[World, dict]:
    builder, net = _stage(seed, _base_policy(overrides))
    ue = builder.add_ue("ue1", net)
    world = builder.world
    spy = _spy(world, "nf-implant")
    _script(world, "ue1", (10, _REGISTER))

    def dump_amf(w: World) -> None:
        for session in net.amf.sessions.values():
            if session.context is not None:
                spy.knowledge.grant("amf_keys", dict(session.context.keys))

    world.schedule_action(4000, "amf-context-dump", dump_amf)
    _script(world, "ue1", (5000, _PDU_SESSION))
    world.run_until(HORIZON)

    stolen = spy.knowledge.keys.get("amf_keys", {})
    outcome = {
        "nas_traffic_exposed": _nas_opened(spy.knowledge.payloads(after=4000), stolen),
        "root_key_not_exposed": (
            "k_ausf" not in stolen and ue.credential.k not in stolen.values()
        ),
    }
    return world, outcome


def _run_ts10(seed: int, overrides: dict) -> tuple[World, dict]:
    builder, net = _stage(seed, _base_policy(overrides))  # links protected by default
    builder.add_ue("ue1", net)
    world = builder.world
    spy = _spy(world, "link-tap", channels={*RADIO_CHANNELS, Channel.N2, Channel.N3})
    spy.knowledge.grant("link:N2", b"lifted")
    spy.knowledge.grant("link:N3", b"lifted")
    _script(world, "ue1", *_TRAFFIC_A)
    world.run_until(HORIZON)

    # the radio keys of the last context setup the tap read on N2
    setups = [m for m in _decode_all(spy.knowledge.payloads(Channel.N2))
              if isinstance(m, messages.InitialContextSetupRequest)]
    chains = [crypto.derive_as_keys(m.k_gnb, m.nea_id, m.nia_id) for m in setups[-1:]]
    up = decrypt_up_payloads(spy.knowledge.payloads(), chains)
    outcome = {
        "k_gnb_extracted": bool(setups),
        "up_traffic_exposed": _MARKER_A in up,
    }
    return world, outcome


def _run_ts11(seed: int, overrides: dict) -> tuple[World, dict]:
    builder, net = _stage(seed, _base_policy(overrides))
    if overrides.get("overlap_cell"):
        builder.add_cell(net, "cell-b", strength=7)
    ue = builder.add_ue("ue1", net)
    world = builder.world
    _script(world, "cell-a", (100, messages.AdminSetActive(active=False)))
    _script(world, "ue1", (200, _REGISTER))
    world.run_until(HORIZON)

    outcome = {
        "coverage_lost": ue.last_outcome() == "no_cell",
        "service_maintained": ue.phase.value == "registered",
    }
    return world, outcome


def _run_ts12(seed: int, overrides: dict) -> tuple[World, dict]:
    capacity = 10
    reserved_victim = overrides.get("reserved_for_victim", 0)
    if not 0 <= reserved_victim <= capacity:
        raise InvalidOverride(f"reserved_for_victim is 0..{capacity}, got {reserved_victim!r}")
    reserved = {"slice-a": capacity - reserved_victim}
    if reserved_victim:
        reserved["slice-b"] = reserved_victim
    builder, _ = _stage(seed, _base_policy(overrides),
                        admission=SliceAdmission(capacity=capacity, reserved=reserved))
    world = builder.world
    flood = _spy(world, "botnet", capabilities={Capability.INJECT})

    rng = world.streams.stream("ts12:inject")
    fleets = (("bot", 10, "slice-a", 100), ("victim", 4, "slice-b", 200))
    for prefix, count, slice_id, start in fleets:
        for i in range(count):
            world.schedule(start + i, Channel.RADIO_RRC, f"{prefix}{i}", "cell-a",
                           messages.encode(messages.RrcConnectionRequest(
                               c_rnti=rng.take(2), slice_id=slice_id,
                               ue_nonce=rng.take(8))),
                           f"adversary:{flood.adversary_id}")
    world.run_until(HORIZON)

    granted = {"bot": 0, "victim": 0}
    for entry in world.transcript.delivered({Channel.RADIO_RRC}):
        if entry.msg_type == "RrcConnectionSetup":
            for prefix in granted:
                if entry.dst.startswith(prefix):
                    granted[prefix] += 1
    outcome = {
        "victim_slice_starved": granted["victim"] == 0,
        "priority_slice_unaffected": granted["bot"] == 10,
    }
    return world, outcome


_RUNNERS = {
    "TS_01": _run_ts01, "TS_02": _run_ts02, "TS_03": _run_ts03,
    "TS_04": _run_ts04, "TS_05": _run_ts05, "TS_06": _run_ts06,
    "TS_07": _run_ts07, "TS_08": _run_ts08, "TS_09": _run_ts09,
    "TS_10": _run_ts10, "TS_11": _run_ts11, "TS_12": _run_ts12,
}


# the mitigations that are not policy keys -> the type of their value: a
# switch, or a slot count (_run_ts12 checks its range)
_KNOBS = {"revoke_stolen_sepp": bool, "blacklist_rogue": bool, "overlap_cell": bool,
          "reserved_for_victim": int}


def _override_value(key: str, value):
    """One override: text is parsed by the key's rule, and a value of any
    other kind must already have the key's declared type (an int, never a
    bool, for an int)."""
    kind = POLICY_TYPES.get(key) or _KNOBS[key]
    if isinstance(value, str):
        if key in POLICY_TYPES:
            return parse_policy_value(key, value)
        return int(value) if kind is int else parse_bool(value)
    if type(value) not in ((int, type(None)) if kind == int | None else (kind,)):
        raise ValueError(f"text or a value of the key's own type expected, got {value!r}")
    return value


def _normalize_overrides(scenario: ThreatScenario, overrides: dict | None) -> dict:
    if not overrides:
        return {}
    allowed = POLICY_TYPES.keys() | set(scenario.mitigations)
    out = {}
    for key, value in overrides.items():
        if key not in allowed:
            raise InvalidOverride(
                f"{key!r} is not a valid override for {scenario.scenario_id}")
        try:
            out[key] = _override_value(key, value)
        except ValueError as exc:
            raise InvalidOverride(f"{key}={value}: {exc}") from None
    return out


def run_scenario(scenario_id: str, overrides: dict | None = None,
                 seed: int = 0) -> ScenarioReport:
    """Build, run and evaluate one scenario; deterministic under the seed."""
    scenario = CATALOG.get(scenario_id)
    if scenario is None:
        raise UnknownScenario(scenario_id)
    normalized = _normalize_overrides(scenario, overrides)
    world, outcome = _RUNNERS[scenario_id](seed, normalized)
    missing = set(scenario.predicates) - set(outcome)
    if missing:
        raise AssertionError(f"{scenario_id} left predicates unset: {missing}")
    return ScenarioReport(
        scenario_id=scenario_id,
        seed=seed,
        outcome={k: outcome[k] for k in scenario.predicates},
        transcript_sha256=world.transcript.sha256(),
        risk=place(scenario_id, scenario.likelihood, scenario.impact),
        overrides=normalized,
    )


def scenario_matrix(ids=None, seeds=(0,), overrides=None) -> dict:
    """Run each (scenario, seed) pair and aggregate outcomes and placements."""
    ids = list(ids) if ids is not None else list(SCENARIO_IDS)
    rows = []
    for scenario_id in ids:
        if scenario_id not in CATALOG:
            raise UnknownScenario(scenario_id)
    for scenario_id in ids:
        reports = [run_scenario(scenario_id, overrides, seed) for seed in seeds]
        rates = {}
        for name in CATALOG[scenario_id].predicates:
            hits = sum(1 for r in reports if r.outcome[name])
            rates[name] = hits / len(reports) if reports else 0.0
        rows.append({
            "scenario": scenario_id,
            "seeds": list(seeds),
            "predicate_rates": rates,
            "risk": reports[0].risk if reports else place(
                scenario_id, CATALOG[scenario_id].likelihood,
                CATALOG[scenario_id].impact),
            "reports": reports,
        })
    return {"rows": rows}
