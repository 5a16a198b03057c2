"""fivegsim: a deterministic simulator of 5G registration and
authentication with real identity-concealment and key-derivation
cryptography, an adversary-injection layer, twelve executable threat
scenarios and a risk classification engine."""

__version__ = "0.1.0"

from .identity import (
    ConcealedIdentity,
    EquipmentIdentity,
    LongTermCredential,
    SecurityContext,
    SubscriberIdentity,
    SuciScheme,
    TemporaryIdentity,
    format_pei,
    format_supi,
    parse_pei,
    parse_supi,
)
from .netsim import (
    Action,
    AdversaryHook,
    Capability,
    Channel,
    JamWindow,
    Knowledge,
    SimEvent,
    Transcript,
    World,
)
from .policy import OperatorPolicy
from .risk import (
    ComponentKind,
    Impact,
    Likelihood,
    RiskLevel,
    Stride,
    build_risk_matrix,
    classify_risk,
    render_report,
    stride_exposure,
)
from .scenarios import (
    CATALOG,
    ScenarioReport,
    ThreatScenario,
    UnknownScenario,
    list_scenarios,
    run_scenario,
    scenario_matrix,
)

__all__ = [
    "Action", "AdversaryHook", "CATALOG", "Capability", "Channel",
    "ComponentKind", "ConcealedIdentity", "EquipmentIdentity", "Impact",
    "JamWindow", "Knowledge", "Likelihood",
    "LongTermCredential", "OperatorPolicy", "RiskLevel", "ScenarioReport",
    "SecurityContext", "SimEvent", "Stride", "SubscriberIdentity",
    "SuciScheme", "TemporaryIdentity", "ThreatScenario", "Transcript",
    "UnknownScenario", "World", "build_risk_matrix", "classify_risk",
    "format_pei", "format_supi", "list_scenarios", "parse_pei", "parse_supi",
    "render_report", "run_scenario", "scenario_matrix", "stride_exposure",
]
