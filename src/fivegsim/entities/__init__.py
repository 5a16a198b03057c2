"""Protocol entities: UE, RAN nodes, core network functions and SEPPs."""

from .base import Entity
from .core import (
    Amf,
    Ausf,
    Nrf,
    Smf,
    TokenExpired,
    UnknownConsumer,
    UnknownGuti,
    Upf,
    Udm,
    WrongAudience,
    authorize_nf,
    renew_context,
    validate_nf_token,
)
from .ran import GnbNode
from .sepp import (
    NetworkNameMismatch,
    PeerRevoked,
    PeerUnknown,
    Sepp,
)
from .ue import Ue, UePhase

__all__ = [
    "Amf", "Ausf", "Entity", "GnbNode", "NetworkNameMismatch", "Nrf",
    "PeerRevoked", "PeerUnknown", "Sepp", "Smf", "TokenExpired", "Ue",
    "UePhase", "Udm", "UnknownConsumer", "UnknownGuti", "Upf",
    "WrongAudience", "authorize_nf", "renew_context", "validate_nf_token",
]
