"""Protocol entities: UE, RAN nodes, core network functions and SEPPs."""

from .base import Entity
from .core import (
    Amf,
    Ausf,
    Nrf,
    Smf,
    TokenExpired,
    UnknownConsumer,
    Upf,
    Udm,
    WrongAudience,
    authorize_nf,
    validate_nf_token,
)
from .ran import GnbNode
from .sepp import Sepp
from .ue import Ue, UePhase

__all__ = [
    "Amf", "Ausf", "Entity", "GnbNode", "Nrf", "Sepp", "Smf", "TokenExpired", "Ue",
    "UePhase", "Udm", "UnknownConsumer", "Upf", "WrongAudience", "authorize_nf",
    "validate_nf_token",
]
