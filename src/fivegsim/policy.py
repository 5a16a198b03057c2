"""Operator feature choices that shape a simulated network."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources

from .identity import SuciScheme


@dataclass(frozen=True)
class OperatorPolicy:
    """Per-network security feature switches.

    ``context_renewal_interval`` is in simulated milliseconds; None means
    the network never forces a renewal.  In NSA mode the concealment
    scheme is irrelevant: the legacy attach sends the identity in clear.
    """

    mode: str = "SA"  # "SA" or "NSA"
    nas_ciphering: bool = True
    rrc_ciphering: bool = True
    up_ciphering: bool = True
    up_integrity: bool = False
    n2_link_protected: bool = True
    sbi_link_protected: bool = True
    suci_scheme: SuciScheme = SuciScheme.PROFILE_A
    signed_reject_enabled: bool = False
    context_renewal_interval: int | None = None
    jam_suppression_enabled: bool = False

    def __post_init__(self):
        if self.mode not in ("SA", "NSA"):
            raise ValueError("mode is SA or NSA")

    @property
    def nas_nea(self) -> int:
        return 2 if self.nas_ciphering else 0

    @property
    def nas_nia(self) -> int:
        return 2

    @property
    def rrc_nea(self) -> int:
        return 2 if self.rrc_ciphering else 0

    @property
    def rrc_nia(self) -> int:
        return 2

    def with_overrides(self, **kwargs) -> "OperatorPolicy":
        return replace(self, **kwargs)


def up_algorithms(ciphering: bool, integrity: bool) -> tuple[int, int]:
    """(nea, nia) for a user-plane session: the AES-based algorithms where
    the session's protection flags are on, the null ones elsewhere."""
    return (2 if ciphering else 0), (2 if integrity else 0)


def parse_bool(raw: str) -> bool:
    """The one text-to-boolean rule: true/1/yes/on, false/0/no/off."""
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"boolean expected, got {raw!r}")


_POLICY_PARSERS = {
    "mode": str,
    "nas_ciphering": None,
    "rrc_ciphering": None,
    "up_ciphering": None,
    "up_integrity": None,
    "n2_link_protected": None,
    "sbi_link_protected": None,
    "signed_reject_enabled": None,
    "jam_suppression_enabled": None,
    "suci_scheme": "scheme",
    "context_renewal_interval": "interval",
}


def parse_policy_value(key: str, raw: str):
    """Parse one ``key=value`` policy override from text."""
    if key not in _POLICY_PARSERS:
        raise KeyError(f"unknown policy key {key!r}")
    kind = _POLICY_PARSERS[key]
    if kind is str:
        if raw not in ("SA", "NSA"):
            raise ValueError("mode is SA or NSA")
        return raw
    if kind == "scheme":
        table = {"null": SuciScheme.NULL, "profile_a": SuciScheme.PROFILE_A,
                 "profile_b": SuciScheme.PROFILE_B}
        if raw.lower() not in table:
            raise ValueError(f"unknown suci scheme {raw!r}")
        return table[raw.lower()]
    if kind == "interval":
        if raw.lower() in ("never", "none"):
            return None
        return int(raw)
    try:
        return parse_bool(raw)
    except ValueError:
        raise ValueError(f"boolean expected for {key}, got {raw!r}") from None


POLICY_KEYS = frozenset(_POLICY_PARSERS)


def load_reject_causes() -> dict[int, dict]:
    with resources.files("fivegsim.data").joinpath("reject_causes.json").open("rb") as fh:
        raw = json.load(fh)
    return {int(k): v for k, v in raw["causes"].items()}


REJECT_CAUSES = load_reject_causes()
CAUSE_ILLEGAL_UE = 3
CAUSE_ILLEGAL_ME = 6
CAUSE_CONGESTION = 22


def cause_is_persistent(cause: int) -> bool:
    entry = REJECT_CAUSES.get(cause)
    return bool(entry and entry["persistent"])
