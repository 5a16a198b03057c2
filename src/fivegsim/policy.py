"""Operator feature choices that shape a simulated network."""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass
from importlib import resources

from .identity import SuciScheme

Mode = typing.Literal["SA", "NSA"]


@dataclass(frozen=True)
class OperatorPolicy:
    """Per-network security feature switches.

    ``context_renewal_interval`` is in simulated milliseconds, 0 or more;
    None means the network never forces a renewal.  In NSA mode the
    concealment scheme is irrelevant: the legacy attach sends the identity
    in clear.
    """

    mode: Mode = "SA"
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
        if self.mode not in typing.get_args(Mode):
            raise ValueError("mode is SA or NSA")
        interval = self.context_renewal_interval
        if interval is not None and interval < 0:
            raise ValueError(f"context_renewal_interval is 0 or more, got {interval}")


def algorithms(ciphering: bool, integrity: bool) -> tuple[int, int]:
    """The one (nea, nia) rule for NAS, RRC and user-plane links: the
    AES-based algorithms (id 2) where a protection flag is on, the null
    ones (id 0) elsewhere.  NAS and RRC always run integrity."""
    return (2 if ciphering else 0), (2 if integrity else 0)


def serving_network_name(mode: Mode, plmn: str) -> str:
    """The serving network name that K_AUSF and K_SEAF are bound to:
    ``5G:<plmn>`` for a standalone network, ``4G:<plmn>`` for the legacy
    attach of NSA."""
    return f"{'4G' if mode == 'NSA' else '5G'}:{plmn}"


def parse_bool(raw: str) -> bool:
    """The one text-to-boolean rule: true/1/yes/on, false/0/no/off."""
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"boolean expected, got {raw!r}")


# policy key -> declared type, which selects the key's text parser
POLICY_TYPES = typing.get_type_hints(OperatorPolicy)


def parse_policy_value(key: str, raw: str):
    """Parse one ``key=value`` policy override from text."""
    if key not in POLICY_TYPES:
        raise KeyError(f"unknown policy key {key!r}")
    kind = POLICY_TYPES[key]
    if kind is bool:
        try:
            return parse_bool(raw)
        except ValueError:
            raise ValueError(f"boolean expected for {key}, got {raw!r}") from None
    if kind is SuciScheme:
        if raw.upper() not in SuciScheme.__members__:
            raise ValueError(f"unknown suci scheme {raw!r}")
        return SuciScheme[raw.upper()]
    if kind == int | None:
        return None if raw.lower() in ("never", "none") else int(raw)
    if raw not in typing.get_args(kind):  # a Literal of the allowed values
        raise ValueError(f"{key} is {' or '.join(typing.get_args(kind))}, got {raw!r}")
    return raw


def load_reject_causes() -> dict[int, dict]:
    with resources.files("fivegsim.data").joinpath("reject_causes.json").open("rb") as fh:
        raw = json.load(fh)
    return {int(k): v for k, v in raw["causes"].items()}


REJECT_CAUSES = load_reject_causes()
CAUSE_ILLEGAL_UE = 3


def cause_is_persistent(cause: int) -> bool:
    entry = REJECT_CAUSES.get(cause)
    return bool(entry and entry["persistent"])
