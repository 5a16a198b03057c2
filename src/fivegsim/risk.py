"""Threat-category exposure per component kind, ordinal likelihood/impact
scales, the risk classification grid and report rendering."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass


class Stride(enum.Enum):
    SPOOFING = "S"
    TAMPERING = "T"
    REPUDIATION = "R"
    INFORMATION_DISCLOSURE = "I"
    DENIAL_OF_SERVICE = "D"
    ELEVATION_OF_PRIVILEGE = "E"


def stride_set(letters: str) -> frozenset[Stride]:
    return frozenset(Stride(letter) for letter in letters)


class ComponentKind(enum.Enum):
    EXTERNAL_ENTITY = "ExternalEntity"
    PROCESS = "Process"
    DATA_STORE = "DataStore"
    DATA_FLOW = "DataFlow"
    DEVICE = "Device"


_EXPOSURE: dict[ComponentKind, frozenset[Stride]] = {
    ComponentKind.EXTERNAL_ENTITY: stride_set("SR"),
    ComponentKind.PROCESS: stride_set("STRIDE"),
    ComponentKind.DATA_STORE: stride_set("TID"),
    ComponentKind.DATA_FLOW: stride_set("TID"),
    ComponentKind.DEVICE: stride_set("STIDE"),
}


def stride_exposure(kind: ComponentKind) -> frozenset[Stride]:
    """Threat categories a component kind is exposed to."""
    return _EXPOSURE[kind]


class Likelihood(enum.IntEnum):
    VERY_UNLIKELY = 0
    UNLIKELY = 1
    PROBABLE = 2
    VERY_PROBABLE = 3
    ALMOST_CERTAIN = 4

    @property
    def label(self) -> str:
        return _LIKELIHOOD_LABELS[self]


_LIKELIHOOD_LABELS = {
    Likelihood.VERY_UNLIKELY: "Very unlikely",
    Likelihood.UNLIKELY: "Unlikely",
    Likelihood.PROBABLE: "Probable",
    Likelihood.VERY_PROBABLE: "Very probable",
    Likelihood.ALMOST_CERTAIN: "Almost certain",
}


class Impact(enum.IntEnum):
    LOW = 0
    MODERATE = 1
    HIGH = 2
    VERY_HIGH = 3
    CRITICAL = 4
    CATASTROPHIC = 5

    @property
    def label(self) -> str:
        return _IMPACT_LABELS[self]


_IMPACT_LABELS = {
    Impact.LOW: "Low",
    Impact.MODERATE: "Moderate",
    Impact.HIGH: "High",
    Impact.VERY_HIGH: "Very High",
    Impact.CRITICAL: "Critical",
    Impact.CATASTROPHIC: "Catastrophic",
}


class RiskLevel(enum.IntEnum):
    LOW = 0
    MEDIUM = 1
    HIGH = 2
    EXTREME = 3

    @property
    def label(self) -> str:
        return self.name.capitalize()


def classify_risk(likelihood: Likelihood, impact: Impact) -> RiskLevel:
    """Additive grid over the 0-based ordinal indexes.

    score <= 2 -> Low; 3..5 -> Medium; 6..7 -> High; >= 8 -> Extreme.
    Monotone in both arguments by construction.
    """
    score = int(likelihood) + int(impact)
    if score <= 2:
        return RiskLevel.LOW
    if score <= 5:
        return RiskLevel.MEDIUM
    if score <= 7:
        return RiskLevel.HIGH
    return RiskLevel.EXTREME


@dataclass(frozen=True)
class RiskCell:
    """Placement of one scenario on the grid; ranges sit at their upper bound."""

    scenario_id: str
    likelihood: Likelihood
    impact: Impact
    level: RiskLevel
    likelihood_range: tuple[Likelihood, Likelihood]
    impact_range: tuple[Impact, Impact]


def place(scenario_id: str,
          likelihood: Likelihood | tuple[Likelihood, Likelihood],
          impact: Impact | tuple[Impact, Impact]) -> RiskCell:
    lo_l, hi_l = likelihood if isinstance(likelihood, tuple) else (likelihood, likelihood)
    lo_i, hi_i = impact if isinstance(impact, tuple) else (impact, impact)
    if lo_l > hi_l or lo_i > hi_i:
        raise ValueError("range endpoints out of order")
    return RiskCell(
        scenario_id=scenario_id, likelihood=hi_l, impact=hi_i,
        level=classify_risk(hi_l, hi_i),
        likelihood_range=(lo_l, hi_l), impact_range=(lo_i, hi_i),
    )


def build_risk_matrix(scenarios) -> list[RiskCell]:
    """One cell per scenario record (anything with id/likelihood/impact)."""
    cells = []
    for scenario in scenarios:
        cells.append(place(scenario.scenario_id, scenario.likelihood, scenario.impact))
    return cells


class UnsupportedFormat(ValueError):
    pass


def render_report(cells: list[RiskCell], fmt: str,
                  stride_by_id: dict[str, str] | None = None) -> bytes:
    if fmt == "markdown":
        return _render_markdown(cells).encode()
    if fmt == "csv":
        return _render_csv(cells, stride_by_id or {}).encode()
    if fmt == "json":
        return _render_json(cells, stride_by_id or {}).encode()
    raise UnsupportedFormat(fmt)


def _render_markdown(cells: list[RiskCell]) -> str:
    grid: dict[tuple[Likelihood, Impact], list[str]] = {}
    for cell in cells:
        grid.setdefault((cell.likelihood, cell.impact), []).append(cell.scenario_id)
    lines = ["# Risk matrix", ""]
    header = "| Likelihood \\ Impact | " + " | ".join(i.label for i in Impact) + " |"
    lines.append(header)
    lines.append("|" + "---|" * (len(Impact) + 1))
    for likelihood in reversed(Likelihood):
        row = [f"| **{likelihood.label}** "]
        for impact in Impact:
            ids = sorted(grid.get((likelihood, impact), []))
            row.append(f"| {', '.join(ids)} " if ids else "| ")
        lines.append("".join(row) + "|")
    lines.append("")
    for cell in sorted(cells, key=lambda c: c.scenario_id):
        span = ""
        if cell.impact_range[0] != cell.impact_range[1]:
            span = f" (impact {cell.impact_range[0].label} to {cell.impact_range[1].label})"
        if cell.likelihood_range[0] != cell.likelihood_range[1]:
            span += (f" (likelihood {cell.likelihood_range[0].label}"
                     f" to {cell.likelihood_range[1].label})")
        lines.append(f"- {cell.scenario_id}: {cell.likelihood.label} x "
                     f"{cell.impact.label} -> {cell.level.label}{span}")
    return "\n".join(lines) + "\n"


def _render_csv(cells: list[RiskCell], stride_by_id: dict) -> str:
    lines = ["id,stride,likelihood,impact_lo,impact_hi,level"]
    for cell in cells:
        lines.append(",".join([
            cell.scenario_id, stride_by_id.get(cell.scenario_id, ""),
            cell.likelihood.label, cell.impact_range[0].label,
            cell.impact_range[1].label, cell.level.label,
        ]))
    return "\n".join(lines) + "\n"


def _render_json(cells: list[RiskCell], stride_by_id: dict) -> str:
    records = []
    for cell in cells:
        records.append({
            "id": cell.scenario_id,
            "stride": stride_by_id.get(cell.scenario_id, ""),
            "likelihood": cell.likelihood.label,
            "likelihood_range": [r.label for r in cell.likelihood_range],
            "impact": cell.impact.label,
            "impact_range": [r.label for r in cell.impact_range],
            "level": cell.level.label,
        })
    return json.dumps(records, indent=2, sort_keys=True) + "\n"
