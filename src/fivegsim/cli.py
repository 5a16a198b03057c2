"""Command-line interface: run scenarios and registrations, list the
scenario catalog, render risk reports, regenerate known-answer vectors.

Exit codes: 0 success (predicate outcomes are data, not failures),
1 write failure or --expect mismatch, 2 unknown scenario/bad flags or
format, 3 world-file parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import risk, scenarios, vectors
from .flows import run_registration
from .netsim import configure_logging
from .policy import parse_bool
from .worldfile import WorldFileError, load_override_file, load_world_file, single_network_world

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_WORLD = 3


def _parse_kv(pairs: list[str], what: str) -> dict[str, str]:
    out = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"{what} expects key=value, got {pair!r}")
        out[key] = value
    return out


def seed(raw: str) -> int:
    """A world seed: an unsigned 64-bit integer."""
    value = int(raw)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be 0..2^64-1, got {raw}")
    return value


def _write_output(data: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(data)
        return EXIT_OK
    try:
        with open(path, "w") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _scenario_report_text(report: scenarios.ScenarioReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if fmt == "markdown":
        lines = [f"# {report.scenario_id} (seed {report.seed})", ""]
        for name, value in report.outcome.items():
            lines.append(f"- {name}: {'true' if value else 'false'}")
        lines.append("")
        lines.append(f"- risk: {report.risk.likelihood.label} x "
                     f"{report.risk.impact.label} -> {report.risk.level.label}")
        lines.append(f"- transcript sha256: {report.transcript_sha256}")
        return "\n".join(lines) + "\n"
    lines = ["predicate,value"]  # csv, the last of run's --format choices
    lines += [f"{k},{str(v).lower()}" for k, v in report.outcome.items()]
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    try:
        overrides = _parse_kv(args.set, "--set")
        expectations = {name: parse_bool(raw)
                        for name, raw in _parse_kv(args.expect, "--expect").items()}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.scenario == "registration":
        return _cmd_run_registration(args, overrides, expectations)
    if args.transcript:
        print("error: --transcript applies to registration runs only", file=sys.stderr)
        return EXIT_USAGE

    if args.world:
        file_overrides = load_override_file(args.world)
        file_overrides.update(overrides)  # explicit --set wins
        overrides = file_overrides

    try:
        report = scenarios.run_scenario(args.scenario, overrides, args.seed)
    except scenarios.UnknownScenario:
        print(f"error: unknown scenario {args.scenario!r}", file=sys.stderr)
        return EXIT_USAGE
    except scenarios.InvalidOverride as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    status = _write_output(_scenario_report_text(report, args.format), args.out)
    if status != EXIT_OK:
        return status
    for name, expected in expectations.items():
        actual = report.outcome.get(name)
        if actual is None:
            print(f"error: no predicate {name!r} in {args.scenario}", file=sys.stderr)
            return EXIT_USAGE
        if actual != expected:
            print(f"expectation failed: {name}={actual}, expected {expected}",
                  file=sys.stderr)
            return EXIT_FAILURE
    return EXIT_OK


def _cmd_run_registration(args, overrides, expectations) -> int:
    for flag, given in (("--set", overrides), ("--expect", expectations)):
        if given:
            print(f"error: {flag} applies to scenarios only", file=sys.stderr)
            return EXIT_USAGE
    if args.world:
        world, builder = load_world_file(args.world)
    else:
        world, builder = single_network_world(seed=args.seed)
    outcomes = {}
    for ue_id in sorted(builder.ues):
        outcome = run_registration(world, ue_id)
        outcomes[ue_id] = outcome.outcome
    payload = {
        "run": "registration",
        "seed": world.seed,
        "outcomes": outcomes,
        "transcript_sha256": world.transcript.sha256(),
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "markdown":
        text = "\n".join(f"{ue}: {res}" for ue, res in outcomes.items()) + "\n"
    else:  # csv, in the shape of a scenario's predicate,value table
        lines = ["ue,outcome"] + [f"{ue},{res}" for ue, res in outcomes.items()]
        text = "\n".join(lines) + "\n"
    status = _write_output(text, args.out)
    if status != EXIT_OK:
        return status
    if args.transcript:
        status = _write_output(world.transcript.to_jsonl() + "\n", args.transcript)
    return status


def _span(low, high) -> str:
    return low.label if low == high else f"{low.label} to {high.label}"


def _cmd_list_scenarios(args) -> int:
    catalog = scenarios.list_scenarios()
    cells = risk.build_risk_matrix(catalog)
    if args.format == "json":
        records = [{
            "id": s.scenario_id,
            "title": s.title,
            "stride": s.stride,
            "assets": list(s.assets),
            "likelihood": cell.likelihood.label,
            "likelihood_range": [v.label for v in cell.likelihood_range],
            "impact": cell.impact.label,
            "impact_range": [v.label for v in cell.impact_range],
            "predicates": list(s.predicates),
            "mitigations": list(s.mitigations),
        } for s, cell in zip(catalog, cells)]
        return _write_output(json.dumps(records, indent=2) + "\n", args.out)
    lines = [f"{s.scenario_id}  {s.stride:<6} {_span(*cell.likelihood_range):<21} "
             f"{_span(*cell.impact_range):<22} {s.title}"
             for s, cell in zip(catalog, cells)]
    return _write_output("\n".join(lines) + "\n", args.out)


def _cmd_report(args) -> int:
    catalog = scenarios.list_scenarios()
    cells = risk.build_risk_matrix(catalog)
    stride_by_id = {s.scenario_id: s.stride for s in catalog}
    return _write_output(risk.render_report(cells, args.format, stride_by_id).decode(),
                         args.out)


def _cmd_gen_vectors(args) -> int:
    return _write_output(vectors.generate_vectors(), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fivegsim",
        description="Deterministic 5G registration/authentication simulator "
                    "with a threat-scenario harness and risk matrix engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a threat scenario or a registration")
    run_p.add_argument("--scenario", required=True,
                       help="TS_01..TS_12 or 'registration'")
    run_p.add_argument("--world", help="world description file")
    run_p.add_argument("--seed", type=seed, default=0)
    run_p.add_argument("--format", default="json",
                       choices=["json", "markdown", "csv"])
    run_p.add_argument("--out", help="output path (default: stdout)")
    run_p.add_argument("--transcript", help="also write the transcript here")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="policy/mitigation override (repeatable)")
    run_p.add_argument("--expect", action="append", metavar="PREDICATE=BOOL",
                       help="turn the run into a check (repeatable)")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list-scenarios", help="print the scenario catalog")
    list_p.add_argument("--format", default="table", choices=["table", "json"])
    list_p.add_argument("--out")
    list_p.set_defaults(func=_cmd_list_scenarios)

    report_p = sub.add_parser("report", help="render the risk matrix")
    report_p.add_argument("--format", default="markdown",
                          choices=["markdown", "csv", "json"])
    report_p.add_argument("--out")
    report_p.set_defaults(func=_cmd_report)

    vec_p = sub.add_parser("gen-vectors", help="regenerate known-answer vectors")
    vec_p.add_argument("--out")
    vec_p.set_defaults(func=_cmd_gen_vectors)

    return parser


def main(argv: list[str] | None = None) -> int:
    configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WorldFileError as exc:  # from --world, before anything runs
        print(f"error: world file: {exc}", file=sys.stderr)
        return EXIT_WORLD


if __name__ == "__main__":
    sys.exit(main())
