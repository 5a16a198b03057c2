"""Every ``def`` in src/ runs on a production path, or a row of ``ALLOWED``
names the test that reaches it.

The production paths are the golden variants at one seed, every CLI
subcommand and format (``--seed``, ``--world``, ``--set``, ``--expect``,
``--out`` and ``--transcript`` included), and one registration with a PDU
session and app data.  They run in one child process, this module run as a
script, which turns a profiler on before it imports the package: the calls
made at import (decorators, ``__init_subclass__``, the data-file loaders)
count too.  The child prints where each code object it saw called starts,
and ``ast`` maps those starts to ``module:Qualname``.

A row of ``ALLOWED`` must name a ``def`` that exists, that no production
path calls and a test that exists: a helper only tests need belongs in
tests/, and a row outlives neither its ``def`` nor the reason for it.
"""

import ast
import contextlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "fivegsim"

# module:Qualname -> a test that reaches it, for a def no production path calls
ALLOWED = {
    # the NRF token path, which no world builds (ROADMAP item 15)
    "fivegsim.entities.core:Nrf.on_nf_token_request":
        "test_entities.py::test_token_flow_over_the_bus",
    "fivegsim.entities.core:Nrf.register_consumer": "test_entities.py::test_token_round_trip",
    "fivegsim.entities.core:Nrf.verification_key": "test_entities.py::test_token_round_trip",
    "fivegsim.entities.core:Smf.on_nf_service_request":
        "test_entities.py::test_token_flow_over_the_bus",
    "fivegsim.entities.core:Smf.producer": "test_entities.py::test_token_flow_over_the_bus",
    "fivegsim.entities.core:authorize_nf": "test_entities.py::test_token_round_trip",
    "fivegsim.entities.core:validate_nf_token": "test_entities.py::test_token_round_trip",
    # exported in fivegsim.__all__
    "fivegsim.identity:format_pei": "test_identity.py::test_pei_round_trip_randomized",
    "fivegsim.identity:parse_pei": "test_identity.py::test_pei_round_trip_randomized",
    "fivegsim.risk:stride_exposure": "test_risk.py::test_exposure_table",
    "fivegsim.scenarios:scenario_matrix": "test_scenarios.py::test_matrix_full_catalog",
    # the wire classes' shared __eq__ and __repr__
    "fivegsim.messages:_eq": "test_messages.py::test_shared_eq_and_repr_act_as_the_generated_ones",
    "fivegsim.messages:_repr":
        "test_messages.py::test_shared_eq_and_repr_act_as_the_generated_ones",
    # error paths
    "fivegsim.worldfile:_Values.__missing__":
        "test_cli.py::test_world_file_key_an_entity_needs_is_named_with_its_section",
    # protocol answers to a loss, a refusal or a forgery
    "fivegsim.entities.core:Amf._in_uplink_nas":
        "test_entities.py::test_garbage_injection_never_crashes_entities",
    "fivegsim.entities.core:Amf._resend_accept":
        "test_entities.py::test_lost_registration_accept_is_resent_without_a_second_context",
    "fivegsim.entities.core:Amf.on_authentication_failure":
        "test_state_table.py::test_an_authentication_failure_ends_the_challenge_with_its_cause",
    "fivegsim.entities.core:Ausf.on_udm_auth_reject":
        "test_entities.py::test_unknown_subscriber_is_rejected_by_the_home_network",
    "fivegsim.entities.ue:Ue.on_rrc_connection_reject":
        "test_entities.py::test_full_slice_admission_refuses_the_connection",
}

# one file with every section kind and every key a cell, a UE or an
# adversary reads, a [DEFAULT] key among them
WORLD = """
[DEFAULT]
network = home

[world]
seed = 3

[policy]
nas_ciphering = true

[network home]
plmn = 00101

[cell cell-a]
strength = 10

[cell rogue-1]
rogue = true
strength = 1
reject_cause = 3
broadcast_own_key = false

[ue ue1]
msin = 5550001111
pei = 490154203237518
slice = embb

[adversary eve]
channels = RadioRrc, RadioNas
capabilities = Observe
"""


def defs() -> dict[tuple[str, int], str]:
    """(path, first line of its code) -> module:Qualname of every ``def`` in
    the package; a decorated function's code starts at its first decorator."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), first] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        walk(ast.parse(path.read_text()), path,
             module.removesuffix(".__init__") + ":")
    return out


def _production_paths(tmp: pathlib.Path) -> None:
    import test_golden
    from fivegsim import cli, flows, worldfile

    for name in test_golden.VARIANTS:
        test_golden.digest(f"{name}@0")

    world_file = tmp / "world.ini"
    world_file.write_text(WORLD)
    runs = [
        ["run", "--scenario", "TS_05", "--seed", "42", "--set", "signed_reject_enabled=true",
         "--expect", "dos_persistent=false"],
        ["run", "--scenario", "TS_01", "--format", "markdown"],
        ["run", "--scenario", "TS_01", "--format", "csv", "--out", str(tmp / "ts01.csv")],
        ["run", "--scenario", "TS_06", "--world", str(world_file)],
        ["run", "--scenario", "registration", "--seed", "1",
         "--transcript", str(tmp / "transcript.jsonl")],
        ["run", "--scenario", "registration", "--format", "markdown"],
        ["run", "--scenario", "registration", "--format", "csv", "--world", str(world_file)],
        ["list-scenarios"],
        ["list-scenarios", "--format", "json"],
        *(["report", "--format", fmt] for fmt in ("markdown", "csv", "json")),
        ["gen-vectors", "--out", str(tmp / "vectors.txt")],
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv

    world, _ = worldfile.single_network_world(seed=0)
    assert flows.run_registration(world, "ue1").success
    assert flows.establish_user_plane(world, "ue1")
    flows.send_app_data(world, "ue1", b"\x00" * 1400)


def record() -> list[tuple[str, int]]:
    """Run the production paths in this process under a profiler, and return
    (file, first line) of each package code object it saw called."""
    import pytest  # noqa: F401  test_golden's import, before the profiler sees calls

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            _production_paths(pathlib.Path(tmp))
    finally:
        sys.setprofile(None)
    return sorted({(code.co_filename, code.co_firstlineno) for code in seen
                   if code.co_filename.startswith(str(PACKAGE))})


def test_every_def_runs_in_production_or_is_allowed():
    child = subprocess.run([sys.executable, __file__], capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    reached = {tuple(start) for start in json.loads(child.stdout)}
    table = defs()
    called = {qualname for start, qualname in table.items() if start in reached}
    unreached = sorted(set(table.values()) - called - ALLOWED.keys())
    assert not unreached, f"no production path calls {unreached}"
    stale = sorted(ALLOWED.keys() - set(table.values()))
    assert not stale, f"allowed defs that no longer exist: {stale}"
    reached_now = sorted(ALLOWED.keys() & called)
    assert not reached_now, f"allowed defs that production now calls: {reached_now}"
    tests_dir = pathlib.Path(__file__).parent
    missing = sorted(test for test in set(ALLOWED.values())
                     if f"def {test.partition('::')[2]}(" not in
                     (tests_dir / test.partition("::")[0]).read_text())
    assert not missing, f"allow-list rows name tests that do not exist: {missing}"


if __name__ == "__main__":
    print(json.dumps(record()))
