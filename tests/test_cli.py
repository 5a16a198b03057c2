import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from fivegsim.cli import main
from fivegsim.flows import run_registration
from fivegsim.worldfile import WorldFileError, load_world_file

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parents[1] / "src"


# one network with one honest cell and one UE
WORLD_HEAD = """
[network home]
plmn = 00101

[cell cell-a]
network = home

[ue ue1]
network = home

"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_scenario_exit_zero_and_outcome(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "TS_05", "--seed", "42",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"]["dos_persistent"] is True
    assert payload["seed"] == 42


def test_run_unknown_scenario_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--scenario", "TS_99")
    assert code == 2
    assert "unknown scenario" in err


def test_run_with_mitigation_override(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "TS_05",
                           "--set", "signed_reject_enabled=true", "--seed", "42")
    assert code == 0
    assert json.loads(out)["outcome"]["dos_persistent"] is False


def test_unknown_override_rejected_before_execution(capsys):
    code, _, err = run_cli(capsys, "run", "--scenario", "TS_05",
                           "--set", "warp_drive=on")
    assert code == 2
    assert "warp_drive" in err


@pytest.mark.parametrize("setting", [
    "nas_ciphering=maybe", "mode=XX", "context_renewal_interval=soon",
    "suci_scheme=rot13", "overlap_cell=maybe",
])
def test_malformed_override_value_exits_2(capsys, setting):
    code, _, err = run_cli(capsys, "run", "--scenario", "TS_11", "--set", setting)
    assert code == 2
    assert err.startswith("error: ") and setting.split("=")[0] in err


@pytest.mark.parametrize("scenario,setting", [
    ("TS_12", "reserved_for_victim=yes"), ("TS_12", "reserved_for_victim=-3"),
    ("TS_12", "reserved_for_victim=11"), ("TS_11", "overlap_cell=7"),
    ("TS_02", "revoke_stolen_sepp=2"), ("TS_05", "blacklist_rogue=-1"),
])
def test_mitigation_knob_out_of_its_type_exits_2(capsys, scenario, setting):
    # a switch reads only as a boolean, the TS_12 reservation only as 0..10 slots
    code, _, err = run_cli(capsys, "run", "--scenario", scenario, "--set", setting)
    assert code == 2
    assert err.startswith("error: ") and setting.split("=")[0] in err


def test_transcript_on_a_scenario_run_exits_2(capsys, tmp_path):
    transcript = tmp_path / "events.jsonl"
    code, out, err = run_cli(capsys, "run", "--scenario", "TS_05",
                             "--transcript", str(transcript))
    assert code == 2 and out == ""
    assert "--transcript applies to registration runs only" in err
    assert not transcript.exists()


@pytest.mark.parametrize("scenario", ["TS_01", "registration"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), "2**64"])
def test_out_of_range_seed_exits_2(capsys, scenario, seed):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", scenario, "--seed", seed])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--seed" in errors[0]


def test_largest_seed_runs(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "TS_01",
                           "--seed", str(2**64 - 1))
    assert code == 0
    assert json.loads(out)["seed"] == 2**64 - 1


def test_negative_renewal_interval_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--scenario", "TS_04",
                           "--set", "context_renewal_interval=-5")
    assert code == 2
    assert err.startswith("error: ") and "context_renewal_interval" in err


def test_expectation_pass_and_fail(capsys):
    code, _, _ = run_cli(capsys, "run", "--scenario", "TS_05", "--seed", "42",
                         "--expect", "dos_persistent=true")
    assert code == 0
    code, _, err = run_cli(capsys, "run", "--scenario", "TS_05", "--seed", "42",
                           "--expect", "dos_persistent=false")
    assert code == 1
    assert "expectation failed" in err


def test_expectation_uses_the_policy_boolean_parser(capsys):
    code, _, _ = run_cli(capsys, "run", "--scenario", "TS_05", "--seed", "42",
                         "--expect", "dos_persistent=on")
    assert code == 0
    code, _, err = run_cli(capsys, "run", "--scenario", "TS_05", "--seed", "42",
                           "--expect", "dos_persistent=junk")
    assert code == 2
    assert "junk" in err


def test_run_outputs_deterministic(capsys):
    _, first, _ = run_cli(capsys, "run", "--scenario", "TS_07", "--seed", "3")
    _, second, _ = run_cli(capsys, "run", "--scenario", "TS_07", "--seed", "3")
    assert first == second


def test_list_scenarios_table(capsys):
    code, out, _ = run_cli(capsys, "list-scenarios")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 12
    assert lines[0].startswith("TS_01")
    ts04 = next(line for line in lines if line.startswith("TS_04"))
    assert "Probable" in ts04 and "High" in ts04


def test_list_scenarios_json(capsys):
    code, out, _ = run_cli(capsys, "list-scenarios", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 12
    ids = [r["id"] for r in records]
    assert ids == [f"TS_{i:02d}" for i in range(1, 13)]


def test_report_csv_thirteen_lines(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "report", "--format", "csv",
                         "--out", str(out_file))
    assert code == 0
    assert len(out_file.read_text().strip().split("\n")) == 13


def test_report_markdown_grid(capsys):
    code, out, _ = run_cli(capsys, "report", "--format", "markdown")
    assert code == 0
    assert out.count("| **") == 5  # one row per likelihood level


def test_report_xml_unsupported(capsys):
    # argparse refuses a format that render_report does not render
    with pytest.raises(SystemExit) as exc:
        main(["report", "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err


def test_gen_vectors_matches_checked_in_copy(capsys, tmp_path):
    out_file = tmp_path / "vectors.txt"
    code, _, _ = run_cli(capsys, "gen-vectors", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == (DATA / "known_answers.txt").read_text()


def test_gen_vectors_repeatable(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli(capsys, "gen-vectors", "--out", str(a))
    run_cli(capsys, "gen-vectors", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_vectors_write_failure_exits_1(capsys):
    code, _, err = run_cli(capsys, "gen-vectors", "--out",
                           "/nonexistent-dir/vectors.txt")
    assert code == 1
    assert "cannot write" in err


def test_registration_run_default_world(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "registration",
                           "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcomes"] == {"ue1": "registered"}
    assert payload["transcript_sha256"]


def test_expect_on_a_registration_run_exits_2(capsys):
    # a registration run has no predicates, so the asked-for check cannot run
    code, out, err = run_cli(capsys, "run", "--scenario", "registration",
                             "--expect", "nonsense=true")
    assert code == 2 and out == ""
    assert "--expect applies to scenarios only" in err


def test_registration_run_csv_has_a_header_row(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "registration",
                           "--seed", "5", "--format", "csv")
    assert code == 0
    assert out == "ue,outcome\nue1,registered\n"


def test_registration_run_world_file(capsys, tmp_path):
    world_file = tmp_path / "world.ini"
    world_file.write_text("""
[world]
seed = 3

[policy]
nas_ciphering = true
suci_scheme = profile_b

[network home]
plmn = 00101

[cell cell-a]
network = home
strength = 10

[ue ue1]
network = home
msin = 5550001111
""")
    code, out, _ = run_cli(capsys, "run", "--scenario", "registration",
                           "--world", str(world_file))
    assert code == 0
    assert json.loads(out)["outcomes"]["ue1"] == "registered"


def test_registration_run_reports_the_seed_of_its_world_file(capsys, tmp_path):
    world_file = tmp_path / "world.ini"
    world_file.write_text(WORLD_HEAD + "[world]\nseed = 3\n")
    world, builder = load_world_file(str(world_file))
    run_registration(world, "ue1")
    for seed in (["--seed", "9"], []):
        code, out, _ = run_cli(capsys, "run", "--scenario", "registration",
                               "--world", str(world_file), *seed, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 3
        assert payload["transcript_sha256"] == world.transcript.sha256()


def test_world_file_rogue_cell_reads_the_policy_booleans(capsys, tmp_path):
    world_file = tmp_path / "world.ini"
    world_file.write_text(WORLD_HEAD + "[cell rogue-1]\nnetwork = home\nrogue = On\n"
                          "broadcast_own_key = yes\n")
    world, _ = load_world_file(str(world_file))
    rogue = world.entities["rogue-1"]
    assert rogue.reject_cause == 3 and len(rogue.broadcast_info().verification_key) == 32
    assert world.entities["cell-a"].reject_cause is None
    world_file.write_text(WORLD_HEAD + "[cell rogue-1]\nnetwork = home\nrogue = maybe\n")
    code, _, err = run_cli(capsys, "run", "--scenario", "registration",
                           "--world", str(world_file))
    assert code == 3
    assert "maybe" in err


def test_world_file_adversary_on_the_internal_channel_exits_3(capsys, tmp_path):
    world_file = tmp_path / "world.ini"
    world_file.write_text(WORLD_HEAD + "[adversary eve]\nchannels = Internal\n")
    code, _, err = run_cli(capsys, "run", "--scenario", "registration",
                           "--world", str(world_file))
    assert code == 3
    assert "wire channels only" in err


def test_world_file_parse_error_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[cell orphan]\nnetwork = nowhere\n")
    code, _, err = run_cli(capsys, "run", "--scenario", "registration",
                           "--world", str(bad))
    assert code == 3
    assert "world file" in err


@pytest.mark.parametrize("scenario", ["registration", "TS_01"])
@pytest.mark.parametrize("text", [
    b"seed = 1\n",  # no section header
    b"[network a]\nplmn = 00101\n[network a]\nplmn = 00102\n",  # a repeated section
    b"[world]\nseed = 1\nseed = 2\n",  # a repeated key
    b"\xff\xfe[world]\n",  # not text
], ids=["no-header", "repeated-section", "repeated-key", "binary"])
def test_world_file_that_is_not_ini_exits_3(capsys, tmp_path, scenario, text):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(text)
    code, _, err = run_cli(capsys, "run", "--scenario", scenario, "--world", str(bad))
    assert code == 3
    assert err.startswith("error: world file: ")


@pytest.mark.parametrize("section,error", [
    ("[cell]\nnetwork = home\n", "needs an id"),
    ("[ue]\nnetwork = home\n", "needs an id"),
    ("[network]\nplmn = 00102\n", "needs an id"),
    ("[world 2]\nseed = 1\n", "takes no name"),
    ("[cel cell-b]\nnetwork = home\n", "unknown section kind"),
    ("[cell cell-b]\nnetwork = home\nstrenght = 5\n", "unknown key 'strenght'"),
    ("[ue ue2]\nnetwork = home\nslice_id = embb\n", "unknown key 'slice_id'"),
    ("[world]\nsed = 1\n", "unknown key 'sed'"),
    ("[DEFAULT]\nnetwork = home\nstrenght = 5\n", "[DEFAULT]: unknown key 'strenght'"),
    # [policy] reads only its own keys, so a policy key in [DEFAULT] would be lost
    ("[DEFAULT]\nnetwork = home\nnas_ciphering = false\n",
     "[DEFAULT]: unknown key 'nas_ciphering'"),
    # only a rogue cell rejects attaches
    ("[cell cell-b]\nnetwork = home\nreject_cause = 7\n", "unknown key 'reject_cause'"),
    ("[cell cell-b]\nnetwork = home\nrogue = no\nbroadcast_own_key = yes\n",
     "unknown key 'broadcast_own_key'"),
], ids=["bare-cell", "bare-ue", "bare-network", "named-world", "unknown-kind",
        "cell-key", "ue-key", "world-key", "default-key", "default-policy-key",
        "genuine-cell-reject-cause", "genuine-cell-own-key"])
@pytest.mark.parametrize("scenario", ["registration", "TS_06"])
def test_world_file_section_or_key_it_does_not_read_exits_3(capsys, tmp_path, scenario,
                                                             section, error):
    world_file = tmp_path / "world.ini"
    world_file.write_text(WORLD_HEAD + section)
    code, _, err = run_cli(capsys, "run", "--scenario", scenario, "--world", str(world_file))
    assert code == 3
    assert err.startswith("error: world file: ") and error in err


@pytest.mark.parametrize("text, error", [
    (WORLD_HEAD.replace("network = home\n\n[ue", "network = home\nstrength = strong\n\n[ue"),
     "[cell cell-a] strength: invalid literal for int() with base 10: 'strong'"),
    (WORLD_HEAD + "[adversary eve]\nchannels = RadioNas\ncapabilities = Observe, Teleport\n",
     "[adversary eve] capabilities: 'Teleport' is not a valid Capability"),
    # a 5GMM cause is one octet
    *((WORLD_HEAD + "[cell rogue-z]\nnetwork = home\nrogue = true\nbroadcast_own_key = true\n"
       f"reject_cause = {cause}\n",
       f"[cell rogue-z] reject_cause: {cause} is not one octet (0..255)") for cause in (300, -1)),
    # a PLMN is an MCC of 3 digits and an MNC of 2 or 3
    *((WORLD_HEAD.replace("plmn = 00101", f"plmn = {plmn}"),
       f"[network home] plmn: '{plmn}' is not 5 or 6 decimal digits")
      for plmn in ("abc", "0010", "0010100", "00a01")),
    # a world seed is 64 bits
    *((f"[world]\nseed = {seed}\n" + WORLD_HEAD,
       f"[world] seed: {seed} is not an unsigned 64-bit integer (0..2^64-1)")
      for seed in (-1, 2**64)),
], ids=["strength", "capabilities", "reject-cause-300", "reject-cause-negative",
        "plmn-letters", "plmn-4-digits", "plmn-7-digits", "plmn-mixed",
        "seed-negative", "seed-2^64"])
@pytest.mark.parametrize("scenario", ["registration", "TS_06"])
def test_world_file_value_error_names_its_section_and_key(capsys, tmp_path, scenario,
                                                          text, error):
    world_file = tmp_path / "world.ini"
    world_file.write_text(text)
    code, out, err = run_cli(capsys, "run", "--scenario", scenario, "--world", str(world_file))
    assert (code, out, err) == (3, "", f"error: world file: {error}\n")


@pytest.mark.parametrize("ue2, error", [
    # a second UE of one SUPI would replace the first UE's key at the UDM
    ("msin = 0000000001", "msin: imsi-001010000000001 is already a subscriber of home"),
    ("msin = 12345678901", "msin must be 1..10 digits"),
    ("pei = 12", "pei must be exactly 15 digits"),
], ids=["msin-repeated", "msin-11-digits", "pei-2-digits"])
@pytest.mark.parametrize("scenario", ["registration", "TS_06"])
def test_world_file_ue_identity_error_names_its_section(capsys, tmp_path, ue2, error,
                                                        scenario):
    world_file = tmp_path / "world.ini"
    world_file.write_text(WORLD_HEAD.replace("[ue ue1]\nnetwork = home\n",
                                             "[ue ue1]\nnetwork = home\nmsin = 0000000001\n")
                          + f"[ue ue2]\nnetwork = home\n{ue2}\n")
    code, out, err = run_cli(capsys, "run", "--scenario", scenario,
                             "--world", str(world_file))
    assert (code, out, err) == (3, "", f"error: world file: [ue ue2] {error}\n")


def test_world_file_key_an_entity_needs_is_named_with_its_section(tmp_path):
    world_file = tmp_path / "world.ini"
    world_file.write_text(WORLD_HEAD + "[adversary eve]\ncapabilities = Observe\n")
    with pytest.raises(WorldFileError, match=r"^\[adversary eve\]: missing key 'channels'$"):
        load_world_file(str(world_file))


@pytest.mark.parametrize("scenario", ["registration", "TS_06"])
@pytest.mark.parametrize("section", ["cell orphan", "ue orphan"])
def test_world_file_unknown_network_is_named_with_its_section(capsys, tmp_path, section,
                                                              scenario):
    world_file = tmp_path / "world.ini"
    world_file.write_text(WORLD_HEAD + f"[{section}]\nnetwork = nowhere\n")
    code, out, err = run_cli(capsys, "run", "--scenario", scenario,
                             "--world", str(world_file))
    assert (code, out, err) == (
        3, "", f"error: world file: [{section}] network: unknown network 'nowhere'\n")


def test_world_file_rogue_keys_from_default_reach_only_rogue_cells(tmp_path):
    world_file = tmp_path / "world.ini"
    world_file.write_text("[DEFAULT]\nnetwork = home\nreject_cause = 7\n" + WORLD_HEAD
                          + "[cell rogue-1]\nrogue = true\n")
    world, _ = load_world_file(str(world_file))
    assert world.entities["rogue-1"].reject_cause == 7
    assert world.entities["cell-a"].reject_cause is None


def test_world_file_takes_default_keys_and_scenario_overrides(tmp_path):
    world_file = tmp_path / "world.ini"
    world_file.write_text("[DEFAULT]\nnetwork = home\n" + WORLD_HEAD
                          + "[ue ue2]\nmsin = 5550001111\n[overrides]\noverlap_cell = true\n")
    world, _ = load_world_file(str(world_file))
    assert run_registration(world, "ue2").success


@pytest.mark.parametrize("scenario, outcome", [
    ("registration", ("outcomes", "ue1", "registered")),
    ("TS_06", ("outcome", "pei_captured", False)),  # the file's nas_ciphering took
], ids=["registration", "TS_06"])
def test_world_file_default_keys_stay_out_of_policy(capsys, tmp_path, scenario, outcome):
    # [DEFAULT] gives its keys to the cells and UEs; [policy] reads only its own
    world_file = tmp_path / "world.ini"
    world_file.write_text("[DEFAULT]\nnetwork = home\n[policy]\nnas_ciphering = true\n"
                          + WORLD_HEAD)
    code, out, err = run_cli(capsys, "run", "--scenario", scenario, "--world", str(world_file))
    assert (code, err) == (0, "")
    section, key, value = outcome
    assert json.loads(out)[section][key] == value


def test_world_file_policy_key_also_in_default_exits_3(capsys, tmp_path):
    # a [policy] section that sets the key too does not make the [DEFAULT] one readable
    world_file = tmp_path / "world.ini"
    world_file.write_text("[DEFAULT]\nnetwork = home\nnas_ciphering = true\n"
                          "[policy]\nnas_ciphering = false\n" + WORLD_HEAD)
    with pytest.raises(WorldFileError, match="unknown key 'nas_ciphering'"):
        load_world_file(str(world_file))
    code, out, err = run_cli(capsys, "run", "--scenario", "TS_06", "--world", str(world_file))
    assert (code, out) == (3, "")
    assert err == "error: world file: [DEFAULT]: unknown key 'nas_ciphering'\n"


@pytest.mark.parametrize("scenario", ["registration", "TS_04"])
def test_world_file_unknown_policy_key_is_named_once_quoted(capsys, tmp_path, scenario):
    world_file = tmp_path / "world.ini"
    world_file.write_text("[policy]\nbogus = 1\n" + WORLD_HEAD)
    code, _, err = run_cli(capsys, "run", "--scenario", scenario,
                           "--world", str(world_file))
    assert (code, err) == (3, "error: world file: unknown policy key 'bogus'\n")


def test_world_file_mitigation_belongs_in_overrides_not_policy(capsys, tmp_path):
    # [policy] takes operator policy keys alone, in a scenario run too
    world_file = tmp_path / "world.ini"
    for section, code in (("policy", 3), ("overrides", 0)):
        world_file.write_text(f"[{section}]\noverlap_cell = true\n")
        assert run_cli(capsys, "run", "--scenario", "TS_11", "--world", str(world_file),
                       "--expect", "coverage_lost=false")[0] == code, section


@pytest.mark.parametrize("scenario, text, code", [
    ("registration", WORLD_HEAD.replace("network = home", "network = ho%me"), 3),
    ("TS_06", "[policy]\nnas_ciphering = 5%\n", 3),
], ids=["registration", "TS_06"])
def test_world_file_values_are_taken_as_written(capsys, tmp_path, scenario, text, code):
    # a "%" is a character, not the start of an interpolation that raises
    world_file = tmp_path / "world.ini"
    world_file.write_text(text)
    assert run_cli(capsys, "run", "--scenario", scenario, "--world", str(world_file))[0] == code


@pytest.mark.parametrize("scenario", ["registration", "TS_04"])
def test_world_file_negative_renewal_interval_exits_3(capsys, tmp_path, scenario):
    world_file = tmp_path / "world.ini"
    world_file.write_text("[policy]\ncontext_renewal_interval = -5\n" + WORLD_HEAD)
    code, _, err = run_cli(capsys, "run", "--scenario", scenario,
                           "--world", str(world_file))
    assert code == 3
    assert "context_renewal_interval" in err


def test_missing_world_file_exits_3(capsys):
    code, _, _ = run_cli(capsys, "run", "--scenario", "registration",
                         "--world", "/does/not/exist.ini")
    assert code == 3


def test_transcript_export(capsys, tmp_path):
    transcript = tmp_path / "events.jsonl"
    code, out, _ = run_cli(capsys, "run", "--scenario", "registration",
                           "--seed", "1", "--transcript", str(transcript))
    assert code == 0
    lines = transcript.read_text().strip().split("\n")
    assert lines
    first = json.loads(lines[0])
    assert {"time", "seq", "channel", "src", "dst", "payload", "msg",
            "origin", "modified", "injected", "dropped"} <= set(first)
    # the exported file and the reported digest come from the same lines
    exported = transcript.read_bytes()
    assert exported.endswith(b"\n")
    assert hashlib.sha256(exported[:-1]).hexdigest() == json.loads(out)["transcript_sha256"]


def test_scenario_override_file(capsys, tmp_path):
    override_file = tmp_path / "mitigations.ini"
    override_file.write_text("[policy]\nnas_ciphering = true\n")
    code, out, _ = run_cli(capsys, "run", "--scenario", "TS_06", "--seed", "3",
                           "--world", str(override_file))
    assert code == 0
    assert json.loads(out)["outcome"]["pei_captured"] is False
    # explicit --set wins over the file
    code, out, _ = run_cli(capsys, "run", "--scenario", "TS_06", "--seed", "3",
                           "--world", str(override_file),
                           "--set", "nas_ciphering=false")
    assert code == 0
    assert json.loads(out)["outcome"]["pei_captured"] is True


def test_a_run_imports_no_ini_parser_or_key_serializer(tmp_path):
    # import time counts in every run's wall time: nothing a run never reads
    world_file = tmp_path / "world.ini"
    world_file.write_text(WORLD_HEAD)
    script = (
        "import sys, fivegsim\n"
        "from fivegsim.scenarios import run_scenario\n"
        "from fivegsim.worldfile import load_world_file\n"
        "run_scenario('TS_01')\n"
        "print(sorted(sys.modules.keys() & {'configparser',"
        " 'cryptography.hazmat.primitives.serialization'}))\n"
        f"print(load_world_file({str(world_file)!r})[1].ues['ue1'].entity_id)\n"
    )
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\nue1\n"
