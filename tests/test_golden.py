"""Frozen transcript digests: refactors must not move a single wire byte.

``tests/data/golden_transcripts.json`` maps ``<variant>@<seed>`` to the
sha256 of the exported transcript.  The variants are the twelve threat
scenarios, the eight mitigated variants of the README table and one
registration in four worlds no scenario builds.  The same digests are
recomputed in child processes under different ``PYTHONHASHSEED`` values,
so determinism is checked across processes, not only within one.  No
message of a golden world breaks a field constraint its class declares.

Run this module as a script to print the current digests as JSON.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from fivegsim import flows, messages, netsim, scenarios, worldfile
from fivegsim.identity import SuciScheme
from fivegsim.policy import OperatorPolicy

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_transcripts.json"
SEEDS = (0, 1, 7)
MITIGATIONS = (
    ("TS_02", "revoke_stolen_sepp", "true"),
    ("TS_04", "context_renewal_interval", "5000"),
    ("TS_05", "signed_reject_enabled", "true"),
    ("TS_05", "blacklist_rogue", "true"),
    ("TS_06", "nas_ciphering", "true"),
    ("TS_07", "jam_suppression_enabled", "true"),
    ("TS_11", "overlap_cell", "true"),
    ("TS_12", "reserved_for_victim", "2"),
)
REGISTRATION_WORLDS = {
    "reg_sa_profile_b": lambda seed: worldfile.single_network_world(
        seed, OperatorPolicy(suci_scheme=SuciScheme.PROFILE_B)),
    "reg_sa_null": lambda seed: worldfile.single_network_world(
        seed, OperatorPolicy(suci_scheme=SuciScheme.NULL)),
    "reg_nsa": lambda seed: worldfile.single_network_world(
        seed, OperatorPolicy(mode="NSA")),
    "reg_roaming": worldfile.roaming_world,
}


def _variants() -> dict:
    out = {}
    for sid in scenarios.SCENARIO_IDS:
        out[sid] = (sid, {})
    for sid, key, value in MITIGATIONS:
        out[f"{sid}.{key}"] = (sid, {key: value})
    for name in REGISTRATION_WORLDS:
        out[name] = (name, None)
    return out


VARIANTS = _variants()
CASES = [f"{name}@{seed}" for name in VARIANTS for seed in SEEDS]


def digest(case: str) -> str:
    name, _, seed = case.partition("@")
    target, overrides = VARIANTS[name]
    if overrides is None:
        world, _ = REGISTRATION_WORLDS[target](int(seed))
        flows.run_registration(world, "ue1")
        return world.transcript.sha256()
    return scenarios.run_scenario(target, overrides, int(seed)).transcript_sha256


def all_digests() -> dict[str, str]:
    return {case: digest(case) for case in CASES}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_transcript_matches_golden(case, golden):
    assert digest(case) == golden[case]


def carried(payload: bytes):
    """The message ``payload`` holds and each message nested in it: the
    ``nas`` or ``inner`` bytes, or a plaintext ``body``.  Bytes that do not
    decode yield nothing."""
    try:
        msg = messages.decode(payload)
    except Exception:
        return
    yield msg
    nested = getattr(msg, "nas", None) or getattr(msg, "inner", None)
    if getattr(msg, "nea_id", None) == 0 and hasattr(msg, "body"):
        nested = msg.body
    if nested:
        yield from carried(nested)


def test_no_golden_world_breaks_a_declared_constraint(monkeypatch):
    # the entities refuse a message that breaks a width or algorithm id its
    # class declares; no message of a golden world, honest or not, does
    transcripts = []
    sha256 = netsim.Transcript.sha256
    monkeypatch.setattr(netsim.Transcript, "sha256",
                        lambda self: transcripts.append(self) or sha256(self))
    for case in CASES:
        if case.endswith("@0"):
            digest(case)
    checked = [msg for transcript in transcripts for entry in transcript.entries
               for msg in carried(entry.payload) if type(msg) in messages.CONSTRAINTS]
    assert len(transcripts) == len(VARIANTS) and checked
    assert [messages.violation(msg) for msg in checked] == [None] * len(checked)


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_digests_identical_across_processes(hashseed, golden):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p)
    out = subprocess.run(
        [sys.executable, __file__], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    ).stdout
    assert json.loads(out) == golden


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=2, sort_keys=True))
