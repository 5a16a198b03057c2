"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria:
  1. catalog fidelity (exact match against the frozen transcription)
  2. identity-concealment correctness (1000 round trips/profile + KATs)
  3. challenge/response soundness across 100 seeds
  4. privacy predicates on radio transcripts across 100 seeds
  5. mitigation flips under a fixed seed
  6. scenario determinism (identical transcript hashes on re-run)
  7. one-wayness audit and key-chain bit sensitivity
  8. risk grid monotonicity and catalog placement
"""

import inspect
import itertools
import json
import pathlib

import pytest

import oracles
from key_cuts import composed_chain
from fivegsim import crypto, messages
from fivegsim.entities.core import AmfState
from fivegsim.flows import find_amf_session, run_registration
from fivegsim.identity import (
    LongTermCredential,
    SubscriberIdentity,
    SuciScheme,
    format_supi,
)
from fivegsim.netsim import Action, AdversaryHook, Capability, Channel
from fivegsim.policy import OperatorPolicy
from fivegsim.randomness import RandomStream
from fivegsim.risk import Impact, Likelihood, build_risk_matrix, classify_risk
from fivegsim.scenarios import SCENARIO_IDS, list_scenarios, run_scenario
from fivegsim.worldfile import single_network_world

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "scenario_catalog_golden.json").read_text())["scenarios"]

SEED_COUNT = 100


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


# -- 1. catalog fidelity ------------------------------------------------------


def test_criterion_1_catalog_fidelity():
    catalog = {s.scenario_id: s for s in list_scenarios()}
    ok = len(catalog) == 12 and len(GOLDEN) == 12
    for row in GOLDEN:
        scenario = catalog[row["id"]]
        likelihood = scenario.likelihood if isinstance(scenario.likelihood, tuple) \
            else (scenario.likelihood, scenario.likelihood)
        impact = scenario.impact if isinstance(scenario.impact, tuple) \
            else (scenario.impact, scenario.impact)
        ok &= scenario.stride == row["stride"]
        ok &= [v.label for v in likelihood] == row["likelihood"]
        ok &= [v.label for v in impact] == row["impact"]
    from fivegsim.risk import ComponentKind, stride_exposure, stride_set
    exposure = {kind: stride_exposure(kind) for kind in ComponentKind}
    ok &= exposure == {
        ComponentKind.EXTERNAL_ENTITY: stride_set("SR"),
        ComponentKind.PROCESS: stride_set("STRIDE"),
        ComponentKind.DATA_STORE: stride_set("TID"),
        ComponentKind.DATA_FLOW: stride_set("TID"),
        ComponentKind.DEVICE: stride_set("STIDE"),
    }
    _report("1 catalog fidelity", ok)


# -- 2. identity concealment --------------------------------------------------


@pytest.mark.parametrize("scheme,letter", [
    (SuciScheme.PROFILE_A, "a"), (SuciScheme.PROFILE_B, "b"),
])
def test_criterion_2_concealment(scheme, letter):
    rng = RandomStream(2024, f"acceptance-ecies-{letter}")
    keypair = crypto.HomeNetworkKeyPair.from_seed(scheme, rng.take(32))
    failures = 0
    for _ in range(1000):
        ident = SubscriberIdentity(mcc="001", mnc="01", msin=rng.digits(10))
        suci = crypto.conceal_supi(ident, keypair, scheme, rng.take(32))
        if crypto.deconceal_suci(suci, keypair) != ident:
            failures += 1
    # byte-exact known answer against the independent reference computation
    home_seed = bytes(range(1, 33))
    ident = SubscriberIdentity(mcc="001", mnc="01", msin="0123456789")
    kat_pair = crypto.HomeNetworkKeyPair.from_seed(scheme, home_seed)
    suci = crypto.conceal_supi(ident, kat_pair, scheme, bytes(32))
    ref = oracles.ecies_conceal(letter, home_seed, bytes(32), "0123456789")
    kat_ok = (
        kat_pair.public_bytes == ref["home_public"]
        and suci.ephemeral_public_key == ref["ephemeral_public"]
        and suci.ciphertext == ref["ciphertext"]
        and suci.mac_tag == ref["tag"]
    )
    _report(f"2 concealment profile {letter.upper()} "
            f"(failures={failures}/1000, kat={'ok' if kat_ok else 'BAD'})",
            failures == 0 and kat_ok)


# -- 3. challenge/response soundness -------------------------------------------


def test_criterion_3_honest_key_agreement():
    matched = 0
    for seed in range(SEED_COUNT):
        world, builder = single_network_world(seed=seed)
        outcome = run_registration(world, "ue1")
        session = find_amf_session(builder.networks["net"].amf,
                                   world.entities["ue1"])
        if outcome.success and session is not None and all(
            outcome.ue_context.keys.get(n) == session.context.keys.get(n)
            for n in ("k_amf", "k_nas_int", "k_nas_enc", "k_gnb")
        ):
            matched += 1
    _report(f"3a honest key agreement ({matched}/{SEED_COUNT})",
            matched == SEED_COUNT)


def test_criterion_3_replay_rejected():
    rejected = 0
    for seed in range(SEED_COUNT):
        rng = RandomStream(seed, "acceptance-aka")
        cred = LongTermCredential(k=rng.take(16), sqn=1)
        vector, _ = crypto.generate_auth_vector(cred, "5G:test", rng)
        _, window = crypto.ue_verify_challenge(cred, vector.rand, vector.autn, 0)
        try:
            crypto.ue_verify_challenge(cred, vector.rand, vector.autn, window)
        except crypto.SqnStale:
            rejected += 1
        except crypto.MacMismatch:
            pass
    _report(f"3b replayed challenge rejected stale ({rejected}/{SEED_COUNT})",
            rejected == SEED_COUNT)


def _forge_res(world, hook, event):
    if messages.peek_type(event.payload) == "ConfirmRequestSbi":
        msg = messages.decode(event.payload)
        forged = messages.ConfirmRequestSbi(session=msg.session, res=bytes(16))
        return Action(replace_payload=messages.encode(forged))
    return None


def test_criterion_3_forged_response_detected():
    detected = 0
    policy = OperatorPolicy(sbi_link_protected=False)
    for seed in range(SEED_COUNT):
        world, builder = single_network_world(seed=seed, policy=policy)
        world.attach_adversary(AdversaryHook(
            adversary_id="mitm", vantage=frozenset({Channel.SBI}),
            capabilities=frozenset({Capability.MODIFY}), handler=_forge_res))
        outcome = run_registration(world, "ue1")
        session = next(iter(builder.networks["net"].amf.sessions.values()))
        if (outcome.outcome == "auth_rejected"
                and (session.state, session.cause) == (AmfState.AUTH_FAILED, "home_check")
                and session.supi is None):
            detected += 1
    _report(f"3c forged response caught by home check ({detected}/{SEED_COUNT})",
            detected == SEED_COUNT)


# -- 4. privacy predicates ------------------------------------------------------


def test_criterion_4_concealed_identities_stay_off_the_air():
    clean = 0
    for seed in range(SEED_COUNT):
        world, _ = single_network_world(seed=seed)
        outcome = run_registration(world, "ue1")
        ue = world.entities["ue1"]
        if (outcome.success
                and oracles.radio_plaintext_count(world.transcript, ue.identity.msin.encode()) == 0
                and oracles.radio_plaintext_count(world.transcript, ue.pei.pei.encode()) == 0):
            clean += 1
    _report(f"4a concealed mode leaks nothing ({clean}/{SEED_COUNT})",
            clean == SEED_COUNT)


def test_criterion_4_pei_exposed_without_ciphering():
    exposed = 0
    policy = OperatorPolicy(nas_ciphering=False)
    for seed in range(SEED_COUNT):
        world, _ = single_network_world(seed=seed, policy=policy)
        outcome = run_registration(world, "ue1")
        ue = world.entities["ue1"]
        if outcome.success and oracles.radio_plaintext_count(
                world.transcript, ue.pei.pei.encode()) >= 1:
            exposed += 1
    _report(f"4b equipment identity readable without ciphering "
            f"({exposed}/{SEED_COUNT})", exposed == SEED_COUNT)


def test_criterion_4_legacy_attach_shows_imsi_exactly_once():
    exact = 0
    policy = OperatorPolicy(mode="NSA")
    for seed in range(SEED_COUNT):
        world, _ = single_network_world(seed=seed, policy=policy)
        outcome = run_registration(world, "ue1")
        ue = world.entities["ue1"]
        imsi = format_supi(ue.identity).encode()
        msin = ue.identity.msin.encode()
        if (outcome.success
                and oracles.radio_plaintext_count(world.transcript, imsi) == 1
                and oracles.radio_plaintext_count(world.transcript, msin) == 1):
            exact += 1
    _report(f"4c legacy attach shows the identity exactly once "
            f"({exact}/{SEED_COUNT})", exact == SEED_COUNT)


# -- 5. mitigation flips ----------------------------------------------------------


def test_criterion_5_mitigation_flips():
    flips = [
        ("TS_05", {"signed_reject_enabled": "true"}, "dos_persistent"),
        ("TS_04", {"context_renewal_interval": "5000"},
         "attacker_decrypts_later_traffic"),
        ("TS_07", {"jam_suppression_enabled": "true"}, "jam_window_timeout"),
    ]
    ok = True
    for scenario_id, overrides, predicate in flips:
        base = run_scenario(scenario_id, seed=42)
        fixed = run_scenario(scenario_id, overrides, seed=42)
        ok &= base.outcome[predicate] is True
        ok &= fixed.outcome[predicate] is False
    _report("5a mitigation off->on flips the headline predicate", ok)


def test_criterion_5_interconnect_name_coherence():
    refused = 0
    for seed in range(SEED_COUNT):
        report = run_scenario("TS_02", seed=seed)
        if (report.outcome["other_network_name_refused"]
                and report.outcome["name_mismatch_detected"]):
            refused += 1
    _report(f"5b wrong serving-network name refused ({refused}/{SEED_COUNT})",
            refused == SEED_COUNT)


# -- 6. determinism -----------------------------------------------------------------


def test_criterion_6_scenario_determinism():
    stable = 0
    for scenario_id in SCENARIO_IDS:
        first = run_scenario(scenario_id, seed=11)
        second = run_scenario(scenario_id, seed=11)
        if (first.transcript_sha256 == second.transcript_sha256
                and first.outcome == second.outcome):
            stable += 1
    _report(f"6 deterministic transcripts ({stable}/12 scenarios)", stable == 12)


# -- 7. one-wayness -------------------------------------------------------------------

# Key levels by derivation depth; an operation may never output a key
# shallower than one of its inputs.
_DEPTH = {"k": 0, "k_ausf": 1, "k_seaf": 2, "k_amf": 3,
          "k_nas_int": 4, "k_nas_enc": 4, "k_gnb": 4,
          "k_rrc_int": 5, "k_rrc_enc": 5, "k_up_int": 5, "k_up_enc": 5}

_CHAIN_BELOW_AUSF = ["k_seaf", "k_amf", "k_nas_int", "k_nas_enc", "k_gnb",
                     "k_rrc_int", "k_rrc_enc", "k_up_int", "k_up_enc"]

# consumed key levels -> produced key levels, per public operation
_KEY_FLOW_AUDIT = {
    "conceal_supi": ((), ()),
    "deconceal_suci": ((), ()),
    "compute_auth_vector": (("k",), ("k_ausf",)),
    "generate_auth_vector": (("k",), ("k_ausf",)),
    "ue_verify_challenge": (("k",), ()),
    "ue_k_ausf": (("k",), ("k_ausf",)),
    "res_hash": ((), ()),
    "derive_k_seaf": (("k_ausf",), ("k_seaf",)),
    "derive_chain_from_seaf": (("k_seaf",),
                               ("k_amf", "k_nas_int", "k_nas_enc", "k_gnb")),
    "derive_as_keys": (("k_gnb",),
                       ("k_rrc_int", "k_rrc_enc", "k_up_int", "k_up_enc")),
    "protect": (("k_nas_enc", "k_nas_int", "k_rrc_enc", "k_rrc_int",
                 "k_up_enc", "k_up_int"), ()),
    "unprotect": (("k_nas_enc", "k_nas_int", "k_rrc_enc", "k_rrc_int",
                   "k_up_enc", "k_up_int"), ()),
    "sign_reject": ((), ()),
    "verify_reject": ((), ()),
    "verification_key": ((), ()),
    "sign": ((), ()),
    "verify": ((), ()),
    "load_labels": ((), ()),
}


def test_criterion_7_api_audit_no_upward_derivation():
    public = {
        name for name, obj in inspect.getmembers(crypto, inspect.isfunction)
        if not name.startswith("_") and obj.__module__ == crypto.__name__
    }
    complete = public == set(_KEY_FLOW_AUDIT)
    upward = []
    for name, (consumed, produced) in _KEY_FLOW_AUDIT.items():
        for c in consumed:
            for p in produced:
                if _DEPTH[p] <= _DEPTH[c]:
                    upward.append((name, c, p))
    _report(f"7a signature audit (functions={'complete' if complete else public ^ set(_KEY_FLOW_AUDIT)}, "
            f"upward={upward})", complete and not upward)


_FLIP_TARGETS = [
    # (input name, flippable bit count, affected derived keys)
    ("k_ausf", 256, _CHAIN_BELOW_AUSF),
    ("serving_network_name", 7, _CHAIN_BELOW_AUSF),
    ("supi", 7, _CHAIN_BELOW_AUSF[1:]),
    ("abba", 16, _CHAIN_BELOW_AUSF[1:]),
    ("nea_id", 8, ["k_nas_enc", "k_rrc_enc", "k_up_enc"]),
    ("nia_id", 8, ["k_nas_int", "k_rrc_int", "k_up_int"]),
]


def _flip(inputs: dict, name: str, bit: int) -> dict:
    out = dict(inputs)
    if name in ("k_ausf", "abba"):
        raw = bytearray(out[name])
        raw[bit // 8] ^= 1 << (bit % 8)
        out[name] = bytes(raw)
    elif name in ("serving_network_name", "supi"):
        chars = list(out[name])
        chars[bit % len(chars)] = chr(ord(chars[bit % len(chars)]) ^ (1 << (bit % 7)))
        out[name] = "".join(chars)
    else:
        out[name] = out[name] ^ (1 << (bit % 8))
    return out


def test_criterion_7_single_bit_sensitivity():
    rng = RandomStream(777, "sensitivity")
    base = {
        "k_ausf": bytes(range(32)),
        "serving_network_name": "5G:00101",
        "supi": "imsi-001010123456789",
        "abba": b"\x00\x00",
        "nea_id": 2,
        "nia_id": 2,
    }
    baseline = composed_chain(**base)
    good = 0
    for _ in range(100):
        name, bits, affected = _FLIP_TARGETS[oracles.below(rng, len(_FLIP_TARGETS))]
        flipped = _flip(base, name, oracles.below(rng, bits))
        if flipped == base:
            continue
        chain = composed_chain(**flipped)
        ref = oracles.key_chain(
            flipped["k_ausf"], flipped["serving_network_name"], flipped["supi"],
            flipped["abba"], flipped["nea_id"], flipped["nia_id"],
        )
        matches_oracle = all(chain.get(k) == ref[k] for k in _CHAIN_BELOW_AUSF)
        changed = all(chain.get(k) != baseline.get(k) for k in affected)
        unchanged = all(
            chain.get(k) == baseline.get(k)
            for k in _CHAIN_BELOW_AUSF if k not in affected
        )
        if matches_oracle and changed and unchanged:
            good += 1
        else:
            good = -10**9
    _report(f"7b single-bit sensitivity vs reference ({good}/100)", good == 100)


# -- 8. risk grid ---------------------------------------------------------------------


def test_criterion_8_grid_and_placement():
    monotone = True
    for l1, l2 in itertools.product(Likelihood, Likelihood):
        for i1, i2 in itertools.product(Impact, Impact):
            if l1 <= l2 and i1 <= i2:
                monotone &= classify_risk(l1, i1) <= classify_risk(l2, i2)
    cells = {c.scenario_id: c for c in build_risk_matrix(list_scenarios())}
    placed = len(cells) == 12
    for row in GOLDEN:
        cell = cells[row["id"]]
        placed &= cell.likelihood.label == row["likelihood"][1]
        placed &= cell.impact.label == row["impact"][1]
        placed &= [v.label for v in cell.likelihood_range] == row["likelihood"]
        placed &= [v.label for v in cell.impact_range] == row["impact"]
    _report(f"8 risk grid (monotone={monotone}, placements={'12/12' if placed else 'BAD'})",
            monotone and placed)
