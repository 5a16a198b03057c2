import json
import pathlib
from dataclasses import replace

import pytest

from key_cuts import composed_chain
from fivegsim import crypto, messages
from fivegsim.identity import LongTermCredential
from fivegsim.risk import Impact, Likelihood
from fivegsim.scenarios import (
    CATALOG,
    InvalidOverride,
    SCENARIO_IDS,
    UnknownScenario,
    _nas_opened,
    _run_ts02,
    decrypt_up_payloads,
    list_scenarios,
    recover_peis,
    run_scenario,
    scenario_matrix,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "scenario_catalog_golden.json").read_text()
)["scenarios"]

# Expected default outcomes, frozen once verified by hand against each
# scenario's construction.
DEFAULT_OUTCOMES = {
    "TS_01": {"all_subscriber_traffic_decryptable": True, "network_impersonation": True},
    "TS_02": {"impersonation_as_stolen_plmn": True, "supi_disclosed_to_attacker": True,
              "other_network_name_refused": True, "name_mismatch_detected": True},
    "TS_03": {"target_traffic_decrypted": True, "other_devices_unaffected": True},
    "TS_04": {"context_extracted": True, "attacker_decrypts_later_traffic": True},
    "TS_05": {"dos_persistent": True, "recovered_after_power_cycle": True,
              "reattached_to_genuine": False},
    "TS_06": {"pei_captured": True, "supi_captured": False, "home_network_learned": True},
    "TS_07": {"jam_window_timeout": True, "post_window_success": True},
    "TS_08": {"up_traffic_exposed": True, "nas_protected_from_gnb": True,
              "dos_possible": True},
    "TS_09": {"nas_traffic_exposed": True, "root_key_not_exposed": True},
    "TS_10": {"k_gnb_extracted": True, "up_traffic_exposed": True},
    "TS_11": {"coverage_lost": True, "service_maintained": False},
    "TS_12": {"victim_slice_starved": True, "priority_slice_unaffected": True},
}

MITIGATED_HEADLINES = [
    # (scenario, overrides, predicate, default value, mitigated value)
    ("TS_02", {"revoke_stolen_sepp": "true"}, "impersonation_as_stolen_plmn", True, False),
    ("TS_04", {"context_renewal_interval": "5000"}, "attacker_decrypts_later_traffic", True, False),
    ("TS_05", {"signed_reject_enabled": "true"}, "dos_persistent", True, False),
    ("TS_05", {"blacklist_rogue": "true"}, "dos_persistent", True, False),
    ("TS_06", {"nas_ciphering": "true"}, "pei_captured", True, False),
    ("TS_07", {"jam_suppression_enabled": "true"}, "jam_window_timeout", True, False),
    ("TS_11", {"overlap_cell": "true"}, "coverage_lost", True, False),
    ("TS_12", {"reserved_for_victim": "2"}, "victim_slice_starved", True, False),
]


def test_catalog_is_ordered_and_complete():
    catalog = list_scenarios()
    assert [s.scenario_id for s in catalog] == [f"TS_{i:02d}" for i in range(1, 13)]
    for scenario in catalog:
        assert scenario.stride
        assert scenario.predicates
        assert scenario.assets


def _label(value):
    return value.label


def test_catalog_matches_golden_transcription():
    catalog = {s.scenario_id: s for s in list_scenarios()}
    assert len(GOLDEN) == 12
    for row in GOLDEN:
        scenario = catalog[row["id"]]
        assert scenario.stride == row["stride"], row["id"]
        likelihood = scenario.likelihood if isinstance(scenario.likelihood, tuple) \
            else (scenario.likelihood, scenario.likelihood)
        impact = scenario.impact if isinstance(scenario.impact, tuple) \
            else (scenario.impact, scenario.impact)
        assert [_label(v) for v in likelihood] == row["likelihood"], row["id"]
        assert [_label(v) for v in impact] == row["impact"], row["id"]


def test_catalog_spot_values():
    ts01 = CATALOG["TS_01"]
    assert ts01.stride == "STRIDE"
    assert ts01.likelihood == Likelihood.UNLIKELY
    assert ts01.impact == Impact.CRITICAL
    ts06 = CATALOG["TS_06"]
    assert ts06.stride == "I"
    assert ts06.likelihood == Likelihood.VERY_PROBABLE
    assert ts06.impact == Impact.MODERATE
    ts08 = CATALOG["TS_08"]
    assert ts08.impact == (Impact.HIGH, Impact.CATASTROPHIC)
    assert ts08.likelihood == Likelihood.PROBABLE


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenario):
        run_scenario("TS_99")


def test_invalid_override_rejected_before_execution():
    with pytest.raises(InvalidOverride):
        run_scenario("TS_05", {"turbo_mode": "on"})
    with pytest.raises(InvalidOverride):
        run_scenario("TS_05", {"overlap_cell": "true"})  # belongs to TS_11


def test_every_mitigation_that_is_not_a_policy_key_has_a_declared_type():
    from fivegsim.policy import POLICY_TYPES
    from fivegsim.scenarios import _KNOBS

    mitigations = {key for scenario in CATALOG.values() for key in scenario.mitigations}
    assert _KNOBS.keys() == mitigations - POLICY_TYPES.keys()


@pytest.mark.parametrize("reserved", [-1, 11, True, 2.0, "yes", "-3"])
def test_ts12_reservation_is_a_slot_count_within_capacity(reserved):
    with pytest.raises(InvalidOverride):
        run_scenario("TS_12", {"reserved_for_victim": reserved})


@pytest.mark.parametrize("scenario_id,overrides", [
    ("TS_11", {"overlap_cell": 7}), ("TS_11", {"overlap_cell": 1}),
    ("TS_06", {"nas_ciphering": 5}), ("TS_06", {"nas_ciphering": None}),
    ("TS_04", {"context_renewal_interval": True}),
    ("TS_04", {"context_renewal_interval": 5000.0}),
    ("TS_06", {"suci_scheme": 1}), ("TS_06", {"mode": 0}),
])
def test_typed_override_of_the_wrong_type_is_refused(scenario_id, overrides):
    """A value that is not text must already have the type its text parses to."""
    with pytest.raises(InvalidOverride):
        run_scenario(scenario_id, overrides)


def test_typed_overrides_of_the_right_type_run_as_their_text_does():
    assert run_scenario("TS_11", {"overlap_cell": True}, seed=42).outcome == \
        run_scenario("TS_11", {"overlap_cell": "true"}, seed=42).outcome
    report = run_scenario("TS_06", {"nas_ciphering": True}, seed=3)
    assert report.overrides == {"nas_ciphering": True}
    assert report.outcome == run_scenario("TS_06", {"nas_ciphering": "on"}, seed=3).outcome
    for interval in (5000, None):
        report = run_scenario("TS_04", {"context_renewal_interval": interval}, seed=42)
        assert report.overrides == {"context_renewal_interval": interval}


# 42 and the seeds of the golden transcripts
OUTCOME_SEEDS = (42, 0, 1, 7)


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_default_outcomes(scenario_id):
    for seed in OUTCOME_SEEDS:
        report = run_scenario(scenario_id, seed=seed)
        assert report.outcome == DEFAULT_OUTCOMES[scenario_id], seed
        assert report.transcript_sha256
        assert report.risk.scenario_id == scenario_id


@pytest.mark.parametrize("scenario_id,overrides,predicate,default,mitigated",
                         MITIGATED_HEADLINES)
def test_mitigation_flips_headline(scenario_id, overrides, predicate,
                                   default, mitigated):
    for seed in OUTCOME_SEEDS:
        base = run_scenario(scenario_id, seed=seed)
        assert base.outcome[predicate] is default, seed
        fixed = run_scenario(scenario_id, overrides, seed=seed)
        assert fixed.outcome[predicate] is mitigated, seed


def test_ts02_name_coherence_refused_across_seeds():
    for seed in range(5):
        report = run_scenario("TS_02", seed=seed)
        assert report.outcome["other_network_name_refused"]
        assert report.outcome["name_mismatch_detected"]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_ts02_revoked_proxy_keeps_nothing_for_the_peer_that_refused_it(seed):
    # the home SEPP refuses the attacker's hello: the requests it queued
    # for that peer are dropped, the routes that peer was to answer end,
    # and later requests toward it are ignored steps
    world, _ = _run_ts02(seed, {"revoke_stolen_sepp": True})
    atk_sepp = world.entities["atk-sepp"]
    assert atk_sepp.rejections == ["peer:PeerRevoked"]
    [session] = atk_sepp.sessions.values()
    assert session.refused and session.pending == []
    assert atk_sepp.routes == {} and atk_sepp.by_suci == {}


def test_ts05_power_cycle_recovery_in_both_modes():
    base = run_scenario("TS_05", seed=1)
    assert base.outcome["recovered_after_power_cycle"]
    fixed = run_scenario("TS_05", {"signed_reject_enabled": "true"}, seed=1)
    assert fixed.outcome["recovered_after_power_cycle"]
    assert fixed.outcome["reattached_to_genuine"]


def test_ts06_supi_never_captured_either_way():
    assert run_scenario("TS_06", seed=3).outcome["supi_captured"] is False
    assert run_scenario("TS_06", {"nas_ciphering": "true"},
                        seed=3).outcome["supi_captured"] is False


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_ts09_nsa_amf_dump_exposes_nas_but_not_the_root_key(seed):
    # the NSA AMF derives k_seaf from the home vector's k_ausf and keeps
    # only its cut, as the SA AMF does
    outcome = run_scenario("TS_09", {"mode": "NSA"}, seed).outcome
    assert outcome == {"nas_traffic_exposed": True, "root_key_not_exposed": True}


def test_scenarios_deterministic_under_seed():
    for scenario_id in SCENARIO_IDS:
        first = run_scenario(scenario_id, seed=7)
        second = run_scenario(scenario_id, seed=7)
        assert first.transcript_sha256 == second.transcript_sha256, scenario_id
        assert first.outcome == second.outcome


def test_scenario_isolation_no_state_bleed():
    in_sequence = [run_scenario("TS_03", seed=5), run_scenario("TS_05", seed=5)]
    fresh_ts05 = run_scenario("TS_05", seed=5)
    assert in_sequence[1].transcript_sha256 == fresh_ts05.transcript_sha256
    fresh_ts03 = run_scenario("TS_03", seed=5)
    assert in_sequence[0].transcript_sha256 == fresh_ts03.transcript_sha256


def test_matrix_full_catalog():
    table = scenario_matrix(seeds=(0,))
    assert len(table["rows"]) == 12
    for row in table["rows"]:
        assert row["risk"].scenario_id == row["scenario"]
        assert all(rate in (0.0, 1.0) for rate in row["predicate_rates"].values())


def test_matrix_empty_and_unknown():
    assert scenario_matrix(ids=[])["rows"] == []
    with pytest.raises(UnknownScenario):
        scenario_matrix(ids=["TS_99"])


def test_matrix_outcomes_stable_across_seeds():
    table = scenario_matrix(ids=["TS_06"], seeds=(1, 2))
    rates = table["rows"][0]["predicate_rates"]
    assert rates == {"pei_captured": 1.0, "supi_captured": 0.0,
                     "home_network_learned": 1.0}


def test_ts12_resource_property():
    report = run_scenario("TS_12", seed=9)
    assert report.outcome["victim_slice_starved"]
    assert report.outcome["priority_slice_unaffected"]


def test_compromise_scenarios_carry_cost_metadata():
    for scenario_id in ("TS_01", "TS_03", "TS_04", "TS_08", "TS_09", "TS_10"):
        assert CATALOG[scenario_id].attack_cost
        assert CATALOG[scenario_id].threat_agents


# ---------------------------------------------------------------------------
# Offline analytics over captured wrappers
# ---------------------------------------------------------------------------

STOLEN_K, SUPI, SN_NAME, RAND = bytes(range(16)), "imsi-001010000000001", "5G:00101", bytes(16)
CHALLENGE = messages.AuthenticationRequest(rand=RAND, autn=bytes(16), ngksi=0, abba=b"\x00\x00")
CHAIN = composed_chain(
    crypto.ue_k_ausf(LongTermCredential(k=STOLEN_K, sqn=1), RAND, SN_NAME),
    SN_NAME, SUPI, b"\x00\x00", 2, 2)


def _captured(header: dict) -> tuple[bytes, bytes, bytes]:
    """The challenge, then an uplink NAS and an uplink UP wrapper sealed
    under the chain it yields, their headers rewritten to ``header``."""
    nas = crypto.SecureLink(messages.SecuredNas, CHAIN, 2, 2, direction=0)
    up = crypto.SecureLink(messages.SecuredUp, CHAIN, 2, 2, direction=0)
    return (messages.encode(CHALLENGE),
            messages.encode(replace(nas.seal(messages.NasSecurityModeComplete(pei="pei-1")),
                                    **header)),
            messages.encode(replace(up.seal(messages.AppData(payload=b"meter")), **header)))


def test_analytics_open_genuine_captured_wrappers():
    captured = list(_captured({}))
    assert recover_peis(captured, STOLEN_K, SUPI, SN_NAME) == {"pei-1"}
    assert decrypt_up_payloads(captured, [CHAIN]) == [b"meter"]
    assert _nas_opened(captured, CHAIN)


@pytest.mark.parametrize("alg", [1, 3, 7])
@pytest.mark.parametrize("field", ["nea_id", "nia_id"])
def test_analytics_skip_a_wrapper_naming_an_algorithm_that_does_not_run(field, alg):
    """No receiver opens such a wrapper, so the adversary cannot either: a
    stub (1, 3) or unregistered (7) id is a wrapper that stays closed."""
    captured = list(_captured({field: alg}))
    assert recover_peis(captured, STOLEN_K, SUPI, SN_NAME) == set()
    assert decrypt_up_payloads(captured, [CHAIN]) == []
    assert not _nas_opened(captured, CHAIN)
