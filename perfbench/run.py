#!/usr/bin/env python3
"""fivegsim benchmark.

    python3 perfbench/run.py --workload {reg_storm,sweep,user_plane}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  With ``--trace 0`` the workload runs,
untraced, for at least S seconds (whole units, and at least 1,000
operations so that the 99th percentile has ten samples beyond it) and the
end-to-end metrics are printed.  With ``--trace 1`` a fixed number of
units (set by S) runs untraced and then again, identically, with spans
recorded, and the per-layer metrics are printed.  Either way, the outputs
are checked, two fresh processes with different ``PYTHONHASHSEED`` values
must reproduce the digest recorded in ``golden.json`` for the default
seed, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
carries the environment stamp, sample counts and the workload's own
metric names.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from probe import host_probe, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
WORKLOADS = ("reg_storm", "sweep", "user_plane")
MIN_OPS = 1000  # ten samples beyond the 99th percentile
MIN_UNITS = 3
TIME_CAP_S = 120.0  # stop adding units past this, whatever MIN_OPS says
HASH_SEEDS = ("1", "2")
CHILD_TIMEOUT_S = 40

# --trace 1: units per second of --seconds, so that the untraced and the
# traced pass together take about S seconds on the reference machine.
TRACE_UNITS_PER_S = {"reg_storm": 0.1, "sweep": 1.0, "user_plane": 0.15}

# The end-to-end statistics under each workload's own names, for the detail line.
NAMED = {
    "reg_storm": {"reg_per_s": ("ops_per_s", 1.0)},
    "sweep": {"sweep_runs_per_s": ("ops_per_s", 1.0),
              "sweep_run_ms_p50": ("op_ms_p50", 1.0),
              "sweep_run_ms_p95": ("op_ms_p95", 1.0)},
    "user_plane": {"up_pkts_per_s": ("ops_per_s", 1.0),
                   "up_pkt_us_p50": ("op_ms_p50", 1e3),
                   "up_pkt_us_p99": ("op_ms_p99", 1e3),
                   "up_goodput_mb_per_s": ("payload_mb_per_s", 1.0)},
}

CRYPTO_FNS = (
    "conceal_supi", "deconceal_suci", "generate_auth_vector", "ue_verify_challenge",
    "derive_key_chain", "derive_chain_from_seaf", "derive_as_keys", "protect",
    "unprotect", "sign_reject", "verify_reject",
    "HomeNetworkKeyPair.from_seed", "RejectSigningKeyPair.from_seed",
)
ENTITY_CLASSES = ("Ue", "GnbNode", "Amf", "Ausf", "Udm", "Smf", "Upf", "Nrf", "Sepp")


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cryptography": metadata.version("cryptography"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def make_workload(name: str, seed: int, golden: dict, span=None):
    from workloads import RegStorm, Sweep, UserPlane
    if name == "sweep":
        return Sweep(seed, golden["sweep_predicates"], span)
    return {"reg_storm": RegStorm, "user_plane": UserPlane}[name](seed)


def measure(workload, seconds: float, units: int | None = None, after_unit=None):
    """Run whole units until ``seconds`` have passed, MIN_UNITS units and
    MIN_OPS operations are done, or exactly ``units`` units.  Returns the
    unit results, the set-up times at reference host speed and each
    unit's wall time (set-up plus run, without host probes)."""
    results, setups, walls = [], [], []
    start = time.perf_counter()
    while True:
        inputs = workload.inputs()
        gc.collect()
        before = host_probe()
        begin = time.perf_counter()
        fixture = workload.setup(inputs)
        built = time.perf_counter()
        result = workload.run(fixture)
        walls.append(time.perf_counter() - begin - sum(result.probes))
        setups.append((built - begin) * speed_factor([before, result.probes[0]]))
        results.append(result)
        del fixture
        if after_unit is not None:
            after_unit()
        elapsed = time.perf_counter() - start
        if units is not None:
            if len(results) >= units:
                break
        elif elapsed >= TIME_CAP_S or (
                elapsed >= seconds and len(results) >= MIN_UNITS
                and sum(len(r.ops) for r in results) >= MIN_OPS):
            break
    return results, setups, walls


def cross_process_digests(workload: str) -> list[tuple[float, str] | None]:
    """From two fresh processes, each with its own PYTHONHASHSEED: the time
    each took to import the package and the default-seed digest; None
    where a process failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--digest"]
    procs = [subprocess.Popen(cmd, env={**os.environ, "PYTHONHASHSEED": h},
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
             for h in HASH_SEEDS]
    outcomes = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            words = out.split()
            outcomes.append((float(words[-2]), words[-1])
                            if proc.returncode == 0 and len(words) >= 2 else None)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return outcomes


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_stats(results, scaled: bool = True) -> dict:
    """Throughputs, each the median over units, and latency percentiles
    pooled over all operations; at the reference host speed unless
    ``scaled`` is false."""
    op_ms, per_unit = [], []
    for r in results:
        segments = r.scaled_segments() if scaled else [d for d, _ in r.segments]
        elapsed = [0.0, *itertools.accumulate(segments)]
        op_ms.extend((elapsed[last + 1] - elapsed[first]) * 1e3 for first, last in r.ops)
        per_unit.append((len(r.ops), r.events, r.payload_bytes, elapsed[-1]))
    return {
        "ops_per_s": statistics.median(ops / busy for ops, _, _, busy in per_unit),
        "events_per_s": statistics.median(events / busy for _, events, _, busy in per_unit),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p95": _percentile(op_ms, 95),
        "op_ms_p99": _percentile(op_ms, 99),
        "payload_mb_per_s": statistics.median(
            payload / busy / 1e6 for _, _, payload, busy in per_unit),
    }


def end_to_end(workload: str, results, setups, imports) -> tuple[dict, dict, dict]:
    """The end-to-end metrics at the reference host speed, the same under
    the workload's own names, and the unscaled figures.  ``imports`` are
    the package's import times in this process and its children."""
    stats = run_stats(results)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "ops_per_s": (stats["ops_per_s"], "1/s"),
        "events_per_s": (stats["events_per_s"], "1/s"),
        "op_ms_p50": (stats["op_ms_p50"], "ms"),
        "op_ms_p99": (stats["op_ms_p99"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    named = {alias: stats[key] * scale for alias, (key, scale) in NAMED[workload].items()}
    return metrics, named, run_stats(results, scaled=False)


def per_layer(tracer, results, wall_s: float, overhead: float, variants) -> dict:
    """Per-layer metrics of the traced units; times at the reference host
    speed, shares of the traced wall time."""
    factor = speed_factor([p for r in results for p in r.probes])
    m: dict[str, tuple] = {}
    share = lambda layer: (tracer.layer_self_ns[layer] / 1e9 / wall_s, "ratio")
    us = lambda name: (tracer.us_per_call(name) * factor, "us")
    ms = lambda name: (tracer.us_per_call(name) * factor / 1e3, "ms")
    count = lambda name: (tracer.calls(name), "count")

    for fn in ("encode", "decode"):
        m[f"messages.{fn}.calls"] = count(f"messages.{fn}")
        m[f"messages.{fn}.us_per_call"] = us(f"messages.{fn}")
    m["messages.peek_type.calls"] = count("messages.peek_type")
    m["messages.self_share"] = share("messages")

    for fn in CRYPTO_FNS:
        m[f"crypto.{fn}.calls"] = count(f"crypto.{fn}")
        m[f"crypto.{fn}.us_per_call"] = us(f"crypto.{fn}")
    m["crypto.self_share"] = share("crypto")

    events = tracer.calls("netsim.transcript_append")
    bus_self_ns = tracer.totals.get("netsim.run_until", (0, 0, 0))[2]
    m["netsim.events"] = (events, "count")
    m["netsim.events_dropped"] = (sum(r.dropped for r in results), "count")
    m["netsim.bus.self_us_per_event"] = (
        bus_self_ns * factor / events / 1e3 if events else 0.0, "us")
    m["netsim.active_cells.calls"] = count("netsim.active_cells")
    m["netsim.active_cells.us_per_call"] = us("netsim.active_cells")
    m["netsim.schedule.calls"] = count("netsim.schedule")
    m["netsim.hook.calls"] = count("netsim.hook")
    m["netsim.hook.us_per_call"] = us("netsim.hook")
    m["netsim.transcript_append.us_per_call"] = us("netsim.transcript_append")
    m["netsim.transcript_sha256.ms"] = ms("netsim.transcript_sha256")
    m["netsim.self_share"] = share("netsim")

    for cls in ENTITY_CLASSES:
        m[f"entities.{cls}.steps"] = count(f"entities.{cls}.step")
        m[f"entities.{cls}.self_us_per_step"] = (
            tracer.self_us_per_call(f"entities.{cls}.step") * factor, "us")
    m["entities.authorize_nf.us_per_call"] = us("entities.authorize_nf")
    m["entities.validate_nf_token.us_per_call"] = us("entities.validate_nf_token")
    m["entities.ignored_ratio"] = (
        tracer.ignored_steps / tracer.steps if tracer.steps else 0.0, "ratio")
    m["entities.self_share"] = share("entities")

    worlds = tracer.calls("worldfile.__init__")
    m["worldfile.build.ms"] = (
        tracer.layer_outer_ns["worldfile"] * factor / worlds / 1e6 if worlds else 0.0, "ms")
    m["worldfile.self_share"] = share("worldfile")

    for name in variants:
        m[f"scenarios.{name}.ms"] = ms(f"scenarios.variant.{name}")
    m["scenarios.analytics.ms"] = ms("scenarios.analytics")
    m["scenarios.self_share"] = share("scenarios")

    m["trace.wall_s"] = (wall_s * factor, "s")
    m["trace.self_sum_s"] = (sum(tracer.layer_self_ns.values()) * factor / 1e9, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true",
                        help="print the default-seed digest of one unit and exit "
                             "(used for the cross-process check)")
    args = parser.parse_args(argv)

    if not (SRC / "fivegsim" / "__init__.py").is_file():
        print(f"fivegsim sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    sys.path[:0] = [str(SRC), str(HERE)]

    host_probe()  # first call pays one-off costs
    import_probes = [host_probe() for _ in range(20)]
    begin = time.perf_counter()
    import fivegsim  # noqa: F401  (timed: import is part of set-up)
    import workloads
    import_s = (time.perf_counter() - begin) * speed_factor(import_probes)

    if args.digest:
        workload = make_workload(args.workload, DEFAULT_SEED, golden)
        print(import_s, workload.run(workload.setup(workload.inputs())).digest)
        return 0

    checks = {"headlines_flip": all(
        golden["sweep_predicates"][v.split(".")[0]][h] != golden["sweep_predicates"][v][h]
        for v, h in golden["mitigation_headlines"].items())}

    if args.trace:
        from tracing import Tracer
        units = max(1, round(args.seconds * TRACE_UNITS_PER_S[args.workload]))
        plain, _, _ = measure(make_workload(args.workload, args.seed, golden),
                              args.seconds, units)
        tracer = Tracer()
        tracer.install()
        try:
            workload = make_workload(args.workload, args.seed, golden, tracer.wrap)
            traced, _, walls = measure(workload, args.seconds, units, tracer.flush)
        finally:
            tracer.uninstall()
        overhead = (sum(sum(r.scaled_segments()) for r in traced)
                    / sum(sum(r.scaled_segments()) for r in plain))
        checks["traced_digests_match"] = (
            [r.digest for r in plain] == [r.digest for r in traced])
        results = plain + traced
        metrics = per_layer(tracer, traced, sum(walls), overhead,
                            list(workloads.sweep_variants()))
        expected_names = [m["name"] for m in spec["per_layer"]]
    else:
        results, setups, _ = measure(make_workload(args.workload, args.seed, golden),
                                     args.seconds)

    if args.seed == DEFAULT_SEED:
        checks["main_digest_golden"] = results[0].digest == golden["digests"][args.workload]
    children = cross_process_digests(args.workload)
    checks["cross_process_golden"] = all(
        child is not None and child[1] == golden["digests"][args.workload]
        for child in children)
    if not args.trace:
        imports = [import_s] + [child[0] for child in children if child is not None]
        metrics, named, raw = end_to_end(args.workload, results, setups, imports)
        expected_names = [m["name"] for m in spec["end_to_end"]]

    if sorted(metrics) != sorted(expected_names):
        print(f"metric names differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(expected_names))}", file=sys.stderr)
        return 3

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = failed == 0 and all(checks.values())
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
        "samples": {"units": len(results), "ops": sum(len(r.ops) for r in results),
                    "host_probes": sum(len(r.probes) for r in results)},
        "fail_ratio": failed / attempted,
        "checks": checks,
        "cross_process_digests": {h: child and child[1]
                                  for h, child in zip(HASH_SEEDS, children)},
    }
    if not args.trace:
        detail["named"] = named
        detail["unscaled"] = raw
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
