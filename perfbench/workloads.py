"""The benchmark's three workloads.

A workload is a sequence of units.  ``setup()`` builds what one unit
starts from (timed apart, for ``setup_s``) and ``run()`` does the unit's
work, timing each operation and checking its outputs.  Every input --
world seeds, arrival times, payloads -- comes from the workload seed
through ``random.Random``, so unit ``k`` of a given seed is the same in
every process whatever ``PYTHONHASHSEED`` is.  The simulator only ever
sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from fivegsim import flows, messages, scenarios, worldfile
from fivegsim.identity import SuciScheme
from fivegsim.netsim import World
from fivegsim.policy import OperatorPolicy
from probe import clock, host_probe, speed_factor

# Far past the last event of any unit: running to it drains the queue.
DRAIN_HORIZON = 1_000_000
# Probes on each side of a segment that set its host-speed scale.
PROBE_WINDOW = 2


@dataclass
class UnitResult:
    """One unit's measurements.

    The unit's timed work is a list of segments, each a host time and the
    index of the host probe run just before it; every unit starts and
    ends with a probe, so each segment lies between two probes.  An
    operation is a range of segments.
    """

    attempted: int = 0
    failed: int = 0
    events: int = 0
    dropped: int = 0
    digest: str = ""
    payload_bytes: int = 0
    probes: list[float] = field(default_factory=list)
    segments: list[tuple[float, int]] = field(default_factory=list)
    ops: list[tuple[int, int]] = field(default_factory=list)  # first, last segment

    def probe(self) -> None:
        self.probes.append(host_probe())

    def timed(self, fn, *args):
        """Call ``fn(*args)`` as the next segment and return its value."""
        begin = clock()
        value = fn(*args)
        self.segments.append((clock() - begin, len(self.probes) - 1))
        return value

    def timed_op(self, fn, *args):
        """``timed()`` for a segment that is a whole operation."""
        value = self.timed(fn, *args)
        self.ops.append((len(self.segments) - 1, len(self.segments) - 1))
        return value

    def scaled_segments(self) -> list[float]:
        """Segment times at the reference host speed: each is scaled by
        the PROBE_WINDOW probes before it and as many after."""
        window = PROBE_WINDOW
        return [duration * speed_factor(self.probes[max(0, i + 1 - window):i + 1 + window])
                for duration, i in self.segments]


def _dropped(transcript) -> int:
    return len(transcript.entries) - sum(1 for _ in transcript.delivered())


def _keys_agree(outcome: flows.RegistrationOutcome) -> bool:
    return (outcome.ue_context is not None and outcome.amf_context is not None
            and outcome.ue_context.keys.get("k_amf")
            == outcome.amf_context.keys.get("k_amf"))


class RegStorm:
    """One SA network (concealment profile A), 3 cells and 400 UEs whose
    registration triggers are spread over the first 50 simulated ms; the
    world then runs until no events remain and its transcript is hashed.

    An operation is one registration.  Its latency is the host time the
    bus spent from the slice holding the UE's trigger to the slice in
    which the UE became registered; the world advances in 1-ms slices so
    that completions can be seen without instrumenting the program.
    """

    name = "reg_storm"
    UES = 400
    CELLS = ("cell-a", "cell-b", "cell-c")
    SPREAD_MS = 50
    SLICE_LIMIT_MS = 20_000

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def inputs(self):
        world_seed = self.rng.getrandbits(32)
        arrivals = [(self.rng.randrange(self.SPREAD_MS), self.rng.choice(self.CELLS))
                    for _ in range(self.UES)]
        return world_seed, arrivals

    def setup(self, inputs):
        world_seed, arrivals = inputs
        world, builder = worldfile.single_network_world(
            seed=world_seed, ue_count=self.UES, cell_count=len(self.CELLS))
        due: dict[int, list] = {}
        for i, (at, cell) in enumerate(arrivals):
            ue_id = f"ue{i + 1}"
            flows.trigger(world, ue_id,
                          messages.TriggerRegistration(target_cell=cell), delay=at)
            due.setdefault(at, []).append(world.entities[ue_id])
        return world, builder, due

    @staticmethod
    def _drain(world) -> str:
        world.run_until(DRAIN_HORIZON)
        return world.transcript.sha256()

    def run(self, fixture) -> UnitResult:
        world, builder, due = fixture
        result = UnitResult(attempted=self.UES)
        started: dict[str, int] = {}  # UE -> first segment of its registration
        active: list = []
        t = 0
        while len(result.ops) < self.UES and t <= self.SLICE_LIMIT_MS:
            for ue in due.get(t, ()):
                started[ue.entity_id] = len(result.segments)
                active.append(ue)
            result.probe()
            result.timed(world.run_until, t)
            still = []
            for ue in active:
                if ue.last_outcome() == "registered":
                    result.ops.append((started[ue.entity_id], len(result.segments) - 1))
                else:
                    still.append(ue)
            active = still
            t += 1
        result.probe()
        result.digest = result.timed(self._drain, world)
        result.probe()
        result.events = len(world.transcript.entries)
        result.dropped = _dropped(world.transcript)

        amf = builder.networks["net"].amf
        for i in range(self.UES):
            ue = world.entities[f"ue{i + 1}"]
            session = flows.find_amf_session(amf, ue)
            if not (ue.last_outcome() == "registered" and session is not None
                    and session.context is not None and ue.context is not None
                    and ue.context.keys.get("k_amf") == session.context.keys.get("k_amf")):
                result.failed += 1
        return result


def _registration_variant(build):
    def run(seed: int):
        world, _ = build(seed)
        outcome = flows.run_registration(world, "ue1")
        predicates = {"registered": outcome.success, "keys_agree": _keys_agree(outcome)}
        return predicates, world.transcript.sha256()
    return run


def _scenario_variant(scenario_id: str, overrides: dict):
    def run(seed: int):
        report = scenarios.run_scenario(scenario_id, overrides, seed)
        return report.outcome, report.transcript_sha256
    return run


def sweep_variants() -> dict:
    """The 24 sweep variants: 12 scenarios, the 8 mitigated variants of
    the README table, and registration in 4 worlds no scenario builds."""
    variants = {sid: _scenario_variant(sid, {}) for sid in scenarios.SCENARIO_IDS}
    for sid, key, value in (
        ("TS_02", "revoke_stolen_sepp", "true"),
        ("TS_04", "context_renewal_interval", "5000"),
        ("TS_05", "signed_reject_enabled", "true"),
        ("TS_05", "blacklist_rogue", "true"),
        ("TS_06", "nas_ciphering", "true"),
        ("TS_07", "jam_suppression_enabled", "true"),
        ("TS_11", "overlap_cell", "true"),
        ("TS_12", "reserved_for_victim", "2"),
    ):
        variants[f"{sid}.{key}"] = _scenario_variant(sid, {key: value})
    variants["reg_sa_profile_b"] = _registration_variant(
        lambda s: worldfile.single_network_world(
            s, OperatorPolicy(suci_scheme=SuciScheme.PROFILE_B)))
    variants["reg_sa_null"] = _registration_variant(
        lambda s: worldfile.single_network_world(
            s, OperatorPolicy(suci_scheme=SuciScheme.NULL)))
    variants["reg_nsa"] = _registration_variant(
        lambda s: worldfile.single_network_world(s, OperatorPolicy(mode="NSA")))
    variants["reg_roaming"] = _registration_variant(lambda s: worldfile.roaming_world(s))
    return variants


class _WorldLog:
    """Collects the worlds built while active, to count their events
    after the timed runs; it only appends to a list per world built."""

    def __enter__(self):
        self.worlds: list[World] = []
        self._init = World.__init__
        original, worlds = self._init, self.worlds

        def init(world, *args, **kwargs):
            original(world, *args, **kwargs)
            worlds.append(world)

        World.__init__ = init
        return self

    def __exit__(self, *exc):
        World.__init__ = self._init
        return False


class Sweep:
    """A researcher's seed sweep: one fresh small world per (variant, seed).
    A unit is one pass over the 24 variants with one scenario seed; an
    operation is one run, whose predicates must equal the recorded ones."""

    name = "sweep"

    def __init__(self, seed: int, expected: dict, span=None):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.expected = expected
        # the traced run wraps each variant in a span named after it
        self.variants = {name: span(f"scenarios.variant.{name}", run) if span else run
                         for name, run in sweep_variants().items()}

    def inputs(self):
        return self.rng.getrandbits(32)

    def setup(self, inputs):
        return inputs

    def run(self, scenario_seed) -> UnitResult:
        result = UnitResult(attempted=len(self.variants))
        digests = []
        with _WorldLog() as log:
            for name, run in self.variants.items():
                result.probe()
                predicates, digest = result.timed_op(run, scenario_seed)
                digests.append(digest)
                if predicates != self.expected.get(name):
                    result.failed += 1
            result.probe()
        result.events = sum(len(w.transcript.entries) for w in log.worlds)
        result.dropped = sum(_dropped(w.transcript) for w in log.worlds)
        result.digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()
        return result


class UserPlane:
    """Eight registered UEs with a PDU session each (user-plane integrity
    and ciphering on).  A unit is a closed loop of one client sending
    3,000 app-data packets round-robin over the UEs, sizes cycling
    64/512/1400 B, each driven to quiescence before the next; an
    operation is one packet, which must reach the UPF byte-equal."""

    name = "user_plane"
    UES = 8
    PACKETS = 3000
    SIZES = (64, 512, 1400)
    PROBE_EVERY = 16  # packets, about 10 ms

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def inputs(self):
        world_seed = self.rng.getrandbits(32)
        payloads = [self.rng.randbytes(self.SIZES[k % len(self.SIZES)])
                    for k in range(self.PACKETS)]
        return world_seed, payloads

    def setup(self, inputs):
        world_seed, payloads = inputs
        world, builder = worldfile.single_network_world(
            seed=world_seed, policy=OperatorPolicy(up_integrity=True),
            ue_count=self.UES)
        for i in range(self.UES):
            flows.run_registration(world, f"ue{i + 1}")
            flows.establish_user_plane(world, f"ue{i + 1}")
        return world, builder, payloads

    def run(self, fixture) -> UnitResult:
        world, builder, payloads = fixture
        received = builder.networks["net"].upf.received
        result = UnitResult(attempted=len(payloads))
        events_before = len(world.transcript.entries)
        for k, payload in enumerate(payloads):
            if k % self.PROBE_EVERY == 0:
                result.probe()
            before = len(received)
            result.timed_op(flows.send_app_data, world, f"ue{k % self.UES + 1}", payload)
            if len(received) != before + 1 or received[-1][1] != payload:
                result.failed += 1
            result.payload_bytes += len(payload)
        result.probe()
        result.events = len(world.transcript.entries) - events_before
        result.dropped = _dropped(world.transcript)
        result.digest = world.transcript.sha256()
        return result
