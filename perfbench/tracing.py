"""Span tracing from outside the program.

``Tracer.install()`` replaces the public functions and methods of each
layer (module) with wrappers that record a span -- name, start, end and
parent -- in memory; ``uninstall()`` puts the originals back.  ``flush()``
folds the recorded spans into per-name totals: calls, inclusive time and
self time (a span's duration minus the time its child spans cover).
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

from fivegsim import crypto, messages, netsim, scenarios, worldfile
from fivegsim.entities import Entity, core

def _public_functions(module):
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.stack: list[int] = []
        self._patches: list = []
        # per span name: [calls, inclusive ns, self ns]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        # time of spans not inside another span of the same layer
        self.layer_outer_ns: dict[str, int] = defaultdict(int)
        self.steps = 0
        self.ignored_steps = 0

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, name_of=None):
        """``fn`` recording one span per call, named ``name`` or
        ``name_of(args)``."""
        spans, stack, now = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[idx] = (name_of(args) if name_of else name, start, end,
                              stack[-1] if stack else -1)

        return traced

    def _patch(self, owner, attr: str, name: str, name_of=None) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__))
        else:
            replacement = self.wrap(name, original, name_of)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module in (messages, crypto):
            for fn in _public_functions(module):
                self._patch(module, fn, f"{module.__name__.rsplit('.', 1)[1]}.{fn}")
        for cls in (crypto.HomeNetworkKeyPair, crypto.RejectSigningKeyPair):
            self._patch(cls, "from_seed", f"crypto.{cls.__name__}.from_seed")

        for attr in ("run_until", "schedule", "active_cells"):
            self._patch(netsim.World, attr, f"netsim.{attr}")
        self._patch(netsim.Transcript, "append", "netsim.transcript_append")
        self._patch(netsim.Transcript, "sha256", "netsim.transcript_sha256")
        self._patch(netsim.Knowledge, "see", "netsim.hook")
        attach = inspect.getattr_static(netsim.World, "attach_adversary")
        tracer = self

        def attach_adversary(world, hook):
            if hook.handler is not None:
                hook.handler = tracer.wrap("netsim.hook", hook.handler)
            return attach(world, hook)

        self._patches.append((netsim.World, "attach_adversary", attach))
        netsim.World.attach_adversary = attach_adversary

        step_names: dict[type, str] = {}

        def step_name(args) -> str:
            cls = type(args[0])
            name = step_names.get(cls)
            if name is None:
                name = step_names[cls] = f"entities.{cls.__name__}.step"
            return name

        self._patch(Entity, "step", "entities.step", step_name)
        self._patch(netsim.StepContext, "ignore", "entities.ignore")
        for fn in ("authorize_nf", "validate_nf_token"):
            self._patch(core, fn, f"entities.{fn}")

        for fn in _public_functions(worldfile):
            self._patch(worldfile, fn, f"worldfile.{fn}")
        builder = worldfile.WorldBuilder
        for attr in [attr for attr, value in vars(builder).items()
                     if inspect.isfunction(value) and not attr.startswith("_")]:
            self._patch(builder, attr, f"worldfile.{attr}")
        self._patch(builder, "__init__", "worldfile.__init__")

        for fn in ("recover_peis", "decrypt_up_payloads"):
            self._patch(scenarios, fn, "scenarios.analytics")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------------

    def flush(self) -> None:
        """Fold the recorded spans into the totals; call with no span open."""
        spans = self.spans
        assert not self.stack, "flush() inside an open span"
        covered = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        ignored_parents = set()
        for idx, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            self_ns = duration - covered[idx]
            entry = self.totals[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_ns
            layer = name.split(".", 1)[0]
            self.layer_self_ns[layer] += self_ns
            if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
                self.layer_outer_ns[layer] += duration
            if name == "entities.ignore" and parent >= 0:
                ignored_parents.add(parent)
            elif name.endswith(".step"):
                self.steps += 1
        self.ignored_steps += sum(1 for p in ignored_parents
                                  if spans[p][0].endswith(".step"))
        spans.clear()

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def us_per_call(self, name: str) -> float:
        calls, total, _ = self.totals.get(name, (0, 0, 0))
        return total / calls / 1e3 if calls else 0.0

    def self_us_per_call(self, name: str) -> float:
        calls, _, self_ns = self.totals.get(name, (0, 0, 0))
        return self_ns / calls / 1e3 if calls else 0.0
