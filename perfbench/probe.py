"""Host-speed probe.

This host's speed swings by up to 2x over minutes, because it shares its
hardware.  The workloads run ``host_probe()`` between operations, and the
benchmark scales the timings of each unit by the probe's nominal time
over its mean measured next to them, so that the reported figures are at
one reference host speed.  The probe is the benchmark's own code, so a
change to the program leaves it as it is; it imports nothing from the
program, so it can run before the program is imported.
"""

from __future__ import annotations

import hashlib
import hmac
import time
import typing
from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

clock = time.perf_counter

# host_probe() time at the reference host speed
NOMINAL_S = 0.0005

_KEY = bytes(range(32))


@dataclass
class _Record:
    count: int
    key: bytes
    label: str
    items: list[int]


def host_probe() -> float:
    """Host seconds for a fixed piece of work shaped like the simulator's:
    string type-hint introspection, a dataclass, byte assembly, HMAC and
    AES-CTR."""
    begin = clock()
    for i in range(4):
        typing.get_type_hints(_Record)
        record = _Record(i, _KEY, str(i), [i, i + 1])
        blob = (b"".join(v.to_bytes(8, "big") for v in record.items)
                + record.key + record.label.encode())
        tag = hmac.new(record.key, blob, hashlib.sha256).digest()
        Cipher(algorithms.AES(record.key[:16]), modes.CTR(bytes(16))).encryptor().update(
            blob + tag)
    return clock() - begin


def speed_factor(probes: list[float]) -> float:
    """Multiplier that takes a host time measured next to these probes to
    the reference host speed."""
    return NOMINAL_S * len(probes) / sum(probes)
