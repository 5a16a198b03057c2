"""Deterministic randomness for the simulator.

Every source of randomness in a run is a RandomStream derived from the
64-bit world seed plus a purpose label.  Streams are independent of each
other and of event interleaving, so a run is reproducible byte for byte
from (seed, label) alone.
"""

from __future__ import annotations

import hashlib

# stream byte -> the ASCII digit it draws (b % 10), and the bytes that draw
# none: 250 up, so each digit is uniform
_DIGIT = bytes(0x30 + b % 10 for b in range(256))
_REDRAWN = bytes(range(250, 256))


class RandomStream:
    """Counter-mode SHA-256 byte stream, seeded by (seed, label)."""

    def __init__(self, seed: int, label: str = ""):
        if seed < 0 or seed >= 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self._prefix = seed.to_bytes(8, "big") + label.encode("utf-8")
        self._counter = 0
        self._buffer = b""

    def take(self, n: int) -> bytes:
        """Return the next n bytes of the stream."""
        while len(self._buffer) < n:
            block = hashlib.sha256(
                self._prefix + b"|" + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def digits(self, n: int) -> str:
        """n uniform decimal digits, each ``b % 10`` of one stream byte ``b``;
        a byte from 250 up is redrawn, as rejection sampling does."""
        out = b""
        while len(out) < n:
            out += self.take(n - len(out)).translate(_DIGIT, _REDRAWN)
        return out.decode()


class StreamFactory:
    """Hands out labeled RandomStreams for one world seed.

    Repeated requests for the same label continue the same stream.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, RandomStream] = {}

    def stream(self, label: str) -> RandomStream:
        if label not in self._streams:
            self._streams[label] = RandomStream(self.seed, label)
        return self._streams[label]
