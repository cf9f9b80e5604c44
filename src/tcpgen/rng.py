"""Deterministic random streams built on the splitmix64 recurrence.

Every stochastic choice in this package (parameter init, corpus synthesis,
distractor sampling, biasing-word dropping) flows through a `Stream` so that
a fixed seed reproduces every artifact byte for byte.  Uniform doubles take
the top 53 bits of each 64-bit output; Gaussians use Box-Muller on
consecutive uniforms, caching the second variate of each pair.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 output function (Steele, Lea & Flood finalizer)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def hash_bytes(seed: int, data: bytes) -> int:
    """64-bit hash of `data`: absorb each byte into a splitmix64 state.

    Fixed convention: h starts at `seed`; for each byte b,
    h = mix64(((h ^ b) + GAMMA) mod 2^64).  Used to derive per-unit seeds
    (e.g. per-utterance) from a master seed.
    """
    h = seed & MASK64
    for b in data:
        h = mix64(((h ^ b) + GAMMA) & MASK64)
    return h


def derive_seed(master_seed: int, *names: str | int) -> int:
    """Derive a child seed from a master seed and a label path.

    Hashes the 8-byte little-endian master seed concatenated with the
    UTF-8 labels (ints rendered in decimal), separated by '/'.
    """
    label = "/".join(str(n) for n in names)
    data = (master_seed & MASK64).to_bytes(8, "little") + label.encode("utf-8")
    return hash_bytes(0, data)


class Stream:
    """splitmix64 stream yielding uniforms, Gaussians and integer draws."""

    def __init__(self, seed: int):
        self._state = seed & MASK64
        self._gauss_spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def gauss(self) -> float:
        """Standard normal via Box-Muller on consecutive uniforms."""
        if self._gauss_spare is not None:
            g, self._gauss_spare = self._gauss_spare, None
            return g
        u1 = self.uniform()
        u2 = self.uniform()
        # 1 - u1 lies in (0, 1], so the log is finite.
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        theta = 2.0 * math.pi * u2
        self._gauss_spare = r * math.sin(theta)
        return r * math.cos(theta)

    def gauss_array(self, shape, scale: float = 1.0) -> np.ndarray:
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        for i in range(out.size):
            out[i] = self.gauss()
        return (scale * out).reshape(shape)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k: int) -> list:
        """k distinct items, order deterministic; k capped at len(seq).

        Partial Fisher-Yates, swap i taking i + randint(n - i); the k draws
        are one uint64 array (splitmix64 wraps mod 2^64 as on Python ints).
        """
        if k < 0:
            raise ValueError("sample size must be >= 0")
        items = list(seq)
        n = len(items)
        k = min(k, n)
        if k > 0:
            states = (np.arange(1, k + 1, dtype=np.uint64) * np.uint64(GAMMA)
                      + np.uint64(self._state))
            self._state = (self._state + k * GAMMA) & MASK64
            offsets = mix64(states) % np.arange(n, n - k, -1, dtype=np.uint64)
            for i, off in enumerate(offsets.tolist()):
                j = i + off
                items[i], items[j] = items[j], items[i]
        return items[:k]
