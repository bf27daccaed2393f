"""Seeded random number generation.

Every stochastic routine in the package draws from a counter-based
:class:`numpy.random.Generator` (Philox) built here, so runs are reproducible
from a single integer seed and trajectories can be re-run independently.

A scalar loop that pays for a ``Generator`` call per draw can take its draws
from :func:`_scalar_draws` instead: the same stream, bit for bit, read from
blocks of raw Philox words with numpy's own algorithms.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterator

import numpy as np

__all__ = ["generator", "trajectory_seed"]

# raw 64-bit words read per block by _scalar_draws
_BLOCK = 256
_LOW32 = 0xFFFFFFFF


def generator(seed: int) -> np.random.Generator:
    """Return a Philox-backed generator for ``seed``."""
    return np.random.Generator(np.random.Philox(seed))


def _scalar_draws(seed: int) -> tuple[Callable[[int], int], Callable[[], float]]:
    """``below(n)`` and ``uniform()``: ``generator(seed)``'s ``integers(n)``
    and ``uniform()``, call for call, in any interleaving.

    Both reproduce numpy's algorithms on the raw words. ``below`` is
    Lemire's bounded draw (arXiv:1805.10941) on 32-bit halves: a half u
    gives m = u * n, redrawn while the low 32 bits of m fall below
    (2**32 - n) % n, and the draw is m >> 32; n = 1 takes no word. A half
    is the low 32 bits of a fresh word, whose high 32 bits serve the next
    half, as Philox's ``next_uint32`` does. ``uniform`` takes a whole word
    w, leaves any kept half in place, and returns (w >> 11) * 2**-53.
    """
    raw = generator(seed).bit_generator.random_raw

    def words() -> Iterator[int]:
        while True:
            yield from raw(_BLOCK).tolist()

    word = words().__next__
    kept: int | None = None

    def below(n: int) -> int:
        nonlocal kept
        if not 1 <= n <= _LOW32:
            raise ValueError(f"below(n) needs 1 <= n < 2**32, not {n}")
        if n == 1:
            return 0
        while True:
            if kept is None:
                w = word()
                u, kept = w & _LOW32, w >> 32
            else:
                u, kept = kept, None
            m = u * n
            low = m & _LOW32
            # the threshold is below n, so most draws skip the modulo
            if low >= n or low >= (_LOW32 + 1 - n) % n:
                return m >> 32

    def uniform() -> float:
        return (word() >> 11) * 2.0**-53

    return below, uniform


def trajectory_seed(base_seed: int, trajectory_id: int) -> int:
    """Derive an independent child seed for one trajectory.

    The derivation hashes ``base_seed`` and ``trajectory_id`` together, so
    trajectory streams never overlap and trajectory ``k`` can be reproduced
    without generating trajectories ``0..k-1``.
    """
    digest = hashlib.blake2b(
        f"{base_seed}:{trajectory_id}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")
