"""The scalar draws read from raw Philox words are numpy's own stream."""

import random

import pytest

from rotpack._rng import _scalar_draws, generator

# 2**31 + 1 rejects about half of all 32-bit draws, so numpy's own stream
# takes the redraw branch many times per seed
BOUNDS = (1, 2, 3, 5, 7, 1000, 2**31 + 1, 2**32 - 1)


@pytest.mark.parametrize("seed", [*range(50), 12345678901234567890])
def test_interleaved_draws_match_the_generator(seed):
    below, uniform = _scalar_draws(seed)
    rng = generator(seed)
    pick = random.Random(seed)
    # long enough to cross several blocks of raw words
    for call in range(2000):
        if pick.random() < 0.3:
            assert uniform() == rng.uniform(), call
        else:
            n = pick.choice(BOUNDS)
            assert below(n) == rng.integers(n), (call, n)


@pytest.mark.parametrize("n", [0, -1, 2**32])
def test_bound_outside_the_32_bit_range_is_refused(n):
    below, _ = _scalar_draws(0)
    with pytest.raises(ValueError, match="below"):
        below(n)
