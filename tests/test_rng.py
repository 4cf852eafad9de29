"""The stream must match a from-first-principles reference implementation.

The reference below is written in plain Python big-int arithmetic — no numpy,
no shared helpers — so the two routes to the same numbers are genuinely
independent.
"""

import math

import numpy as np
import pytest

from cvmkit.rng import RandomStream

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_output(seed: int, index: int) -> int:
    """SplitMix64 finalizer applied to seed + index * gamma (counter form)."""
    z = (seed + index * GAMMA) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_raw_matches_reference():
    stream = RandomStream(42)
    raw = stream._raw(5)
    expected = [reference_output(42, i) for i in range(1, 6)]
    assert raw.tolist() == expected


def test_raw_matches_reference_large_seed_wraparound():
    seed = 2**63 + 12345  # forces uint64 wrap in the counter product
    stream = RandomStream(seed)
    raw = stream._raw(4)
    assert raw.tolist() == [reference_output(seed, i) for i in range(1, 5)]


def test_streams_are_reproducible_and_positioned():
    a = RandomStream(7)
    b = RandomStream(7)
    assert a.uniforms(10).tolist() == b.uniforms(10).tolist()
    assert a.position == b.position
    # continuing from a position is the same as drawing in one go
    c = RandomStream(7)
    first = c.uniforms(4)
    second = c.uniforms(6)
    d = RandomStream(7)
    assert np.concatenate([first, second]).tolist() == d.uniforms(10).tolist()


def test_different_seeds_differ():
    assert RandomStream(1).uniforms(8).tolist() != RandomStream(2).uniforms(8).tolist()


def test_uniforms_in_half_open_unit_interval():
    u = RandomStream(123).uniforms(100_000)
    assert u.min() > 0.0
    assert u.max() <= 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_normals_moments_and_determinism():
    z = RandomStream(99).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs(float((z**3).mean())) < 0.02  # symmetric
    again = RandomStream(99).normals(200_000)
    assert np.array_equal(z, again)


def test_normals_odd_count_keeps_layout():
    """Box-Muller draws pairs; an odd request must not shift later draws."""
    a = RandomStream(5)
    a.normals(3)
    tail_a = a.uniforms(4).tolist()
    b = RandomStream(5)
    b.normals(3)
    tail_b = b.uniforms(4).tolist()
    assert tail_a == tail_b


def test_zero_draws():
    stream = RandomStream(1)
    assert stream.uniforms(0).shape == (0,)
    assert stream.normals(0).shape == (0,)
    assert stream.position == 0


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        RandomStream(1).uniforms(-1)


def test_negative_seed_rejected():
    with pytest.raises(ValueError) as err:
        RandomStream(-1)
    assert str(err.value) == "seed must be a non-negative integer"



def test_normals_cover_tails():
    z = RandomStream(7).normals(100_000)
    # ~31 expected beyond 3 sigma per side; just require both tails occupied
    assert (z > 3.0).sum() > 5
    assert (z < -3.0).sum() > 5
    assert math.isfinite(float(np.abs(z).max()))
