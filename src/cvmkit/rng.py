"""Deterministic random streams for reproducible synthetic data.

Fixture regeneration has to be byte-identical across runs, so the generator
is fully specified here instead of delegating to a host RNG whose stream may
change with a library upgrade:

* **Bit source** — counter-based SplitMix64.  Output ``i`` (1-based) of a
  stream seeded with ``s`` is ``mix64((s + i * 0x9E3779B97F4A7C15) mod 2^64)``
  where ``mix64`` is the standard finalizer::

      z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
      z ^= z >> 27;  z *= 0x94D049BB133111EB
      z ^= z >> 31

  Because the state walk is an affine counter, any block of outputs is a pure
  function of ``(seed, position)`` and can be produced with vectorized uint64
  arithmetic.

* **Uniforms** — the top 53 bits plus one, scaled by 2^-53, giving doubles in
  (0, 1] (never 0, so logarithms are safe).

* **Normals** — Box-Muller on consecutive uniform pairs
  (``sqrt(-2 ln u1) * cos/sin(2 pi u2)``); no rejection step, so the draw
  count per call is fixed.

The raw bits and the uniforms are integer and power-of-two arithmetic, the
same on every machine.  The normals need not be: numpy picks SIMD
``log``/``cos``/``sin`` kernels by CPU, and these need not round alike.  A
last-bit difference changes a generated rating only when a latent value lies
within a few ulps of a rounding edge (k + 0.5).  ``tests/test_simulate.py``
regenerates the bundled survey under every SIMD level numpy dispatches to on
the test host and compares the bytes.  Measured on an x86-64 host (numpy
2.4.6, baseline ``X86_V2``, dispatch up to ``AVX512_SPR``): the bundled
market's normals changed between levels in 77 of 56,000 draws, by at most
2 ulp (2.2e-16), which moves a latent value by at most 3e-16; the latent
value closest to an edge lies 1.6e-7 from it, a margin of about 5e8.  Across
processes on one machine the output is byte-identical; on another CPU it is
identical unless its kernels err by more than that margin.

A stream consumes positions strictly in call order; callers that need
parameter-independent noise (e.g. iterative calibration re-running a
generator) simply re-seed and issue the same sequence of block requests.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TWO_NEG53 = float(2.0**-53)


class RandomStream:
    """A seeded, position-counted SplitMix64 stream."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._position = 0

    @property
    def position(self) -> int:
        """Number of raw 64-bit outputs consumed so far."""
        return self._position

    def _raw(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"draw count must be non-negative, got {n}")
        index = np.arange(self._position + 1, self._position + n + 1, dtype=np.uint64)
        self._position += n
        z = self._seed + index * _GAMMA
        z ^= z >> _S30
        z *= _MIX1
        z ^= z >> _S27
        z *= _MIX2
        z ^= z >> _S31
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on (0, 1]."""
        bits = (self._raw(n) >> _S11) + np.uint64(1)
        return bits.astype(np.float64) * _TWO_NEG53

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normal doubles (Box-Muller, pairs consumed jointly)."""
        pairs = (n + 1) // 2
        u1 = self.uniforms(pairs)
        u2 = self.uniforms(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]
