"""Importance sampling of Fourier times from the series coefficients.

The (j, k) indices are drawn independently: j proportional to the scaled
Gauss-Legendre weight, k proportional to |dz * z_k * exp(-z_k^2/2)|.  The
zero-amplitude z = 0 node is never drawn.  A sampler draws only (j, k); the
estimator takes tau = y_j z_k, the coefficient phase i * sign(z_k) and the
constant weight N_y * N_z / lambda from them.
"""

from __future__ import annotations

import numpy as np

from .fourier import FourierSeries

# draws per block in the batched samplers: a block's int64 and float64
# arrays are 64 KiB, below glibc's initial 128 KiB mmap threshold, so they
# come from the heap and are reused from block to block instead of being
# mapped and faulted in afresh on every call
DRAW_BLOCK = 8192


def sample_rng(master_seed: int, *key) -> np.random.Generator:
    """Deterministic stream keyed by (master_seed, *key): one per chunk in
    `estimator.run_solver`, one per trial in `experiments`."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, *key)))


class AliasTable:
    """Walker alias table for O(1) draws from a fixed discrete distribution.

    The table pairs lights (n p_i < 1) with heavies (n p_i >= 1) as the
    classic small/large worklist does when it pops both lists from the end,
    but in one prefix-sum sweep (Hübschle-Schneider and Sanders, "Parallel
    Weighted Random Sampling", ESA 2019).  Take lights and heavies each in
    decreasing index order, light k with deficit 1 - n p and cumulative
    deficit D_k, heavy j with surplus n p - 1 and cumulative surplus S_j.
    Light k aliases the first heavy j with S_j >= D_{k-1}.  Heavy j keeps
    1 - (D_k - S_j) and aliases heavy j + 1, k being the first light with
    D_k > S_j; a heavy no light passes, and the last heavy, keep 1.

    The worklist breaks a near tie (a heavy's running residual within a few
    ulps of 1) by its own roundoff.  Prefix sums in float64 carry an error
    of ulp(n), enough to break such ties the other way in the Gauss-Legendre
    weight tables; in extended precision (x86 long double) they reproduce
    the worklist's tables on the series tables of the tests and benchmarks.
    """

    def __init__(self, probabilities):
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 1 or len(p) == 0:
            raise ValueError("probabilities must be a nonempty 1-d array")
        if (p < 0).any():
            raise ValueError("negative probability")
        total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self.probabilities = p
        n = len(p)
        scaled = p * n
        light = scaled < 1.0
        alias = np.zeros(n, dtype=np.int64)
        accept = np.where(light, scaled, 1.0)
        lights = np.flatnonzero(light)[::-1]
        heavies = np.flatnonzero(~light)[::-1]
        deficit = np.cumsum(1.0 - scaled[lights], dtype=np.longdouble)
        surplus = np.cumsum(scaled[heavies] - 1.0, dtype=np.longdouble)
        # each light's heavy, from D_{k-1}; past the last heavy, the light is
        # a leftover
        to = np.searchsorted(surplus, np.concatenate(([0.0], deficit))[:-1])
        paired = to < len(heavies)
        alias[lights[paired]] = heavies[to[paired]]
        # leftovers are numerically 1 up to roundoff -- unless they had
        # exactly zero probability, which must never be drawn
        left = lights[~paired]
        accept[left] = p[left] > 0.0
        # the light that passes each heavy but the last, if any
        passed = np.searchsorted(deficit, surplus[:-1], side="right")
        ends = np.flatnonzero(passed < len(lights))
        accept[heavies[ends]] = 1.0 - (deficit[passed[ends]] - surplus[ends])
        alias[heavies[ends]] = heavies[ends + 1]
        self._alias = alias
        self._accept = accept

    def draw_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = rng.integers(len(self._accept), size=size)
        take_alias = rng.random(size) >= self._accept[idx]
        return np.where(take_alias, self._alias[idx], idx)


def _alias_from_weights(weights) -> AliasTable:
    w = np.abs(np.asarray(weights, dtype=float))
    total = w.sum()
    if total == 0:
        raise ValueError("all weights are zero")
    return AliasTable(w / total)


class TimeSampler:
    """Draws Fourier-time indices (j, k) from a built series."""

    def __init__(self, series: FourierSeries):
        self.p_y = _alias_from_weights(series.grid.wy_weights)
        self.p_z = _alias_from_weights(series.z_amplitudes())
        self.weight = series.N_y * series.N_z / series.lam

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        """One (j, k): the size-1 case of `sample_batch`."""
        j, k = self.sample_batch(rng, 1)
        return int(j[0]), int(k[0])

    def sample_batch(self, rng: np.random.Generator, size: int):
        """(j, k) index arrays of size draws: every j, then every k."""
        return self.p_y.draw_batch(rng, size), self.p_z.draw_batch(rng, size)
