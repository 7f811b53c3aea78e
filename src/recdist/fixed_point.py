"""Population iteration for distributional fixed-point equations X = AX + b.

A population of particles is pushed through x <- A*x + b with fresh
independent coefficient draws per particle per step; after enough steps the
empirical law approximates the fixed point. Also provides the self-similarity
iteration that drives two-moment laws to the standard normal, and the exact
moment ladder of the Dickman law for use as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergenceError, PreconditionError
from .pmf import Pmf

_MAGNITUDE_CAP = 1e12
#: particles per block of a population step; a block's arrays stay in cache
_BLOCK = 1 << 15


@dataclass(frozen=True)
class LimitEquation:
    """A limit equation described by its coefficient sampler.

    ``coeff_sampler(rng, size)`` draws (A, b) arrays for ``size`` particles;
    A must contract in third mean (checked by a large-sample probe before
    iterating). The population is updated in blocks, and the sampler is
    called once per block with that block's size. It must draw each
    particle's coefficients independently and in stream order, so that the
    results do not depend on the block size; it may return the same array
    for A and b, since neither is written to.
    """

    name: str
    coeff_sampler: Callable[[np.random.Generator, int], tuple]
    population: int = 200_000
    iterations: int = 60

    def __post_init__(self):
        if self.population < 1_000:
            raise PreconditionError("population must be at least 1e3")
        if self.iterations < 0:
            raise PreconditionError("iteration count must be nonnegative")


def quickselect_equation(population: int = 200_000, iterations: int = 60) -> LimitEquation:
    """Standardized minimum-selection limit: A = U, b = sqrt(2)(2U - 1)."""

    def sampler(rng: np.random.Generator, size: int) -> tuple:
        u = rng.random(size)
        return u, math.sqrt(2.0) * (2.0 * u - 1.0)

    return LimitEquation("quickselect", sampler, population, iterations)


def dickman_equation(population: int = 200_000, iterations: int = 60) -> LimitEquation:
    """Dickman limit W = U W + U (the same uniform multiplies and shifts)."""

    def sampler(rng: np.random.Generator, size: int) -> tuple:
        u = rng.random(size)
        return u, u

    return LimitEquation("dickman", sampler, population, iterations)


class PopulationResult(NamedTuple):
    pmf: Pmf  # binned empirical law; clipped tail mass sits in lost_mass
    mean: float
    second_moment: float
    third_moment: float


def _blocks(size: int):
    """Yield (start, stop) bounds of consecutive blocks of at most _BLOCK items."""
    for start in range(0, size, _BLOCK):
        yield start, min(start + _BLOCK, size)


def contraction_probe(eq: LimitEquation, rng: np.random.Generator, samples: int = 1_000_000) -> float:
    """Sample estimate of E|A|^3; must be below one for the iteration to settle."""
    total = 0.0
    for start, stop in _blocks(samples):
        a, _ = eq.coeff_sampler(rng, stop - start)
        total += float(np.sum(np.abs(a) ** 3))
    probe = total / samples
    if not math.isfinite(probe):
        raise PreconditionError(f"{eq.name}: contraction probe is not finite ({probe})")
    return probe


def _check_bins(bins: int) -> None:
    if bins < 1:
        raise PreconditionError(f"bins must be at least 1 (got {bins})")


def _sorted_quantile(s: np.ndarray, q: float) -> float:
    """np.quantile's default (linear) method read off an already sorted array.

    Same operands and operation order as numpy's ``_lerp``, so the value is
    bit-identical to ``np.quantile(s, q)`` for 0 <= q < 1 and s.size >= 2.
    """
    v = (s.size - 1) * q
    i = math.floor(v)
    t = v - i
    a, b = s[i], s[i + 1]
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def _bin_population(x: np.ndarray, bins: int = 400) -> Pmf:
    """Binned empirical law of a finite population; sorts ``x`` in place.

    Few distinct values are reported exactly. Otherwise the values between
    the 0.1% and 99.9% quantiles fall into ``bins`` equal-width bins, each
    half-open except the last (``np.histogram``'s rule), and the rest of the
    mass goes to ``lost_mass``.
    """
    total = x.size
    x.sort()
    change = x[1:] != x[:-1]
    if np.count_nonzero(change) < bins:
        # few distinct values: report them exactly instead of binning
        starts = np.concatenate(([0], np.flatnonzero(change) + 1))
        counts = np.diff(np.append(starts, total))
        return Pmf.from_atoms(
            [(float(x[s]), c / total) for s, c in zip(starts, counts)]
        )
    lo, hi = _sorted_quantile(x, 0.001), _sorted_quantile(x, 0.999)
    if hi <= lo:
        return Pmf.delta(float(np.round(lo, 12)))
    edges = np.histogram_bin_edges(x, bins=bins, range=(float(lo), float(hi)))
    bounds = np.searchsorted(x, edges)  # edges[0] is lo itself
    bounds[-1] = np.searchsorted(x, hi, side="right")  # the last bin is closed
    counts = np.diff(bounds)
    centers = 0.5 * (edges[:-1] + edges[1:])
    atoms = [(float(c), cnt / total) for c, cnt in zip(centers, counts) if cnt > 0]
    lost = float((total - (bounds[-1] - bounds[0])) / total)
    return Pmf.from_atoms(atoms, lost)


def _binned_result(x: np.ndarray, bins: int) -> PopulationResult:
    # the moments read x in its own order, before binning sorts it
    mean, second, third = float(np.mean(x)), float(np.mean(x**2)), float(np.mean(x**3))
    return PopulationResult(_bin_population(x, bins), mean, second, third)


def iterate_population(
    eq: LimitEquation, rng: np.random.Generator, bins: int = 400
) -> PopulationResult:
    """Push a particle population through the equation and bin the result.

    Each step updates the population in place, block by block, so the
    working memory is the population plus one transient population-sized
    array (for the moments).
    """
    _check_bins(bins)
    probe = contraction_probe(eq, rng)
    if probe >= 1.0:
        raise PreconditionError(
            f"{eq.name}: coefficient fails the third-mean contraction probe ({probe:.3f})"
        )
    x = np.zeros(eq.population)
    for step in range(1, eq.iterations + 1):
        for start, stop in _blocks(eq.population):
            a, b = eq.coeff_sampler(rng, stop - start)
            block = x[start:stop]
            block *= a
            block += b
            big = float(np.max(np.abs(block)))
            if not big <= _MAGNITUDE_CAP:  # also catches NaN
                raise DivergenceError(
                    f"{eq.name}: population left the magnitude envelope at step {step} ({big})"
                )
    return _binned_result(x, bins)


def dickman_reference_moments(k: int) -> Fraction:
    """Exact raw moments of the Dickman law from its moment ladder.

    Taking k-th moments in W = U(W + 1) gives
    E W^k = (1/k) * sum_{j<k} C(k, j) E W^j, solved ascending in k.
    """
    if k not in (1, 2, 3):
        raise PreconditionError("reference moments available for k in {1, 2, 3}")
    moments = [Fraction(1)]  # E W^0
    for kk in range(1, k + 1):
        acc = sum(math.comb(kk, j) * moments[j] for j in range(kk))
        moments.append(Fraction(acc, kk))
    return moments[k]


def normal_characterization_iterate(
    w_law: Pmf,
    steps: int,
    rng: np.random.Generator,
    population: int = 200_000,
    bins: int = 400,
) -> PopulationResult:
    """Drive a zero-mean unit-variance law toward the standard normal.

    Iterates the two-sided self-similarity step x <- q x + sqrt(1 - q^2) w
    with q = sqrt(k/(k+1)) at step k, where w is an independent mean-zero
    unit-variance companion drawn as the negated, reshuffled population (the
    negation keeps the finite population's empirical mean from compounding:
    the mean multiplier is q - sqrt(1-q^2) instead of q + sqrt(1-q^2) > 1).
    The normal law is the unique two-moment fixed point of these maps, so the
    composition contracts any starting law onto it.
    """
    mean = float(w_law.moment(1))
    var = float(w_law.moment(2, central=True))
    if abs(mean) > 1e-9 or abs(var - 1.0) > 1e-9:
        raise PreconditionError(
            f"need mean 0 and variance 1 (got {mean:.2e}, {var:.6f})"
        )
    if steps < 0:
        raise PreconditionError("step count must be nonnegative")
    if population < 1:
        raise PreconditionError("population must be at least 1")
    _check_bins(bins)
    cums = np.cumsum(w_law.probs_f)
    cums /= cums[-1]
    picks = np.searchsorted(cums, rng.random(population))
    np.minimum(picks, len(cums) - 1, out=picks)
    x = w_law.values_f[picks]
    del picks
    companion = np.empty_like(x)
    for k in range(1, steps + 1):
        q = math.sqrt(k / (k + 1.0))
        # shuffling a copy draws the same swaps as rng.permutation(population),
        # so companion equals x[rng.permutation(population)]
        np.copyto(companion, x)
        rng.shuffle(companion)
        companion *= -math.sqrt(1.0 - q * q)
        x *= q
        x += companion
    del companion
    return _binned_result(x, bins)
