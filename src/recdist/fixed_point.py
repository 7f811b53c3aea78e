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


@dataclass(frozen=True)
class LimitEquation:
    """A limit equation described by its coefficient sampler.

    ``coeff_sampler(rng, size)`` draws (A, b) arrays; A must contract in third
    mean (checked by a large-sample probe before iterating).
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
        return u, u.copy()

    return LimitEquation("dickman", sampler, population, iterations)


class PopulationResult(NamedTuple):
    pmf: Pmf  # binned empirical law; clipped tail mass sits in lost_mass
    mean: float
    second_moment: float
    third_moment: float


def contraction_probe(eq: LimitEquation, rng: np.random.Generator, samples: int = 1_000_000) -> float:
    """Sample estimate of E|A|^3; must be below one for the iteration to settle."""
    a, _ = eq.coeff_sampler(rng, samples)
    return float(np.mean(np.abs(a) ** 3))


def _check_bins(bins: int) -> None:
    if bins < 1:
        raise PreconditionError(f"bins must be at least 1 (got {bins})")


def _bin_population(x: np.ndarray, bins: int = 400) -> Pmf:
    total = x.size
    uniq, counts = np.unique(x, return_counts=True)
    if uniq.size <= bins:
        # few distinct values: report them exactly instead of binning
        return Pmf.from_atoms(
            [(float(v), c / total) for v, c in zip(uniq, counts)]
        )
    lo, hi = np.quantile(x, [0.001, 0.999])
    if hi <= lo:
        return Pmf.delta(float(np.round(lo, 12)))
    inside = (x >= lo) & (x <= hi)
    counts, edges = np.histogram(x[inside], bins=bins, range=(float(lo), float(hi)))
    centers = 0.5 * (edges[:-1] + edges[1:])
    atoms = [(float(c), cnt / total) for c, cnt in zip(centers, counts) if cnt > 0]
    lost = float((total - int(inside.sum())) / total)
    return Pmf.from_atoms(atoms, lost)


def iterate_population(
    eq: LimitEquation, rng: np.random.Generator, bins: int = 400
) -> PopulationResult:
    """Push a particle population through the equation and bin the result."""
    _check_bins(bins)
    probe = contraction_probe(eq, rng)
    if probe >= 1.0:
        raise PreconditionError(
            f"{eq.name}: coefficient fails the third-mean contraction probe ({probe:.3f})"
        )
    x = np.zeros(eq.population)
    for _ in range(eq.iterations):
        a, b = eq.coeff_sampler(rng, eq.population)
        x = a * x + b
        if float(np.max(np.abs(x))) > _MAGNITUDE_CAP:
            raise DivergenceError(f"{eq.name}: population left the magnitude envelope")
    return PopulationResult(
        _bin_population(x, bins),
        float(np.mean(x)),
        float(np.mean(x**2)),
        float(np.mean(x**3)),
    )


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
    _check_bins(bins)
    cums = np.cumsum(w_law.probs_f)
    cums /= cums[-1]
    picks = np.searchsorted(cums, rng.random(population))
    x = w_law.values_f[np.minimum(picks, len(cums) - 1)].copy()
    for k in range(1, steps + 1):
        q = math.sqrt(k / (k + 1.0))
        companion = -x[rng.permutation(population)]
        x = q * x + math.sqrt(1.0 - q * q) * companion
    return PopulationResult(
        _bin_population(x, bins),
        float(np.mean(x)),
        float(np.mean(x**2)),
        float(np.mean(x**3)),
    )
