"""Tests for the limit-equation population machinery."""

import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from recdist import (
    DivergenceError,
    LimitEquation,
    NormalMixture,
    Pmf,
    PreconditionError,
    dickman_equation,
    dickman_reference_moments,
    iterate_population,
    kolmogorov,
    normal_characterization_iterate,
    quickselect_equation,
)
from recdist import fixed_point
from recdist.fixed_point import contraction_probe


def test_dickman_moment_ladder_exact():
    assert dickman_reference_moments(1) == 1
    assert dickman_reference_moments(2) == F(3, 2)
    assert dickman_reference_moments(3) == F(17, 6)


def test_dickman_moment_order_validated():
    with pytest.raises(PreconditionError):
        dickman_reference_moments(4)


def test_quickselect_population_standardized():
    rng = np.random.default_rng(42)
    res = iterate_population(quickselect_equation(population=400_000), rng)
    assert abs(res.mean) <= 0.01
    assert abs(res.second_moment - res.mean**2 - 1.0) <= 0.02


def test_dickman_population_moments_close_to_ladder():
    rng = np.random.default_rng(43)
    res = iterate_population(dickman_equation(population=400_000), rng)
    n = 400_000
    # crude standard errors from raw fourth/sixth moments of the Dickman law
    assert abs(res.mean - 1.0) <= 3 * math.sqrt(0.5 / n) + 1e-4
    assert abs(res.second_moment - 1.5) <= 0.02
    assert abs(res.third_moment - 17 / 6) <= 0.05


def test_deterministic_contraction_collapses():
    eq = LimitEquation(
        "halving",
        lambda rng, size: (np.full(size, 0.5), np.zeros(size)),
        population=1_000,
        iterations=80,
    )
    res = iterate_population(eq, np.random.default_rng(0))
    assert res.pmf.values == (0.0,)
    assert abs(res.mean) < 1e-12


def test_affine_bridge_between_the_two_equations():
    # the standardized selection limit maps onto the Dickman law via
    # W = sqrt(1/2) X + 1; compare first two moments through the bridge
    rng = np.random.default_rng(44)
    x = iterate_population(quickselect_equation(population=400_000), rng)
    w = iterate_population(dickman_equation(population=400_000), rng)
    bridged_mean = math.sqrt(0.5) * x.mean + 1.0
    bridged_m2 = 0.5 * (x.second_moment - x.mean**2) + bridged_mean**2
    assert bridged_mean == pytest.approx(w.mean, abs=0.01)
    assert bridged_m2 == pytest.approx(w.second_moment, abs=0.03)


def test_contraction_probe_values():
    rng = np.random.default_rng(1)
    assert contraction_probe(quickselect_equation(), rng) == pytest.approx(0.25, abs=0.01)


def test_failing_contraction_rejected():
    eq = LimitEquation(
        "expanding", lambda rng, size: (np.full(size, 1.5), np.zeros(size)), population=1_000
    )
    with pytest.raises(PreconditionError):
        iterate_population(eq, np.random.default_rng(0))


def test_divergence_detector_fires():
    eq = LimitEquation(
        "jumpy", lambda rng, size: (np.full(size, 0.3), np.full(size, 2e12)), population=1_000
    )
    with pytest.raises(DivergenceError):
        iterate_population(eq, np.random.default_rng(0))


def test_population_size_validated():
    with pytest.raises(PreconditionError):
        LimitEquation("tiny", lambda rng, size: (np.zeros(size), np.zeros(size)), population=10)


# ---------------------------------------------------------------------------
# normal characterization
# ---------------------------------------------------------------------------


def coin_law() -> Pmf:
    return Pmf.from_atoms([(-1, 0.5), (1, 0.5)])


def test_zero_steps_returns_input_sample():
    rng = np.random.default_rng(3)
    res = normal_characterization_iterate(coin_law(), 0, rng, population=50_000)
    assert set(float(v) for v in res.pmf.values) <= {-1.0, 1.0}


def test_two_point_composition_approaches_normal():
    rng = np.random.default_rng(4)
    res = normal_characterization_iterate(coin_law(), 64, rng, population=200_000)
    assert kolmogorov(res.pmf, NormalMixture.std_normal()) <= 0.02
    assert abs(res.mean) < 0.01


def test_normal_input_is_fixed():
    rng = np.random.default_rng(5)
    gauss = rng.standard_normal(200_001)
    gauss = (gauss - gauss.mean()) / gauss.std()
    atoms = {}
    for v in np.round(gauss, 3):
        atoms[float(v)] = atoms.get(float(v), 0) + 1
    total = sum(atoms.values())
    law = Pmf.from_atoms([(v, c / total) for v, c in atoms.items()])
    mu, sd = float(law.moment(1)), math.sqrt(float(law.moment(2, central=True)))
    law = law.affine(1 / sd, -mu / sd)
    res = normal_characterization_iterate(law, 16, rng, population=200_000)
    assert kolmogorov(res.pmf, NormalMixture.std_normal()) <= 0.015


def test_moment_preconditions_enforced():
    rng = np.random.default_rng(6)
    skew = Pmf.from_atoms([(0, 0.5), (2, 0.5)])  # mean 1
    with pytest.raises(PreconditionError):
        normal_characterization_iterate(skew, 4, rng)


@pytest.mark.parametrize("bins", [0, -3])
def test_nonpositive_bins_are_precondition_errors(bins):
    # numpy's histogram raised a bare ValueError after the whole iteration
    with pytest.raises(PreconditionError, match="bins"):
        iterate_population(dickman_equation(1000, 2), np.random.default_rng(0), bins=bins)
    with pytest.raises(PreconditionError, match="bins"):
        normal_characterization_iterate(Pmf.from_atoms([(-1, 0.5), (1, 0.5)]), 2,
                                        np.random.default_rng(0), population=1000, bins=bins)


# ---------------------------------------------------------------------------
# the blocked, in-place population kernel against the whole-array formulas
# ---------------------------------------------------------------------------


def _bin_by_unique(x, bins):
    # the np.unique / np.quantile / np.histogram binning the sorted path replaced
    total = x.size
    uniq, counts = np.unique(x, return_counts=True)
    if uniq.size <= bins:
        return Pmf.from_atoms([(float(v), c / total) for v, c in zip(uniq, counts)])
    lo, hi = np.quantile(x, [0.001, 0.999])
    if hi <= lo:
        return Pmf.delta(float(np.round(lo, 12)))
    inside = (x >= lo) & (x <= hi)
    counts, edges = np.histogram(x[inside], bins=bins, range=(float(lo), float(hi)))
    centers = 0.5 * (edges[:-1] + edges[1:])
    atoms = [(float(c), cnt / total) for c, cnt in zip(centers, counts) if cnt > 0]
    return Pmf.from_atoms(atoms, float((total - int(inside.sum())) / total))


def _result_by_whole_arrays(x):
    return (_bin_by_unique(x, 400), float(np.mean(x)), float(np.mean(x**2)),
            float(np.mean(x**3)))


def _iterate_whole_population(eq, rng):
    # one sampler call and one fresh array per step, as before blocking
    eq.coeff_sampler(rng, 1_000_000)  # the contraction probe's draws
    x = np.zeros(eq.population)
    for _ in range(eq.iterations):
        a, b = eq.coeff_sampler(rng, eq.population)
        x = a * x + b
    return _result_by_whole_arrays(x)


def _characterize_whole_population(w_law, steps, rng, population):
    cums = np.cumsum(w_law.probs_f)
    cums /= cums[-1]
    picks = np.searchsorted(cums, rng.random(population))
    x = w_law.values_f[np.minimum(picks, len(cums) - 1)].copy()
    for k in range(1, steps + 1):
        q = math.sqrt(k / (k + 1.0))
        companion = -x[rng.permutation(population)]
        x = q * x + math.sqrt(1.0 - q * q) * companion
    return _result_by_whole_arrays(x)


@pytest.mark.parametrize("make_eq", [quickselect_equation, dickman_equation])
def test_blocked_iteration_is_bit_identical_to_whole_arrays(make_eq):
    eq = make_eq(100_003, 7)  # not a multiple of the block size
    assert eq.population % fixed_point._BLOCK != 0
    res = iterate_population(eq, np.random.default_rng(77))
    assert tuple(res) == _iterate_whole_population(eq, np.random.default_rng(77))


def test_in_place_characterization_is_bit_identical_to_whole_arrays():
    law = Pmf.from_atoms([(-2, 0.1), (-0.5, 0.4), (0.5, 0.4), (2, 0.1)])
    law = law.affine(1 / math.sqrt(float(law.moment(2))), 0)
    res = normal_characterization_iterate(law, 9, np.random.default_rng(8), population=100_003)
    ref = _characterize_whole_population(law, 9, np.random.default_rng(8), 100_003)
    assert tuple(res) == ref


def test_sampler_is_called_block_by_block():
    calls = []

    def sampler(rng, size):
        calls.append(size)
        u = rng.random(size)
        return u, u

    population, iterations = 100_003, 3
    iterate_population(LimitEquation("recorded", sampler, population, iterations),
                       np.random.default_rng(0))
    assert max(calls) <= fixed_point._BLOCK
    per_pass = -(-population // fixed_point._BLOCK)
    probe_calls = -(-1_000_000 // fixed_point._BLOCK)
    assert sum(calls[:probe_calls]) == 1_000_000
    steps = calls[probe_calls:]
    assert len(steps) == iterations * per_pass
    for k in range(iterations):
        assert sum(steps[k * per_pass:(k + 1) * per_pass]) == population


@pytest.mark.parametrize("bins", [1, 7, 400])
def test_sorted_binning_matches_unique_quantile_histogram(bins):
    rng = np.random.default_rng(11)
    spread = np.round(rng.standard_normal(50_000), 2)  # many ties
    on_edges = np.repeat(np.arange(401.0) * 0.25, 30)  # edges k/4 at 400 bins, all exact
    few = rng.choice([-1.5, 0.0, 0.25, 3.0], size=20_000)  # the few-distinct branch
    ends = np.arange(1.0, 202.0)
    narrow = np.concatenate([np.zeros(1_000_000), ends, -ends])  # quantiles tie: a delta
    for data in (spread, on_edges, few, narrow, rng.standard_normal(30_001)):
        got = fixed_point._bin_population(data.copy(), bins)
        assert got == _bin_by_unique(data, bins)


def test_population_working_memory_is_bounded():
    eq = dickman_equation(400_000, 3)
    tracemalloc.start()
    try:
        iterate_population(eq, np.random.default_rng(12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * eq.population


def test_non_finite_coefficient_is_a_divergence_at_its_step():
    def sampler(rng, size):
        u = rng.random(size)
        b = np.where(rng.random(size) < 1e-3, np.nan, u)
        return u, b

    eq = LimitEquation("nan-shift", sampler, population=100_000, iterations=5)
    with pytest.raises(DivergenceError, match="at step 1 "):
        iterate_population(eq, np.random.default_rng(13))


def test_non_finite_probe_is_refused():
    eq = LimitEquation(
        "nan-scale",
        lambda rng, size: (np.where(rng.random(size) < 1e-3, np.nan, 0.5), np.zeros(size)),
        population=1_000,
    )
    with pytest.raises(PreconditionError, match="not finite"):
        contraction_probe(eq, np.random.default_rng(14))
    with pytest.raises(PreconditionError, match="not finite"):
        iterate_population(eq, np.random.default_rng(14))


def test_characterization_population_validated():
    with pytest.raises(PreconditionError, match="population"):
        normal_characterization_iterate(coin_law(), 2, np.random.default_rng(0), population=0)
