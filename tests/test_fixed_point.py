"""Tests for the limit-equation population machinery."""

import math
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
