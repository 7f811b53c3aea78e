"""Unit tests for discrete laws and the outer truncation rule."""

import json
import math
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdist import Pmf, PreconditionError
from recdist.pmf import outer_trim

HALF = F(1, 2)


def coin() -> Pmf:
    return Pmf.from_atoms([(0, HALF), (1, HALF)])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_atoms_sorted_and_merged():
    p = Pmf.from_atoms([(2, F(1, 4)), (0, F(1, 4)), (2, F(1, 2))])
    assert p.values == (0, 2)
    assert p.probs == (F(1, 4), F(3, 4))


def test_float_merge_tolerance():
    p = Pmf.from_atoms([(1.0, 0.5), (1.0 + 1e-14, 0.25), (2.0, 0.25)])
    assert len(p.values) == 2


def test_negative_prob_rejected():
    with pytest.raises(PreconditionError):
        Pmf((0, 1), (F(3, 2), F(-1, 2)))


def test_mass_deviation_rejected():
    with pytest.raises(PreconditionError):
        Pmf((0,), (0.5,))


def test_duplicate_values_rejected():
    with pytest.raises(PreconditionError):
        Pmf((1, 1), (HALF, HALF))


@pytest.mark.parametrize(
    "values, near",
    [
        ((0, 2, 1, 0), 1),  # ints
        ((0.0, 2.0, 2.0), 2.0),  # floats
        ((0, 1.5, 1), 1),  # an int after a float
        ((F(1, 3), F(1, 3)), F(1, 3)),  # Fractions
        ((4, 4 + F(1, 2**51), 4 + F(1, 2**52)), 4 + F(1, 2**52)),  # rationals one float apart
        ((True, 2, 1), 1),  # a bool is compared pair by pair
    ],
)
def test_values_not_increasing_rejected_at_the_first_offender(values, near):
    probs = (F(1, len(values)),) * len(values)
    with pytest.raises(PreconditionError, match=f"near {re.escape(str(near))}$"):
        Pmf(values, probs)


def test_increasing_values_of_mixed_types_accepted():
    # distinct rationals one float apart, and an int next to a float
    assert Pmf((4, 4 + F(1, 2**51), 5.5), (F(1, 4), F(1, 4), F(1, 2))).values[1] > 4
    assert Pmf((0, 0.5, 1), (0.25, 0.25, 0.5)).values == (0, 0.5, 1)


# ---------------------------------------------------------------------------
# affine maps
# ---------------------------------------------------------------------------


def test_affine_point():
    assert Pmf.delta(1).affine(2, 3).values == (5,)


def test_affine_reflection():
    p = coin().affine(-1, 0)
    assert p.values == (-1, 0)
    assert p.probs == (HALF, HALF)


def test_affine_identity():
    p = coin()
    q = p.affine(1, 0)
    assert q.values == p.values and q.probs == p.probs


def test_affine_keeps_exact_atoms_closer_than_float_resolution():
    # 4 and 4 + 2^-51 are distinct rationals that round to the same float
    p = Pmf.from_atoms([(0, F(1, 2)), (1, F(1, 2))])
    q = p.affine(F(1, 2**51), 4)
    assert q.values == (4, 4 + F(1, 2**51))
    assert q.affine(2**51, -(2**53)) == p
    assert Pmf.from_atoms([(4 + F(1, 2**51), F(1, 2)), (4, F(1, 2))]) == q


def test_affine_zero_scale_rejected():
    with pytest.raises(PreconditionError):
        coin().affine(0, 1)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_central_second_moment():
    p = Pmf.from_atoms([(-1, HALF), (1, HALF)])
    assert p.moment(2, central=True) == 1


def test_raw_mean_exact():
    p = Pmf.from_atoms([(1, F(1, 3)), (2, F(1, 2)), (3, F(1, 6))])
    assert p.moment(1) == F(11, 6)


def test_point_mass_central_moments_vanish():
    d = Pmf.delta(F(7, 3))
    assert d.moment(1, central=True) == 0
    assert d.moment(2, central=True) == 0
    assert d.moment(5, central=True) == 0


def test_moment_order_validated():
    with pytest.raises(PreconditionError):
        coin().moment(0)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def test_truncate_zero_budget_is_identity():
    assert outer_trim(coin().probs, 0) == (0, 1, 0)


def test_truncate_outer_atom():
    lo, hi, removed = outer_trim((1e-15, 1 - 1e-15), 1e-12)
    assert (lo, hi) == (1, 1)
    assert removed == pytest.approx(1e-15)


def _greedy_trim(probs, eps) -> tuple:
    """The outer-truncation loop as first written: every atom read in turn."""
    lo, hi = 0, len(probs) - 1
    removed = 0
    while lo < hi:
        side_lo = probs[lo] <= probs[hi]
        cand = probs[lo] if side_lo else probs[hi]
        if removed + cand > eps:
            break
        removed = removed + cand
        if side_lo:
            lo += 1
        else:
            hi -= 1
    return lo, hi, removed


def _check_trim(probs, eps):
    got, want = outer_trim(probs, eps), _greedy_trim(probs, eps)
    assert got[:2] == want[:2]
    assert got[2] == want[2] and type(got[2]) in (type(want[2]), float)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([1e-16, 2e-16, 3e-14, 1e-13, 5e-13, 1e-12, 0.25, 0.5]), min_size=1, max_size=40),
    st.lists(st.sampled_from([1e-16, 1e-15, 4e-14, 3e-13, 1e-12, 0.5]), max_size=60),
    st.integers(0, 100),
    st.sampled_from([0.0, 1e-15, 1e-13, 1e-12, 1e-10, 1.0]),
)
def test_trim_equals_the_atom_by_atom_loop_on_float_rows(body, tail, split, eps):
    # light tails of unequal length around a heavier body; ties between the
    # two ends pick the low one
    probs = np.array(tail[: split % (len(tail) + 1)] + body + tail[::-1])
    _check_trim(probs, eps)
    _check_trim(tuple(probs.tolist()), eps)


def test_trim_equals_the_atom_by_atom_loop_on_ties():
    for n in (1, 2, 3, 300, 301):
        probs = np.full(n, 1e-14)
        for eps in (0.0, 1e-14, 5e-13, 1e-12, 1.0):
            _check_trim(probs, eps)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=30), st.integers(0, 40))
def test_trim_equals_the_atom_by_atom_loop_on_exact_numerators(nums, eps):
    # exact rows: int numerators in an object array against an int budget,
    # and Fraction probabilities against a Fraction budget
    _check_trim(np.array(nums, dtype=object), eps)
    total = sum(nums)
    _check_trim(tuple(F(a, total) for a in nums), F(eps, 4 * total))
    _check_trim(np.array(nums, dtype=object), 0)


def test_truncate_keeps_mass_invariant():
    probs = [2.0 ** -(i + 1) for i in range(40)] + [2.0**-40]
    lo, hi, removed = outer_trim(probs, 1e-6)
    assert lo == 0 and hi < 40  # the small atoms sit at the upper end
    assert math.fsum(probs[lo : hi + 1]) + removed == pytest.approx(1.0, abs=1e-12)
    assert 0 < removed <= 1e-6


# ---------------------------------------------------------------------------
# algebraic properties (exact rational mode)
# ---------------------------------------------------------------------------

def _build_pmf(pairs):
    dedup = {v: w for v, w in pairs}
    total = sum(dedup.values())
    return Pmf.from_atoms([(v, F(w, total)) for v, w in dedup.items()])


rational_pmfs = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(1, 12)), min_size=1, max_size=5
).map(_build_pmf)


@settings(max_examples=60, deadline=None)
@given(rational_pmfs, st.fractions(F(-5), F(5)), st.fractions(F(-5), F(5)))
def test_affine_roundtrip_exact(p, s, t):
    if s == 0:
        return
    q = p.affine(s, t).affine(1 / s, -t / s)
    assert q.values == p.values and q.probs == p.probs


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_roundtrip():
    p = Pmf.from_atoms([(F(1, 3), 0.25), (2, 0.75)])
    q = Pmf.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
    assert q.values == p.values
    assert all(abs(float(a) - float(b)) < 1e-15 for a, b in zip(q.probs, p.probs))

