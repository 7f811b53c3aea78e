"""Tests for the distance evaluators and their dual certification."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from recdist import (
    MomentMismatchError,
    make,
    NormalMixture,
    Pmf,
    PiecewiseCubic,
    PreconditionError,
    kolmogorov,
    normal_partial_square_moment,
    random_smooth_member,
    wasserstein1,
    zeta3,
    zeta3_lower_probe,
)
from recdist import metrics as metrics_module
from recdist.clt import accompanying_law, standardized_law
from recdist.metrics import _excess_squares, _law, _zeta3_quad

COIN = Pmf.from_atoms([(-1, 0.5), (1, 0.5)])
STD = NormalMixture.std_normal()

# frozen during development from the certified evaluator; re-derived in-test
# by the dual probe below
ZETA3_COIN_NORMAL = 0.0992949


def _phi(x):
    return math.exp(-x * x / 2) / math.sqrt(2 * math.pi)


# ---------------------------------------------------------------------------
# partial moments
# ---------------------------------------------------------------------------


def test_partial_square_moment_at_zero():
    assert normal_partial_square_moment(0.0) == pytest.approx(0.5, abs=1e-14)


def test_partial_square_moment_far_right_tail():
    assert normal_partial_square_moment(40.0) == pytest.approx(0.0, abs=1e-12)


def test_partial_square_moment_against_quadrature():
    # independent oracle: numerical integration of (x - t)^2 phi(x)
    oracle, err = quad(lambda x: (x + 10.0) ** 2 * _phi(x), -10.0, 60.0)
    val = normal_partial_square_moment(-10.0)
    assert val == pytest.approx(oracle, abs=1e-6 + err)
    assert val == pytest.approx(101.0, abs=1e-6)


def test_partial_square_moment_general_params_against_quadrature():
    t, m, s = 0.7, -1.3, 2.4
    oracle, err = quad(lambda x: (x - t) ** 2 * _phi((x - m) / s) / s, t, m + 60 * s)
    assert normal_partial_square_moment(t, m, s) == pytest.approx(oracle, abs=1e-8 + err)


def test_partial_square_moment_degenerate_sd():
    assert normal_partial_square_moment(1.0, mean=3.0, sd=0.0) == 4.0
    assert normal_partial_square_moment(5.0, mean=3.0, sd=0.0) == 0.0


# ---------------------------------------------------------------------------
# blocked mixture kernels
# ---------------------------------------------------------------------------


def _point_and_normal_mixture(rng, n_normal, n_point):
    # point masses share means in threes, so the view must merge them
    k = n_normal + n_point
    w = rng.uniform(0.5, 1.5, k)
    w /= math.fsum(w)
    m = rng.normal(0.0, 2.0, k)
    m[n_normal:] = m[n_normal + np.arange(n_point) // 3]
    s = np.concatenate([rng.uniform(0.1, 2.0, n_normal), np.zeros(n_point)])
    return NormalMixture(tuple(w.tolist()), tuple(m.tolist()), tuple(s.tolist()))


@pytest.mark.parametrize("block", [None, 64])
def test_blocked_mixture_kernels_match_one_shot_reference(monkeypatch, block):
    # 401 points x 340 components span several blocks at the default size;
    # a 64-pair block also splits the components across blocks
    if block is not None:
        monkeypatch.setattr(metrics_module, "_BLOCK", block)
    mix = _point_and_normal_mixture(np.random.default_rng(12), 300, 40)
    ts = np.linspace(-12.0, 12.0, 401)
    comps = list(zip(mix.weights, mix.means, mix.sds))
    excess = sum(w * normal_partial_square_moment(ts, m, s) for w, m, s in comps)
    cdf = sum(w * (ndtr((ts - m) / s) if s > 0 else (ts >= m)) for w, m, s in comps)
    assert 0 < _law(mix).atoms.size < 40
    np.testing.assert_allclose(_excess_squares(_law(mix), 0.0)[0](ts), excess, rtol=1e-12, atol=0)
    np.testing.assert_allclose(mix.cdf(ts), cdf, rtol=1e-12, atol=0)
    assert mix.cdf(ts.reshape(1, -1, 1)).shape == (1, ts.size, 1)


def test_zeta3_memory_stays_bounded_on_a_large_mixture():
    # 10^5 copies of the two components of a bimodal law: the law, hence the
    # distance, is the two-component one. A (points x components) matrix over
    # the quadrature nodes would take hundreds of MB; blocks take a few.
    k = 100_000
    big = NormalMixture(
        (1.0 / k,) * k, tuple(np.repeat([-1.0, 1.0], k // 2).tolist()), (0.5,) * k
    )
    two = NormalMixture((0.5, 0.5), (-1.0, 1.0), (0.5, 0.5))
    target = NormalMixture.normal(0.0, math.sqrt(two.variance))
    big.variance  # build the component arrays before measuring
    tracemalloc.start()
    try:
        rep = zeta3(big, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert rep.value == pytest.approx(zeta3(two, target).value, rel=1e-9)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize alone takes a few tenths of a second to import
    src = os.path.dirname(os.path.dirname(metrics_module.__file__))
    code = "import sys, recdist.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# zeta3: trivial values, ideality, certification
# ---------------------------------------------------------------------------


def test_zeta3_identical_laws():
    assert zeta3(COIN, COIN).value == 0.0


def test_zeta3_coin_vs_normal_frozen():
    rep = zeta3(COIN, STD)
    assert rep.value == pytest.approx(ZETA3_COIN_NORMAL, rel=1e-4)
    assert rep.abs_error_bound < 1e-9


def test_zeta3_moment_mismatch_rejected():
    shifted = COIN.affine(1, 1)
    with pytest.raises(MomentMismatchError) as exc:
        zeta3(shifted, STD)
    assert exc.value.mean_gap == pytest.approx(1.0)


@pytest.mark.parametrize("c", [0.5, 2.0, 5.0])
def test_zeta3_scaling_law(c):
    base = zeta3(COIN, STD).value
    scaled = zeta3(COIN.affine(c, 0), STD.scaled_shifted(c)).value
    assert scaled == pytest.approx(abs(c) ** 3 * base, rel=1e-6)


@pytest.mark.parametrize("shift", [-10.0, -1.0, 1.0, 10.0])
def test_zeta3_shift_invariance(shift):
    base = zeta3(COIN, STD).value
    moved = zeta3(COIN.affine(1, shift), STD.scaled_shifted(1.0, shift)).value
    assert moved == pytest.approx(base, rel=1e-9)


def test_zeta3_discrete_pair_scaling_exact_path():
    a = Pmf.from_atoms([(-1, 0.5), (1, 0.5)])
    b = Pmf.from_atoms([(-2, 0.125), (0, 0.75), (2, 0.125)])
    base = zeta3(a, b).value
    assert base > 0
    for c in (0.5, 2.0, 5.0):
        scaled = zeta3(a.affine(c, 0), b.affine(c, 0)).value
        assert scaled == pytest.approx(abs(c) ** 3 * base, rel=1e-9)


def test_zeta3_discrete_sweep_matches_quadrature_path():
    a = Pmf.from_atoms([(-1, 0.5), (1, 0.5)])
    b = Pmf.from_atoms([(-2, 0.125), (0, 0.75), (2, 0.125)])
    exact = zeta3(a, b)
    val, err = _zeta3_quad(_law(a), _law(b))
    assert exact.value == pytest.approx(val, rel=1e-8, abs=1e-10 + err)


def _discrete_zeta3_reference(mp, x, y) -> float:
    """zeta3 between two discrete laws in 40-digit arithmetic: half the
    integral of |H| over the merged support, H(t) = E(X-t)+^2 - E(Y-t)+^2 as
    written. On each piece between atoms H is a quadratic, summed atom by
    atom and integrated exactly between its roots."""
    with mp.workdps(40):
        laws = [[(mp.mpf(v), mp.mpf(p)) for v, p in zip(d.values_f.tolist(), d.probs_f.tolist())] for d in (x, y)]
        grid = sorted({v for law in laws for v, _ in law})
        total = []
        for a, b in zip(grid, grid[1:]):
            c2 = c1 = c0 = 0
            for law, sign in zip(laws, (1, -1)):
                for v, p in law:
                    if v > a:
                        c2, c1, c0 = c2 + sign * p, c1 - 2 * sign * p * v, c0 + sign * p * v * v
            roots = [-c0 / c1] if c2 == 0 and c1 != 0 else []
            disc = c1 * c1 - 4 * c2 * c0
            if c2 != 0 and disc > 0:
                roots = [(-c1 + s * mp.sqrt(disc)) / (2 * c2) for s in (-1, 1)]
            cuts = [a] + sorted(r for r in roots if a < r < b) + [b]
            antideriv = lambda t: ((c2 / 3 * t + c1 / 2) * t + c0) * t
            total += [abs(antideriv(r) - antideriv(l)) for l, r in zip(cuts, cuts[1:])]
        return float(mp.fsum(total) / 2)


def _moment_matched_pair(rng, k, j) -> tuple:
    x, y = (Pmf.from_atoms(zip(rng.normal(size=m).tolist(), rng.dirichlet(np.ones(m)).tolist())) for m in (k, j))
    scale = math.sqrt(x.moment(2, central=True) / y.moment(2, central=True))
    return x, y.affine(scale, x.moment(1) - scale * y.moment(1))


@pytest.mark.parametrize("atoms", [None, (5, 8), (50, 53)], ids=["coin", "5-8", "50-53"])
def test_discrete_zeta3_is_within_its_bound_of_a_40_digit_reference(atoms):
    mp = pytest.importorskip("mpmath")
    if atoms is None:
        x, y = COIN, Pmf.from_atoms([(-2, 0.125), (0, 0.75), (2, 0.125)])
    else:
        x, y = _moment_matched_pair(np.random.default_rng(31), *atoms)
    rep = zeta3(x, y)
    shift, stretch = rep.adjustment  # (shift, scale - 1): measure the y that zeta3 did
    ref = _discrete_zeta3_reference(mp, x, y.affine(1.0 + stretch, shift) if rep.adjustment != (0.0, 0.0) else y)
    assert abs(rep.value - ref) <= rep.abs_error_bound + 0.5 * math.ulp(rep.value)


def test_zeta3_lower_probe_certifies_integral_value():
    rep = zeta3(COIN, STD)
    probe = zeta3_lower_probe(COIN, STD)
    assert probe <= rep.value * (1 + 1e-8) + rep.abs_error_bound
    assert probe >= 0.999 * rep.value


def test_zeta3_lower_probe_identical_laws():
    assert zeta3_lower_probe(COIN, COIN) == pytest.approx(0.0, abs=1e-12)


def test_zeta3_random_members_never_exceed_value():
    # the defining class is sampled directly: piecewise-linear second
    # derivative with slopes in [-1, 1]
    rng = np.random.default_rng(2024)
    rep = zeta3(COIN, STD)
    worst = 0.0
    for _ in range(10_000):
        f = random_smooth_member(rng, -14.0, 14.0)
        gap = abs(f.expect(COIN) - f.expect(STD))
        worst = max(worst, gap)
        assert gap <= rep.value * (1 + 1e-8) + rep.abs_error_bound
    # the random search should come reasonably close to the supremum
    assert worst >= 0.5 * rep.value


def test_zeta3_triangle_inequality_on_catalog_style_laws():
    a = Pmf.from_atoms([(-1, 0.5), (1, 0.5)])
    b = Pmf.from_atoms([(-math.sqrt(2), 0.25), (0, 0.5), (math.sqrt(2), 0.25)])
    ab = zeta3(a, b)
    an = zeta3(a, STD)
    bn = zeta3(b, STD)
    assert an.value <= ab.value + bn.value + an.abs_error_bound + ab.abs_error_bound + bn.abs_error_bound + 1e-12


# ---------------------------------------------------------------------------
# the quadrature: nested rule, integrand from its small side
# ---------------------------------------------------------------------------


def _surrogate(request, name, n):
    """The accompanying normal surrogate of a catalog model at n, and the
    normal it is measured against."""
    solver = request.getfixturevalue({"broadcast_a_time": "solver_bt", "unsuccessful_search": "solver_us"}[name])
    acc = accompanying_law(solver, n, make(name).params)
    return acc.mixture, NormalMixture.normal(0.0, acc.sd)


def test_gauss_kronrod_rule_nests_the_gauss_rule():
    nodes, weights = metrics_module._KRONROD_NODES, metrics_module._KRONROD_WEIGHTS
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(nodes[1::2], gauss_x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(weights[1::2, 0], gauss_w, rtol=0, atol=1e-15)
    assert not weights[::2, 0].any()
    # the 21-point Kronrod rule integrates every polynomial of degree <= 31
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert nodes**k @ weights[:, 1] == pytest.approx(exact, abs=1e-15)


def _zeta3_reference(mp, mix) -> float:
    """zeta3 of a normal mixture to the normal of its own first two moments,
    in 40-digit arithmetic and without quadrature. With C(t) = E(X-t)+^3,
    C' = -3 E(X-t)+^2, so zeta3 = sum |dC(e_i+1) - dC(e_i)| / 6 over the
    roots e_i of H between -inf and inf, where dC(-inf) = E X^3 - E Y^3.
    Roots are bracketed on an 81-point grid over the window and bisected.
    Terms below 1e-40 of the scale are skipped, which can only move or add
    roots far out in a tail, where they change the sum by as little."""
    with mp.workdps(40):
        w = [mp.mpf(float(v)) for v in mix.weights]
        total = mp.fsum(w)
        comps = [(a / total, mp.mpf(float(m)), mp.mpf(float(s))) for a, m, s in zip(w, mix.means, mix.sds)]
        mu = mp.fsum(a * m for a, m, _ in comps)
        sd = mp.sqrt(mp.fsum(a * (m * m + s * s) for a, m, s in comps) - mu * mu)
        target = [(mp.mpf(1), mu, sd)]
        rt2, rt2pi = mp.sqrt(2), mp.sqrt(2 * mp.pi)

        def partial(law, t, power, side=1):
            """E (side (X - t))+^power for power 2 or 3."""
            out = []
            for a, m, s in law:
                if s == 0:
                    out.append(a * max(side * (m - t), 0) ** power)
                    continue
                z = side * (t - m) / s
                if z > 14:
                    continue
                tail, dens = (1, 0) if z < -14 else (mp.erfc(z / rt2) / 2, mp.exp(-z * z / 2) / rt2pi)
                if power == 2:
                    out.append(a * s**2 * ((1 + z * z) * tail - z * dens))
                else:
                    out.append(a * s**3 * ((z * z + 2) * dens - z * (z * z + 3) * tail))
            return mp.fsum(out)

        def h(t):  # each side from its small terms; the laws match to 40 digits
            if t >= mu:
                return partial(comps, t, 2) - partial(target, t, 2)
            return partial(target, t, 2, -1) - partial(comps, t, 2, -1)

        smax = max(s for _, _, s in comps)
        lo = min(m for _, m, _ in comps) - 12 * smax
        hi = max(m for _, m, _ in comps) + 12 * smax
        ts = [lo + (hi - lo) * i / 80 for i in range(81)]
        hs = [h(t) for t in ts]
        roots = []
        for a, b, ha, hb in zip(ts, ts[1:], hs, hs[1:]):
            if ha * hb < 0:
                for _ in range(40):  # the sum's error is quadratic in the root's
                    mid = (a + b) / 2
                    a, b = (mid, b) if h(mid) * ha > 0 else (a, mid)
                roots.append((a + b) / 2)
        third_gap = mp.fsum(a * (m**3 + 3 * m * s * s) for a, m, s in comps) - (mu**3 + 3 * mu * sd * sd)
        dc = [third_gap] + [partial(comps, r, 3) - partial(target, r, 3) for r in roots] + [0]
        return float(mp.fsum(abs(u - v) for u, v in zip(dc, dc[1:])) / 6)


@pytest.mark.parametrize("name, n", [("broadcast_a_time", 16), ("broadcast_a_time", 32), ("unsuccessful_search", 128)])
def test_surrogate_zeta3_is_within_its_bound_of_a_40_digit_reference(request, name, n):
    mp = pytest.importorskip("mpmath")
    x, y = _surrogate(request, name, n)
    rep = zeta3(x, y)
    assert abs(rep.value - _zeta3_reference(mp, x)) <= rep.abs_error_bound


def test_surrogate_zeta3_spread_over_block_sizes_stays_within_its_bound(request, monkeypatch):
    # the block size changes only the summation order of the mixture kernels
    x, y = _surrogate(request, "broadcast_a_time", 128)
    reports = []
    for block in (1 << 12, 1 << 13, 1 << 14, 1 << 16):
        monkeypatch.setattr(metrics_module, "_BLOCK", block)
        reports.append(zeta3(x, y))
    values = [r.value for r in reports]
    assert max(values) - min(values) <= min(r.abs_error_bound for r in reports)


@pytest.mark.parametrize("n", [64, 128])
def test_probe_finds_no_rounding_noise_roots(request, n):
    # left of the mean H was once the difference of two terms of size t^2,
    # and its rounding noise gave the probe a dozen roots to bisect
    x, y = _surrogate(request, "broadcast_a_time", n)
    x, y = _law(x), _law(y)
    y, _ = metrics_module._match_moments(x, y)
    lo, hi = metrics_module._window((x, y), metrics_module._WINDOW_SDS)
    roots, _ = metrics_module._sign_change_points(x, y, lo, hi)
    assert len(roots) <= 2


def test_probe_grid_brackets_two_close_sign_changes(monkeypatch):
    # H changes sign at 0.3 and 0.4, inside one skeleton segment [0, 1]: on 3
    # or 5 points per segment H is positive at every point and both roots are
    # missed; the probe's grid brackets both, as a 129-point grid does
    monkeypatch.setattr(metrics_module, "_excess_gap", lambda x, y: (lambda t: (t - 0.3) * (t - 0.4), 0.5))
    monkeypatch.setattr(metrics_module, "_breakpoints", lambda ds, lo, hi, center: np.array([0.0, 1.0]))
    probe, found = metrics_module._PROBE_POINTS, {}
    for points in (3, 5, probe, 129):
        monkeypatch.setattr(metrics_module, "_PROBE_POINTS", points)
        found[points] = metrics_module._sign_change_points(None, None, 0.0, 1.0)
    assert found[3] == found[5] == ([], [1.0])
    for points in (probe, 129):
        roots, signs = found[points]
        assert roots == pytest.approx([0.3, 0.4], abs=1e-12) and signs == [1.0, -1.0, 1.0]


def test_probe_on_identical_laws_takes_every_grid_point_for_a_root():
    # H is 0 everywhere, so every grid point strictly inside the window is a
    # root: the coin's window has 2 skeleton segments, whose 9 points each
    # share the middle one, so 2 * 9 - 1 points, 15 inside the window ends
    x = _law(COIN)
    lo, hi = metrics_module._window((x, x), metrics_module._WINDOW_SDS)
    roots, signs = metrics_module._sign_change_points(x, x, lo, hi)
    assert len(roots) == 15
    assert signs == [0.0] * 16


_DEGENERATE = ["unsuccessful_search", "node_depth", "broadcast_a_time", "broadcast_a_comparisons", "broadcast_b_time"]


@pytest.mark.parametrize(
    "name, n, surrogate",
    [(name, 64, True) for name in _DEGENERATE]
    + [(name, 256, name in _DEGENERATE[:3]) for name in _DEGENERATE],
)
def test_probe_grid_finds_the_roots_of_a_fine_grid(monkeypatch, name, n, surrogate):
    # the probe's grid brackets every sign change the 129-point grid does,
    # and bisection ends on the same roots, on the standardized laws and the
    # surrogates the benchmark probes; the surrogates of the two other
    # broadcast models at n = 256 (10^4 components, no sign change) are left
    # out, as the 129-point grid takes 5 s on them
    entry = make(name)
    solver = entry.solver()
    law, tau = standardized_law(solver, n, entry.params)
    pairs = [(law, NormalMixture.normal(0.0, tau))]
    if surrogate:
        acc = accompanying_law(solver, n, entry.params)
        pairs.append((acc.mixture, NormalMixture.normal(0.0, acc.sd)))
    for x, y in pairs:
        x, y = _law(x), _law(y)
        y, _ = metrics_module._match_moments(x, y)
        lo, hi = metrics_module._window((x, y), metrics_module._WINDOW_SDS)
        found = []
        for points in (metrics_module._PROBE_POINTS, 129):
            monkeypatch.setattr(metrics_module, "_PROBE_POINTS", points)
            found.append(metrics_module._sign_change_points(x, y, lo, hi))
        assert found[0] == found[1], found


# ---------------------------------------------------------------------------
# piecewise-cubic machinery
# ---------------------------------------------------------------------------


def test_piecewise_cubic_expectation_matches_quadrature():
    f = PiecewiseCubic((-1.0, 0.5, 2.0), (0.3, -1.0, 0.7, 0.0))
    mix = NormalMixture((0.6, 0.4), (-0.5, 1.0), (1.2, 0.3))
    oracle = 0.0
    for w, m, s in zip(mix.weights, mix.means, mix.sds):
        val, _ = quad(lambda x: float(f(np.array([x]))[0]) * _phi((x - m) / s) / s,
                      m - 14 * s, m + 14 * s, limit=200)
        oracle += w * val
    assert f.expect(mix) == pytest.approx(oracle, rel=1e-8)


def test_piecewise_cubic_origin_adds_a_quadratic():
    breaks, third = (-1.0, 0.5, 2.0), (0.3, -1.0, 0.7, 0.0)
    f = PiecewiseCubic(breaks, third)
    g = PiecewiseCubic(breaks, third, origin=0.8)
    assert g(np.array([0.8]))[0] == 0.0
    xs = np.linspace(-6.0, 6.0, 97)
    diff = g(xs) - f(xs)
    assert np.abs(diff - np.polyval(np.polyfit(xs, diff, 2), xs)).max() < 1e-10
    # equal first two moments: the expectation gap does not see the quadratic
    assert g.expect(COIN) - g.expect(STD) == pytest.approx(f.expect(COIN) - f.expect(STD), abs=1e-12)


def test_piecewise_cubic_rejects_steep_third_derivative():
    with pytest.raises(Exception):
        PiecewiseCubic((0.0,), (2.0, 0.0))


def test_random_member_is_admissible():
    rng = np.random.default_rng(7)
    for _ in range(50):
        f = random_smooth_member(rng, -5, 5)
        xs = np.sort(rng.uniform(-8, 8, size=64))
        # second derivative is 1-Lipschitz: check finite differences of f''
        b = np.asarray(f.breaks)
        states = f._states
        second = np.interp(xs, b, states[2])  # piecewise linear in between
        assert np.all(np.abs(np.diff(second)) <= np.abs(np.diff(xs)) + 1e-9)


# ---------------------------------------------------------------------------
# kolmogorov and wasserstein
# ---------------------------------------------------------------------------


def test_kolmogorov_point_masses():
    assert kolmogorov(Pmf.delta(0), Pmf.delta(1)) == 1.0


def test_kolmogorov_coin_vs_point():
    assert kolmogorov(Pmf.from_atoms([(0, 0.5), (1, 0.5)]), Pmf.delta(0)) == 0.5


def test_kolmogorov_identical():
    assert kolmogorov(COIN, COIN) == 0.0


def test_kolmogorov_coin_vs_normal():
    # sup gap sits just left of the atom at -1: |0 - Phi(-1)|... and at the
    # atom: |1/2 - Phi(-1)|; the latter is larger
    expect = 0.5 - 0.15865525393145707
    assert kolmogorov(COIN, STD) == pytest.approx(expect, abs=1e-9)


def test_kolmogorov_mixture_pair_refinement():
    a = NormalMixture.normal(0.0, 1.0)
    b = NormalMixture.normal(0.5, 1.0)
    # location family: sup_t |Phi(t) - Phi(t - 1/2)| = 2 Phi(1/4) - 1
    expect = 2 * 0.5987063256829237 - 1
    assert kolmogorov(a, b) == pytest.approx(expect, abs=1e-6)


def test_wasserstein_point_masses():
    assert wasserstein1(Pmf.delta(0), Pmf.delta(1)) == 1.0


def test_wasserstein_translation():
    p = Pmf.from_atoms([(0, F(1, 3)), (1, F(2, 3))])
    assert wasserstein1(p, p.affine(1, F(5, 2))) == pytest.approx(2.5)
    assert wasserstein1(p, p.affine(1, -3)) == pytest.approx(3.0)


def test_wasserstein_zero_iff_equal():
    p = Pmf.from_atoms([(0, 0.25), (1, 0.75)])
    q = Pmf.from_atoms([(0, 0.26), (1, 0.74)])
    assert wasserstein1(p, p) == 0.0
    assert wasserstein1(p, q) > 0.0


def test_wasserstein_matches_the_step_sum_of_cumulated_probabilities():
    # F as the running sum of each law's atom probabilities, stepped over the
    # merged atoms: the law view must give the same floats, bit for bit
    rng = np.random.default_rng(16)
    for _ in range(200):
        x, y = (
            Pmf.from_atoms(zip(rng.normal(scale=5.0, size=m).round(1).tolist(), rng.dirichlet(np.ones(m)).tolist()))
            for m in rng.integers(1, 40, size=2).tolist()
        )
        grid = np.unique(np.concatenate([x.values_f, y.values_f]))
        fx, fy = (
            np.concatenate([[0.0], np.cumsum(p.probs_f)])[np.searchsorted(p.values_f, grid[:-1], side="right")]
            for p in (x, y)
        )
        assert wasserstein1(x, y) == float(np.sum(np.abs(fx - fy) * np.diff(grid)))


def test_wasserstein_refuses_mixtures():
    with pytest.raises(PreconditionError):
        wasserstein1(COIN, STD)
    with pytest.raises(PreconditionError):
        wasserstein1(NormalMixture.normal(0.0, 0.0), COIN)
