"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Heavy solver tables are shared session-wide.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from recdist import (
    CltParams,
    NormalMixture,
    Pmf,
    SolveOptions,
    Solver,
    accompanying_law,
    dickman_equation,
    dickman_reference_moments,
    iterate_population,
    kolmogorov,
    kolmogorov_to_normal,
    log_power_ratio_check,
    make,
    normal_characterization_iterate,
    quickselect_equation,
    random_smooth_member,
    rate_exponent,
    rate_transfer_check,
    sample_many,
    standardized_law,
    surrogate_gap_terms,
    zeta3,
    zeta3_accompanying,
    zeta3_lower_probe,
    zeta3_standardized,
    zeta3_to_normal,
)
from conftest import shared_solver

from brute import broadcast_means, brute_law, index_law


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# 1. exact DP against brute-force enumeration
# ---------------------------------------------------------------------------


def test_criterion_01_exact_dp_oracle():
    t0 = time.time()
    mismatches = []
    for name in ("unsuccessful_search", "node_depth", "quickselect"):
        spec = make(name).spec
        solver = Solver(spec, SolveOptions(mode="exact", tail_eps=0.0))
        for n in range(0, 9):
            law = solver.law(n)
            if dict(zip(law.values, law.probs)) != brute_law(spec, n):
                mismatches.append((name, n))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 1.0
    _report(1, ok, f"3 models x n<=8 atom-for-atom in rationals ({elapsed:.2f}s)")
    assert not mismatches
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. exact law vs one-million-sample empirical law
# ---------------------------------------------------------------------------


def test_criterion_02_exact_vs_monte_carlo():
    t0 = time.time()
    rng = np.random.default_rng(20260809)
    tvs = {}
    for name in (
        "unsuccessful_search",
        "node_depth",
        "quickselect",
        "broadcast_a_time",
        "broadcast_a_comparisons",
    ):
        solver = shared_solver(name)
        draws = sample_many(solver.spec, 50, 1_000_000, rng).astype(np.int64)
        law = solver.law(50)
        vals, counts = np.unique(draws, return_counts=True)
        emp = dict(zip(vals.tolist(), (counts / len(draws)).tolist()))
        ex = {int(v): float(p) for v, p in zip(law.values, law.probs)}
        tvs[name] = 0.5 * sum(
            abs(emp.get(k, 0.0) - ex.get(k, 0.0)) for k in set(emp) | set(ex)
        )
    elapsed = time.time() - t0
    ok = all(tv <= 0.01 for tv in tvs.values()) and elapsed < 60
    worst = max(tvs, key=tvs.get)
    _report(2, ok, f"TV(exact, 1e6-sample) at n=50 <= 0.01; worst {worst}={tvs[worst]:.4f} ({elapsed:.0f}s)")
    assert all(tv <= 0.01 for tv in tvs.values())
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 3. decay-exponent gate reproduces 3/2 exactly
# ---------------------------------------------------------------------------


def test_criterion_03_rate_exponent_three_halves():
    entries = [
        make("unsuccessful_search"),
        make("node_depth"),
        make("broadcast_b_time"),
        make("broadcast_a_time"),
        make("broadcast_a_comparisons"),
    ]
    betas = {e.name: rate_exponent(e.params, e.spec.k).beta for e in entries}
    ok = all(b == 1.5 for b in betas.values())
    _report(3, ok, f"exponent gate equals 3/2 exactly for {len(betas)} degenerate models")
    assert all(b == 1.5 for b in betas.values())


# ---------------------------------------------------------------------------
# 4. distance to normal decays like one over root log
# ---------------------------------------------------------------------------


def _std_third_moment(solver, n: int) -> float:
    """E Z_n^3 of the standardized law, summed over the exact law's atoms."""
    law = solver.law(n)
    z = (law.values_f - float(solver.mean(n))) / solver.sd(n)
    return float(law.probs_f @ z**3)


def test_criterion_04_zeta3_trend():
    # The paper promises the rate O(ln^-1/2 n), checked here by the root-log
    # product ratio. It does not promise a monotone series at desk scale.
    # f(x) = x^3/6 lies in the zeta3 class (f'' = x is 1-Lipschitz), so
    # zeta3(Z_n, N(0,1)) >= |E Z_n^3| / 6. For node_depth that bound rises
    # from 0.016625 at 2^10 to 0.017803 at 2^13 (standardized skewness
    # 0.0997 -> 0.1068), and the computed distances equal it to six digits.
    # The mean and variance behind Z_n match their closed forms (pinned in
    # test_catalog), so the rise belongs to the law, and no correct program
    # gives a strictly decreasing series there. A rise between neighbouring
    # window points therefore passes only when the bound at the later point
    # already exceeds the earlier distance; any other rise fails, as does a
    # distance below the bound or no net decay across the window.
    t0 = time.time()
    window = [2**e for e in range(6, 14)]
    results = {}
    for name in ("unsuccessful_search", "node_depth"):
        solver = shared_solver(name)
        reps = [zeta3_to_normal(solver, n) for n in window]
        series = [r.value for r in reps]
        cube_bound = [abs(_std_third_moment(solver, n)) / 6 for n in window]
        products = [v * math.sqrt(math.log(n)) for n, v in zip(window, series)]
        below = [n for n, f, r in zip(window, cube_bound, reps) if f > r.value + r.abs_error_bound]
        rises = [i for i in range(len(window) - 1) if series[i + 1] >= series[i]]
        unforced = [
            window[i + 1]
            for i in rises
            if not cube_bound[i + 1] > series[i] + reps[i].abs_error_bound
        ]
        results[name] = {
            "ratio": max(products) / min(products),
            "decay": series[-1] < series[0],
            "forced": len(rises) - len(unforced),
            "unforced": unforced,
            "below": below,
        }
    elapsed = time.time() - t0
    ok = (
        all(
            r["ratio"] <= 3 and r["decay"] and not r["unforced"] and not r["below"]
            for r in results.values()
        )
        and elapsed < 600
    )
    detail = ", ".join(
        f"{k}: ratio={r['ratio']:.2f}, net decay={r['decay']}, forced rises={r['forced']}, "
        f"unforced rises at {r['unforced']}, below bound at {r['below']}"
        for k, r in results.items()
    )
    _report(4, ok, f"{detail} over 2^6..2^13 ({elapsed:.0f}s)")
    for name, r in results.items():
        assert r["ratio"] <= 3, f"{name} root-log product ratio {r['ratio']}"
        assert r["decay"], f"{name} no net decay across the window"
        assert not r["below"], f"{name} distance below |E Z^3|/6 at n={r['below']}"
        assert not r["unforced"], f"{name} rise not forced by |E Z^3|/6 at n={r['unforced']}"
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 5. surrogate-distance bound and the recursion inequality
# ---------------------------------------------------------------------------


def test_criterion_05_proof_machinery_bound():
    n_full = 256
    spots = (512, 2048, 8192)
    bound_viol = []
    transfer_ok = {}
    for name in ("unsuccessful_search", "node_depth"):
        entry = make(name)
        solver = shared_solver(name)
        params = entry.params
        d_vals = {}
        for k in range(0, n_full + 1):
            z, tau = standardized_law(solver, k, params)
            target = Pmf.delta(0.0) if tau == 0 else NormalMixture.normal(0.0, tau)
            d_vals[k] = zeta3(z, target).value
        r_vals = {}
        for n in range(2, n_full + 1):
            r_vals[n] = zeta3_accompanying(solver, n, params).value
            total = surrogate_gap_terms(solver, n, params).total
            if r_vals[n] > 10 * total + 1e-12:
                bound_viol.append((name, n))
        for n in spots:
            racc = zeta3_accompanying(solver, n, params).value
            total = surrogate_gap_terms(solver, n, params).total
            if racc > 10 * total + 1e-12:
                bound_viol.append((name, n))

        def index_weights(n, _spec=entry.spec):
            return [(idx, float(w)) for idx, w in index_law(_spec, n).items()]

        rep = rate_transfer_check(
            d_vals, r_vals, 3 * params.alpha, index_weights, params.delta, 1.5
        )
        transfer_ok[name] = rep.ok
    ok = not bound_viol and all(transfer_ok.values())
    _report(
        5,
        ok,
        f"surrogate distance <= 10x term sum at n in 2..{n_full} + {spots}; "
        f"recursion inequality holds at every n (both one-branch models)",
    )
    assert not bound_viol
    assert all(transfer_ok.values())


# ---------------------------------------------------------------------------
# 6. exhaustive log-power ratio inequality
# ---------------------------------------------------------------------------


def test_criterion_06_log_power_inequality():
    counts = {a: len(log_power_ratio_check(a, 500)) for a in (0.5, 1.0, 1.5, 3.0)}
    ok = all(c == 0 for c in counts.values())
    _report(6, ok, "log-power ratio inequality: zero violations, 4 exponents, n<=500")
    assert all(c == 0 for c in counts.values())


# ---------------------------------------------------------------------------
# 7. Dickman fixed point moments
# ---------------------------------------------------------------------------


def test_criterion_07_dickman_population_moments():
    t0 = time.time()
    rng = np.random.default_rng(7)
    res = iterate_population(dickman_equation(population=1_000_000, iterations=60), rng)
    targets = [float(dickman_reference_moments(k)) for k in (1, 2, 3)]
    gaps = (
        abs(res.mean - targets[0]),
        abs(res.second_moment - targets[1]),
        abs(res.third_moment - targets[2]),
    )
    elapsed = time.time() - t0
    ok = gaps[0] <= 0.01 and gaps[1] <= 0.02 and gaps[2] <= 0.05 and elapsed < 60
    _report(7, ok, f"moment gaps {gaps[0]:.4f}/{gaps[1]:.4f}/{gaps[2]:.4f} vs ladder ({elapsed:.0f}s)")
    assert gaps[0] <= 0.01 and gaps[1] <= 0.02 and gaps[2] <= 0.05
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 8. nondegenerate-limit bridge to the exact selection law
# ---------------------------------------------------------------------------


def test_criterion_08_selection_limit_bridge():
    rng = np.random.default_rng(8)
    solver = shared_solver("quickselect")
    pop = iterate_population(quickselect_equation(population=1_000_000, iterations=60), rng)
    dists = []
    for n in (50, 100, 200):
        sd = solver.sd(n)
        std = solver.law(n).affine(1 / sd, -float(solver.mean(n)) / sd)
        dists.append(kolmogorov(pop.pmf, std))
    ok = dists[-1] <= 0.05 and dists[0] > dists[1] > dists[2]
    _report(8, ok, f"population vs exact standardized law: {[round(d, 4) for d in dists]} at n=50/100/200")
    assert dists[-1] <= 0.05
    assert dists[0] > dists[1] > dists[2]


# ---------------------------------------------------------------------------
# 9. self-similar composition reaches the normal law
# ---------------------------------------------------------------------------


def test_criterion_09_normal_characterization():
    rng = np.random.default_rng(9)
    coin = Pmf.from_atoms([(-1, 0.5), (1, 0.5)])
    res = normal_characterization_iterate(coin, 64, rng, population=1_000_000)
    kd = kolmogorov(res.pmf, NormalMixture.std_normal())
    ok = kd <= 0.01
    _report(9, ok, f"two-point start, 64 steps, 1e6 particles: K distance {kd:.4f}")
    assert kd <= 0.01


# ---------------------------------------------------------------------------
# 10. dual certification of the distance evaluator
# ---------------------------------------------------------------------------


def _certification_pairs():
    solver_us = shared_solver("unsuccessful_search")
    solver_nd = shared_solver("node_depth")
    us = make("unsuccessful_search")
    coin = Pmf.from_atoms([(-1, 0.5), (1, 0.5)])
    three = Pmf.from_atoms([(-2, 0.125), (0, 0.75), (2, 0.125)])
    sd64 = solver_us.sd(64)
    law64 = solver_us.law(64).affine(1 / sd64, -float(solver_us.mean(64)) / sd64)
    sd128 = solver_nd.sd(128)
    law128 = solver_nd.law(128).affine(1 / sd128, -float(solver_nd.mean(128)) / sd128)
    acc = accompanying_law(solver_us, 32, us.params)
    return [
        ("coin-normal", coin, NormalMixture.std_normal()),
        ("coin-threeatom", coin, three),
        ("search64-normal", law64, NormalMixture.std_normal()),
        ("depth128-normal", law128, NormalMixture.std_normal()),
        ("surrogate32-normal", acc.mixture, NormalMixture.normal(0.0, acc.sd)),
    ]


def test_criterion_10_dual_probe_certification():
    rng = np.random.default_rng(10)
    t0 = time.time()
    failures = []
    for tag, x, y in _certification_pairs():
        rep = zeta3(x, y)
        lo, hi = -16.0, 16.0
        for _ in range(100):
            f = random_smooth_member(rng, lo, hi)
            gap = abs(f.expect(x) - f.expect(y))
            if gap > rep.value * (1 + 1e-8) + rep.abs_error_bound:
                failures.append((tag, "member exceeded value"))
                break
        probe = zeta3_lower_probe(x, y)
        if not probe >= 0.999 * rep.value:
            failures.append((tag, f"probe ratio {probe / rep.value:.6f}"))
        for c in (0.5, 2.0, 5.0):
            if isinstance(x, Pmf):
                xs = x.affine(c, 0)
            else:
                xs = x.scaled_shifted(c)
            ys = y.affine(c, 0) if isinstance(y, Pmf) else y.scaled_shifted(c)
            scaled = zeta3(xs, ys)
            if abs(scaled.value - abs(c) ** 3 * rep.value) > 1e-6 * abs(c) ** 3 * rep.value:
                failures.append((tag, f"scaling law broke at c={c}"))
    elapsed = time.time() - t0
    ok = not failures
    _report(10, ok, f"5 pairs x 100 members + extremal probe + |c|^3 law ({elapsed:.0f}s) {failures or ''}")
    assert not failures


# ---------------------------------------------------------------------------
# 11. broadcast cost measures: moment stability and normal approach
# ---------------------------------------------------------------------------


def test_criterion_11_broadcast_moment_stability():
    # The comparisons mean is n + 0.90 ln n - 1.67 + o(1) over this window,
    # so (mean - n) / ln n drifts with the constant term (exact max/min 1.137)
    # however the model is solved. The per-doubling increment
    # (E C_2n - 2n) - (E C_n - n) cancels that constant and any log2-periodic
    # term; divided by ln 2 it is 0.8979, 0.8985, 0.8988. Monte Carlo at 1e5
    # draws carries about 3% noise per increment, so the means come from the
    # exact oracle, checked against the solver; the seeded draws still feed
    # the Kolmogorov series and must sit within 5 standard errors of them.
    t0 = time.time()
    window = [2**e for e in range(8, 12)]
    solver_time = shared_solver("broadcast_a_time")
    var_ratio = [float(solver_time.variance(n)) / math.log(n) for n in window]
    time_ratio = max(var_ratio) / min(var_ratio)
    time_k = [kolmogorov_to_normal(solver_time, n) for n in window]

    comp = make("broadcast_a_comparisons")
    exact_mean = broadcast_means(window[-1], lambda n: n / 2)  # E(n - J) = n/2
    time_mean = broadcast_means(window[-1], lambda n: 1.0, (1.0, 1.0))
    # relative gaps; the float solves trim up to tail_eps (1e-12) of mass per
    # level, as exact solves do, which lowers their means by about the lost
    # mass
    exact_solver = Solver(comp.spec, SolveOptions(mode="exact", tail_eps=0.0))
    checks = [
        (exact_solver, exact_mean, range(17)),
        (shared_solver("broadcast_a_comparisons"), exact_mean, range(65)),
        (solver_time, time_mean, window),
    ]
    oracle_gap = max(
        abs(float(solver.mean(n)) - oracle[n]) / max(1.0, oracle[n])
        for solver, oracle, ns in checks
        for n in ns
    )
    centered = [exact_mean[n] - n for n in window]
    increments = [(b - a) / math.log(2) for a, b in zip(centered, centered[1:])]
    inc_ratio = max(increments) / min(increments)

    rng = np.random.default_rng(11)
    zscores = []
    comp_k = []
    for n in window:
        draws = sample_many(comp.spec, n, 100_000, rng)
        mu, sd = float(np.mean(draws)), float(np.std(draws))
        zscores.append((mu - exact_mean[n]) / (sd / math.sqrt(len(draws))))
        std = (draws - mu) / sd
        vals, counts = np.unique(std, return_counts=True)
        emp = Pmf.from_atoms(zip(vals.tolist(), (counts / len(draws)).tolist()))
        comp_k.append(kolmogorov(emp, NormalMixture.std_normal()))
    worst_z = max(zscores, key=abs)

    time_dec = all(a > b for a, b in zip(time_k, time_k[1:]))
    comp_dec = all(a > b for a, b in zip(comp_k, comp_k[1:]))
    oracle_ok = oracle_gap <= 1e-9
    elapsed = time.time() - t0
    ok = (
        time_ratio <= 1.1
        and inc_ratio <= 1.1
        and oracle_ok
        and abs(worst_z) <= 5
        and time_dec
        and comp_dec
    )
    _report(
        11,
        ok,
        f"time var/log ratio {time_ratio:.3f} (<=1.1), comparisons exact "
        f"increment ratio {inc_ratio:.4f} (<=1.1, oracle gap {oracle_gap:.1e}), "
        f"worst MC mean z-score {worst_z:+.2f} (|z|<=5), K-to-normal decreasing: "
        f"time={time_dec}, comparisons={comp_dec} ({elapsed:.0f}s)",
    )
    assert time_ratio <= 1.1
    assert time_dec and comp_dec
    assert oracle_ok, f"mean oracle off the solver by a relative {oracle_gap:.2e}"
    assert abs(worst_z) <= 5, f"Monte Carlo mean {worst_z:+.2f} standard errors off"
    assert inc_ratio <= 1.1, f"per-doubling increments {increments}"
