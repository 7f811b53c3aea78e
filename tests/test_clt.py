"""Tests for the normal-limit verification machinery."""

import math

import numpy as np
import pytest

from recdist import (
    CltParams,
    NormalMixture,
    Pmf,
    PreconditionError,
    accompanying_law,
    check_conditions,
    fit_rate,
    log_power_ratio_check,
    make,
    padded_log,
    rate_exponent,
    standardized_law,
    surrogate_gap_terms,
    zeta3,
    zeta3_accompanying,
    zeta3_lower_probe,
    zeta3_standardized,
    zeta3_to_normal,
)
from recdist import clt
from recdist.clt import VERIFICATION_COLUMNS, verification_row

from brute import broadcast_b_means, broadcast_index_pmf, election_rounds_law
from conftest import shared_solver


US = make("unsuccessful_search")
ND = make("node_depth")


# ---------------------------------------------------------------------------
# scale helpers and exponent gate
# ---------------------------------------------------------------------------


def test_padded_log_small_indices():
    assert padded_log(0, 0.1) == pytest.approx(0.1)
    assert padded_log(1, 0.1) == pytest.approx(0.1)
    assert padded_log(2, 0.1) == pytest.approx(math.log(2))


def test_padded_log_requires_positive_delta():
    with pytest.raises(PreconditionError):
        padded_log(5, 0.0)


def test_rate_exponent_search_cost():
    gate = rate_exponent(CltParams(alpha=0.5), 1)
    assert gate.beta == 1.5 and gate.applicable


def test_rate_exponent_election_variant():
    gate = rate_exponent(CltParams(alpha=1.5, kappa=1.0, lam=2.0), 1)
    assert gate.beta == 1.5 and gate.applicable


def test_rate_exponent_two_branch_formula():
    gate = rate_exponent(CltParams(alpha=1.0), 2)
    assert gate.beta == 1.5
    # trailing-index exponent can bind for branching factors above one
    tight = rate_exponent(CltParams(alpha=1.0, xi=0.9), 2)
    assert tight.beta == pytest.approx(3 * 0.1)
    assert not tight.applicable


def test_clt_params_validated():
    with pytest.raises(PreconditionError):
        CltParams(alpha=0.0)
    with pytest.raises(PreconditionError):
        CltParams(alpha=0.5, lam=1.5)
    with pytest.raises(PreconditionError):
        CltParams(alpha=0.5, c=0.0)


# ---------------------------------------------------------------------------
# standardized and accompanying laws
# ---------------------------------------------------------------------------


def test_standardized_law_degenerate_index(solver_us):
    z, tau = standardized_law(solver_us, 2, US.params)
    assert z.values == (0.0,) or z.values == (0,)
    assert tau == 0.0


def test_standardized_law_centered(solver_us):
    for n in (8, 64, 256):
        z, tau = standardized_law(solver_us, n, US.params)
        # centering is exact up to the truncated mass times the mean
        assert abs(float(z.moment(1))) < 1e-9
        scale = math.sqrt(US.params.c) * padded_log(n, US.params.delta) ** US.params.alpha
        assert float(z.moment(2, central=True)) * scale**2 == pytest.approx(
            float(solver_us.variance(n)), rel=1e-10
        )


def test_accompanying_law_at_two(solver_us):
    acc = accompanying_law(solver_us, 2, US.params)
    assert acc.weights.tolist() == [1.0]
    assert acc.shifts[0] == pytest.approx(0.0, abs=1e-12)
    assert acc.mixture.sds == (0.0,)
    assert acc.sd == 0.0


def test_accompanying_matches_standardized_moments(solver_us, solver_nd):
    for entry, solver in ((US, solver_us), (ND, solver_nd)):
        for n in (8, 32, 128):
            z, _ = standardized_law(solver, n, entry.params)
            acc = accompanying_law(solver, n, entry.params)
            assert float(np.sum(acc.weights)) == pytest.approx(1.0, abs=1e-12)
            assert acc.mixture.mean == pytest.approx(float(z.moment(1)), abs=1e-9)
            assert acc.mixture.variance == pytest.approx(float(z.moment(2, central=True)), abs=1e-9)


def _mixture_moments(w, m, s):
    """Mean, variance and third central moment of a normal mixture."""
    mean = float(w @ m)
    c = m - mean
    return mean, float(w @ (c * c + s * s)), float(w @ (c**3 + 3.0 * c * s * s))


def test_accompanying_merges_equal_components_exactly(solver_bt):
    entry, n = make("broadcast_a_time"), 128
    acc = accompanying_law(solver_bt, n, entry.params)
    # one component per atom of the float rows, rebuilt from the same rows
    p = entry.params
    logs = np.array([padded_log(i, p.delta) ** p.alpha for i in range(n + 1)])
    taus = solver_bt.sds_upto(n) / (math.sqrt(p.c) * logs)
    idx = entry.spec.joint_arrays(n)[0]
    sds = np.sqrt(np.square(logs[idx] / logs[n] * taus[idx]).sum(axis=1))
    merged = [acc.mixture.weights, acc.mixture.means, acc.mixture.sds]
    assert len(idx) == 6303 and len(merged[0]) == 4097
    assert len(merged[0]) == len(set(zip(acc.shifts.tolist(), sds.tolist())))
    expected = _mixture_moments(acc.weights, acc.shifts, sds)
    assert _mixture_moments(*merged) == pytest.approx(expected, rel=0, abs=1e-12)
    # independently: one component per exact atom (8257, down to weight 2^-128)
    atoms = entry.spec.joint_atoms(n)
    exact_idx = np.array([a[0] for a in atoms])
    mu = solver_bt.means_upto(n)
    tolls = np.array([float(a[1]) for a in atoms])
    shifts = (tolls - mu[n] + mu[exact_idx].sum(axis=1)) / (math.sqrt(p.c) * logs[n])
    exact_sds = np.sqrt(np.square(logs[exact_idx] / logs[n] * taus[exact_idx]).sum(axis=1))
    weights = np.array([float(a[2]) for a in atoms])
    assert len(atoms) == 8257
    exact = _mixture_moments(weights, shifts, exact_sds)
    assert _mixture_moments(*merged) == pytest.approx(exact, rel=0, abs=1e-12)


def test_surrogate_and_conditions_build_no_atom_table(monkeypatch):
    from recdist.engine import RecurrenceSpec

    def refuse(self, n):
        raise AssertionError("the float view of the joint law builds no atom table")

    monkeypatch.setattr(RecurrenceSpec, "joint_atoms", refuse)
    entry = make("broadcast_a_time")
    solver = entry.solver()
    acc = accompanying_law(solver, 64, entry.params)
    assert acc.mixture.weights.dtype == np.float64 and not acc.mixture.weights.flags.writeable
    rep = check_conditions(solver, entry.params, [16, 64])
    assert rep.drift_ok and all(r.toll_l3_ratio is not None for r in rep.rows)


@pytest.mark.parametrize("model", ["broadcast_a_time", "broadcast_a_comparisons"])
def test_conditions_k2_match_the_exact_tables(model):
    entry = make(model)
    solver = entry.solver()
    rep = check_conditions(solver, entry.params, [16, 64, 128])
    for row in rep.rows:
        n = row.n
        # drift and index L3 from the exact index law
        pmf = broadcast_index_pmf(n)
        w = [float(p) for p in pmf.values()]
        drift = math.fsum(
            wi * (math.log(max(j, 1)) + math.log(max(k, 1)) - math.log(n))
            for wi, (j, k) in zip(w, pmf)
        )
        l3 = math.fsum(wi * abs(math.log(max(j, 1) / n)) ** 3 for wi, (j, _) in zip(w, pmf))
        # the toll norm from the exact joint atoms with the solver's means
        mu = solver.means_upto(n)
        toll = math.fsum(
            float(p) * abs(float(t) - mu[n] + mu[j] + mu[k]) ** 3
            for (j, k), t, p in entry.spec.joint_atoms(n)
        )
        got = (row.drift, row.index_l3, row.toll_l3_ratio)
        ref = (drift, l3 ** (1 / 3), toll ** (1 / 3) / math.log(n) ** entry.params.kappa)
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "model, ns",
    [
        ("unsuccessful_search", (16, 32, 48, 64, 128, 256, 512, 1024, 2048)),
        ("broadcast_a_time", (16, 32, 64, 128)),
    ],
)
def test_surrogate_lower_probe_stays_below_the_distance(model, ns):
    # the verify grids of the benchmark, standardized law and surrogate alike
    entry = make(model)
    solver = shared_solver(model)
    for n in ns:
        law, tau = standardized_law(solver, n, entry.params)
        acc = accompanying_law(solver, n, entry.params)
        for x, y, rep in (
            (law, NormalMixture.normal(0.0, tau), zeta3_standardized(solver, n, entry.params)),
            (acc.mixture, NormalMixture.normal(0.0, acc.sd), zeta3_accompanying(solver, n, entry.params)),
        ):
            probe = zeta3_lower_probe(x, y)
            assert probe <= rep.value + rep.abs_error_bound
            assert probe >= 0.999 * rep.value


def test_unit_variance_lower_probe_stays_below_the_distance(solver_nd):
    # the rate grid of the benchmark
    for n in (64, 128, 256, 512, 1024, 2048):
        sd, mu = solver_nd.sd(n), float(solver_nd.mean(n))
        law = solver_nd.law(n).affine(1.0 / sd, -mu / sd)
        rep = zeta3_to_normal(solver_nd, n)
        probe = zeta3_lower_probe(law, NormalMixture.std_normal())
        assert probe <= rep.value + rep.abs_error_bound
        assert probe >= 0.999 * rep.value


@pytest.mark.parametrize("n, old_bound", [(256, 2.73e-12), (512, 3.01e-12), (1024, 6.70e-12)])
def test_surrogate_weights_sum_to_one(solver_bt, n, old_bound):
    # merged float weights once summed to 1 + 2 or 4 ulps here, and the
    # residue charge spread that mass gap over the whole left tail into a
    # bound just above old_bound
    entry = make("broadcast_a_time")
    acc = accompanying_law(solver_bt, n, entry.params)
    assert math.fsum(acc.mixture.weights) == 1.0
    assert zeta3_accompanying(solver_bt, n, entry.params).abs_error_bound < old_bound


# ---------------------------------------------------------------------------
# gap terms and distances
# ---------------------------------------------------------------------------


def test_gap_terms_at_two(solver_us):
    terms = surrogate_gap_terms(solver_us, 2, US.params)
    assert terms.toll_term == pytest.approx(0.0, abs=1e-12)
    assert terms.cross_term == pytest.approx(0.0, abs=1e-12)
    assert terms.scale_term == pytest.approx(1.0)  # sd ratio is 0 at n=2
    assert terms.total >= 0


def test_gap_term_sums_decrease_geometrically(solver_us, solver_nd):
    for solver, entry in ((solver_us, US), (solver_nd, ND)):
        totals = [surrogate_gap_terms(solver, 2**e, entry.params).total for e in range(6, 14)]
        assert all(a > b for a, b in zip(totals, totals[1:]))


def test_zeta3_to_normal_decreases(solver_us):
    early = zeta3_to_normal(solver_us, 2**6).value
    late = zeta3_to_normal(solver_us, 2**10).value
    assert late < early


def test_zeta3_to_normal_exceeds_probe(solver_us):
    n = 64
    sd = solver_us.sd(n)
    law = solver_us.law(n).affine(1 / sd, -float(solver_us.mean(n)) / sd)
    val = zeta3_to_normal(solver_us, n).value
    probe = zeta3_lower_probe(law, NormalMixture.std_normal())
    assert probe <= val * (1 + 1e-8) + 1e-9
    assert probe >= 0.999 * val


def test_zeta3_to_normal_degenerate_rejected(solver_us):
    with pytest.raises(PreconditionError):
        zeta3_to_normal(solver_us, 2)


def test_triangle_route_through_the_surrogate(solver_us):
    for n in (8, 32, 128):
        z, tau = standardized_law(solver_us, n, US.params)
        acc = accompanying_law(solver_us, n, US.params)
        target = NormalMixture.normal(0.0, tau)
        d = zeta3(z, target)
        via_surrogate = zeta3(z, acc.mixture)
        surrogate_to_normal = zeta3(acc.mixture, target)
        budget = d.abs_error_bound + via_surrogate.abs_error_bound + surrogate_to_normal.abs_error_bound
        assert d.value <= via_surrogate.value + surrogate_to_normal.value + budget + 1e-12


def test_scale_ratio_approaches_one(solver_us, solver_nd):
    for solver, entry in ((solver_us, US), (solver_nd, ND)):
        gaps = [
            abs(standardized_law(solver, 2**e, entry.params).sd - 1.0)
            for e in range(6, 12)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------


def test_drift_search_cost(solver_us):
    rep = check_conditions(solver_us, US.params, [1000])
    assert rep.rows[0].drift == pytest.approx(-1.0, abs=0.01)
    assert rep.drift_ok


def test_drift_node_depth(solver_nd):
    rep = check_conditions(solver_nd, ND.params, [1000])
    assert rep.rows[0].drift == pytest.approx(-0.5, abs=0.02)


def test_conditions_bounded_norms(solver_us):
    rep = check_conditions(solver_us, US.params, [2**e for e in range(4, 11)])
    assert not rep.norms_flagged
    assert all(r.toll_l3_ratio is not None and r.toll_l3_ratio < 10 for r in rep.rows)


def test_election_conditions_match_the_oracles():
    # Y_n = Y_J + L_n, J uniform on 0..n-1: the toll norm from the brute
    # election law and the mean recurrence, the index terms from J alone
    entry = make("broadcast_b_time")
    rep = check_conditions(shared_solver("broadcast_b_time"), entry.params, [16, 32])
    mu = broadcast_b_means(32)
    for row in rep.rows:
        n = row.n
        law = election_rounds_law(n)
        cube = sum(p * abs(t - mu[n] + mu[j]) ** 3 for j in range(n) for t, p in law.items()) / n
        assert row.toll_l3_ratio == pytest.approx(cube ** (1 / 3) / math.log(n), rel=1e-9)
        lead = [math.log(max(j, 1) / n) for j in range(n)]
        assert row.drift == pytest.approx(sum(lead) / n, rel=1e-9)
        assert row.index_l3 == pytest.approx((sum(abs(x) ** 3 for x in lead) / n) ** (1 / 3), rel=1e-9)
    assert rep.drift_ok


# ---------------------------------------------------------------------------
# rate fits and calculus checks
# ---------------------------------------------------------------------------


def test_fit_rate_recovers_half_power():
    series = [(n, 1.0 / math.sqrt(math.log(n))) for n in (16, 64, 256, 1024, 4096)]
    fit = fit_rate(series)
    assert fit.exponent == pytest.approx(0.5, abs=1e-9)
    assert fit.constant == pytest.approx(1.0, rel=1e-9)
    assert fit.residual < 1e-9


def test_fit_rate_recovers_first_power_with_constant():
    series = [(n, 3.0 / math.log(n)) for n in (16, 64, 256, 1024)]
    fit = fit_rate(series)
    assert fit.exponent == pytest.approx(1.0, abs=1e-9)
    assert fit.constant == pytest.approx(3.0, rel=1e-9)


def test_fit_rate_input_validation():
    with pytest.raises(PreconditionError):
        fit_rate([(4, 1.0), (8, 0.5), (16, 0.25)])
    with pytest.raises(PreconditionError):
        fit_rate([(4, 1.0), (8, 0.5), (16, -0.25), (32, 0.1)])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_log_power_ratio_no_violations(alpha):
    assert log_power_ratio_check(alpha, 500) == []


def _log_power_ratio_by_rows(alpha, n_max):
    # the one-row-per-n loop that the blocked check replaced
    fac = max(2.0, alpha)
    violations = []
    for n in range(3, n_max + 1):
        ln_n = math.log(n)
        i = np.arange(1, n + 1, dtype=float)
        lhs = np.abs((np.log(np.maximum(i, 1)) / ln_n) ** alpha - 1.0)
        rhs = fac / ln_n * np.abs(np.log(i / n))
        bad = np.nonzero(lhs > rhs + 1e-12)[0]
        for b in bad:
            violations.append((n, int(i[b]), float(lhs[b]), float(rhs[b])))
    return violations


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("n_max", [3, 4, 50, 500])
def test_log_power_ratio_blocks_match_the_row_loop(alpha, n_max):
    assert log_power_ratio_check(alpha, n_max) == _log_power_ratio_by_rows(alpha, n_max)


def test_log_power_ratio_pair_blocks_cover_the_triangle(monkeypatch):
    # a tiny block splits long rows into pieces and groups short ones
    monkeypatch.setattr(clt, "_PAIR_BLOCK", 7)
    blocks = list(clt._pair_blocks(30))
    assert all(len(n) == len(i) <= 7 for n, i in blocks)
    pairs = [(int(a), int(b)) for n, i in blocks for a, b in zip(n, i)]
    assert pairs == [(n, i) for n in range(3, 31) for i in range(1, n + 1)]
    assert log_power_ratio_check(1.5, 60) == _log_power_ratio_by_rows(1.5, 60)


def test_log_power_ratio_validates_input():
    with pytest.raises(PreconditionError):
        log_power_ratio_check(0.5, 2)


def test_verification_row_schema(solver_us):
    row = verification_row(solver_us, 16, US.params)
    assert tuple(row) == VERIFICATION_COLUMNS
    assert row["bound_sum"] > 0
    assert row["zeta3_acc"] <= 10 * row["bound_sum"]


def test_verification_row_builds_the_surrogate_once(monkeypatch):
    import recdist.clt as clt_module

    entry = make("unsuccessful_search")
    solver = entry.solver()
    expected = verification_row(solver, 64, entry.params)
    calls = []
    build = clt_module.accompanying_law

    def counting(*args):
        calls.append(args[1])
        return build(*args)

    monkeypatch.setattr(clt_module, "accompanying_law", counting)
    row = verification_row(solver, 64, entry.params)
    assert calls == [64]
    assert row == expected
    assert row["zeta3_acc"] == zeta3_accompanying(solver, 64, entry.params).value
    assert row["bound_sum"] == surrogate_gap_terms(solver, 64, entry.params).total
