"""Tests for the model catalog: joint laws, tolls, and parameters."""

import dataclasses
import hashlib
import math
import sys
import threading
from fractions import Fraction as F

import numpy as np
import pytest

from recdist import (
    CapacityError,
    Pmf,
    PreconditionError,
    SolveOptions,
    Solver,
    VectorBlock,
    VectorGroup,
    make,
    rate_exponent,
    sample_many,
)
from recdist import catalog, engine
from recdist.catalog import NAMES, fit_variance_constant, leader_election_spec
from recdist.engine import _atom_groups, _RowSampler

from brute import (
    broadcast_b_means,
    broadcast_index_pmf,
    broadcast_means,
    election_rounds_law,
    index_law,
    leader_election_rounds,
    sampled_tv,
)
from conftest import shared_solver


def test_all_entries_constructible():
    for name in NAMES:
        entry = make(name)
        assert entry.spec.n0 >= 1


def test_hyphenated_names_accepted():
    assert make("unsuccessful-search").name == "unsuccessful_search"


def test_unknown_name_rejected():
    with pytest.raises(PreconditionError):
        make("bogosort")


def test_quickselect_is_nondegenerate():
    assert make("quickselect").params is None
    assert not make("quickselect").degenerate


# ---------------------------------------------------------------------------
# broadcast joint index law
# ---------------------------------------------------------------------------


def test_broadcast_index_pmf_n2_frozen():
    law = broadcast_index_pmf(2)
    assert law == {
        (0, 0): F(1, 4),
        (1, 0): F(1, 4),
        (2, 0): F(1, 4),
        (1, 1): F(1, 4),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 33, 64])
def test_broadcast_index_pmf_sums_to_one_exactly(n):
    assert sum(broadcast_index_pmf(n).values()) == 1


@pytest.mark.parametrize("n", [2, 5, 16, 40])
def test_broadcast_leading_marginal_is_binomial(n):
    law = broadcast_index_pmf(n)
    marg: dict = {}
    for (j, _), w in law.items():
        marg[j] = marg.get(j, F(0)) + w
    for j in range(n + 1):
        assert marg.get(j, F(0)) == F(math.comb(n, j), 2**n)


@pytest.mark.parametrize("n", [2, 5, 16, 40])
def test_broadcast_trailing_marginal(n):
    law = broadcast_index_pmf(n)
    marg: dict = {}
    for (_, k), w in law.items():
        marg[k] = marg.get(k, F(0)) + w
    assert marg[0] == F(1, 2) + F(1, 2**n)
    for k in range(1, n):
        assert marg[k] == F(1, 2 ** (k + 1))


@pytest.mark.parametrize("n", [2, 7, 20])
def test_broadcast_self_weight_is_two_to_minus_n(n):
    law = broadcast_index_pmf(n)
    self_mass = sum(w for (j, k), w in law.items() if j == n or k == n)
    assert self_mass == F(1, 2**n)
    assert self_mass < 1


def _reference_table(name: str, n: int) -> dict:
    """{(indices, toll): weight} of a tabulated model, from its closed form."""
    if name == "unsuccessful_search":
        return {((i,), 1): F(1, n - 1) for i in range(1, n)}
    if name == "node_depth":
        return {((0,), 1): F(1, n), **{((k,), 1): F(2 * k, n * n) for k in range(1, n)}}
    if name == "quickselect":
        return {((i,), n - 1): F(1, n) for i in range(n)}
    if name == "broadcast_b_time":  # float weights: the oracle's election law is float
        return {((i,), t): p / n for i in range(n) for t, p in election_rounds_law(n).items()}
    comparisons = name == "broadcast_a_comparisons"
    return {((j, k), n - j if comparisons else 1): w for (j, k), w in broadcast_index_pmf(n).items()}


@pytest.mark.parametrize("name", NAMES)
def test_groups_expand_to_reference_tables(name):
    spec = make(name).spec
    for n in (2, 3, 7, 12, 33):
        expanded: dict = {}
        for g in (r.dense(n, True) for g in spec.law_groups(n, True) for r in _block_rows(g)):
            tolls = list(zip(g.toll.values, g.toll.probs)) if isinstance(g.toll, Pmf) else [(g.toll, 1)]
            for j, w in enumerate(g.weights.tolist(), g.first_start):
                if w:
                    for t, p in tolls:
                        key = ((j, *g.others), t + g.slope * j)
                        expanded[key] = expanded.get(key, 0) + g.scale * w * p
        assert all(isinstance(w, F) for w in expanded.values())
        ref = _reference_table(name, n)
        if name == "broadcast_b_time":
            # the solved election law is trimmed within tail_eps (1e-12) of
            # mass, the oracle's is not: the kept atoms are the oracle's
            # first ones, and every weight is within tail_eps of the oracle
            assert set(expanded) <= set(ref)
            assert max(abs(float(expanded.get(key, 0)) - w) for key, w in ref.items()) <= 1e-12
            ref = {key: w for key, w in ref.items() if key in expanded}
        else:
            assert expanded == ref
        # the derived atom list keeps the reference table's order
        assert [(idx, t) for idx, t, _ in spec.joint_atoms(n)] == list(ref)


def test_binomial_rows_grow_safely_from_threads(monkeypatch):
    """Four threads growing the shared binomial rows from an empty cache,
    released together, leave row m of length m + 1 and mass 1 at every m."""

    def grow(start):
        start.wait()
        catalog._binom_row(400)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the growth loop too
    try:
        for _ in range(20):
            monkeypatch.setattr(catalog, "_BINOM_ROWS", [np.array([1.0])])
            start = threading.Barrier(4)
            threads = [threading.Thread(target=grow, args=(start,)) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            rows = catalog._BINOM_ROWS
            assert len(rows) == 401
            assert all(len(row) == m + 1 for m, row in enumerate(rows))
            assert all(abs(math.fsum(row) - 1.0) < 1e-12 for row in rows)
    finally:
        sys.setswitchinterval(interval)


def test_float_broadcast_bands_match_the_full_rows():
    """From _BAND_FROM on, a float Binomial(m, 1/2) row is kept over its band
    only: the band starts on the grid, agrees with the full row to 1e-12 and
    leaves out under 2^-50 of its mass. A level past the cap lists the same
    atoms as the full rows, each weight within 1e-15."""
    for m in (catalog._BAND_FROM, catalog._BAND_FROM + 1, 2200):
        lo, w = catalog._binom_band(m)
        full = catalog._binom_row(m)
        assert lo % catalog._BAND_GRID == 0
        assert np.abs(w / full[lo : lo + len(w)] - 1).max() < 1e-12
        assert math.fsum(full[:lo]) + math.fsum(full[lo + len(w) :]) < 2.0**-50
    spec = make("broadcast_a_time").spec
    for n in (2049, 2115, 2200):
        idx, _, weights = spec.joint_arrays(n)
        got = np.zeros((n + 1, 66))
        np.add.at(got, (idx[:, 0], idx[:, 1]), weights)
        want = np.zeros((n + 1, 66))
        for k in range(66):
            want[1 : n - k + 1, k] = catalog._binom_row(n - 1 - k) * 2.0 ** -(k + 1)
        assert np.abs(got - want).max() < 1e-15
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-14)


def test_float_broadcast_levels_far_past_the_cap_hold_bands_only(monkeypatch):
    """A float broadcast level at n = 2^16 builds no full Binomial row: its 66
    rows are bands of O(sqrt(n)) weights in at most two blocks, so drawing
    there takes no O(n^2) memory. A round of the row sampler at n = 5000
    draws the level's atoms."""
    monkeypatch.setattr(catalog, "_BINOM_ROWS", [np.array([1.0])])
    spec = make("broadcast_a_time").spec
    n = 1 << 16
    groups = spec.law_groups(n, False)
    assert len(catalog._BINOM_ROWS) == 1
    assert len(groups) <= 2 and all(isinstance(g, VectorBlock) for g in groups)
    rows = [row for g in groups for row in g.rows]
    assert len(rows) == 66 and max(map(len, rows)) <= 10 * math.sqrt(n) + catalog._BAND_GRID
    for n in range(2049, 9000, 61):  # band starts grow with m: two band blocks at most
        assert sum(g.first_start > 1 for g in spec.law_groups(n, False)) <= 2
    n = 5000
    idx, _ = _draw_atoms(spec, np.full(40_000, n), np.random.default_rng(77))
    ref_idx, _, weights = spec.joint_arrays(n)
    ref = dict(zip(map(tuple, ref_idx.tolist()), weights.tolist()))
    tv, bound = sampled_tv(list(map(tuple, idx.tolist())), ref)
    assert tv <= bound, (tv, bound)


def _block_rows(g) -> list:
    """A block's rows as one VectorGroup each, in order; a group as it is."""
    if not isinstance(g, VectorBlock):
        return [g]
    keys = [None] * len(g.rows) if g.cache_keys is None else g.cache_keys.tolist()
    return [
        VectorGroup(g.first_start, w, s, tuple(o), g.toll, g.slope, key)
        for w, s, o, key in zip(g.rows, g.scales, g.others.tolist(), keys)
    ]


def _per_row(spec):
    """The spec with each block handed to the solver as one VectorGroup per row."""

    def groups(n, exact):
        return [r for g in spec.groups(n, exact) for r in _block_rows(g)]

    return dataclasses.replace(spec, groups=groups)


def _assert_same_float_laws(got: Solver, want: Solver, ns) -> None:
    for n in ns:
        a, b = got.law(n), want.law(n)
        assert a.values == b.values, n
        assert np.max(np.abs(np.subtract(a.probs, b.probs))) <= 1e-15, n
        assert abs(a.lost_mass - b.lost_mass) <= 1e-15, n
        for x, y in zip(got._level(n).moments(), want._level(n).moments()):
            assert x == pytest.approx(y, rel=1e-12, abs=0), n


@pytest.mark.parametrize("name", ["broadcast_a_time", "broadcast_a_comparisons"])
def test_broadcast_blocks_match_their_rows(name):
    """Float laws of the one-block encoding against the same law handed over
    row by row, at every n to 70 and at 256, and handed over as atoms, at
    every n to 70: the self atom (j = n, k = 0) and the (0, 0) atom's cut
    after n = 66. The atoms regroup into one row per (k, toll), or with the
    comparisons' toll n - j into one row per atom; every grouping keeps all
    of its rows, so each gives the same law."""
    spec = make(name).spec
    solver = Solver(spec)
    ns = [*range(71), 256]
    _assert_same_float_laws(solver, Solver(_per_row(spec)), ns)
    atoms = dataclasses.replace(spec, groups=lambda n, exact: _atom_groups(spec.joint_atoms(n), exact))
    _assert_same_float_laws(solver, Solver(atoms), range(71))


@pytest.mark.parametrize("name", ["broadcast_a_time", "broadcast_a_comparisons"])
def test_broadcast_float_moments_match_exact_ones(name):
    """With the default tail_eps, float and exact solves truncate by the same
    rule, so their moments and lost mass agree to round-off at every n to 64."""
    spec = make(name).spec
    fl, ex = Solver(spec), Solver(spec, SolveOptions(mode="exact"))
    for n in range(65):
        for x, y in zip(fl._level(n).moments(), ex._level(n).moments()):
            assert x == pytest.approx(float(y), rel=1e-13, abs=0), n
        assert abs(fl.law(n).lost_mass - float(ex.law(n).lost_mass)) <= 1e-15, n


@pytest.mark.parametrize("sparsity", [4, 8])
def test_broadcast_blocks_without_stacks_match(monkeypatch, sparsity):
    """With the stacked matrices given up (sparsity 4: while storing an inner
    mixture, 8: while storing a level), blocks mix by shifted adds and the
    same contraction, and give the stacked solve's laws."""
    for name in ("broadcast_a_time", "broadcast_a_comparisons"):
        stacked = Solver(make(name).spec)
        stacked.mean(128)
        monkeypatch.setattr(engine, "_STACK_SPARSITY", sparsity)
        solver = Solver(make(name).spec)
        _assert_same_float_laws(solver, stacked, range(129))
        assert solver._mat is None and solver._imat is None
        monkeypatch.undo()


#: sha256 of the exact laws (values, probabilities, lost mass) for n up to
#: the given top, and of the float joint arrays at n = 2..70, 256 and 1024,
#: as the one-row-per-trailing-size encoding produced them
_BROADCAST_DIGESTS = {
    "broadcast_a_time": (
        30,
        "137a5be737703c9bc8ca4f008cdbd96478ab438fb352dd8f4115596aefb6664c",
        "7ee6d3e16f59d1bbbbfc15ed67fc643a5dc5f2d26f821fa2eccd48d0cc814e62",
    ),
    "broadcast_a_comparisons": (
        40,
        "fa0124f9b6087a866c9e9994e4c54caf8e76a8d19a7ae97ade3d002b73bc53fd",
        "0733736deca1bedecefb122c383bfd5c5802a3ee1d2fb7cc2574eb58d89084b1",
    ),
}


@pytest.mark.parametrize("name", sorted(_BROADCAST_DIGESTS))
def test_broadcast_exact_laws_and_joint_arrays_are_pinned(name):
    top, law_digest, arrays_digest = _BROADCAST_DIGESTS[name]
    spec = make(name).spec
    solver = Solver(spec, SolveOptions(mode="exact"))
    h = hashlib.sha256()
    for n in range(top + 1):
        law = solver.law(n)
        h.update(repr((law.values, law.probs, law.lost_mass)).encode())
    assert h.hexdigest() == law_digest
    h = hashlib.sha256()
    for n in [*range(2, 71), 256, 1024]:
        for a in spec.joint_arrays(n):
            h.update(str(a.dtype).encode())
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    assert h.hexdigest() == arrays_digest


#: the models whose rows are polynomial in the leading index, and the top
#: index of their float comparison (quickselect stops at its solve cap)
_POLYNOMIAL = {"unsuccessful_search": 8192, "node_depth": 8192, "quickselect": 256}


def _plain_rows(spec):
    """The spec with each polynomial row handed over as its tabulated weights."""
    return dataclasses.replace(spec, groups=lambda n, exact: [g.dense(n, exact) for g in spec.groups(n, exact)])


@pytest.mark.parametrize("name", sorted(_POLYNOMIAL))
@pytest.mark.parametrize("tail_eps", [1e-12, 0.0], ids=["default_eps", "untruncated"])
def test_polynomial_rows_give_the_plain_rows_exact_laws(name, tail_eps):
    """Exact laws and lost mass from the running sums equal those of the same
    weights mixed row by row, at every n to 100: the stored rows, reduced
    int numerators over one denominator, are equal, and so is the law at
    n = 100."""
    spec = make(name).spec
    assert any(g.poly for g in spec.groups(9, True))
    opts = SolveOptions(mode="exact", tail_eps=tail_eps)
    sums, rows = Solver(spec, opts), Solver(_plain_rows(spec), opts)
    assert sums.law(100) == rows.law(100)
    for (off, row, den), (want_off, want_row, want_den) in zip(sums._rows, rows._rows, strict=True):
        assert (off, den) == (want_off, want_den) and row.tolist() == want_row.tolist()


@pytest.mark.parametrize("name", sorted(_POLYNOMIAL))
def test_polynomial_rows_give_the_plain_rows_float_laws(name):
    """Float moments agree to 1e-12 relative and lost mass to 2e-15 with the
    same weights mixed row by row, at every n from 64 to 8192. The row-by-row
    product is the less accurate side: against an 80-bit recomputation of
    the same recursion and truncation its lost mass is off by up to 1.9e-15
    (unsuccessful_search), the running sums' by at most 4.5e-16."""
    sums, top = shared_solver(name), _POLYNOMIAL[name]
    rows = Solver(_plain_rows(sums.spec))
    for n in range(64, top + 1):
        a, b = sums._level(n), rows._level(n)
        for x, y in zip(a.moments(), b.moments()):
            assert x == pytest.approx(y, rel=1e-12, abs=0), n
        assert abs(a.law().lost_mass - b.law().lost_mass) <= 2e-15, n


def test_running_sums_stay_within_an_ulp_of_the_exact_sums():
    """The compensated running sum of node_depth, the sum of j * row_j over
    1 <= j < m for m >= 8192 stored rows, against every column summed
    exactly."""
    solver = shared_solver("node_depth")
    solver.mean(8192)
    m = len(solver._rows)
    off, got, _ = solver._running_sum(m, 1, 1, 0)
    columns = [[] for _ in got]
    for j in range(1, m):
        row_off, row, _ = solver._rows[j]
        for i, p in enumerate(row.tolist(), row_off - off):
            columns[i].append(j * p)
    want = np.array([math.fsum(c) for c in columns])
    assert np.all(np.abs(got - want) <= np.spacing(want))


@pytest.mark.parametrize("name", sorted(_POLYNOMIAL))
def test_polynomial_rows_tabulate_to_the_correctly_rounded_ratios(name):
    """joint_arrays of a polynomial row reads its weights as the float
    ratios of the integer numerators to the integer denominator (2j/n^2,
    not 2j times 1/n^2), the atoms in leading-index order with their tolls."""
    for n in (3, 7, 100, 1001, 4097):
        js = np.arange(n)
        nums, den, tolls = {
            "unsuccessful_search": (np.ones(n - 1), n - 1, np.ones(n - 1)),
            "node_depth": (np.where(js == 0, n, 2 * js), n * n, np.ones(n)),
            "quickselect": (np.ones(n), n, np.full(n, n - 1.0)),
        }[name]
        idx, got_tolls, weights = make(name).spec.joint_arrays(n)
        assert idx[:, 0].tolist() == list(range(n - len(nums), n))
        assert np.array_equal(got_tolls, tolls)
        assert np.array_equal(weights, nums.astype(float) / den)


def test_running_sums_count_only_their_span_against_max_support():
    """quickselect to n = 100 needs a lattice span of 1058 cells, mixed row
    by row or by running sums: both solve under max_support = 1058 and both
    refuse 1057. The sums' room to grow is not counted."""
    spec = make("quickselect").spec
    for s in (spec, _plain_rows(spec)):
        Solver(s, SolveOptions(max_support=1058)).law(100)
        with pytest.raises(CapacityError):
            Solver(s, SolveOptions(max_support=1057)).law(100)


@pytest.mark.parametrize("name", sorted(_POLYNOMIAL))
def test_polynomial_models_never_stack_their_child_rows(name):
    """A solver of a model written as polynomial rows holds no stacked child
    matrix after its solve."""
    solver = make(name).solver()
    solver.law(_POLYNOMIAL[name] // 2)
    assert solver._mat is None and solver._imat is None


def test_broadcast_comparisons_float_means_match_the_mean_recurrence():
    solver = make("broadcast_a_comparisons").solver()
    want = broadcast_means(64, lambda n: n / 2)
    got = solver.means_upto(64)
    assert got == pytest.approx(want, rel=1e-9)


def test_broadcast_comparisons_exact_means_match_the_mean_recurrence():
    """Exact means to n = 40 against the mean recurrence (the truncated mass
    keeps them 4e-12 apart) and against the float solver."""
    solver = Solver(make("broadcast_a_comparisons").spec, SolveOptions(mode="exact"))
    got = np.array([float(solver.mean(n)) for n in range(41)])
    assert got == pytest.approx(broadcast_means(40, lambda n: n / 2), rel=1e-9)
    assert got == pytest.approx(make("broadcast_a_comparisons").solver().means_upto(40), rel=1e-12)


def _draw_atoms(spec, ns: np.ndarray, rng) -> tuple:
    """One round of the row sampler over the indices ``ns``: the child
    indices as an (entries, k) array, and the tolls."""
    children, tolls = _RowSampler(spec, int(ns.max()))(rng, ns)
    return children.reshape(spec.k, -1).T, tolls


def test_broadcast_sampler_matches_joint_law():
    spec = make("broadcast_a_time").spec
    rng = np.random.default_rng(31337)
    n, runs = 10, 400_000
    idx, _ = _draw_atoms(spec, np.full(runs, n), rng)
    emp: dict = {}
    for j, k in idx.tolist():
        emp[(j, k)] = emp.get((j, k), 0) + 1
    ref = {key: float(w) for key, w in broadcast_index_pmf(n).items()}
    tv = 0.5 * sum(
        abs(emp.get(key, 0) / runs - ref.get(key, 0.0)) for key in set(emp) | set(ref)
    )
    assert tv < 0.005


MIXED_NS = (2, 3, 10, 61, 200)


def _mixed_call(spec, per_n: int, seed: int) -> tuple:
    """One sampler round over a shuffled array mixing every index of MIXED_NS."""
    rng = np.random.default_rng(seed)
    ns = rng.permutation(np.repeat(np.array(MIXED_NS, dtype=np.int64), per_n))
    return (ns, *_draw_atoms(spec, ns, rng))


@pytest.mark.parametrize("name", NAMES)
def test_sampler_joint_law_over_mixed_indices(name):
    spec = make(name).spec
    ns, children, tolls = _mixed_call(spec, 20_000, seed=2024)
    for n in MIXED_NS:
        at = ns == n
        keys = list(zip(map(tuple, children[at].tolist()), tolls[at].tolist()))
        ref: dict = {}
        for idx, toll, w in spec.joint_atoms(n):
            key = (tuple(idx), float(toll))
            ref[key] = ref.get(key, 0.0) + float(w)
        tv, bound = sampled_tv(keys, ref)
        assert tv <= bound, (n, tv, bound)


def test_election_sampler_law_over_mixed_indices():
    spec = make("broadcast_b_time").spec
    ns, children, tolls = _mixed_call(spec, 20_000, seed=2025)
    for n in MIXED_NS:
        at = ns == n
        index_ref = {idx: float(w) for idx, w in index_law(spec, n).items()}
        tv, bound = sampled_tv(list(map(tuple, children[at].tolist())), index_ref)
        assert tv <= bound, ("index", n, tv, bound)
        toll_ref = {float(r): p for r, p in election_rounds_law(n).items()}
        tv, bound = sampled_tv(tolls[at].tolist(), toll_ref)
        assert tv <= bound, ("toll", n, tv, bound)


@pytest.mark.parametrize("m", [2, 5, 40])
def test_sampled_elections_follow_the_election_law(m):
    """The election's one row refers back to m (a wasted round keeps m):
    sample_many follows that atom round after round, and its draws have
    the law of the election's length."""
    draws = sample_many(leader_election_spec(), m, 20_000, np.random.default_rng(m))
    tv, bound = sampled_tv(draws.tolist(), {float(r): p for r, p in election_rounds_law(m).items()})
    assert tv <= bound, (m, tv, bound)


# ---------------------------------------------------------------------------
# leader election
# ---------------------------------------------------------------------------


def test_election_law_matches_the_transition_matrix():
    # the oracle stops once under 1e-13 of mass is left; under a budget of
    # 1e-15 every atom the solver drops is far below the tolerance
    solver = Solver(leader_election_spec(), SolveOptions(mode="exact", tail_eps=1e-15))
    for m in range(1, 65):
        law = solver.law(m)
        got = dict(zip(law.values, law.probs))
        assert all(isinstance(p, F) for p in law.probs)
        ref = election_rounds_law(m)
        assert max(abs(float(got.get(r, 0)) - ref.get(r, 0.0)) for r in set(got) | set(ref)) <= 1e-13, m


def test_broadcast_b_float_means_match_the_mean_recurrence():
    means = np.array(broadcast_b_means(1024))
    got = shared_solver("broadcast_b_time").means_upto(1024)
    assert np.max(np.abs(got - means) / means) <= 1e-9


def test_single_contender_elects_immediately():
    rng = np.random.default_rng(1)
    assert leader_election_rounds(1, rng) == 0


def test_two_contender_mean_rounds():
    # each round resolves with probability 1/2, so rounds ~ geometric(1/2)
    rng = np.random.default_rng(2)
    rounds = leader_election_rounds(np.full(1_000_000, 2), rng)
    se = float(np.std(rounds)) / math.sqrt(len(rounds))
    assert abs(float(np.mean(rounds)) - 2.0) <= 3 * se


def test_election_third_moment_scales_like_log_cubed():
    rng = np.random.default_rng(3)
    ratios = []
    for e in range(4, 11):
        m = 2**e
        rounds = leader_election_rounds(np.full(20_000, m), rng)
        ratios.append(float(np.mean(rounds.astype(float) ** 3)) / math.log(m) ** 3)
    assert max(ratios) / min(ratios) < 4.0


def test_contender_count_validated():
    with pytest.raises(ValueError):
        leader_election_rounds(0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# growth constants
# ---------------------------------------------------------------------------


def test_search_cost_mean_is_harmonic(solver_us):
    # uniform surviving-subtree law: mean is exactly H_{n-1}
    for n in (10, 100, 1000):
        h = sum(1.0 / i for i in range(1, n))
        assert float(solver_us.mean(n)) == pytest.approx(h, abs=1e-9)


def test_search_cost_centered_moments_stabilize(solver_us):
    means = [float(solver_us.mean(2**e)) - math.log(2**e) for e in range(4, 14)]
    variances = [float(solver_us.variance(2**e)) - math.log(2**e) for e in range(4, 14)]
    assert max(means) - min(means) < 0.1
    assert max(variances) - min(variances) < 0.2


def test_node_depth_centered_moments_stabilize(solver_nd):
    means = [float(solver_nd.mean(2**e)) - 2 * math.log(2**e) for e in range(4, 14)]
    variances = [float(solver_nd.variance(2**e)) - 2 * math.log(2**e) for e in range(4, 14)]
    assert max(means) - min(means) < 0.7
    assert max(variances) - min(variances) < 1.2


def test_node_depth_moments_match_closed_forms(solver_nd):
    # Random-BST node depth: E D_n = 2(1 + 1/n) H_n - 4 and
    # Var D_n = (2 + 10/n) H_n - 4(1 + 1/n)(H_n^2/n + H_n^(2)) + 4.
    # These pin the law whose rising skewness criterion 4 has to allow for.
    for e in range(6, 14):
        n = 2**e
        h = math.fsum(1.0 / i for i in range(1, n + 1))
        h2 = math.fsum(1.0 / (i * i) for i in range(1, n + 1))
        mean = 2 * (1 + 1 / n) * h - 4
        var = (2 + 10 / n) * h - 4 * (1 + 1 / n) * (h * h / n + h2) + 4
        assert float(solver_nd.mean(n)) == pytest.approx(mean, abs=1e-7)
        assert float(solver_nd.variance(n)) == pytest.approx(var, abs=1e-7)


def test_all_degenerate_entries_pass_the_gate():
    for name in NAMES:
        entry = make(name)
        if entry.params is None:
            continue
        gate = rate_exponent(entry.params, entry.spec.k)
        assert gate.beta == 1.5 and gate.applicable


def test_fit_variance_constant_broadcast(solver_bt):
    entry = make("broadcast_a_time")
    fitted = fit_variance_constant(entry, [256, 512, 1024])
    assert fitted.c_is_fitted
    assert 3.0 < fitted.params.c < 7.0
