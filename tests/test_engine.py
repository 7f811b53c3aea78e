"""Tests for the recurrence solver and sampler."""

import dataclasses
import json
import math
import sys
import threading
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdist import (
    CapacityError,
    Pmf,
    PreconditionError,
    RecurrenceSpec,
    SolveOptions,
    Solver,
    UnsupportedExactError,
    VectorBlock,
    VectorGroup,
    make,
    sample_many,
    spec_from_json,
)
from recdist import catalog
from recdist.engine import _BLOCK, _RowSampler, _alias, _atom_groups

from brute import brute_law, sampled_tv


def exact_solver(name: str) -> Solver:
    return Solver(make(name).spec, SolveOptions(mode="exact", tail_eps=0.0))


def _atom_spec(name: str, k: int, atoms) -> RecurrenceSpec:
    """A spec with base laws 0 at n = 0, 1 whose joint law at n is the list
    ``atoms(n)`` of ``(indices, toll, weight)``, grouped into weight rows as
    the JSON parser groups a document's atoms."""
    return RecurrenceSpec(
        name=name, k=k, n0=2, base_laws=(Pmf.delta(0), Pmf.delta(0)),
        groups=lambda n, exact: _atom_groups(atoms(n), exact),
    )


# ---------------------------------------------------------------------------
# hand-enumerated laws
# ---------------------------------------------------------------------------


def test_unsuccessful_search_law_at_4():
    law = exact_solver("unsuccessful_search").law(4)
    assert law.values == (1, 2, 3)
    assert law.probs == (F(1, 3), F(1, 2), F(1, 6))


def test_quickselect_law_at_3():
    law = exact_solver("quickselect").law(3)
    assert law.values == (2, 3)
    assert law.probs == (F(2, 3), F(1, 3))


def test_node_depth_law_at_2():
    law = exact_solver("node_depth").law(2)
    assert law.values == (0, 1)
    assert law.probs == (F(1, 2), F(1, 2))


@pytest.mark.parametrize("name", ["unsuccessful_search", "node_depth", "quickselect"])
def test_exact_dp_matches_brute_enumeration(name):
    spec = make(name).spec
    solver = Solver(spec, SolveOptions(mode="exact", tail_eps=0.0))
    for n in range(0, 9):
        expected = brute_law(spec, n)
        law = solver.law(n)
        got = dict(zip(law.values, law.probs))
        assert got == expected, f"{name} differs at n={n}"


def test_moment_table_values():
    rows = exact_solver("unsuccessful_search").moment_rows([3, 4])
    assert (rows[0].mean, rows[0].variance) == (F(3, 2), F(1, 4))
    assert rows[1].mean == F(11, 6)
    qrows = exact_solver("quickselect").moment_rows([2])
    assert (qrows[0].mean, qrows[0].variance) == (1, 0)


def test_third_abs_central_moment_positive():
    rows = exact_solver("unsuccessful_search").moment_rows([8])
    assert rows[0].third_abs_central > 0


# ---------------------------------------------------------------------------
# modes, memoization, caps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["unsuccessful_search", "node_depth", "quickselect", "broadcast_a_time",
             "broadcast_a_comparisons"]
)
def test_exact_and_float_modes_agree(name):
    spec = make(name).spec
    eps = 1e-15
    se = Solver(spec, SolveOptions(mode="exact", tail_eps=eps))
    sf = Solver(spec, SolveOptions(mode="float", tail_eps=eps))
    le, lf = se.law(20), sf.law(20)
    de = {int(v): float(p) for v, p in zip(le.values, le.probs)}
    df = {int(v): float(p) for v, p in zip(lf.values, lf.probs)}
    for k in set(de) | set(df):
        assert abs(de.get(k, 0.0) - df.get(k, 0.0)) <= 1e-10


def test_memoization_transparency():
    spec = make("unsuccessful_search").spec
    a = Solver(spec)
    a.law(100)
    warm = a.law(50)
    fresh = Solver(spec).law(50)
    assert warm.values == fresh.values
    assert warm.probs == fresh.probs  # bit-identical


def test_mean_nondecreasing_for_search_cost(solver_us):
    means = [float(solver_us.mean(n)) for n in range(2, 200)]
    assert all(b >= a for a, b in zip(means, means[1:]))


def test_lost_mass_within_budget(solver_us):
    law = solver_us.law(4096)
    assert float(law.lost_mass) <= 4096 * 1e-12


def test_support_cap_raises_capacity_error():
    spec = make("quickselect").spec
    s = Solver(spec, SolveOptions(max_support=10))
    with pytest.raises(CapacityError):
        s.law(30)


def test_exact_cap_enforced():
    with pytest.raises(CapacityError):
        Solver(make("quickselect").spec).law(257)


def test_spec_without_groups_is_refused():
    # the weight rows are a spec's one description of its law
    with pytest.raises(PreconditionError, match="joint law"):
        RecurrenceSpec(name="draws", k=1, n0=2, base_laws=(Pmf.delta(0), Pmf.delta(0)))


@pytest.mark.parametrize("doc", [
    "",
    "{not json",
    b"\xff\xfe\x00",
    "[1, 2]",
    {"k": 1},
    {"k": "one", "n0": 1, "base": [], "rows": []},
    {"k": 1, "n0": 1, "base": [{"atoms": [[0, 0, 1.0]]}], "rows": []},
    {"k": 1, "n0": 1, "base": [7], "rows": []},
    # integers are never truncated: these once solved as k = 1, n0 = 1 and index 1
    {"k": 1.7, "n0": 1.9, "base": [{"atoms": [[0, 1, 1.0]]}], "rows": [[1, 0, None, 1, 1.0]]},
    {"k": 1, "n0": 1, "base": [{"atoms": [[0, 1, 1.0]]}],
     "rows": [[1, 0, None, 1, 1.0], [2, 1.5, None, 1, 1.0]]},
    # a toll or probability is a JSON number or a fraction string, nothing else
    *({"k": 1, "n0": 1, "base": [{"atoms": [[0, 1, 1.0]]}], "rows": [row]}
      for row in ([1, 0, None, 1, None], [1, 0, None, None, 1.0], [1, 0, None, True, 1.0],
                  [1, 0, None, 1, False], [1, 0, None, 1, [1]], [1, 0, None, {"t": 1}, 1.0])),
], ids=["empty", "not-json", "undecodable", "not-an-object", "no-base", "k-not-a-number",
        "zero-denominator", "base-not-an-object", "k-not-an-integer", "index-not-an-integer",
        "null-prob", "null-toll", "bool-toll", "bool-prob", "list-prob", "object-toll"])
def test_malformed_spec_document_is_precondition_error(doc):
    with pytest.raises(PreconditionError):
        spec_from_json(doc)


def test_solve_options_validated():
    with pytest.raises(PreconditionError):
        SolveOptions(mode="flat")
    with pytest.raises(PreconditionError):
        SolveOptions(tail_eps=-1)
    with pytest.raises(PreconditionError):
        SolveOptions(max_support=1)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_solve_options_reject_a_non_finite_tail_eps(eps):
    # nan < 0 is False: a nan budget passed, and outer_trim never stopped
    with pytest.raises(PreconditionError, match="finite"):
        SolveOptions(tail_eps=eps)


def test_joint_arrays_match_the_atom_table():
    for name in ("unsuccessful_search", "node_depth", "broadcast_a_comparisons"):
        spec = make(name).spec
        idx, tolls, weights = spec.joint_arrays(40)
        atoms = spec.joint_atoms(40)
        assert idx.dtype == np.int64 and idx.shape == (len(atoms), spec.k)
        assert idx.tolist() == [list(a[0]) for a in atoms]
        assert tolls.tolist() == [float(a[1]) for a in atoms]
        assert weights == pytest.approx([float(a[2]) for a in atoms], rel=1e-15, abs=0)
    # atoms tabulated in JSON reach the arrays through the grouped rows
    rows = [[2, 1, 1, 1, 1.0], [3, 1, 2, "1/3", "1/2"], [3, 2, 1, 2, "1/4"], [3, 2, 0, 2, "1/4"]]
    spec = spec_from_json({"name": "pairs", "k": 2, "n0": 2,
                           "base": [Pmf.delta(0).to_json_dict()] * 2, "rows": rows})
    idx, tolls, weights = spec.joint_arrays(3)
    got = sorted(zip(map(tuple, idx.tolist()), tolls.tolist(), weights.tolist()))
    assert got == sorted((tuple(a), float(t), float(w)) for a, t, w in spec.joint_atoms(3))
    # a toll law is expanded atom by atom within each index
    spec = make("broadcast_b_time").spec
    (g,) = spec.law_groups(8, False)
    idx, tolls, weights = spec.joint_arrays(8)
    size = len(g.toll.values)
    assert idx[:, 0].tolist() == np.repeat(np.arange(8), size).tolist()
    assert tolls.tolist() == [float(v) for v in g.toll.values] * 8
    assert weights == pytest.approx(np.tile(g.toll.probs_f, 8) / 8, rel=1e-15, abs=0)


def test_concurrent_reads_after_fill():
    spec = make("unsuccessful_search").spec
    solver = Solver(spec)
    solver.law(64)
    out = []

    def reader(n):
        out.append(float(solver.law(n).moment(1)))

    threads = [threading.Thread(target=reader, args=(n,)) for n in (10, 20, 30, 64)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(out) == 4


def test_reader_never_sees_a_half_published_level():
    """Threads polling the newest published level while another solves
    law(4000) must find a complete law whose moments match the solver's.

    The groups hook names the level being solved; the one below it is the
    newest published, and its law and moments stay unbuilt until a poller
    reads them. The level being solved is polled too as soon as the memo
    lists it, which is inside its publication."""
    search = make("unsuccessful_search").spec
    state = {"solving": -1}

    def groups(n, exact):
        state["solving"] = n
        return search.groups(n, exact)

    solver = Solver(dataclasses.replace(search, groups=groups))
    errors: list = []
    polls: list = []
    done = threading.Event()

    def check(k):
        law = solver.law(k)
        mean, var = solver.mean(k), solver.variance(k)
        assert solver.third_abs_central(k) >= 0
        assert float(mean) == pytest.approx(float(law.moment(1)), rel=1e-12)
        assert float(var) == pytest.approx(float(law.moment(2, central=True)), rel=1e-9, abs=1e-15)

    def poll():
        count = 0
        while not done.is_set():
            n = state["solving"]
            if n < 1:
                continue
            try:
                check(n - 1)
                if n < len(solver._levels):  # published, so reading it never blocks
                    check(n)
            except Exception as exc:  # noqa: BLE001 - any failure is the defect
                errors.append(exc)
                return
            count += 1
        polls.append(count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=poll) for _ in range(3)]
    for reader in readers:
        reader.start()
    try:
        solver.law(4000)
    finally:
        done.set()
        for reader in readers:
            reader.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not errors, errors[0]
    assert sum(polls) > 0


@pytest.mark.parametrize("mode, n", [("float", 2000), ("exact", 100)])
def test_racing_readers_of_an_unread_level_agree(mode, n):
    """Threads that force the same unread level at once get equal laws and
    moments, equal to a fresh solver's."""
    spec = make("unsuccessful_search").spec
    opts = SolveOptions(mode=mode)
    solver = Solver(spec, opts)
    solver.law(n)  # levels below n are published but unread
    k = n - 1
    barrier = threading.Barrier(4)
    results: list = []

    def read():
        barrier.wait()
        law = solver.law(k)
        results.append((law.values, law.probs, law.lost_mass, solver.mean(k),
                        solver.variance(k), solver.third_abs_central(k)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=read) for _ in range(4)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    fresh = Solver(spec, opts)
    law = fresh.law(k)
    want = (law.values, law.probs, law.lost_mass, fresh.mean(k), fresh.variance(k),
            fresh.third_abs_central(k))
    assert results == [want] * 4


def test_negative_index_rejected():
    spec = make("unsuccessful_search").spec
    solver = Solver(spec)
    solver.law(5)
    for read in (solver.law, solver.mean, solver.variance, solver.third_abs_central):
        with pytest.raises(PreconditionError):
            read(-1)
    with pytest.raises(PreconditionError):
        sample_many(spec, -3, 10, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_deterministic_small_case():
    spec = make("unsuccessful_search").spec
    rng = np.random.default_rng(0)
    assert (sample_many(spec, 2, 20, rng) == 1).all()


def test_sample_mean_matches_exact(solver_us):
    rng = np.random.default_rng(11)
    draws = sample_many(solver_us.spec, 50, 1_000_000, rng)
    exact_mean = float(solver_us.mean(50))
    exact_sd = float(solver_us.variance(50)) ** 0.5
    se = exact_sd / len(draws) ** 0.5
    assert abs(float(np.mean(draws)) - exact_mean) <= 4 * se


def test_quickselect_small_probability():
    spec = make("quickselect").spec
    rng = np.random.default_rng(5)
    draws = sample_many(spec, 3, 100_000, rng)
    p2 = float(np.mean(draws == 2))
    sigma = (2 / 3 * 1 / 3 / 100_000) ** 0.5
    assert abs(p2 - 2 / 3) <= 3 * sigma


@pytest.mark.parametrize("name", ["unsuccessful_search", "node_depth", "quickselect",
                                  "broadcast_a_time", "broadcast_a_comparisons", "broadcast_b_time"])
def test_exact_vs_monte_carlo_tv_small_n(name):
    spec = make(name).spec
    solver = Solver(spec)
    rng = np.random.default_rng(99)
    draws = sample_many(spec, 10, 1_000_000, rng).astype(np.int64)
    law = solver.law(10)
    vals, counts = np.unique(draws, return_counts=True)
    emp = dict(zip(vals.tolist(), (counts / len(draws)).tolist()))
    ex = {int(v): float(p) for v, p in zip(law.values, law.probs)}
    tv = 0.5 * sum(abs(emp.get(k, 0.0) - ex.get(k, 0.0)) for k in set(emp) | set(ex))
    assert tv <= 0.01


def test_table_sampler_law_over_mixed_indices():
    mixed = (2, 3, 10, 61, 200)
    rows = []
    for n in mixed:  # unequal weights, mixed integer and rational tolls
        total = n * (n + 1) // 2
        rows += [[n, i, n - 1 - i, "1/3" if i % 2 else 2, f"{i + 1}/{total}"] for i in range(n)]
    spec = spec_from_json({"name": "split", "k": 2, "n0": 2,
                           "base": [Pmf.delta(0).to_json_dict()] * 2, "rows": rows})
    _assert_round_draws_the_atoms(spec, mixed, seed=8)


def _assert_round_draws_the_atoms(spec, mixed: tuple, seed: int) -> None:
    """One round of the row sampler over a shuffled mix of the indices
    ``mixed`` (20 000 each) draws, at each index, the law of joint_atoms."""
    rng = np.random.default_rng(seed)
    ns = rng.permutation(np.repeat(np.array(mixed, dtype=np.int64), 20_000))
    children, tolls = _RowSampler(spec, int(ns.max()))(rng, ns)
    children = children.reshape(spec.k, -1).T
    for n in mixed:
        at = ns == n
        keys = list(zip(map(tuple, children[at].tolist()), tolls[at].tolist()))
        ref = {(tuple(idx), float(t)): float(w) for idx, t, w in spec.joint_atoms(n)}
        assert sum(ref.values()) == pytest.approx(1.0)
        tv, bound = sampled_tv(keys, ref)
        assert tv <= bound, (n, tv, bound)


def test_alias_tables_give_back_their_rows_laws():
    """Alias tables built together, over rows with zero weights (the padding
    of a narrower table), ties and spread-out weights: the cells of each row
    give back its law to round-off."""
    rng = np.random.default_rng(3)
    for _ in range(300):
        T, W = (int(x) for x in rng.integers(1, 9, 2))
        p = rng.random((T, W)) ** int(rng.integers(1, 8))
        p[rng.random((T, W)) < 0.3] = 0.0
        if rng.random() < 0.3:
            p = np.round(p * 4) + 1  # ties
        p[:, 0] += 1e-3
        prob, alias = _alias(p)
        assert ((prob >= 0) & (prob <= 1)).all() and ((alias >= 0) & (alias < W)).all()
        cells = np.arange(T * W)
        law = np.zeros(T * W)
        np.add.at(law, cells, prob / W)
        np.add.at(law, cells // W * W + alias, (1 - prob) / W)
        assert np.abs(law.reshape(T, W) - p / p.sum(axis=1, keepdims=True)).max() < 1e-14


def test_polynomial_rows_sample_their_atom_tables():
    """Polynomial rows a quarter of the mass each: weights 1 + j^2 over
    j = 1..n-1 (degree 2, tabulated) with a sloped toll, weights j over
    j = 0..n-1 (degree 1 but a first weight below half the slope, tabulated)
    and weights n - j over j = 1..n-1 (degree 1, decreasing, in closed form),
    next to a one-entry row. One round over mixed indices draws the atoms of
    joint_atoms."""

    def groups(n, exact):
        one = np.ones(1, dtype=object if exact else float)
        return [
            VectorGroup(1, scale=F(1, 4 * sum(1 + j * j for j in range(1, n))), others=(n - 1,),
                        toll=F(1, 2), slope=1, poly=(1, 0, 1)),
            VectorGroup(0, scale=F(1, 2 * n * (n - 1)), others=(1,), toll=2, poly=(0, 1)),
            VectorGroup(1, scale=F(2, 4 * n * (n - 1)), others=(0,), toll=1, poly=(n, -1)),
            VectorGroup(0, one, F(1, 4), (0,), 3),
        ]

    spec = RecurrenceSpec(name="quadratic", k=2, n0=2, base_laws=(Pmf.delta(0), Pmf.delta(0)), groups=groups)
    _assert_round_draws_the_atoms(spec, (2, 7, 30), seed=21)


def test_sampled_base_laws_of_several_atoms():
    """Base laws of two atoms each are drawn from their own tables: the draws
    at n = 6 follow the solved law."""
    base = (Pmf.from_atoms([(0, 0.5), (3, 0.5)]), Pmf.from_atoms([(1, 0.25), (2, 0.75)]))
    spec = RecurrenceSpec(name="spread", k=1, n0=2, base_laws=base,
                          groups=lambda n, exact: [VectorGroup(0, scale=F(1, n), toll=1, poly=(1,))])
    law = Solver(spec).law(6)
    draws = sample_many(spec, 6, 50_000, np.random.default_rng(4))
    tv, bound = sampled_tv(draws.tolist(), {float(v): float(p) for v, p in zip(law.values, law.probs)})
    assert tv <= bound, (tv, bound)


def test_sample_many_per_particle_starts(solver_us):
    # more particles than one block, starts interleaved across indices
    starts = np.array([2, 50, 7, 300], dtype=np.int64)
    n_of = np.tile(starts, (_BLOCK + 7) // 2)
    draws = sample_many(solver_us.spec, n_of, n_of.size, np.random.default_rng(12))
    assert np.all(draws[n_of == 2] == 1)
    for n in starts[1:]:
        got = draws[n_of == n]
        se = float(solver_us.sd(int(n))) / got.size ** 0.5
        assert abs(float(got.mean()) - float(solver_us.mean(int(n)))) <= 6 * se


def test_sample_many_rejects_misshaped_starts():
    spec = make("unsuccessful_search").spec
    rng = np.random.default_rng(0)
    with pytest.raises(PreconditionError):
        sample_many(spec, np.array([5, 6]), 3, rng)
    with pytest.raises(PreconditionError):
        sample_many(spec, 5.0, 3, rng)
    with pytest.raises(PreconditionError):
        sample_many(spec, np.array([5, -1, 6]), 3, rng)


# ---------------------------------------------------------------------------
# custom recurrences from JSON
# ---------------------------------------------------------------------------


def _uniform_search_doc(nmax: int) -> dict:
    rows = []
    for n in range(2, nmax + 1):
        for i in range(1, n):
            rows.append([n, i, None, 1, f"1/{n - 1}"])
    return {
        "name": "custom_search",
        "k": 1,
        "n0": 2,
        "base": [Pmf.delta(0).to_json_dict(), Pmf.delta(0).to_json_dict()],
        "rows": rows,
    }


def test_spec_from_json_matches_catalog():
    spec = spec_from_json(_uniform_search_doc(8))
    ours = Solver(spec, SolveOptions(mode="exact", tail_eps=0.0)).law(8)
    ref = Solver(make("unsuccessful_search").spec, SolveOptions(mode="exact", tail_eps=0.0)).law(8)
    assert ours.values == ref.values and ours.probs == ref.probs


def test_spec_from_json_two_branches():
    doc = {
        "name": "twoway",
        "k": 2,
        "n0": 2,
        "base": [Pmf.delta(0).to_json_dict(), Pmf.delta(1).to_json_dict()],
        "rows": [[2, 1, 1, 3, 1.0], [3, 2, 1, 1, "1/2"], [3, 1, 1, 2, "1/2"]],
    }
    spec = spec_from_json(doc)
    law = Solver(spec, SolveOptions(mode="exact", tail_eps=0.0)).law(3)
    # n=2: 1 + 1 + 3 = 5 surely; n=3: half (5 + 1 + 1) = 7, half (1 + 1 + 2) = 4
    assert dict(zip(law.values, law.probs)) == {4: F(1, 2), 7: F(1, 2)}


def test_spec_from_json_missing_row_errors():
    spec = spec_from_json(_uniform_search_doc(4))
    with pytest.raises(PreconditionError):
        Solver(spec).law(6)


#: rows at n = 3 of a k = 2 document, one index of each outside {0,...,3}
BAD_INDEX_ROWS = {
    "leading-past-n": [[3, 1, 1, 1, "1/2"], [3, 4, 1, 1, "1/2"]],
    "leading-negative": [[3, 1, 1, 1, "1/2"], [3, -1, 1, 1, "1/2"]],
    "trailing-past-n": [[3, 1, 1, 1, "1/2"], [3, 1, 4, 1, "1/2"]],
    "trailing-negative": [[3, 1, 1, 1, "1/2"], [3, 1, -1, 1, "1/2"]],
}


def _pairs_doc(rows: list) -> dict:
    """A k = 2 document: Y_2 = Y_1 + Y_1 + 1, then the given rows."""
    return {"name": "pairs", "k": 2, "n0": 2, "base": [Pmf.delta(0).to_json_dict()] * 2,
            "rows": [[2, 1, 1, 1, 1.0], *rows]}


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("rows", BAD_INDEX_ROWS.values(), ids=BAD_INDEX_ROWS.keys())
def test_json_index_outside_the_range_is_refused(mode, rows):
    solver = Solver(spec_from_json(_pairs_doc(rows)), SolveOptions(mode=mode))
    assert solver.law(2).values == (1,)
    with pytest.raises(PreconditionError, match="outside"):
        solver.law(3)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_json_atom_listed_twice_is_one_atom_of_the_summed_weight(mode):
    once, twice = _uniform_search_doc(6), _uniform_search_doc(6)
    twice["rows"] = [[n, i, None, 1, f"1/{2 * (n - 1)}"] for n, i, *_ in once["rows"] for _ in (0, 1)]
    opts = SolveOptions(mode=mode, tail_eps=0.0)
    want, got = Solver(spec_from_json(once), opts), Solver(spec_from_json(twice), opts)
    for n in range(7):  # in float64 too: two halves of 1/(n-1) add up to it exactly
        assert got.law(n) == want.law(n), n
    assert [a[2] for a in spec_from_json(twice).joint_atoms(6)] == [F(1, 5)] * 5


def test_table_sampler_refuses_a_law_without_mass():
    doc = _uniform_search_doc(3)
    for row in doc["rows"]:
        row[4] = 0
    with pytest.raises(PreconditionError, match="no mass"):
        sample_many(spec_from_json(doc), 3, 10, np.random.default_rng(1))


def _malformed_search_doc(weights: tuple) -> dict:
    """The uniform search recurrence at n = 2, then n = 3 rows with the
    given weights (summing to 1.2, or holding a negative weight)."""
    doc = _uniform_search_doc(2)
    doc["rows"] += [[3, i, None, 1, w] for i, w in enumerate(weights, start=1)]
    return doc


MALFORMED_WEIGHTS = {"heavy": ("3/5", "3/5"), "negative": ("3/2", "-1/2")}


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("weights", MALFORMED_WEIGHTS.values(), ids=MALFORMED_WEIGHTS.keys())
def test_malformed_json_weights_rejected_by_moments(mode, weights):
    """Moments read no law, yet a level whose weights do not form a law
    (mass above 1, a negative atom) is refused when it is solved."""
    solver = Solver(spec_from_json(_malformed_search_doc(weights)), SolveOptions(mode=mode))
    assert solver.mean(2) == 1
    for read in (solver.mean, solver.variance, solver.law):
        with pytest.raises(PreconditionError):
            read(3)
    with pytest.raises(PreconditionError):
        solver.means_upto(3)


def test_json_decimal_toll_is_the_decimal_it_spells():
    doc = _uniform_search_doc(3)
    for row in doc["rows"]:
        row[3] = 0.1
    law = Solver(spec_from_json(doc), SolveOptions(mode="exact", tail_eps=0.0)).law(3)
    assert dict(zip(law.values, law.probs)) == {F(1, 10): F(1, 2), F(1, 5): F(1, 2)}


def test_rational_toll_float_mode_matches_exact():
    """A Python spec with toll 1/2 is solved on the half-integer lattice in
    float mode too, not rounded onto the integers."""
    spec = _atom_spec("half_toll", 1, lambda n: [((i,), F(1, 2), F(1, n - 1)) for i in range(1, n)])
    exact = Solver(spec, SolveOptions(mode="exact", tail_eps=0.0)).law(4)
    assert dict(zip(exact.values, exact.probs)) == {F(1, 2): F(1, 3), 1: F(1, 2), F(3, 2): F(1, 6)}
    approx = Solver(spec).law(4)
    assert approx.values == exact.values
    assert all(abs(p - float(q)) <= 1e-15 for p, q in zip(approx.probs, exact.probs))


def test_rational_group_toll_float_mode_matches_exact():
    """A weight row with toll 1/2 refines the lattice in float mode too."""

    def groups(n, exact):
        return [VectorGroup(1, np.full(n - 1, F(1, n - 1) if exact else 1.0 / (n - 1)), 1, (), F(1, 2))]

    spec = RecurrenceSpec(
        name="half_group", k=1, n0=2, base_laws=(Pmf.delta(0), Pmf.delta(0)), groups=groups,
    )
    want = {F(1, 2): F(1, 3), 1: F(1, 2), F(3, 2): F(1, 6)}
    exact = Solver(spec, SolveOptions(mode="exact", tail_eps=0.0)).law(4)
    assert dict(zip(exact.values, exact.probs)) == want
    approx = Solver(spec).law(4)
    assert approx.values == tuple(want)
    assert all(abs(p - float(q)) <= 1e-15 for p, q in zip(approx.probs, want.values()))


def test_drifting_rows_never_stack_levels_by_global_width():
    """Y_n = Y_{n-1} + 10^4: each level's row sits 10^4 lattice points past
    the last, so one matrix over a global column window would span 300 rows
    x 3e6 columns. The solve must stay small."""
    import tracemalloc

    rows = [[n, n - 1, None, 10_000, 1] for n in range(1, 301)]
    spec = spec_from_json({"name": "drift", "k": 1, "n0": 1,
                           "base": [Pmf.delta(0).to_json_dict()], "rows": rows})
    tracemalloc.start()
    try:
        law = Solver(spec).law(300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dict(zip(law.values, law.probs)) == {3_000_000: 1.0}
    assert peak < 16 * 2**20


def test_rational_lone_toll_refines_grouped_rows():
    """A one-entry row with toll 1/2 next to an integer-toll row moves the
    rows stacked for the grouped product onto the half-integer lattice."""

    def groups(n, exact):
        w = F(1, n) if exact else 1.0 / n
        return [VectorGroup(1, np.full(n - 1, w), 1, (), 1), VectorGroup(0, np.full(1, w), 1, (), F(1, 2))]

    spec = RecurrenceSpec(
        name="half_lone", k=1, n0=2, base_laws=(Pmf.delta(0), Pmf.delta(0)), groups=groups,
    )
    exact = Solver(spec, SolveOptions(mode="exact", tail_eps=0.0)).law(6)
    approx = Solver(spec, SolveOptions(tail_eps=0.0)).law(6)
    assert approx.values == exact.values
    assert all(abs(p - float(q)) <= 1e-15 for p, q in zip(approx.probs, exact.probs))


def _third(n, exact):
    return np.full(n, F(1, n) if exact else 1.0 / n, dtype=object if exact else float)


@pytest.mark.parametrize(
    "k, groups, modes",
    [
        (1, lambda n, e: [VectorGroup(0, _third(n, e), 1, (0,))], ("float", "exact")),
        (1, lambda n, e: [VectorGroup(2, _third(n, e))], ("float", "exact")),
        (1, lambda n, e: [VectorGroup(-1, _third(n, e))], ("float", "exact")),
        (2, lambda n, e: [VectorGroup(0, _third(n, e), 1, (n + 1,))], ("float", "exact")),
        (2, lambda n, e: [VectorGroup(0, _third(n, e), 1, (-1,))], ("float", "exact")),
        (1, lambda n, e: [VectorGroup(0, np.full(n, 1.0 / n))], ("exact",)),
        (1, lambda n, e: [VectorGroup(0, np.ones(n, dtype=object), 1.0 / n)], ("exact",)),
        (1, lambda n, e: [VectorGroup(0, np.full(n, 1.0 / n, dtype=object))], ("exact",)),
    ],
    ids=["arity", "leading_past_n", "leading_negative", "trailing_past_n", "trailing_negative",
         "float64_row", "float_scale", "float_entries"],
)
def test_malformed_weight_rows_rejected(k, groups, modes):
    spec = RecurrenceSpec(name="rows", k=k, n0=2, base_laws=(Pmf.delta(0), Pmf.delta(0)), groups=groups)
    for mode in modes:
        with pytest.raises(PreconditionError):
            Solver(spec, SolveOptions(mode=mode)).law(3)


@pytest.mark.parametrize(
    "trail, ok",
    [([[1]], True), ([[-0.5]], False), ([[3.5]], False), ([[0.5]], False), ([[1.0]], False)],
    ids=["int", "negative", "past_n", "fractional", "integral_float"],
)
def test_block_trailing_indices_must_be_ints_in_range(trail, ok):
    # a block's trailing indices are an int array with entries in 0..n; a
    # float array is refused before its values are read as indices
    def groups(n, exact):
        return [VectorBlock(0, (_third(n, exact),), np.array(trail), np.ones(1, dtype=object if exact else float))]

    spec = RecurrenceSpec(name="block", k=2, n0=2, base_laws=(Pmf.delta(0), Pmf.delta(0)), groups=groups)
    for mode in ("float", "exact"):
        solver = Solver(spec, SolveOptions(mode=mode))
        if ok:
            assert solver.law(3).values == (0,)
        else:
            with pytest.raises(PreconditionError):
                solver.law(3)


def _poly_spec(first: int, poly=(1,), toll=1, slope=0, others=()):
    """A polynomial row on first..n-1, scaled to mass 1; index 1 is a fair
    coin, so trailing children spread the law."""

    def groups(n, exact):
        total = sum(sum(F(c) * j**p for p, c in enumerate(poly)) for j in range(first, n)) or 1
        scale = 1 / total if exact else 1.0 / float(total)
        t = toll(n) if callable(toll) else toll
        return [VectorGroup(first, scale=scale, others=others, toll=t, slope=slope, poly=poly)]

    return _rows_spec(1 + len(others), groups)


def _rows_spec(k: int, groups):
    base = (Pmf.delta(0), Pmf((0, 1), (F(1, 2), F(1, 2))))
    return RecurrenceSpec(name="poly", k=k, n0=2, base_laws=base, groups=groups)


@pytest.mark.parametrize(
    "k, row, modes",
    [
        (1, lambda n: VectorGroup(1, scale=F(1, n - 1), toll=1), ("float", "exact")),
        (1, lambda n: VectorGroup(0, scale=F(1, n), toll=1, poly=(1.0,)), ("exact",)),
        (1, lambda n: VectorGroup(n, scale=1, toll=1, poly=(1,)), ("float", "exact")),
        (2, lambda n: VectorGroup(1, scale=F(1, n - 1), others=(n,), toll=1, poly=(1,)), ("float", "exact")),
    ],
    ids=["no_coefficients", "float_coefficient", "empty_range", "trailing_self"],
)
def test_malformed_polynomial_rows_rejected(k, row, modes):
    """A polynomial row needs at least one coefficient, rational in exact
    mode, a nonempty range first_start..n-1 and no trailing index n (the
    running sums hold only solved rows); anything else is refused before a
    level is mixed."""
    spec = _rows_spec(k, lambda n, exact: [row(n)])
    for mode in modes:
        with pytest.raises(PreconditionError):
            Solver(spec, SolveOptions(mode=mode)).law(3)


@pytest.mark.parametrize(
    "poly, toll, slope, others",
    [
        ((1,), F(1, 2), 0, ()),
        ((1,), lambda n: 1 if n < 10 else F(1, 2), 0, ()),
        ((0, 1, 3), 1, 1, ()),
        ((2, F(1, 3)), F(1, 3), F(-1, 2), ()),
        ((1, 1), 1, 0, (1,)),
    ],
    ids=["half_toll", "half_toll_from_10", "sloped_toll", "rational_slope", "trailing_child"],
)
def test_polynomial_rows_with_rational_or_sloped_tolls_mix_like_their_weights(poly, toll, slope, others):
    """Running sums of rows shifted by a sloped toll, sums rebuilt when a
    rational toll or slope refines the lattice (at the first level, or at
    n = 10 after the sums were built), and sums convolved with a trailing
    child give the laws of the same weights mixed row by row: identical in
    exact mode, within 1e-15 in float mode (float coefficients too)."""
    spec = _poly_spec(1, poly, toll, slope, others)
    plain = dataclasses.replace(spec, groups=lambda n, exact: [g.dense(n, exact) for g in spec.groups(n, exact)])
    exact = SolveOptions(mode="exact")
    sums, rows = Solver(spec, exact), Solver(plain, exact)
    assert [sums.law(n) for n in range(40)] == [rows.law(n) for n in range(40)]
    floats = _poly_spec(1, tuple(map(float, poly)), toll, slope, others)
    sums, rows = Solver(floats), Solver(plain)
    for n in range(40):
        a, b = sums.law(n), rows.law(n)
        assert a.values == b.values and abs(a.lost_mass - b.lost_mass) <= 1e-15, n
        assert np.max(np.abs(np.subtract(a.probs, b.probs))) <= 1e-15, n


def test_polynomial_row_refusal_exits_4(monkeypatch, capsys):
    from recdist import cli

    entry = make("unsuccessful_search")
    bad = dataclasses.replace(entry, spec=_poly_spec(1, poly=()))
    monkeypatch.setitem(catalog._BUILDERS, "unsuccessful_search", lambda: bad)
    code = cli.main(["moments", "--model", "unsuccessful-search", "--ns", "4"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PRECONDITION == 4
    assert "polynomial row" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_incommensurable_tolls_exceed_capacity_before_allocating(mode):
    rows = []
    for n in (2, 3):
        rows += [[n, n - 1, None, 1, "1/2"], [n, n - 1, None, "1/999983", "1/2"]]
    doc = {"name": "incommensurable", "k": 1, "n0": 2,
           "base": [Pmf.delta(0).to_json_dict()] * 2, "rows": rows}
    solver = Solver(spec_from_json(doc), SolveOptions(mode=mode))
    assert solver.law(2).values == (F(1, 999983), 1)
    with pytest.raises(CapacityError, match="lattice span"):
        solver.law(3)


def test_json_string_accepted():
    spec = spec_from_json(json.dumps(_uniform_search_doc(4)))
    assert spec.k == 1


# ---------------------------------------------------------------------------
# self-referential joint laws
# ---------------------------------------------------------------------------


def test_unshifted_self_reference_divides():
    # law at 2: with prob 1/2 recurse on itself (toll 0), else land on base+1
    spec = _atom_spec("selfy", 1, lambda n: [((n,), 0, F(1, 2)), ((0,), 1, F(1, 2))])
    law = Solver(spec, SolveOptions(mode="exact", tail_eps=0.0)).law(2)
    assert dict(zip(law.values, law.probs)) == {1: F(1)}


def test_shifted_self_reference_geometric():
    # Y_2 = Y_2' + 1 with prob 1/2, else 0: geometric support
    spec = _atom_spec("geo", 1, lambda n: [((n,), 1, F(1, 2)), ((0,), 0, F(1, 2))])
    law = Solver(spec, SolveOptions(tail_eps=1e-14)).law(2)
    got = dict(zip((int(v) for v in law.values), law.probs))
    for k in range(10):
        assert got[k] == pytest.approx(0.5 ** (k + 1), rel=1e-12)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_self_reference_in_trailing_position(mode):
    # Y_2 = Y_0 + Y_2' + 1 with prob 1/2, else Y_0 + Y_0: n as the trailing index
    spec = _atom_spec("geo2", 2, lambda n: [((0, n), 1, F(1, 2)), ((0, 0), 0, F(1, 2))])
    law = Solver(spec, SolveOptions(mode=mode, tail_eps=1e-14)).law(2)
    got = dict(zip((int(v) for v in law.values), law.probs))
    for k in range(10):
        assert float(got[k]) == pytest.approx(0.5 ** (k + 1), rel=1e-12)


#: a toll law off the integer lattice: 0, 1/2 or 2
_HALF_TOLL = Pmf((0, F(1, 2), 2), (F(1, 4), F(1, 4), F(1, 2)))


def _toll_law_spec(first_start: int = 0) -> RecurrenceSpec:
    """Y_n = Y_J + T with T ~ _HALF_TOLL drawn independently of J: J uniform
    on 1..n-1 with mass 1/2 (a polynomial row), or J = j in {s, s + 1} with
    mass 1/4 each and the toll T + j (a weight row with a slope), s the
    given first start."""

    def groups(n, exact):
        two = np.ones(2, dtype=object if exact else float)
        return [
            VectorGroup(1, scale=F(1, 2 * (n - 1)), toll=_HALF_TOLL, poly=(1,)),
            VectorGroup(first_start, two, F(1, 4) if exact else 0.25, (), _HALF_TOLL, 1),
        ]

    return RecurrenceSpec(name="toll_law", k=1, n0=2, base_laws=(Pmf.delta(0), Pmf.delta(1)), groups=groups)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_toll_law_solves_as_its_atom_table(mode):
    spec = _toll_law_spec()
    solver = Solver(spec, SolveOptions(mode=mode, tail_eps=0.0))
    for n in (2, 3, 6):
        want = brute_law(spec, n)
        law = solver.law(n)
        if mode == "exact":
            assert dict(zip(law.values, law.probs)) == want
        else:
            assert law.values == tuple(sorted(want))
            assert law.probs == pytest.approx([float(want[v]) for v in law.values], rel=1e-12)
        idx, tolls, weights = spec.joint_arrays(n)
        atoms = spec.joint_atoms(n)
        assert list(zip(idx[:, 0].tolist(), tolls.tolist())) == [(a[0][0], float(a[1])) for a in atoms]
        assert weights == pytest.approx([float(a[2]) for a in atoms], rel=1e-15, abs=0)


def test_self_referential_row_with_a_toll_law_rejected():
    # at n = 2 the weight row over 1..2 refers back to n
    with pytest.raises(UnsupportedExactError, match="toll law"):
        Solver(_toll_law_spec(first_start=1)).law(2)


def test_quadratic_self_reference_rejected():
    spec = _atom_spec("quad", 2, lambda n: [((n, n), 0, F(1, 4)), ((0, 0), 1, F(3, 4))])
    with pytest.raises(UnsupportedExactError):
        Solver(spec).law(2)


# ---------------------------------------------------------------------------
# property: the single solve path against the brute-force oracle
# ---------------------------------------------------------------------------

_TOLLS = (0, 1, 2, -1, "1/2", "1/3", "-1/2", "5/6")
_BASE_VALUES = ((0, 1), (1, 1), (1, 2), (-2, 3))


@st.composite
def small_spec_docs(draw):
    k = draw(st.sampled_from((1, 2)))
    n0 = draw(st.integers(1, 2))
    n_max = draw(st.integers(n0, 7))
    base = []
    for _ in range(n0):
        (a, b), (c, d) = draw(st.sampled_from(_BASE_VALUES)), draw(st.sampled_from(_BASE_VALUES))
        if F(a, b) == F(c, d):
            base.append({"atoms": [[a, b, 1.0]]})
        else:
            lo, hi = sorted([(a, b), (c, d)], key=lambda v: F(*v))
            base.append({"atoms": [[*lo, 0.25], [*hi, 0.75]]})
    rows = []
    for n in range(n0, n_max + 1):
        weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        for w in weights:
            i1 = draw(st.integers(0, n - 1))
            i2 = draw(st.integers(0, n - 1)) if k == 2 else None
            rows.append([n, i1, i2, draw(st.sampled_from(_TOLLS)), f"{w}/{sum(weights)}"])
    return {"name": "random", "k": k, "n0": n0, "base": base, "rows": rows}, n_max


@settings(max_examples=60, deadline=None)
@given(small_spec_docs())
def test_single_path_matches_brute_force(case):
    doc, n = case
    spec = spec_from_json(doc)
    exact = Solver(spec, SolveOptions(mode="exact", tail_eps=0.0)).law(n)
    assert dict(zip(exact.values, exact.probs)) == brute_law(spec, n)
    approx = Solver(spec, SolveOptions(mode="float", tail_eps=0.0)).law(n)
    assert approx.values == exact.values
    assert all(abs(p - float(q)) <= 1e-12 for p, q in zip(approx.probs, exact.probs))
    truncated = Solver(spec, SolveOptions(mode="exact", tail_eps=0.01)).law(n)
    assert sum(truncated.probs) + truncated.lost_mass == 1
    for law in (exact, approx, Solver(spec, SolveOptions(tail_eps=0.01)).law(n)):
        assert abs(sum(law.probs) + law.lost_mass - 1) <= 1e-12


# ---------------------------------------------------------------------------
# the k = 1 kernels against plain loops, and one-entry rows
# ---------------------------------------------------------------------------


def _reference_rows(model: str, n_max: int, eps: float = 1e-12) -> list:
    """The float rows (offset, row) of ``node_depth`` or ``unsuccessful_search``
    up to n_max by a plain loop in the solver's float order: a compensated
    (Kahan) running sum of j**p times row j, the pieces added onto zeros in
    row order, then the outer trim, atom by atom."""
    rows = [(-1, np.ones(1)), (0, np.ones(1))] if model == "node_depth" else [(0, np.ones(1))] * 2
    p = 1 if model == "node_depth" else 0  # the power of j the polynomial row carries
    pad = 8  # lattice position x sits at index x + pad
    vals, comp = np.zeros(n_max + 2 * pad), np.zeros(n_max + 2 * pad)
    a, b = n_max, -n_max  # lattice span of the running sum
    for m in range(2, n_max + 1):
        off, arr = rows[m - 1]  # the running sum takes row m - 1
        cut = slice(off + pad, off + pad + len(arr))
        y = float(m - 1) ** p * arr - comp[cut]
        t = vals[cut] + y
        comp[cut] = (t - vals[cut]) - y
        vals[cut] = t
        a, b = min(a, off), max(b, off + len(arr) - 1)
        total = (a + 1, vals[a + pad : b + pad + 1])  # toll 1
        if model == "node_depth":  # index 0 with weight 1/n, then j with weight 2j/n^2
            pieces = [(rows[0][0] + 1, rows[0][1], 1.0 / m), (*total, 1.0 / (m * m) * 2)]
        else:  # j = 1..n-1 with weight 1/(n-1)
            pieces = [(*total, 1.0 / (m - 1))]
        lo = min(q[0] for q in pieces)
        acc = np.zeros(max(q[0] + len(q[1]) for q in pieces) - lo)
        for q_off, q_arr, c in pieces:
            acc[q_off - lo : q_off - lo + len(q_arr)] += c * q_arr
        nz = np.flatnonzero(acc)
        atoms = acc[nz]
        first, last, removed = 0, len(atoms) - 1, 0.0
        while first < last:
            low_end = atoms[first] <= atoms[last]
            cand = atoms[first] if low_end else atoms[last]
            if removed + cand > eps:
                break
            removed += cand
            first, last = (first + 1, last) if low_end else (first, last - 1)
        rows.append((lo + int(nz[first]), acc[nz[first] : nz[last] + 1]))
    return rows


@pytest.mark.parametrize("model", ["node_depth", "unsuccessful_search"])
def test_float_rows_equal_a_plain_reference_loop(model):
    solver = make(model).solver()
    solver.law(2048)
    for m, (off, row) in enumerate(_reference_rows(model, 2048)):
        got_off, got_row, den = solver._rows[m]
        assert (got_off, den) == (off, 1), m
        assert np.array_equal(got_row, row), m


def _one_entry_spec(self_toll: int) -> RecurrenceSpec:
    """Y_n = Y_{n-1} + 1 with probability 1/2, else Y_n + self_toll: two rows
    of one entry each, the second of them n itself."""

    def groups(n, exact):
        one = np.ones(1, dtype=object if exact else float)
        half = F(1, 2) if exact else 0.5
        return [VectorGroup(n - 1, one, half, (), 1), VectorGroup(n, one, half, (), self_toll)]

    return RecurrenceSpec(name="one_entry", k=1, n0=1, base_laws=(Pmf.delta(0),), groups=groups)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_one_entry_row_that_is_n_itself(mode):
    # unshifted, the self entry divides the rest by 1/2: Y_n = n
    law = Solver(_one_entry_spec(0), SolveOptions(mode=mode)).law(5)
    assert law.values == (5,) and law.probs == (1,) and law.lost_mass == 0
    # shifted by 1, each level adds a Geometric(1/2) on {0, 1, ...}: Y_n - n is
    # negative binomial, P(k) = C(k + n - 1, k) / 2^(n + k)
    n = 5
    law = Solver(_one_entry_spec(1), SolveOptions(mode=mode, tail_eps=1e-13)).law(n)
    got = dict(zip(law.values, law.probs))
    for k in range(30):
        want = F(math.comb(k + n - 1, k), 2 ** (n + k))
        assert float(got[n + k]) == pytest.approx(float(want), rel=1e-12, abs=1e-16)
    assert 0 < law.lost_mass <= 1e-13 * n


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_one_entry_rows_next_to_a_toll_law(mode):
    # a one-entry row (index 0), one of weight zero, and a toll-law row
    def groups(n, exact):
        one, zero = (np.array([x], dtype=object if exact else float) for x in (1, 0))
        half = F(1, 2) if exact else 0.5
        return [
            VectorGroup(0, one, half, (), 1),
            VectorGroup(n - 1, zero, 1, (), 3),
            VectorGroup(1, scale=F(1, 2 * (n - 1)), toll=_HALF_TOLL, poly=(1,)),
        ]

    spec = RecurrenceSpec(name="one_entry_toll_law", k=1, n0=2, base_laws=(Pmf.delta(0), Pmf.delta(1)), groups=groups)
    solver = Solver(spec, SolveOptions(mode=mode, tail_eps=0.0))
    for n in (2, 3, 7):
        want = brute_law(spec, n)
        law = solver.law(n)
        assert law.values == tuple(sorted(want))
        if mode == "exact":
            assert law.probs == tuple(want[v] for v in law.values)
        else:
            assert law.probs == pytest.approx([float(want[v]) for v in law.values], rel=1e-12)
