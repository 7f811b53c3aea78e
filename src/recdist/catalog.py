"""Catalog of concrete recurrences: search costs, node depth, selection, and
broadcast maximum-finding cost measures.

Each entry wires the joint index/toll law (written once, as weight rows), base
cases, and the exponent tuple describing the growth of mean and variance.
Entries whose leading variance constant is not published carry ``c = 1`` with
``c_is_fitted = False``; use :func:`fit_variance_constant` to replace it with
a fitted value before any scale-sensitive analysis.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .clt import CltParams
from .engine import RecurrenceSpec, SolveOptions, Solver, VectorBlock, VectorGroup
from .errors import PreconditionError
from .pmf import Pmf

NAMES = (
    "unsuccessful_search",
    "node_depth",
    "quickselect",
    "broadcast_a_time",
    "broadcast_a_comparisons",
    "broadcast_b_time",
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    spec: RecurrenceSpec
    params: CltParams | None
    notes: str
    c_is_fitted: bool = True

    @property
    def degenerate(self) -> bool:
        """True when the scaled recurrence needs the normal-limit machinery."""
        return self.params is not None

    def solver(self, opts: SolveOptions | None = None) -> Solver:
        return Solver(self.spec, opts)


def make(name: str) -> CatalogEntry:
    """Build a catalog entry by name (hyphens and underscores both accepted)."""
    key = name.replace("-", "_")
    try:
        builder = _BUILDERS[key]
    except KeyError:
        raise PreconditionError(
            f"unknown model {name!r}; available: {', '.join(NAMES)}"
        ) from None
    return builder()


def list_entries() -> list:
    return [make(n) for n in NAMES]


# ---------------------------------------------------------------------------
# binary-search-tree costs (branching factor 1)
# ---------------------------------------------------------------------------


def _unsuccessful_search() -> CatalogEntry:
    def groups(n: int, exact: bool) -> list:
        # leading index j = 1..n-1 with weight 1/(n-1)
        return [VectorGroup(1, scale=Fraction(1, n - 1), toll=1, poly=(1,))]

    spec = RecurrenceSpec(
        name="unsuccessful_search",
        k=1,
        n0=2,
        base_laws=(Pmf.delta(0), Pmf.delta(0)),
        groups=groups,
    )
    # With the uniform index law the exact mean is the harmonic number
    # H_{n-1} = ln n + O(1) and the variance is ln n + O(1), so the leading
    # variance constant for THIS index law is 1 (the widely quoted 2 ln n
    # figures belong to the size-biased index law used for node depth).
    params = CltParams(alpha=0.5, kappa=0.0, lam=0.0, xi=0.0, c=1.0, delta=0.1)
    return CatalogEntry(
        name="unsuccessful_search",
        spec=spec,
        params=params,
        notes="search-path cost with a uniformly chosen surviving subtree; "
        "mean and variance both grow like ln n + O(1)",
    )


#: the one-entry weight row of node_depth's index 0, exact and float
_ONE_ROW = (np.ones(1), np.ones(1, dtype=object))
_ONE_ROW[0].flags.writeable = _ONE_ROW[1].flags.writeable = False


def _node_depth() -> CatalogEntry:
    def groups(n: int, exact: bool) -> list:
        # leading index 0 with weight 1/n, j = 1..n-1 with weight 2j/n^2
        return [
            VectorGroup(0, _ONE_ROW[exact], Fraction(1, n) if exact else 1.0 / n, (), 1),
            VectorGroup(1, scale=Fraction(1, n * n), toll=1, poly=(0, 2)),
        ]

    spec = RecurrenceSpec(
        name="node_depth",
        k=1,
        n0=2,
        base_laws=(Pmf.delta(-1), Pmf.delta(0)),
        groups=groups,
    )
    params = CltParams(alpha=0.5, kappa=0.0, lam=0.0, xi=0.0, c=2.0, delta=0.1)
    return CatalogEntry(
        name="node_depth",
        spec=spec,
        params=params,
        notes="depth of a uniformly random node in a random binary search tree; "
        "the empty-subtree base case contributes depth -1",
    )


def _quickselect() -> CatalogEntry:
    def groups(n: int, exact: bool) -> list:
        # leading index j = 0..n-1 with weight 1/n
        return [VectorGroup(0, scale=Fraction(1, n), toll=n - 1, poly=(1,))]

    spec = RecurrenceSpec(
        name="quickselect",
        k=1,
        n0=2,
        base_laws=(Pmf.delta(0), Pmf.delta(0)),
        groups=groups,
        exact_cap=256,
    )
    return CatalogEntry(
        name="quickselect",
        spec=spec,
        params=None,
        notes="comparisons to select the minimum by random pivoting; the linear "
        "toll keeps the scaled limit equation informative, so this entry is "
        "analyzed through the fixed-point module rather than the normal-limit "
        "machinery",
    )


# ---------------------------------------------------------------------------
# broadcast maximum-finding (branching factor 2)
# ---------------------------------------------------------------------------


#: Binomial(m, 1/2) rows by m, shared by every solver of the process; grown
#: in order under the lock, read without it
_BINOM_ROWS = [np.array([1.0])]
_BINOM_LOCK = threading.Lock()


def _binom_row(m: int) -> np.ndarray:
    """Binomial(m, 1/2) probabilities, rows built incrementally."""
    if len(_BINOM_ROWS) <= m:
        with _BINOM_LOCK:
            while len(_BINOM_ROWS) <= m:
                prev = _BINOM_ROWS[-1]
                row = np.append(prev, 0.0)
                row[1:] += prev
                row *= 0.5
                _BINOM_ROWS.append(row)
    return _BINOM_ROWS[m]


#: float rows of the broadcast models stop below this weight; the dropped
#: mass (under 2^-65) lands in lost_mass
_FLOAT_CUT = 2.0**-66

#: trailing sizes k of the float rows, and their scales 2^-(k+1), down to the cut
_FLOAT_TRAILING = np.arange(66).reshape(-1, 1)
_FLOAT_SCALES = 2.0 ** -(_FLOAT_TRAILING[:, 0] + 1.0)
_FLOAT_TRAILING.flags.writeable = _FLOAT_SCALES.flags.writeable = False

#: float Binomial(m, 1/2) rows from this m on are kept only over their band
#: (:func:`_binom_band`), so a level holds O(sqrt(n)) weights, not the
#: O(n^2) of every full row below it; past every exact_cap, so the solver
#: mixes full rows
_BAND_FROM = 2048

#: a band starts at a multiple of this, so the banded rows of a level fall
#: into two blocks at most
_BAND_GRID = 64


@functools.lru_cache(maxsize=256)
def _binom_band(m: int) -> tuple:
    """(first i, weights) of Binomial(m, 1/2) from i = m/2 - 5 sqrt(m),
    rounded down to a multiple of ``_BAND_GRID``, where the weights lie far
    below ``_FLOAT_CUT`` (log b(m/2 + t) is about -2t^2/m), to the last
    weight at or above the cut: log-weights summed one ratio (m - i)/(i + 1)
    a step, then scaled to sum 1."""
    lo = max(0, math.floor(m / 2 - 5 * math.sqrt(m))) // _BAND_GRID * _BAND_GRID
    i = np.arange(lo, m - lo)
    head = math.lgamma(m + 1) - math.lgamma(lo + 1) - math.lgamma(m - lo + 1) - m * math.log(2)
    w = np.exp(head + np.concatenate(([0.0], np.cumsum(np.log((m - i) / (i + 1.0))))))
    w = w[: np.flatnonzero(w >= _FLOAT_CUT)[-1] + 1] / w.sum()
    w.flags.writeable = False
    return lo, w


def _broadcast_groups(n: int, exact: bool, toll: int, slope: int) -> list:
    """The joint law of the two subgroup sizes after one broadcast round among
    n contenders, as the atom (0, 0) of weight 2^-n and one block: per
    trailing size k = 0..n-1 the leading sizes j = 1..n-k with weights
    C(n-k-1, j-1) 2^-n. The leading size is then Binomial(n, 1/2) and the
    trailing one k >= 1 with probability 2^-(k+1); the toll is toll + slope*j.
    Exact rows hold binomial coefficients under the scale 2^-n. Float rows
    are the memoized Binomial(n-k-1, 1/2) rows themselves (cache key
    n-k-1) under 2^-(k+1), down to ``_FLOAT_CUT``; the rows of m = n-k-1 >=
    ``_BAND_FROM`` are their bands (:func:`_binom_band`), one block per band
    start.
    """
    if exact:
        keys = np.arange(n - 1, -1, -1)
        s = Fraction(1, 2**n)
        rows = tuple(
            np.array([math.comb(m, i) for i in range(m + 1)], dtype=object) for m in keys.tolist()
        )
        scales = np.full(n, s, dtype=object)
        block = VectorBlock(1, rows, keys[::-1].reshape(-1, 1), scales, toll, slope, keys)
        return [VectorGroup(0, np.ones(1, dtype=object), s, (0,), toll, slope), block]
    s = 2.0**-n
    K = min(n, len(_FLOAT_SCALES))
    B = min(K, max(n - _BAND_FROM, 0))  # the trailing sizes k < B have banded rows
    groups = [VectorGroup(0, np.ones(1), s, (0,), toll, slope)] if s >= _FLOAT_CUT else []  # the atom (0, 0)
    bands, k0 = [_binom_band(n - 1 - k) for k in range(B)], 0
    for k in range(1, B + 1):  # one block per band start
        if k == B or bands[k][0] != bands[k0][0]:
            rows = tuple(w for _, w in bands[k0:k])
            keys = np.arange(n - 1 - k0, n - 1 - k, -1)
            groups.append(VectorBlock(1 + bands[k0][0], rows, _FLOAT_TRAILING[k0:k], _FLOAT_SCALES[k0:k],
                                      toll, slope, keys))
            k0 = k
    if B < K:
        _binom_row(n - 1 - B)
        rows = tuple(_BINOM_ROWS[n - K : n - B][::-1])
        keys = np.arange(n - 1 - B, n - 1 - K, -1)
        groups.append(VectorBlock(1, rows, _FLOAT_TRAILING[B:K], _FLOAT_SCALES[B:K], toll, slope, keys))
    return groups


def _broadcast_a_time() -> CatalogEntry:
    def groups(n: int, exact: bool) -> list:
        return _broadcast_groups(n, exact, 1, 0)

    spec = RecurrenceSpec(
        name="broadcast_a_time",
        k=2,
        n0=2,
        base_laws=(Pmf.delta(1), Pmf.delta(1)),
        groups=groups,
        exact_cap=2048,
    )
    params = CltParams(alpha=0.5, kappa=0.0, lam=0.0, xi=0.0, c=1.0, delta=0.1)
    return CatalogEntry(
        name="broadcast_a_time",
        spec=spec,
        params=params,
        notes="rounds used by the splitting maximum-finding protocol; the "
        "variance constant is known to exist but not published, so c is "
        "fitted on demand",
        c_is_fitted=False,
    )


def _broadcast_a_comparisons() -> CatalogEntry:
    def groups(n: int, exact: bool) -> list:
        return _broadcast_groups(n, exact, n, -1)  # toll n - j

    spec = RecurrenceSpec(
        name="broadcast_a_comparisons",
        k=2,
        n0=2,
        base_laws=(Pmf.delta(0), Pmf.delta(0)),
        groups=groups,
        exact_cap=256,
    )
    params = CltParams(alpha=0.5, kappa=0.0, lam=0.0, xi=0.0, c=1.0, delta=0.1)
    return CatalogEntry(
        name="broadcast_a_comparisons",
        spec=spec,
        params=params,
        notes="comparisons of the splitting maximum-finding protocol; toll is "
        "the group size not promoted to the next round",
        c_is_fitted=False,
    )


# ---------------------------------------------------------------------------
# election-toll variant (branching factor 1, toll drawn by a leader election)
# ---------------------------------------------------------------------------


def _fair_binomial_pmf(m: int) -> np.ndarray:
    """Binomial(m, 1/2) probabilities in O(m) and without a cache (the
    election reads every m once, and caching every row costs O(m^2)): the
    ratios C(m, h) / C(m, m // 2) by one cumulative product outward from the
    centre, which cannot overflow, mirrored and normalized."""
    c = m // 2
    h = np.arange(c, 0, -1.0)
    lower = np.cumprod(np.concatenate(([1.0], h / (m - h + 1.0))))[::-1]  # h = 0..c
    row = np.concatenate((lower, lower[m - c - 1 :: -1]))
    return row / row.sum()


def leader_election_spec() -> RecurrenceSpec:
    """The rounds needed to thin m contenders to one by fair coin flipping,
    as a recurrence. Every contender flips each round; the heads-flippers
    survive when that leaves at least one and fewer than all contenders,
    otherwise the round is wasted. So L_1 = 0 and L_m = 1 + L_H, H ~
    Binomial(m, 1/2), where a wasted round (H in {0, m}) keeps m. That is
    one row over h = 1..m whose last entry, 2^(1-m), refers back to m; the
    solver sums its shift series."""

    def groups(m: int, exact: bool) -> list:
        if exact:
            w = np.array([math.comb(m, h) for h in range(1, m)] + [2], dtype=object)
            return [VectorGroup(1, w, Fraction(1, 2**m), (), 1)]
        w = _fair_binomial_pmf(m)[1:]
        w[-1] *= 2.0
        return [VectorGroup(1, w, 1, (), 1)]

    return RecurrenceSpec(
        name="leader_election", k=1, n0=2, base_laws=(Pmf.delta(0), Pmf.delta(0)), groups=groups
    )


def _broadcast_b_time() -> CatalogEntry:
    elections = [Solver(leader_election_spec(), SolveOptions(mode=mode)) for mode in ("float", "exact")]

    def groups(n: int, exact: bool) -> list:
        # leading index j = 0..n-1 with weight 1/n; the toll is the law of L_n
        return [VectorGroup(0, scale=Fraction(1, n), toll=elections[exact].law(n), poly=(1,))]

    spec = RecurrenceSpec(
        name="broadcast_b_time",
        k=1,
        n0=2,
        base_laws=(Pmf.delta(1), Pmf.delta(1)),
        groups=groups,
    )
    params = CltParams(alpha=1.5, kappa=1.0, lam=2.0, xi=0.0, c=1.0, delta=0.1)
    return CatalogEntry(
        name="broadcast_b_time",
        spec=spec,
        params=params,
        notes="rounds of the election-based maximum-finding protocol; the toll "
        "is the election duration, whose law (leader_election_spec) is drawn "
        "independently of the surviving group size",
        c_is_fitted=False,
    )


_BUILDERS = {
    "unsuccessful_search": _unsuccessful_search,
    "node_depth": _node_depth,
    "quickselect": _quickselect,
    "broadcast_a_time": _broadcast_a_time,
    "broadcast_a_comparisons": _broadcast_a_comparisons,
    "broadcast_b_time": _broadcast_b_time,
}


def fit_variance_constant(entry: CatalogEntry, ns, opts: SolveOptions | None = None) -> CatalogEntry:
    """Replace a placeholder variance constant by a least-squares fit of
    Var(Y_n) against ln^(2 alpha) n over the given window."""
    if entry.params is None:
        raise PreconditionError(f"{entry.name} has no exponent parameters to fit")
    solver = entry.solver(opts)
    xs = np.array([math.log(n) ** (2 * entry.params.alpha) for n in ns])
    ys = np.array([float(solver.variance(n)) for n in ns])
    c = float(xs @ ys / (xs @ xs))
    if c <= 0:
        raise PreconditionError("fitted variance constant is not positive")
    return replace(entry, params=replace(entry.params, c=c), c_is_fitted=True)
