"""Catalog of concrete recurrences: search costs, node depth, selection, and
broadcast maximum-finding cost measures.

Each entry wires the joint index/toll law (written once, as weight rows), base
cases, and the exponent tuple describing the growth of mean and variance.
Entries whose leading variance constant is not published carry ``c = 1`` with
``c_is_fitted = False``; use :func:`fit_variance_constant` to replace it with
a fitted value before any scale-sensitive analysis.
"""

from __future__ import annotations

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

    def sampler(rng: np.random.Generator, ns: np.ndarray) -> tuple:
        return [rng.integers(1, ns)], np.ones(ns.size)

    spec = RecurrenceSpec(
        name="unsuccessful_search",
        k=1,
        n0=2,
        base_laws=(Pmf.delta(0), Pmf.delta(0)),
        groups=groups,
        sampler=sampler,
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

    def sampler(rng: np.random.Generator, ns: np.ndarray) -> tuple:
        n = ns.astype(float)
        u = rng.random(ns.size)
        zero = u < 1.0 / n
        # conditional CDF on {1,...,n-1} is k(k+1)/(n(n-1)); invert exactly
        t = np.maximum((u - 1.0 / n) / (1.0 - 1.0 / n), 0.0) * n * (n - 1)
        k = np.ceil(0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * t))).astype(np.int64)
        k = np.clip(k, 1, ns - 1)
        k[zero] = 0
        return [k], np.ones(ns.size)

    spec = RecurrenceSpec(
        name="node_depth",
        k=1,
        n0=2,
        base_laws=(Pmf.delta(-1), Pmf.delta(0)),
        groups=groups,
        sampler=sampler,
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

    def sampler(rng: np.random.Generator, ns: np.ndarray) -> tuple:
        return [rng.integers(0, ns)], (ns - 1).astype(float)

    spec = RecurrenceSpec(
        name="quickselect",
        k=1,
        n0=2,
        base_laws=(Pmf.delta(0), Pmf.delta(0)),
        groups=groups,
        sampler=sampler,
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


def broadcast_index_pmf(n: int) -> dict:
    """Exact joint law of the two subgroup sizes after one broadcast round.

    Returns a dict mapping (j, k) to an exact rational weight. The leading
    size is Binomial(n, 1/2); the trailing size is 0 with probability
    1/2 + 2^-n and k with probability 2^-(k+1) for 1 <= k <= n-1.
    """
    if n < 1:
        raise PreconditionError("need at least one contender")
    half_pow = Fraction(1, 2**n)
    out = {(0, 0): half_pow}
    for k in range(0, n):
        for j in range(1, n - k + 1):
            out[(j, k)] = math.comb(n - k - 1, j - 1) * half_pow
    return out


#: float rows of the broadcast models stop below this weight; the dropped
#: mass (under 2^-65) lands in lost_mass
_FLOAT_CUT = 2.0**-66

#: trailing sizes k of the float rows, and their scales 2^-(k+1), down to the cut
_FLOAT_TRAILING = np.arange(66).reshape(-1, 1)
_FLOAT_SCALES = 2.0 ** -(_FLOAT_TRAILING[:, 0] + 1.0)
_FLOAT_TRAILING.flags.writeable = _FLOAT_SCALES.flags.writeable = False


def _broadcast_groups(n: int, exact: bool, toll: int, slope: int) -> list:
    """The law of :func:`broadcast_index_pmf` as the atom (0, 0) and one
    block, in its atom order: per trailing size k the leading sizes
    j = 1..n-k with weights C(n-k-1, j-1) 2^-n; the toll is toll + slope*j.
    Exact rows hold binomial coefficients under the scale 2^-n. Float rows
    are the memoized Binomial(n-k-1, 1/2) rows themselves (cache key
    n-k-1) under 2^-(k+1), down to ``_FLOAT_CUT``.
    """
    if exact:
        keys = np.arange(n - 1, -1, -1)
        s = Fraction(1, 2**n)
        rows = tuple(
            np.array([math.comb(m, i) for i in range(m + 1)], dtype=object) for m in keys.tolist()
        )
        scales = np.full(n, s, dtype=object)
        block = VectorBlock(1, rows, keys[::-1].reshape(-1, 1), scales, toll, slope, keys)
    else:
        s = 2.0**-n
        K = min(n, len(_FLOAT_SCALES))
        _binom_row(n - 1)
        rows = tuple(_BINOM_ROWS[n - K : n][::-1])
        keys = np.arange(n - 1, n - 1 - K, -1)
        block = VectorBlock(1, rows, _FLOAT_TRAILING[:K], _FLOAT_SCALES[:K], toll, slope, keys)
    if exact or s >= _FLOAT_CUT:  # the atom (0, 0)
        return [VectorGroup(0, np.ones(1, dtype=object if exact else float), s, (0,), toll, slope), block]
    return [block]


_SWAR_MASKS = tuple(
    np.uint64(c)
    for c in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each entry of the uint64 array ``x``, which is overwritten.

    Bit-parallel (SWAR) sums, which work on every supported numpy;
    ``np.bitwise_count`` needs numpy 2.
    """
    m1, m2, m4, h01 = _SWAR_MASKS
    x -= (x >> np.uint64(1)) & m1
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x += x >> np.uint64(4)
    x &= m4
    x *= h01  # wraps: the top byte collects the sum of the eight byte counts
    x >>= np.uint64(56)
    return x.view(np.int64)


def _fair_binomial(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Binomial(m, 1/2) draw per entry of ``m``.

    Counts up to 64 take the popcount of m uniform random bits, which is
    exact in law and several times faster than ``rng.binomial``; larger
    counts use ``rng.binomial``.
    """
    out = np.empty(m.size, dtype=np.int64)
    few = m <= 64
    bits = rng.integers(0, 2**64, size=int(few.sum()), dtype=np.uint64)
    # keep the top m bits; numpy shifts a count of 0 by 64 to 0
    bits >>= (64 - m[few]).astype(np.uint64)
    out[few] = _popcount(bits)
    out[~few] = rng.binomial(m[~few], 0.5)
    return out


def _broadcast_sampler(rng: np.random.Generator, ns: np.ndarray) -> tuple:
    """Draw (j, k) jointly per particle: k from its marginal, then j - 1
    binomial, for the contender counts ``ns``."""
    u = rng.random(ns.size)
    # P(k >= 1) tail is geometric: k = ceil(-log2(2u)) clipped into range
    k = np.zeros(ns.size, dtype=np.int64)
    tail = np.flatnonzero(u < 0.5)  # mass 1/2 spread over k >= 1 plus the residual at k = 0
    u_t, n_t = u[tail], ns[tail]
    with np.errstate(divide="ignore"):
        kk = np.floor(-np.log2(np.maximum(u_t, 1e-300))).astype(np.int64)
    kk = np.clip(kk, 1, n_t - 1)
    # overflow of the truncated geometric (u < 2^-n) belongs to k = 0
    kk[u_t < np.ldexp(1.0, -n_t)] = 0
    k[tail] = kk
    j = 1 + _fair_binomial(ns - k - 1, rng)
    # the (0, 0) atom carries weight 2^-n inside the k = 0 slice (dropped for n > 60)
    slot = np.flatnonzero((k == 0) & (ns <= 60))
    p00 = np.ldexp(1.0, -ns[slot])
    j[slot[rng.random(slot.size) < p00 / (0.5 + p00)]] = 0
    return [j, k], None


def _broadcast_a_time() -> CatalogEntry:
    def groups(n: int, exact: bool) -> list:
        return _broadcast_groups(n, exact, 1, 0)

    def sampler(rng: np.random.Generator, ns: np.ndarray) -> tuple:
        idx, _ = _broadcast_sampler(rng, ns)
        return idx, np.ones(ns.size)

    spec = RecurrenceSpec(
        name="broadcast_a_time",
        k=2,
        n0=2,
        base_laws=(Pmf.delta(1), Pmf.delta(1)),
        groups=groups,
        sampler=sampler,
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

    def sampler(rng: np.random.Generator, ns: np.ndarray) -> tuple:
        idx, _ = _broadcast_sampler(rng, ns)
        return idx, (ns - idx[0]).astype(float)

    spec = RecurrenceSpec(
        name="broadcast_a_comparisons",
        k=2,
        n0=2,
        base_laws=(Pmf.delta(0), Pmf.delta(0)),
        groups=groups,
        sampler=sampler,
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


def leader_election_rounds(m, rng: np.random.Generator):
    """Rounds needed to thin ``m`` contenders to one by fair coin flipping.

    Every contender flips each round; the heads-flippers survive whenever that
    leaves at least one and fewer than all contenders, otherwise the round is
    wasted. Accepts a scalar or an array of contender counts.
    """
    scalar = np.isscalar(m)
    counts = np.atleast_1d(np.asarray(m, dtype=np.int64))
    if (counts < 1).any():
        raise PreconditionError("contender counts must be at least 1")
    rounds = np.zeros(counts.size, dtype=np.int64)
    # only running elections are carried: their output positions and counts
    pos = np.flatnonzero(counts.ravel() > 1)
    cur = counts.ravel()[pos]
    r = 0
    while pos.size:
        r += 1
        if r > 100_000:
            raise PreconditionError("election failed to terminate")
        heads = _fair_binomial(cur, rng)
        cur = np.where((heads >= 1) & (heads < cur), heads, cur)
        done = cur == 1
        rounds[pos[done]] = r
        pos, cur = pos[~done], cur[~done]
    return int(rounds[0]) if scalar else rounds.reshape(counts.shape)


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
    """The law of :func:`leader_election_rounds` as a recurrence: L_1 = 0 and
    L_m = 1 + L_H, H ~ Binomial(m, 1/2), where a wasted round (H in {0, m})
    keeps m. That is one row over h = 1..m whose last entry, 2^(1-m), refers
    back to m; the solver sums its shift series."""

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

    def sampler(rng: np.random.Generator, ns: np.ndarray) -> tuple:
        return [rng.integers(0, ns)], leader_election_rounds(ns, rng).astype(float)

    spec = RecurrenceSpec(
        name="broadcast_b_time",
        k=1,
        n0=2,
        base_laws=(Pmf.delta(1), Pmf.delta(1)),
        groups=groups,
        sampler=sampler,
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
