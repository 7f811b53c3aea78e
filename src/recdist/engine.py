"""Dynamic-programming and simulation engine for divide-and-conquer recurrences.

A recurrence is described by its branching factor ``k``, base laws for small
indices, and for every larger index a finite joint law over subproblem index
tuples and the toll. The law at ``n`` is the joint-law mixture of child-law
convolutions shifted by the toll, solved bottom-up with memoization.

The solver sees a joint law in one encoding: weight rows (:class:`VectorGroup`)
of atoms sharing their trailing indices, with a toll affine in the leading
index or a toll law drawn independently of the indices, given as weights or,
for rows over ``first_start..n-1``, as a polynomial in the leading index; or
blocks of such rows (:class:`VectorBlock`) sharing leading start, toll and
slope, one row per trailing index. A spec gives nothing else; JSON documents
tabulate atoms, which their parser alone groups, level by level, by trailing
indices and toll (never into polynomial rows). Atoms referring back to ``n``, in any position, are removed
algebraically: an unshifted self term divides the rest by one minus its
weight; an upward-shifted one (next to point masses) adds a shift series,
summed until its remainder drops below the budget.

Every law is a dense numpy row on the integer lattice of spacing ``1/D``,
``D`` the lcm of the denominators of base atoms, tolls and slopes: float64 in
float mode; in exact mode Python-int numerators (object dtype) over one int
denominator per row, reduced by one gcd per level, so no ``Fraction`` is made
while solving. A row first mixes the child laws over its leading index (its
inner mixture), by one of four kernels. A polynomial row takes running
sums, in both modes: the sum over ``first_start <= j < n`` of ``j**p`` times
child row ``j`` is kept for each power ``p`` across levels, each new row is
added once (compensated in float mode, over the lcm of the denominators in
exact mode), and the mixture is the sums times the coefficients, so a level
costs O(width) instead of O(n * width). A float row of one entry with no
trailing index and no cache key (``node_depth``'s index 0) is its child's
stored row times its weight. Any other row mixes by a matrix-vector product
over the stacked child rows (float mode, constant toll; the stack is built
when a row first reads it, so models written in polynomial rows never hold
one) or by shifted adds of the child rows (exact mode or sloped toll).
Inner mixtures are memoized by cache key, in float mode as rows of one
stacked matrix in the child rows' column frame. Float mode then takes a
whole block at once: its scaled trailing child rows, transposed, times its
inner mixtures, summed along the anti-diagonals, is the sum of every row's
convolution; the scaled trailing child rows are kept from one level to the
next while the block's trailing indices and scales repeat (the broadcast
blocks from n = 66 on), and a :class:`VectorGroup` is a block of one row.
Exact mode reads a block's rows as they are and convolves row by row with
the integer kernels. A toll law is convolved once with its row's mixture. Both
modes truncate by one rule: a solved level's row is trimmed at both ends
within ``tail_eps`` of mass, and the level stores only that row; its law and
moments are built from it on first read. Monte Carlo draws from the same float
rows: :func:`sample_many` compiles each level it meets once per call, then
draws a joint atom per pending subproblem and round with numpy alone.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from numbers import Integral, Rational
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, PreconditionError, UnsupportedExactError
from .pmf import MASS_TOL, Pmf, outer_trim

#: mass below which a geometric self-reference series is cut off (the
#: remainder is added to lost_mass)
_GEO_EPS_FLOOR = 1e-30

#: the stacked matrices are given up (rows then mix by shifted adds) before
#: they hold more than this many cells per stored row entry, plus 4096
_STACK_SPARSITY = 16

#: cells of one slab of the trailing-rows x inner-mixtures product
_SLAB = 1 << 16

_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_TRAIL = np.empty((1, 0), dtype=np.int64)  # the trailing indices of a k = 1 row
_NO_TRAIL.flags.writeable = False


@dataclass(frozen=True)
class VectorGroup:
    """Joint-law atoms sharing their trailing indices, as one weight row.

    The atom with leading index ``j = first_start + i`` has trailing indices
    ``others``, weight ``scale * weights[i]`` and toll ``toll + slope * j``.
    Exact rows hold ints or Fractions (object arrays) under a rational scale;
    int weights under ``scale = Fraction(1, d)`` reach the solver's integer
    kernels as they are. Float rows hold float64. A float row with slope 0
    mixes as a product with the stacked child rows, any other by shifted adds.
    ``cache_key``, a nonnegative int, marks weight rows reused across levels,
    whose inner mixtures the engine memoizes (it must identify weights and
    slope). To the float solver a group is a :class:`VectorBlock` of one row.

    ``toll`` may also be a :class:`Pmf`: a toll drawn independently of the
    indices. The solver convolves the group's mixture with that law once
    per level, and readers of atoms expand it atom by atom (each atom of the
    row times every toll atom). Such a group must not refer back to ``n``.

    A polynomial row gives ``poly`` instead of ``weights``: at level ``n``
    the weight at ``j = first_start .. n - 1`` is ``scale * sum(poly[p] *
    j**p)``, with rational coefficients in exact mode; its scale may be
    rational in float mode too. The solver mixes it by running sums over the
    stored rows in both modes, one step per level (module docstring); only
    readers of atoms tabulate its weights (:meth:`dense`). The uniform rows
    of ``unsuccessful_search``, ``quickselect`` and ``broadcast_b_time``
    and the rows ``2j/n^2`` of ``node_depth`` take this form.
    """

    first_start: int
    weights: np.ndarray | None = None
    scale: object = 1
    others: tuple = ()
    toll: object = 0
    slope: object = 0
    cache_key: int | None = None
    poly: tuple = ()

    def dense(self, n: int, exact: bool) -> "VectorGroup":
        """The group at level ``n`` as a plain weight row: a polynomial row's
        weights tabulated over ``first_start..n-1`` (ints or Fractions in
        exact mode; float64 otherwise, a rational scale ``a/d`` taken in as
        ``poly(j) * a / d``, so ``2j/n^2`` is the correctly rounded ratio);
        any other group as it is."""
        if not self.poly:
            return self
        if exact:
            w = [sum(c * j**p for p, c in enumerate(self.poly)) for j in range(self.first_start, n)]
            return replace(self, weights=np.array(w, dtype=object), poly=())
        s = self.scale
        a, d = (s.numerator, s.denominator) if isinstance(s, Rational) else (s, 1)
        js = np.arange(self.first_start, n, dtype=float)
        weights = np.polynomial.polynomial.polyval(js, [float(c * a) for c in self.poly]) / d
        return replace(self, weights=weights, scale=1, poly=())


@dataclass(frozen=True)
class VectorBlock:
    """Weight rows sharing leading start, toll and slope: the rows of several
    :class:`VectorGroup` s, one per trailing index tuple, in one record.

    Row ``r`` stands for ``VectorGroup(first_start, rows[r], scales[r],
    tuple(others[r]), toll, slope, cache_keys[r])``, and the block lists its
    atoms in row order. ``others`` is an int array of shape (rows, k - 1);
    rows may be shared references to memoized arrays (the engine never writes
    them). Float mode mixes every row at once: one product of the scaled
    trailing child rows with the rows' inner mixtures (module docstring);
    exact mode convolves its rows one by one.
    """

    first_start: int
    rows: tuple
    others: np.ndarray
    scales: np.ndarray
    toll: object = 0
    slope: object = 0
    cache_keys: np.ndarray | None = None

    @cached_property
    def lengths(self) -> np.ndarray:
        """The length of every row."""
        return np.fromiter(map(len, self.rows), np.int64, len(self.rows))

    @cached_property
    def reach(self) -> tuple:
        """(longest row, smallest and largest trailing index); the trailing
        ones are 0 and -1 when there are none."""
        o = self.others
        longest = int(self.lengths.max(initial=0))
        if not o.size:
            return longest, 0, -1
        return longest, o.min(), o.max()


def _unit_rows(g) -> tuple:
    """(rows, their lengths, trailing indices as a rows x (k - 1) int array,
    scales, cache keys or None) of a group or block; a group is a block of
    one row."""
    if isinstance(g, VectorBlock):
        return g.rows, g.lengths, g.others, g.scales, g.cache_keys
    keys = None if g.cache_key is None else np.array([g.cache_key], dtype=np.int64)
    others = np.array([g.others], dtype=np.int64) if g.others else _NO_TRAIL
    return (g.weights,), (len(g.weights),), others, (g.scale,), keys


def _unit_malformed(g, k: int, n: int) -> bool:
    """True when a group or block has the wrong trailing arity, mismatched
    block fields, an index outside {0,...,n} or a cache key that is not a
    nonnegative int, or is a polynomial row with no coefficients, an empty
    range first_start..n-1 or a trailing index n (a self reference)."""
    if not isinstance(g, VectorBlock):
        t, key = g.others, g.cache_key
        if g.poly or g.weights is None:
            return bool(
                not g.poly
                or g.weights is not None
                or len(t) != k - 1
                or not 0 <= g.first_start < n
                or (t and (min(t) < 0 or max(t) >= n))
            )
        return bool(
            len(t) != k - 1
            or g.first_start < 0
            or g.first_start + len(g.weights) > n + 1
            or (t and (min(t) < 0 or max(t) > n))
            or (key is not None and not (isinstance(key, Integral) and key >= 0))
        )
    rows, others, scales, keys = g.rows, g.others, g.scales, g.cache_keys
    if (
        not isinstance(others, np.ndarray)
        or others.ndim != 2
        or others.dtype.kind not in "iu"
        or not len(rows) == len(others) == len(scales)
        or (keys is not None and (len(keys) != len(rows) or keys.dtype.kind not in "iu"))
    ):
        return True
    longest, low, top = g.reach
    return bool(
        others.shape[1] != k - 1
        or g.first_start < 0
        or g.first_start + longest > n + 1
        or low < 0
        or top > n
        or (keys is not None and keys.size and keys.min() < 0)
    )


@dataclass(frozen=True)
class SolveOptions:
    """Arithmetic mode, truncation budget and support cap of a solve.

    ``tail_eps`` means the same in both modes: each level's row loses at
    most ``tail_eps`` of mass from its two ends (a self-reference series
    stops within a quarter of it), and what is cut lands in lost_mass."""

    mode: str = "float"  # "float" | "exact"
    tail_eps: float = 1e-12
    max_support: int = 1_000_000

    def __post_init__(self):
        if self.mode not in ("float", "exact"):
            raise PreconditionError(f"unknown arithmetic mode {self.mode!r}")
        if not (math.isfinite(self.tail_eps) and self.tail_eps >= 0):
            raise PreconditionError(f"tail_eps must be finite and nonnegative, got {self.tail_eps}")
        if self.max_support < 2:
            raise PreconditionError("max_support must be at least 2")


@dataclass(frozen=True)
class RecurrenceSpec:
    """Full description of a divide-and-conquer distributional recurrence.

    The joint law at ``n >= n0`` is given, required, by ``groups(n, exact)``
    as :class:`VectorGroup` rows or :class:`VectorBlock` s, ``exact`` picking
    rational or float64 weights; a JSON document's atoms are grouped into
    such rows by :func:`spec_from_json`. These rows are the spec's one
    description of its law: the solver mixes them, readers of atoms tabulate
    them, and :func:`sample_many` draws from the float ones.
    """

    name: str
    k: int
    n0: int
    base_laws: tuple
    groups: Callable[[int, bool], Sequence[VectorGroup]] | None = None
    exact_cap: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise PreconditionError("need at least one subproblem copy")
        if self.n0 < 1:
            raise PreconditionError("recursion must start at n0 >= 1")
        if len(self.base_laws) != self.n0:
            raise PreconditionError("need one base law per index below n0")
        if self.groups is None:
            raise PreconditionError("spec needs a joint law, as weight rows (groups)")

    def _check_index(self, n: int) -> None:
        if n < self.n0:
            raise PreconditionError(
                f"{self.name}: no joint law below n0={self.n0} (requested n={n})"
            )

    def law_groups(self, n: int, exact: bool) -> list:
        """The joint law at ``n`` as weight rows and blocks, exact or float64,
        as the spec gives them. Polynomial rows are handed over as they are
        (:meth:`VectorGroup.dense` tabulates them)."""
        self._check_index(n)
        groups = list(self.groups(n, exact))
        for g in groups:
            if _unit_malformed(g, self.k, n):
                raise PreconditionError(
                    f"joint group at n={n}: arity differs from k, index outside {{0,...,n}}, "
                    "or polynomial row with no coefficients, an empty range or a trailing index n"
                )
        # one pass per property over all rows; the weights themselves are
        # checked for being rational where the exact kernels read them
        if exact and not all(_rational_unit(g) for g in groups):
            raise PreconditionError("exact mode requires rational joint weights")
        return groups

    def joint_atoms(self, n: int) -> list:
        """The joint law at ``n`` as atoms ``(indices, toll, weight)``, row by
        row; a toll law is expanded atom by atom within each index tuple."""
        atoms = []
        for g in self.law_groups(n, True):
            rows, _, others, scales, _ = _unit_rows(g.dense(n, True) if isinstance(g, VectorGroup) else g)
            for w, o, s in zip(rows, others.tolist(), scales):
                for j, x in enumerate(w.tolist(), g.first_start):
                    if x:
                        for t, p in zip(*_toll_atoms(g.toll)):
                            atoms.append(((j, *o), t + g.slope * j, s * x * p))
        return atoms

    def joint_arrays(self, n: int) -> tuple:
        """The float rows at ``n`` as arrays ``(indices, tolls, weights)``: int64
        of shape (atoms, k), float64 and float64; one atom per nonzero weight
        and toll atom, row by row."""
        parts = [(np.empty((0, self.k), dtype=np.int64), np.empty(0), np.empty(0))]
        for g in self.law_groups(n, exact=False):
            rows, lens, others, scales, _ = _unit_rows(g if isinstance(g, VectorBlock) else g.dense(n, False))
            if not rows:
                continue
            lens = np.asarray(lens)
            w = np.repeat(np.asarray(scales, dtype=float), lens) * np.concatenate(rows).astype(float)
            keep = np.flatnonzero(w)
            # the leading index of each entry: its place within its row
            j = g.first_start + (np.arange(w.size) - np.repeat(np.cumsum(lens) - lens, lens))[keep]
            idx = np.empty((keep.size, self.k), dtype=np.int64)
            idx[:, 0] = j
            idx[:, 1:] = np.repeat(others, lens, axis=0)[keep]
            tv, tp = (np.array(x, dtype=float) for x in _toll_atoms(g.toll))
            tolls = float(g.slope) * j[:, None] + tv
            parts.append((np.repeat(idx, len(tv), axis=0), tolls.ravel(), (w[keep][:, None] * tp).ravel()))
        idx, tolls, weights = zip(*parts)
        return np.concatenate(idx), np.concatenate(tolls), np.concatenate(weights)


def _rational_unit(g) -> bool:
    """True when a group's or block's rows are object arrays (ints or
    Fractions) and its scales and polynomial coefficients are rational."""
    block = isinstance(g, VectorBlock)
    rows = g.rows if block else [w for w in (g.weights,) if w is not None]
    numbers = g.scales.tolist() if block else (g.scale, *g.poly)
    return all(r.dtype == object for r in rows) and all(isinstance(x, Rational) for x in numbers)


def _toll_atoms(toll) -> tuple:
    """(values, probabilities) of a group's toll: a toll law's atoms, or the
    one toll with probability 1."""
    if isinstance(toll, Pmf):
        return toll.values, toll.probs
    return (toll,), (1,)


def _atom_groups(atoms: Sequence[tuple], exact: bool) -> list:
    """Joint-law atoms ``(index tuple, toll, weight)``, toll and weight ints or
    Fractions, as slope-0 weight rows, one per (trailing indices, toll)."""
    rows: dict = {}
    for idx, toll, w in atoms:
        rows.setdefault((idx[1:], toll), []).append((idx[0], w if exact else float(w)))
    groups = []
    for (others, toll), row in rows.items():
        lo = min(j for j, _ in row)
        weights = np.zeros(max(j for j, _ in row) - lo + 1, dtype=object if exact else float)
        for j, w in row:
            weights[j - lo] += w
        groups.append(VectorGroup(lo, weights, 1, others, toll))
    return groups


@dataclass(frozen=True)
class MomentRow:
    n: int
    mean: object
    variance: object
    third_abs_central: object


#: the exact types the integer kernels take without conversion
_EXACT_TYPES = (int, Fraction)


def _rational(x):
    """A toll or atom value as an exact rational; a float is read as the
    shortest decimal that prints it (0.1 is 1/10)."""
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise PreconditionError(f"toll or atom value {x} is not finite")
        return Fraction(repr(float(x)))
    return x if isinstance(x, _EXACT_TYPES) else Fraction(x)


def _exact_weight(q):
    """An exact-mode weight as an int or Fraction; refuse anything else."""
    if type(q) in _EXACT_TYPES:
        return q
    if isinstance(q, Rational):
        return Fraction(q)
    raise PreconditionError("exact mode requires rational joint weights")


class _Stack:
    """Float rows stored densely in the solver's column frame, with the first
    and last lattice position of each row (``lo > hi``: nothing stored)."""

    __slots__ = ("vals", "lo", "hi")

    def __init__(self, height: int, width: int):
        self.vals = np.zeros((height, width))
        self.lo = np.full(height, 2**62, dtype=np.int64)
        self.hi = np.full(height, -(2**62), dtype=np.int64)

    def resized(self, height: int, width: int, shift: int) -> "_Stack":
        """A copy of the given shape, its columns moved ``shift`` to the right."""
        new = _Stack(height, width)
        h, w = self.vals.shape
        new.vals[:h, shift : shift + w] = self.vals
        new.lo[:h], new.hi[:h] = self.lo, self.hi
        return new

    def stored(self, keys: np.ndarray) -> np.ndarray:
        """Which of the rows ``keys`` hold a stored row."""
        inside = keys < len(self.lo)
        out = np.zeros(len(keys), dtype=bool)
        out[inside] = self.lo[keys[inside]] <= self.hi[keys[inside]]
        return out

    def cells(self) -> int:
        span = self.hi - self.lo + 1
        return int(span[span > 0].sum())


class _RunningSum:
    """One running sum of a polynomial row (``Solver._running_sum``): a
    dense row from lattice position ``lo`` holding the rows ``first <= j <
    upto``, nonzero only on ``a..b``. Float sums carry the Kahan
    compensation ``comp`` alongside; exact sums are int numerators over the
    int ``den``."""

    __slots__ = ("vals", "comp", "lo", "a", "b", "den", "upto")

    def __init__(self, first: int):
        self.vals = self.comp = None
        self.lo, self.a, self.b, self.den, self.upto = 0, 0, -1, 1, first


class _Level:
    """One solved index, published to readers in a single append.

    It holds the level's trimmed dense row at lattice offset ``off`` on the
    lattice of spacing ``1/lattice``: float64 probabilities (``den`` 1), or
    in exact mode int numerators over the int ``den``. The law and the
    moments are built from these arrays on first read and kept; readers that
    race on an unread level build equal values, and each is stored in one
    assignment.
    """

    __slots__ = ("off", "row", "den", "lattice", "_law", "_moments")

    def __init__(self, off: int, row: np.ndarray, den: int, lattice: int):
        self.off, self.row, self.den, self.lattice = off, row, den, lattice
        self._law = self._moments = None

    def _atoms(self) -> tuple:
        nz = np.flatnonzero(self.row)
        return self.off + nz, self.row[nz]

    def law(self) -> Pmf:
        if self._law is None:
            ks, p = self._atoms()
            if self.row.dtype == object:
                nums = p.tolist()
                total = Fraction(sum(nums), self.den)
                probs = [Fraction(a, self.den) for a in nums]
            else:
                total, probs = float(np.sum(self.row)), p.tolist()
            kl = ks.tolist()
            values = kl if self.lattice == 1 else [_lattice_value(k, self.lattice) for k in kl]
            self._law = Pmf(tuple(values), tuple(probs), max(1 - total, 0 * total))
        return self._law

    def moments(self) -> tuple:
        """(mean, variance, third absolute central moment) of the kept atoms."""
        if self._moments is None:
            ks, p = self._atoms()
            if self.row.dtype == object:
                # sums over int numerators, in lattice units scaled by den
                den, nums, kl = self.den, p.tolist(), ks.tolist()
                t1 = sum(a * k for a, k in zip(nums, kl))
                dev = [k * den - t1 for k in kl]  # den * (k - mean in lattice units)
                scale = den * self.lattice
                mean = Fraction(t1, scale)
                var = Fraction(sum(a * d * d for a, d in zip(nums, dev)), den * scale**2)
                m3 = Fraction(sum(a * abs(d) ** 3 for a, d in zip(nums, dev)), den * scale**3)
            else:
                v = ks / self.lattice
                mean = float(v @ p)
                var = max(float(((v - mean) ** 2) @ p), 0.0)
                m3 = float((np.abs(v - mean) ** 3) @ p)
            self._moments = (mean, var, m3)
        return self._moments


class Solver:
    """Bottom-up memoizing solver for one recurrence under fixed options.

    Laws live as dense rows on the lattice of spacing ``1/D`` (module
    docstring); a toll or slope that refines the lattice spreads the stored
    rows onto the finer one. Exact rows are Python-int numerators over one
    int denominator, reduced by their gcd once per level; ``Fraction`` values
    are made only when a law or moment is read. A level costs only its row
    arithmetic: its :class:`Pmf` and moments are built on first read.

    The memo admits concurrent readers: each level is published as one
    record whose row is complete before the append, and a lazily built law
    or moment triple is stored in one assignment, so readers racing on an
    unread level get equal values. Solving new indices is serialized by an
    internal lock. Identical (spec, options) always reproduce identical laws
    because the bottom-up order is deterministic.
    """

    def __init__(self, spec: RecurrenceSpec, opts: SolveOptions | None = None):
        self.spec = spec
        self.opts = opts or SolveOptions()
        self._exact = self.opts.mode == "exact"
        self._budget = Fraction(self.opts.tail_eps) if self._exact else self.opts.tail_eps
        self._lock = threading.RLock()
        self._levels: list = []
        self._rows: list = []  # (lattice offset, dense row, row denominator) per solved index
        self._den = math.lcm(*(_rational(v).denominator for b in spec.base_laws for v in b.values))
        self._stackable = not self._exact  # see _stack_write
        self._mat: _Stack | None = None  # child rows, by index, once a group reads them
        self._imat: _Stack | None = None  # inner mixtures, by cache key
        self._col_lo = 0  # lattice position of the stacks' first column
        self._inner_cache: dict = {}  # inner mixtures by cache key when not stacked
        self._sums: dict = {}  # running sums of polynomial rows, by (first_start, power, slope)
        self._trail_mix: tuple | None = None  # the last block's scaled trailing children, by key
        self._skew = np.zeros((0, 0))  # the buffer of _contract
        self._atom_pos: dict = {}

    # ---- public surface ----

    def law(self, n: int) -> Pmf:
        """Exact law of the recurrence at index n."""
        return self._level(n).law()

    def mean(self, n: int):
        return self._level(n).moments()[0]

    def variance(self, n: int):
        return self._level(n).moments()[1]

    def sd(self, n: int) -> float:
        return math.sqrt(float(self.variance(n)))

    def third_abs_central(self, n: int):
        return self._level(n).moments()[2]

    @property
    def lattice_den(self) -> int:
        """D of the lattice of spacing 1/D that the solved laws live on."""
        return self._den

    def moment_rows(self, ns: Sequence[int]) -> list:
        return [MomentRow(n, *self._level(n).moments()) for n in ns]

    def means_upto(self, n: int) -> np.ndarray:
        self._level(n)
        return np.array([float(lv.moments()[0]) for lv in self._levels[: n + 1]])

    def sds_upto(self, n: int) -> np.ndarray:
        self._level(n)
        return np.sqrt(np.array([float(lv.moments()[1]) for lv in self._levels[: n + 1]]))

    # ---- solve loop ----

    def _level(self, n: int) -> _Level:
        if n < 0:
            raise PreconditionError(f"{self.spec.name}: index must be nonnegative (got {n})")
        if n >= len(self._levels):
            cap = self.spec.exact_cap
            if cap is not None and n > cap:
                raise CapacityError(
                    f"{self.spec.name}: exact solve capped at n={cap} (requested {n})"
                )
            with self._lock:
                for m in range(len(self._levels), n + 1):
                    self._solve(m)
        return self._levels[n]

    def _span(self, m: int, size: int) -> int:
        """Refuse a dense row wider than ``max_support``, before allocating it."""
        if size > self.opts.max_support:
            raise CapacityError(
                f"{self.spec.name}: lattice span {size} exceeds max_support "
                f"{self.opts.max_support} at n={m}"
            )
        return size

    def _zeros(self, m: int, size: int) -> np.ndarray:
        return np.zeros(self._span(m, size), dtype=object if self._exact else float)

    def _convolve(self, m: int, vec: np.ndarray, arr: np.ndarray) -> np.ndarray:
        if not self._exact:
            self._span(m, len(vec) + len(arr) - 1)
            return np.convolve(vec, arr)
        # int products only between atoms: gapped supports (all values odd,
        # say) leave many zeros in a row; loop over the shorter support
        out = self._zeros(m, len(vec) + len(arr) - 1)
        nz_v, nz_a = np.flatnonzero(vec), np.flatnonzero(arr)
        if len(nz_v) > len(nz_a):
            vec, arr, nz_v, nz_a = arr, vec, nz_a, nz_v
        for i in nz_v:
            out[i + nz_a] += vec[i] * arr[nz_a]
        return out

    def _add_rows(self, m: int, terms: list, lo: int | None = None, size: int | None = None) -> tuple:
        """The dense sum of ``coef * arr / den`` over terms ``(offset, arr,
        den, coef, atoms)``, as (offset, array, denominator). ``atoms`` lists
        the nonzero positions of ``arr`` (None: find them). Float mode adds
        in term order with denominator 1; exact mode brings the terms onto
        the lcm of their denominators, in ints."""
        if lo is None:
            lo = min(t[0] for t in terms)
        if size is None:
            size = max(t[0] + len(t[1]) for t in terms) - lo
        acc = self._zeros(m, size)
        if not self._exact:
            for i, (off, arr, _, c, _) in enumerate(terms):
                cut = acc[off - lo : off - lo + len(arr)]
                if i == 0 and isinstance(c, float):  # onto zeros: the product itself
                    np.multiply(arr, c, out=cut)
                else:
                    cut += arr if c == 1 else c * arr
            return lo, acc, 1
        qs = [_exact_weight(t[3]) for t in terms]
        den = math.lcm(*(t[2] * q.denominator for t, q in zip(terms, qs)))
        for (off, arr, d, _, pos), q in zip(terms, qs):
            f = q.numerator * (den // (d * q.denominator))
            pos = np.flatnonzero(arr) if pos is None else pos
            acc[off - lo + pos] += arr[pos] if f == 1 else f * arr[pos]
        return lo, acc, den

    def _atoms_of(self, i: int) -> np.ndarray:
        """Positions of the atoms in stored row i (exact mode), memoized."""
        if i not in self._atom_pos:
            self._atom_pos[i] = np.flatnonzero(self._rows[i][1])
        return self._atom_pos[i]

    def _units(self, t) -> int:
        """A toll (or toll slope) in lattice units."""
        return t * self._den if type(t) is int else int(t * self._den)

    def _solve(self, m: int) -> None:
        spec, exact = self.spec, self._exact
        if m < spec.n0:
            self._publish(m, *self._law_row(m, spec.base_laws[m]), 0 * self._budget)
            return
        groups = spec.law_groups(m, exact)
        den = self._den
        for g in groups:
            toll, slope = g.toll, g.slope
            if type(toll) is int and type(slope) is int:
                continue
            for t in (*(toll.values if isinstance(toll, Pmf) else (toll,)), slope):
                if type(t) is not int:
                    den = math.lcm(den, _rational(t).denominator)
        if den != self._den:
            self._refine(m, den)

        self_terms: list = []
        pieces: list = []  # (offset, array, denominator, scale, None) contributions
        for g in groups:
            pieces += self._pieces(m, g, self_terms)
        if not pieces:
            raise PreconditionError(f"law at n={m} has no mass")
        lo, acc, den = self._add_rows(m, pieces)
        if self_terms:
            acc, den = self._eliminate_self(m, acc, den, self_terms)
        self._publish(m, lo, acc, den, self._budget)

    def _pieces(self, m: int, g, self_terms: list) -> list:
        """The pieces ``(offset, array, denominator, scale, None)`` that one
        group or block adds to level m; its self-referential atoms are
        appended to ``self_terms``. A toll law is convolved with the group's
        mixture once; a group with a toll law must not refer back to m."""
        law = g.toll if isinstance(g.toll, Pmf) else None
        toll = g.toll if law is None else 0
        n_self = len(self_terms)
        if isinstance(g, VectorGroup) and g.poly:
            mixed = self._mix_poly(m, g, toll)
        else:
            mixed = self._mix(m, g, self_terms, toll)
        if law is None:
            return mixed
        if len(self_terms) > n_self:
            raise UnsupportedExactError(f"{self.spec.name}: joint group at n={m} with a toll law refers back to n")
        if not mixed:
            return []
        off, arr, den = self._add_rows(m, mixed)
        t_off, t_row, t_den = self._law_row(m, law)
        return [(off + t_off, self._convolve(m, arr, t_row), den * t_den, 1, None)]

    def _law_row(self, m: int, law: Pmf) -> tuple:
        """A base or toll law as (lattice offset, dense row, denominator): float
        probabilities, or in exact mode int numerators (float probabilities,
        e.g. from JSON, promote losslessly)."""
        vals, d = law.values, self._den
        if all(type(v) is int for v in vals):
            ks = [v * d for v in vals]
        else:
            ks = [int(_rational(v) * d) for v in vals]
        row, den = self._zeros(m, ks[-1] - ks[0] + 1), 1
        if self._exact:
            qs = [Fraction(p) for p in law.probs]
            den = math.lcm(*(q.denominator for q in qs))
            for k, q in zip(ks, qs):
                row[k - ks[0]] = q.numerator * (den // q.denominator)
        else:
            row[[k - ks[0] for k in ks]] = np.array(law.probs, dtype=float)  # no cached view on the law
        return ks[0], row, den

    def _refine(self, m: int, den: int) -> None:
        """Spread every stored row onto the finer lattice of spacing 1/den."""
        f = den // self._den
        rows = []
        for off, arr, row_den in self._rows:
            fine = self._zeros(m, (len(arr) - 1) * f + 1)
            fine[::f] = arr
            rows.append((off * f, fine, row_den))
        self._rows, self._den = rows, den
        self._atom_pos.clear()
        self._inner_cache.clear()
        self._sums.clear()
        self._trail_mix = None
        self._mat = self._imat = None  # rebuilt on first use

    def _self_atom_term(self, m: int, idx: tuple, toll, w) -> tuple:
        """Reduce the self-referential atom with indices ``idx``, toll
        ``toll`` and weight ``w`` to (coefficient, lattice shift): the unknown
        law may occur once, next to point-mass factors only."""
        shift = self._units(toll)
        if idx.count(m) > 1:
            raise UnsupportedExactError(
                f"{self.spec.name}: joint law at n={m} multiplies the unknown law with itself"
            )
        for c in idx:
            if c != m:
                off_i, arr_i, _ = self._rows[c]
                if len(arr_i) != 1:
                    raise UnsupportedExactError(
                        f"{self.spec.name}: self atom at n={m} paired with a non-degenerate factor"
                    )
                shift += off_i
        return (_exact_weight(w) if self._exact else w), shift

    def _eliminate_self(self, m: int, acc: np.ndarray, den: int, self_terms: list) -> tuple:
        """Remove self-referential atoms from the mixture ``acc / den`` of
        smaller terms; returns the new (array, denominator).

        An unshifted self weight c0 divides the rest by 1 - c0. Upward shifts
        add a geometric series, summed until its remainder drops below the
        truncation budget; the remainder stays missing and lands in lost_mass.
        """
        c0 = c_shifted = smax = 0  # unshifted and shifted weight, largest shift
        shifted = []
        for c, s in self_terms:
            if s == 0:
                c0 += c
            else:
                shifted.append((c, s))
                c_shifted, smax = c_shifted + c, max(smax, s)
        if any(s < 0 for _, s in shifted):
            raise UnsupportedExactError("self-referential shifts must be nonnegative")
        if c0 + c_shifted >= 1:
            raise PreconditionError(
                f"{self.spec.name}: joint law at n={m} recurses on n with probability 1"
            )
        denom = 1 - c0
        if self._exact:
            denom = Fraction(denom)
            if denom != 1:
                acc, den = acc * denom.denominator, den * denom.numerator
        elif denom != 1:
            acc = acc / denom
        if not shifted:
            return acc, den
        ratio = float(c_shifted / denom)
        eps = max(self.opts.tail_eps / 4.0, _GEO_EPS_FLOOR)
        out = term = acc
        out_den = term_den = den
        for _ in range(10_000):
            mass = int(term.sum()) / term_den if self._exact else float(term.sum())
            if mass * ratio / max(1.0 - ratio, 1e-15) <= eps:
                return out, out_den
            size = len(term) + smax
            _, term, term_den = self._add_rows(
                m, [(s, term, term_den, c / denom, None) for c, s in shifted], 0, size
            )
            _, out, out_den = self._add_rows(
                m, [(0, out, out_den, 1, None), (0, term, term_den, 1, None)], 0, size
            )
        raise CapacityError("self-reference series failed to converge")

    def _publish(self, m: int, lo: int, acc: np.ndarray, den: int, budget) -> None:
        """Check level m's dense mixture ``acc / den`` as :class:`Pmf` would
        (every atom positive, mass at most 1), truncate it, reduce an exact
        row by its gcd, then store the row and publish the level."""
        nz = acc.nonzero()[0]
        if nz.size == 0:
            raise PreconditionError(f"law at n={m} has no mass")
        i0, i1 = int(nz[0]), int(nz[-1])
        side_by_side = i1 - i0 < len(nz)  # then the atoms are a view
        atoms = acc[i0 : i1 + 1] if side_by_side else acc[nz]
        if not atoms.min() > 0:  # False for NaN too
            p = atoms[int(np.argmin(atoms > 0))]
            p = Fraction(p, den) if self._exact else p
            raise PreconditionError(f"law at n={m}: atom probability {p} is not positive")
        first, last, _ = outer_trim(atoms, budget * den if self._exact else budget)
        a, b = (i0 + first, i0 + last) if side_by_side else (int(nz[first]), int(nz[last]))
        row = acc[a : b + 1]
        if self._exact:
            nums = row.tolist()
            mass = sum(nums) / den
        else:
            mass = float(row.sum())
        if mass > 1.0 + MASS_TOL * 8:
            raise PreconditionError(f"law at n={m}: mass {mass} deviates from 1 beyond tolerance")
        if self._exact:
            g = math.gcd(den, *nums)
            if g > 1:
                row, den = row // g, den // g
        off = lo + a
        self._rows.append((off, row, den))
        if self._mat is not None:
            self._stack_write(False, m, off, row)
        self._levels.append(_Level(off, row, den, self._den))

    # ---- one group or block: inner mixtures, then the trailing children ----

    def _mix(self, m: int, g, self_terms: list, toll) -> list:
        """The pieces ``(offset, array, denominator, scale, None)`` that one
        group or block adds to level m under the toll ``toll``; its
        self-referential atoms are appended to ``self_terms``.

        Each row mixes the child rows over its leading index (its inner
        mixture), memoized by cache key, and is convolved with its trailing
        children. Exact mode does so row by row with the integer kernels;
        float mode takes every row at once in :meth:`_contract`.
        """
        fs, slope = g.first_start, g.slope
        if (
            not self._exact
            and isinstance(g, VectorGroup)
            and len(g.weights) == 1
            and not g.others
            and g.cache_key is None
            and fs < m
        ):  # a k = 1 row of one entry: its child row times its weight
            mix = self._inner_mix(m, fs, g.weights, slope)
            if mix is None:
                return []
            off, arr, _ = mix
            return [(off + self._units(toll), arr, 1, g.scale, None)]
        rows, lens, trail, scales, keys = _unit_rows(g)
        # self-referential atoms: n in a trailing position makes the whole
        # row refer back, n as the leading index one entry of it; such rows
        # are mixed from what is left of them, and never memoized
        fresh: dict = {}
        back = []  # the rows with a trailing index n: no inner mixture
        for r in _self_rows(m, g, lens, trail):
            w, others = rows[r], trail[r].tolist()
            if m in others:
                js, fresh[r] = (fs + np.flatnonzero(w)).tolist(), w[:0]
                back.append(r)
            else:
                js, fresh[r] = ([m] if w[m - fs] else []), w[: m - fs]
            self_terms += [
                self._self_atom_term(m, (j, *others), toll + slope * j, w[j - fs] * scales[r]) for j in js
            ]
        stacked, inner = self._inner_rows(m, fs, rows, keys, slope, fresh)
        tu = self._units(toll)
        if self._exact:  # a group or a block, one row at a time
            pieces = []
            for r, mix in sorted(inner.items()):
                if mix is not None:
                    off, vec, vden = self._convolved(m, trail[r], *mix)
                    pieces.append((off + tu, vec, vden, scales[r], None))
            return pieces
        R = len(rows)
        src = keys[stacked] if stacked.size else stacked
        mixed = self._dense(m, R, self._imat, src, stacked, inner)
        if mixed is None:
            return []
        lo, I = mixed
        if trail.shape[1] == 0:  # no trailing children (k = 1)
            if R == 1:
                return [(lo + tu, I[0], 1, scales[0], None)]
            return [(lo + tu, np.asarray(scales, dtype=float) @ I, 1, 1, None)]
        sf = np.asarray(scales, dtype=float)
        key = (tuple(back), trail.tobytes(), sf.tobytes())
        if R > 1 and self._trail_mix is not None and self._trail_mix[0] == key:
            _, lo_t, T = self._trail_mix  # the same scaled trailing children as a level before
        else:
            kids = np.delete(np.arange(R), back)  # rows whose inner mixture may have mass
            if trail.shape[1] == 1 and self._child_rows() is not None:
                lo_t, T = self._dense(m, R, self._mat, trail[kids, 0], kids, {})
            else:
                parts = {r: self._convolved(m, trail[r], 0, np.ones(1), 1) for r in kids.tolist()}
                lo_t, T = self._dense(m, R, None, (), (), parts)
            if R == 1:
                self._span(m, I.shape[1] + T.shape[1] - 1)
                return [(lo + lo_t + tu, np.convolve(I[0], T[0]), 1, scales[0], None)]
            T *= sf[:, None]
            self._trail_mix = (key, lo_t, T)
        return [(lo + lo_t + tu, self._contract(m, T, I), 1, 1, None)]

    def _convolved(self, m: int, idx: np.ndarray, off: int, vec: np.ndarray, den: int) -> tuple:
        """The row ``vec / den`` at lattice offset ``off`` convolved with the
        stored rows ``idx``, as (offset, array, denominator)."""
        for i in idx.tolist():
            off_i, arr_i, den_i = self._rows[i]
            off, vec, den = off + off_i, self._convolve(m, vec, arr_i), den * den_i
        return off, vec, den

    def _dense(self, m: int, R: int, stack, src, dst, parts: dict):
        """Float rows as one dense matrix over their joint lattice span, as
        (offset, matrix of R rows): rows ``dst`` copied from the rows ``src``
        of ``stack``, row r from ``parts[r] = (offset, array, 1)`` (None: no
        mass; rows listed nowhere stay zero). None when no row has mass."""
        if not len(src) and R == 1:  # one row: its array as it is
            p = parts.get(0)
            return None if p is None else (p[0], p[1].reshape(1, -1))
        spans = [(p[0], p[0] + len(p[1]) - 1) for p in parts.values() if p is not None]
        if len(src):
            a, b = int(stack.lo[src].min()), int(stack.hi[src].max())
            spans.append((a, b))
        if not spans:
            return None
        lo = min(x for x, _ in spans)
        out = np.zeros((R, self._span(m, max(y for _, y in spans) - lo + 1)))
        if len(src):
            out[dst, a - lo : b + 1 - lo] = stack.vals[src, a - self._col_lo : b + 1 - self._col_lo]
        for r, p in parts.items():
            if p is not None:
                out[r, p[0] - lo : p[0] - lo + len(p[1])] = p[1]
        return lo, out

    def _contract(self, m: int, T: np.ndarray, I: np.ndarray) -> np.ndarray:
        """The sum over rows r of the full convolutions of ``T[r]`` and
        ``I[r]``: the product ``I.T @ T`` summed along its anti-diagonals, in
        slabs of I's columns that keep the product near ``_SLAB`` cells."""
        A, B = I.shape[1], T.shape[1]
        out = self._zeros(m, A + B - 1)
        step = max(1, _SLAB // B)
        for a0 in range(0, A, step):
            P = I[:, a0 : a0 + step].T @ T
            a, L = len(P), len(P) + B - 1
            # row i of P written i places further on in rows of length L; the
            # buffer is kept while its shape repeats, its columns past B stay 0
            if self._skew.shape != (a, L + 1):
                self._skew = np.zeros((a, L + 1))
            self._skew[:, :B] = P
            out[a0 : a0 + L] += self._skew.reshape(-1)[: a * L].reshape(a, L).sum(axis=0)
        return out

    # ---- polynomial rows: running sums over the stored rows ----

    def _mix_poly(self, m: int, g: VectorGroup, toll) -> list:
        """The pieces ``(offset, array, denominator, scale, None)`` that a
        polynomial row adds to level m under the toll ``toll``: for each
        coefficient ``c_p`` the running sum over ``j`` of ``j**p`` times child
        row ``j``, convolved with the trailing children, under the scale
        ``scale * c_p``."""
        tu = self._units(toll)
        pieces = []
        for p, c in enumerate(g.poly):
            if c:
                off, arr, den = self._running_sum(m, g.first_start, p, g.slope)
                if g.others:
                    off, arr, den = self._convolved(m, np.array(g.others, dtype=np.int64), off, arr, den)
                scale = g.scale * c if self._exact else float(g.scale) * c
                pieces.append((off + tu, arr, den, scale, None))
        return pieces

    def _running_sum(self, m: int, fs: int, p: int, slope) -> tuple:
        """The sum over ``fs <= j < m`` of ``j**p`` times stored row ``j``,
        shifted by ``slope * j``, as (offset, array, denominator). Sums are
        kept across levels: a read adds only the rows stored since the last
        one, so a level costs O(width). Every term is nonnegative, so the
        children's lost mass is carried through and nothing cancels."""
        s = self._sums.get((fs, p, slope))
        if s is None:
            s = self._sums[(fs, p, slope)] = _RunningSum(fs)
        for j in range(s.upto, m):
            off, arr, den = self._rows[j]
            off += self._units(slope * j)
            if s.vals is None or off < s.lo or off + len(arr) > s.lo + len(s.vals):
                self._widen(m, s, off, off + len(arr) - 1)
            at = off - s.lo
            if self._exact:  # numerators brought to the lcm of the two denominators
                lcm = math.lcm(s.den, den)
                if lcm != s.den:
                    s.vals[s.a - s.lo : s.b - s.lo + 1] *= lcm // s.den
                    s.den = lcm
                pos = self._atoms_of(j)
                s.vals[at + pos] += arr[pos] * (j**p * (lcm // den))
            else:  # compensated (Kahan) adds: the sum stays within a few ulps over 2^20 rows
                vals, comp = s.vals[at : at + len(arr)], s.comp[at : at + len(arr)]
                if p == 0:
                    y = arr - comp
                else:
                    y = float(j) ** p * arr
                    y -= comp
                t = vals + y
                np.subtract(t, vals, out=comp)
                comp -= y
                vals[:] = t
            s.a, s.b = min(s.a, off), max(s.b, off + len(arr) - 1)
        s.upto = m
        return s.a, s.vals[s.a - s.lo : s.b - s.lo + 1], s.den

    def _widen(self, m: int, s: "_RunningSum", lo: int, hi: int) -> None:
        """Reallocate a running sum to hold lattice positions lo..hi and its
        own span, with room to grow by half its width on either side; only
        the span itself counts against ``max_support``."""
        a, b = (lo, hi) if s.vals is None else (min(s.a, lo), max(s.b, hi))
        pad = (b - a) // 2 + 8
        size = self._span(m, b - a + 1) + 2 * pad
        vals = np.zeros(size, dtype=object if self._exact else float)
        comp = None if self._exact else np.zeros(size)
        if s.vals is None:
            s.a, s.b = lo, hi
        else:
            old, new = slice(s.a - s.lo, s.b - s.lo + 1), slice(s.a - a + pad, s.b - a + pad + 1)
            vals[new] = s.vals[old]
            if comp is not None:
                comp[new] = s.comp[old]
        s.vals, s.comp, s.lo = vals, comp, a - pad

    # ---- inner mixtures over the leading index ----

    def _child_rows(self) -> _Stack | None:
        """The stacked child rows (float mode), built from the stored rows
        on first use; None in exact mode or once the stacks are given up."""
        if self._mat is None and self._stackable:
            for i, (off, arr, _) in enumerate(self._rows):
                self._stack_write(False, i, off, arr)
        return self._mat

    def _stack_write(self, inner: bool, i: int, off: int, arr: np.ndarray) -> None:
        """Store ``arr`` at lattice offset ``off`` as row i of the stacked
        child rows or of the stacked inner mixtures (float mode)."""
        if not self._stackable:
            return
        lo, hi = off, off + len(arr) - 1
        st = self._imat if inner else self._mat
        c = lo - self._col_lo
        if st is None or i >= len(st.lo) or c < 0 or c + len(arr) > st.vals.shape[1]:
            if not self._grow_stacks(inner, i, lo, hi):
                return
            st, c = self._imat if inner else self._mat, lo - self._col_lo
        st.vals[i, c : c + len(arr)] = arr
        st.lo[i], st.hi[i] = lo, hi

    def _grow_stacks(self, inner: bool, i: int, lo: int, hi: int) -> bool:
        """Grow the shared column frame to hold columns lo..hi and the stack
        to hold row i; give both stacks up (False) rather than let drifting
        rows span levels x global width."""
        mat, imat = self._mat, self._imat
        if mat is None and imat is None:
            col_lo, width = lo - 16, max(64, hi - lo + 1 + 32)
        else:
            col_lo, width = self._col_lo, (imat if mat is None else mat).vals.shape[1]
            if lo < col_lo or hi >= col_lo + width:
                col_lo, width = min(col_lo, lo - 16), max(col_lo + width, hi + 17) - min(col_lo, lo - 16)
        heights = [0 if st is None else len(st.lo) for st in (mat, imat)]
        h = heights[inner]
        if i >= h:
            heights[inner] = max(2 * h, i + 1) if h else max(256, i + 1)
        stored = sum(len(r[1]) for r in self._rows) + (imat.cells() if imat else 0)
        if sum(heights) * width > _STACK_SPARSITY * (stored + 4096):
            self._mat, self._imat, self._stackable = None, None, False
            return False
        shift = self._col_lo - col_lo  # stored rows keep their lattice positions
        self._mat, self._imat = (
            None if not hgt
            else _Stack(hgt, width) if st is None
            else st if shift == 0 and st.vals.shape == (hgt, width)
            else st.resized(hgt, width, shift)
            for st, hgt in zip((mat, imat), heights)
        )
        self._col_lo = col_lo
        return True

    def _inner_rows(self, m: int, fs: int, rows, keys, slope, fresh: dict) -> tuple:
        """The inner mixtures of a group's or block's rows: (the rows read
        from the stacked inner mixtures, {row: (offset, array, denominator)
        or None without mass} for the others). Rows in ``fresh`` mix the
        given weights instead and are not memoized."""
        R = len(rows)
        if keys is None:  # nothing memoized: every row mixed afresh
            return _NO_ROWS, {
                r: self._inner_mix(m, fs, fresh.get(r, w), slope) for r, w in enumerate(rows)
            }
        if self._stackable:
            cached = self._imat.stored(keys) if self._imat is not None else np.zeros(R, dtype=bool)
        else:
            cached = np.fromiter((k in self._inner_cache for k in keys.tolist()), bool, R)
        if fresh:
            cached[list(fresh)] = False
        parts = {r: self._inner_mix(m, fs, w, slope) for r, w in fresh.items()}
        for r in (~cached).nonzero()[0].tolist():
            if r in parts:
                continue
            parts[r] = mix = self._inner_mix(m, fs, rows[r], slope)
            if mix is None:  # only mixtures with mass are kept
                continue
            if self._stackable:
                self._stack_write(True, int(keys[r]), mix[0], mix[1])
            else:
                self._inner_cache[int(keys[r])] = mix
        if self._stackable:
            return cached.nonzero()[0], parts
        for r in cached.nonzero()[0].tolist():  # memoized in the dict, or stacked until given up
            key = int(keys[r])
            if key not in self._inner_cache:
                self._inner_cache[key] = self._inner_mix(m, fs, rows[r], slope)
            parts[r] = self._inner_cache[key]
        return _NO_ROWS, parts

    def _inner_mix(self, m: int, fs: int, weights: np.ndarray, slope):
        """Mixture of the child rows ``fs, fs + 1, ...`` by ``weights``, each
        child shifted by its ``slope * j``, as (offset, dense array,
        denominator); None if it has no mass."""
        if len(weights) == 1 and not self._exact:  # one child: its stored row, scaled
            w = weights[0]
            if not w:
                return None
            off, arr, _ = self._rows[fs]
            return off + self._units(slope * fs), (arr if w == 1 else w * arr), 1
        if not weights.any():
            return None
        if slope == 0 and self._child_rows() is not None:
            lo, vec, den = self._col_lo, weights @ self._mat.vals[fs : fs + len(weights)], 1
        else:
            terms = []
            for i in np.flatnonzero(weights).tolist():
                off, arr, row_den = self._rows[fs + i]
                atoms = self._atoms_of(fs + i) if self._exact else None
                terms.append((off + self._units(slope * (fs + i)), arr, row_den, weights[i], atoms))
            lo, vec, den = self._add_rows(m, terms)
        nz = vec.nonzero()[0]
        if nz.size == 0:
            return None
        return lo + int(nz[0]), vec[nz[0] : nz[-1] + 1], den


def _self_rows(m: int, g, lens, trail: np.ndarray) -> list:
    """The rows of a group or block holding a self-referential atom at level
    m: a trailing index m, or leading indices ``fs, fs + 1, ...`` that reach
    m; a block's :attr:`VectorBlock.reach` rules most levels out at once."""
    fs = g.first_start
    if len(lens) == 1:  # one row
        return [0] if fs <= m < fs + lens[0] or (trail.size and m in trail) else []
    longest, _, top = g.reach
    hit = lens > m - fs if fs <= m < fs + longest else None
    if top >= m:
        back = (trail == m).any(axis=1)
        hit = back if hit is None else hit | back
    return [] if hit is None else hit.nonzero()[0].tolist()


def _lattice_value(k: int, den: int):
    q = Fraction(k, den)
    return q.numerator if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _alias(p: np.ndarray) -> tuple:
    """Walker's alias tables of the rows of ``p``, nonnegative weights of
    positive row sums, flattened: cell i of a row gives i with probability
    ``prob[i]``, else ``alias[i]``. Vose's construction as one numpy sweep:
    scaled to mean 1, a row's deficits of the entries below 1 and excesses
    of those above lie end to end on two lines. A small entry's alias is the
    large one whose excess holds the start of its deficit; a large entry
    whose excess ends inside a deficit pays the rest from its own cell, with
    the next large one as alias. All rows' lines are searched at once, as
    the complex numbers row + 1j * position, which numpy orders row first."""
    T, W = p.shape
    q = p * (W / p.sum(axis=1, keepdims=True))
    prob, alias = np.minimum(q, 1.0).ravel(), np.tile(np.arange(W, dtype=np.int32), T)
    small, large = np.flatnonzero(q < 1.0), np.flatnonzero(q > 1.0)
    if not (small.size and large.size):
        return prob, alias
    rs, rl, rows = small // W, large // W, np.arange(T)
    d_end = np.cumsum(np.maximum(1.0 - q, 0.0), axis=1).ravel()[small]
    d_start = np.concatenate(([0.0], d_end[:-1]))
    d_start[np.flatnonzero(np.diff(rs)) + 1] = 0.0  # each row's line starts at 0
    e_end = rl + 1j * np.cumsum(np.maximum(q - 1.0, 0.0), axis=1).ravel()[large]
    # a round-off leftover past a row's last excess takes its last large entry
    last = np.searchsorted(rl, rows, side="right") - 1
    has = last[rs] >= np.searchsorted(rl, rs)
    at = np.minimum(np.searchsorted(e_end, rs + 1j * d_start, side="right"), last[rs])[has]
    alias[small[has]] = large[at] % W
    nxt = np.flatnonzero(rl[:-1] == rl[1:])  # large entries followed by one in their row
    s = np.minimum(np.searchsorted(rs + 1j * d_end, e_end[nxt], side="right"),
                   np.searchsorted(rs, rl[nxt], side="right") - 1)
    ends = e_end.imag[nxt]
    cut = np.flatnonzero((rs[s] == rl[nxt]) & (d_start[s] < ends) & (ends < d_end[s]))
    prob[large[nxt[cut]]] = 1.0 - (d_end[s[cut]] - ends[cut])
    alias[large[nxt[cut]]] = large[nxt[cut] + 1] % W
    return prob, alias


#: a sampled weight row's table leaves out its end entries below this share
#: of the row's weight, as the broadcast rows stop at their float cut
_DRAW_CUT = 2.0**-66


class _Column:
    """A growable array: ``buf[:n]`` holds what was added."""

    def __init__(self, dtype, width: tuple = ()):
        self.buf, self.n = np.empty((64, *width), dtype=dtype), 0

    def add(self, values) -> int:
        """Append ``values``; returns the position of the first."""
        start, self.n = self.n, self.n + len(values)
        if self.n > len(self.buf):  # at least doubled
            self.buf = np.concatenate((self.buf[:start], np.empty((self.n, *self.buf.shape[1:]), self.buf.dtype)))
        self.buf[start : self.n] = values
        return start


class _RowSampler:
    """Joint atoms drawn from a spec's float weight rows (``law_groups(n,
    False)``) and base laws, for pending subproblems at mixed indices.

    A level is compiled the first time a round meets it: the fields of each
    row, and an alias table of its rows by mass. A row with a toll law is
    one row per toll atom, so the pick draws the toll too. A row linear in
    the leading index j draws j in closed form (:func:`_closed_form`), any
    other from an alias table of its weights past their end entries below
    ``_DRAW_CUT``, built once per cache key. A base index is a level of one
    row per base-law atom, with -1 (none) as children. The tables of the
    levels compiled in one round are built together, by width; rounds run
    numpy alone.
    """

    def __init__(self, spec: RecurrenceSpec, top: int):
        """A sampler of indices up to ``top``, which no child index exceeds."""
        self.spec = spec
        # alias tables: cells, and by table number the first cell and width
        self._prob, self._alias = _Column(float), _Column(np.int32)
        self._first, self._width = _Column(np.int64), _Column(np.int64)
        self._queued: list = []  # weights of the tables not built yet
        # by index: first row, pick table cell and width (0: not compiled)
        self._row0, self._pick, self._pick_width = np.zeros((3, top + 1), dtype=np.int64)
        # by row: first leading index, table cell (-1: closed form), table
        # width or row size, closed-form b and c, toll, slope, trailing indices
        self._cols = (*(_Column(np.int64) for _ in range(3)), *(_Column(float) for _ in range(4)),
                      _Column(np.int64, (spec.k - 1,)))
        self._fs, self._slot, self._size, self._b, self._c, self._toll, self._slope, self._others = self._cols
        self._keyed: dict = {}  # cache key -> its row of _key_rows
        self._key_rows = _Column(float, (4,))

    def _table(self, weights: np.ndarray) -> int:
        """Queue an alias table of ``weights``; returns its table number."""
        self._queued.append(weights)
        return self._first.n + len(self._queued) - 1

    def _build(self) -> None:
        """Build the queued tables, at once for each width: a table's length
        rounded up to a multiple of a sixteenth of the power of two above it
        (at most an eighth more), the added cells of zero weight."""
        queued, self._queued = self._queued, []
        lens = np.fromiter(map(len, queued), np.int64, len(queued))
        shift = np.maximum(np.frexp(lens)[1] - 4, 0)
        widths = (((lens - 1) >> shift) + 1) << shift
        first = np.empty_like(lens)
        for w in np.unique(widths).tolist():
            tabs = np.flatnonzero(widths == w)
            p = np.zeros((tabs.size, w))
            p[np.arange(w) < lens[tabs, None]] = np.concatenate([queued[t] for t in tabs.tolist()])
            prob, alias = _alias(p)
            first[tabs] = self._prob.add(prob) + w * np.arange(tabs.size)
            self._alias.add(alias)
        self._first.add(first)
        self._width.add(widths)

    def _draw(self, first: np.ndarray, width: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One place per uniform ``u`` in the tables of ``width`` cells at
        ``first``; overwrites ``u`` and ``first``."""
        u *= width
        cell = u.astype(np.int32)
        u -= cell
        first += cell
        jump = self._alias.buf[first]  # to the alias, where u lies past the cell's probability
        jump -= cell
        jump *= u >= self._prob.buf[first]
        cell += jump
        return cell

    def _compile(self, ns: np.ndarray) -> None:
        """Compile every level of ``ns`` not met before."""
        fresh = ns[self._pick_width[ns] == 0]
        if not fresh.size:
            return
        levels, rows = np.unique(fresh), [[] for _ in self._cols]
        picks = [self._level(n, rows) for n in levels.tolist()]
        self._build()
        first, width = self._first.buf, self._width.buf
        self._pick[levels], self._pick_width[levels] = first[picks], width[picks]
        parts = [np.array(part, dtype=col.buf.dtype).reshape(len(rows[0]), *col.buf.shape[1:])
                 for col, part in zip(self._cols, rows)]
        _, slot, size, *_ = parts
        table = slot >= 0  # table numbers become cells
        size[table], slot[table] = width[slot[table]], first[slot[table]]
        for col, part in zip(self._cols, parts):
            col.add(part)

    def _level(self, n: int, rows: list) -> int:
        """Append level n's row fields to the lists ``rows``; returns the
        number of its pick table."""
        row0, masses, spec = self._fs.n + len(rows[0]), [], self.spec
        if n < spec.n0:
            groups = [VectorGroup(-1, np.ones(1), 1, (-1,) * (spec.k - 1), spec.base_laws[n])]
        else:
            groups = spec.law_groups(n, False)
        for g in groups:
            if isinstance(g.toll, Pmf):  # a row per toll atom
                tolls, probs = g.toll.values_f.tolist(), g.toll.probs_f.tolist()
            else:
                tolls, probs = [float(g.toll)], [1.0]
            closed = _closed_form(g, n) if isinstance(g, VectorGroup) and g.poly else None
            if closed is not None:
                size, b, c, total = closed
                head, mass, others = ([g.first_start], [-1], [size], [b], [c]), [float(g.scale) * total], g.others
            else:
                ws, _, others, scales, keys = _unit_rows(g if isinstance(g, VectorBlock) else g.dense(n, False))
                tab, size, lo, totals = self._row_tables(ws, keys).T
                head = ((lo + g.first_start).tolist(), tab.tolist(), size.tolist(), [1.0] * len(ws), [0.0] * len(ws))
                mass, others = (np.asarray(scales, float) * totals).tolist(), others.ravel().tolist()
            R, L = len(mass), len(tolls)
            for col, part in zip(rows, (*(f * L for f in head), [t for t in tolls for _ in range(R)],
                                        [float(g.slope)] * (R * L), others * L)):
                col.extend(part)
            masses += [p * m for p in probs for m in mass]
        total = math.fsum(masses)
        if not (math.isfinite(total) and total > 0 and min(masses) >= 0):
            raise PreconditionError(f"{spec.name}: joint law at n={n} has no mass, or a weight "
                                    "that is negative or not finite")
        self._row0[n] = row0
        return self._table(np.array(masses))

    def _row_tables(self, ws, keys) -> np.ndarray:
        """The rows (table number or -1: closed form, size, first tabulated
        entry, weight sum) of the weight rows ``ws``, once per cache key."""
        if keys is None:
            return np.array([self._row_table(w) for w in ws], dtype=float).reshape(-1, 4)
        keyed, keys = self._keyed, keys.tolist()
        for key, w in zip(keys, ws):
            if key not in keyed:
                keyed[key] = self._key_rows.add([self._row_table(w)])
        return self._key_rows.buf[np.fromiter(map(keyed.__getitem__, keys), np.int64, len(keys))]

    def _row_table(self, w: np.ndarray) -> tuple:
        total = float(w.sum())
        if not (math.isfinite(total) and w.min() >= 0):
            raise PreconditionError(f"{self.spec.name}: joint weight that is negative or not finite")
        if len(w) == 1 or not total > 0:
            return -1, 1, 0, total
        kept = np.flatnonzero(w >= total * _DRAW_CUT)
        lo, hi = int(kept[0]), int(kept[-1]) + 1
        return self._table(w[lo:hi]), hi - lo, lo, total

    def __call__(self, rng: np.random.Generator, ns: np.ndarray) -> tuple:
        """One joint atom per entry of ``ns``: the child indices, the first
        child of every entry, then the next, and the tolls."""
        self._compile(ns)
        r = self._row0[ns]
        r += self._draw(self._pick[ns], self._pick_width[ns], rng.random(ns.size))
        v, b, size = rng.random(ns.size), self._b.buf[r], self._size.buf[r]
        d = self._c.buf[r]  # the root of _closed_form
        d *= v
        d += b * b
        np.sqrt(np.maximum(d, 0.0, out=d), out=d)
        d += b
        np.divide(v, d, out=d)
        d *= 2.0
        lead = np.minimum(d.astype(np.int64), size - 1)
        at = np.flatnonzero(self._slot.buf[r] >= 0)
        lead[at] = self._draw(self._slot.buf[r[at]], size[at], v[at])
        lead += self._fs.buf[r]
        tolls = self._slope.buf[r] * lead
        tolls += self._toll.buf[r]
        if self.spec.k == 1:
            return lead, tolls
        return np.concatenate((lead, self._others.buf[r].T.ravel())), tolls


def _closed_form(g: VectorGroup, n: int):
    """(size, b, c, weight sum) of a polynomial row of degree <= 1, weights
    A + B i at i = 0..size-1, with A >= 0, A + B (size-1) >= 0 and b = (A -
    B/2) / sum > 0, and c = 2B / sum; None for any other row. Its cumulative
    sum scaled to 1 at size is S(x) = (c/4) x^2 + b x, so the offset of a
    draw from the uniform v, the largest i with S(i) <= v, is the floor of
    the root 2v / (b + sqrt(b^2 + c v))."""
    if len(g.poly) > 2:
        return None
    c0, c1 = (float(x) for x in (*g.poly, 0)[:2])
    size, first = n - g.first_start, c0 + c1 * g.first_start
    total = size * first + c1 * size * (size - 1) / 2
    if not (first >= 0 and first + c1 * (size - 1) >= 0 and total > 0 and first - c1 / 2 > 0):
        return None
    return size, (first - c1 / 2) / total, 2 * c1 / total, total


#: particles simulated together by ``sample_many``; bounds its working memory
_BLOCK = 1 << 16


def sample_many(spec: RecurrenceSpec, n, size: int, rng: np.random.Generator) -> np.ndarray:
    """Independent draws of the recurrence value, fully vectorized.

    ``n`` is the start index of every draw, or an integer array of ``size``
    start indices, one per draw. Draws come from the spec's float weight rows
    and base laws (:class:`_RowSampler`, one compile per distinct index met).
    Particles run in blocks of ``_BLOCK``; each round of a block draws one
    joint atom per pending subproblem, however many indices are pending.
    """
    starts = np.asarray(n)
    if not np.issubdtype(starts.dtype, np.integer) or starts.shape not in ((), (size,)):
        raise PreconditionError(f"{spec.name}: start index must be an integer or {size} integers")
    if starts.size and starts.min() < 0:
        raise PreconditionError(
            f"{spec.name}: index must be nonnegative (got {int(starts.min())})"
        )
    starts = np.full(size, starts, dtype=np.int64) if starts.ndim == 0 else starts.astype(np.int64)
    draw = _RowSampler(spec, int(starts.max(initial=0)))
    out = np.zeros(size)
    for lo in range(0, size, _BLOCK):
        # pending (particle, index) pairs; a draw's children (-1 below a base
        # index) are pending in the next round
        ns = starts[lo : lo + _BLOCK]
        block, pids = out[lo : lo + ns.size], np.arange(ns.size)
        for _ in range(10_000):
            ns, tolls = draw(rng, ns)
            block += np.bincount(pids, weights=tolls, minlength=block.size)
            live = ns >= 0
            pids, ns = (np.tile(pids, spec.k) if spec.k > 1 else pids)[live], ns[live]
            if not ns.size:
                break
        else:
            raise CapacityError("sampling recursion failed to terminate")
    return out


# ---------------------------------------------------------------------------
# custom recurrences from JSON
# ---------------------------------------------------------------------------


def _parse_number(x):
    """Fraction strings and JSON numbers as exact rationals; a non-integer
    JSON number is the decimal it spells (0.1 is 1/10). Booleans, null,
    lists and objects are refused."""
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        q = _rational(x)
        return q.numerator if q.denominator == 1 else q
    if type(x) is int:
        return x
    raise TypeError(f"{x!r} is not a number or a fraction string")


def _parse_int(x) -> int:
    """An index, ``k`` or ``n0``: a number or string naming an integer; one
    with a fractional part is refused, never truncated."""
    q = _parse_number(x)
    if q.denominator != 1:
        raise ValueError(f"{x!r} is not an integer")
    return int(q)


def spec_from_json(doc: dict | str | bytes) -> RecurrenceSpec:
    """Build a recurrence from a JSON document tabulating joint-law rows.

    Expected shape::

        {"name": ..., "k": 1 | 2, "n0": ...,
         "base": [<pmf json>, ...],
         "rows": [[n, i1, i2_or_null, toll, prob], ...]}

    Tolls and probabilities may be numbers or fraction strings like "1/3",
    each distinct one parsed once; ``k``, ``n0`` and indices must be
    integers. The spec hands each level's atoms to the solver as weight rows,
    one per (trailing index, toll), so an index outside {0,...,n} is refused
    by the check every row passes. A document that is not JSON or not of
    this shape raises :class:`PreconditionError`.
    """
    try:
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        k, n0, rows = _parse_int(doc["k"]), _parse_int(doc["n0"]), list(doc["rows"])
        name = str(doc.get("name", "custom"))
        base = tuple(Pmf.from_json_dict(b) for b in doc["base"])
    except PreconditionError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError, ZeroDivisionError) as exc:
        raise PreconditionError(f"malformed recurrence document: {type(exc).__name__}: {exc}") from None
    if k not in (1, 2):
        raise PreconditionError("custom recurrences support k in {1, 2}")
    table: dict = {}
    parsed: dict = {}  # each distinct toll or probability, parsed once

    def number(x):
        q = parsed.get(x) if type(x) in (str, int, float) else None
        if q is None:
            q = parsed[x] = _parse_number(x)
        return q

    for row in rows:
        try:
            n, i1, i2, toll, prob = row
            idx = (_parse_int(i1),) if k == 1 else (_parse_int(i1), _parse_int(i2))
            table.setdefault(_parse_int(n), []).append((idx, number(toll), number(prob)))
        except (TypeError, ValueError, ZeroDivisionError, PreconditionError) as exc:
            raise PreconditionError(f"bad joint-law row {row!r}: {exc}") from None

    def groups(n: int, exact: bool) -> list:
        if n not in table:
            raise PreconditionError(f"custom recurrence has no joint law at n={n}")
        return _atom_groups(table[n], exact)

    return RecurrenceSpec(name=name, k=k, n0=n0, base_laws=base, groups=groups)
