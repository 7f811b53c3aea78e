"""Dynamic-programming and simulation engine for divide-and-conquer recurrences.

A recurrence is described by its branching factor ``k``, base laws for small
indices, and for every larger index a finite joint law over subproblem index
tuples and the toll. The law at ``n`` is the joint-law mixture of child-law
convolutions shifted by the toll, solved bottom-up with memoization.

The solver sees a joint law in one encoding: weight rows (:class:`VectorGroup`)
of atoms sharing their trailing indices, with a toll affine in the leading
index; atoms tabulated by hand or in JSON are grouped by trailing indices and
toll. Atoms referring back to ``n``, in any position, are removed
algebraically: an unshifted self term divides the rest by one minus its
weight; an upward-shifted one (next to point masses) adds a shift series,
summed until its remainder drops below the budget.

Every law is a dense numpy row on the integer lattice of spacing ``1/D``,
``D`` the lcm of the denominators of base atoms, tolls and slopes: float64 in
float mode; in exact mode Python-int numerators (object dtype) over one int
denominator per row, reduced by one gcd per level, so no ``Fraction`` is made
while solving. A row mixes over its leading index by one of two kernels, a
matrix-vector product over the stacked child rows (float mode, constant toll)
or shifted adds of the child rows (exact mode or sloped toll), and is then
convolved with the trailing children. A solved level stores only its trimmed
row; its law and moments are built from that row on first read.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import CapacityError, PreconditionError, UnsupportedExactError
from .pmf import MASS_TOL, Pmf, outer_trim

#: mass below which a geometric self-reference series is cut off (the
#: remainder is added to lost_mass)
_GEO_EPS_FLOOR = 1e-30

#: the stacked matrix is given up (rows then mix by shifted adds) before it
#: holds more than this many cells per stored row entry, plus 4096
_STACK_SPARSITY = 16


@dataclass(frozen=True)
class VectorGroup:
    """Joint-law atoms sharing their trailing indices, as one weight row.

    The atom with leading index ``j = first_start + i`` has trailing indices
    ``others``, weight ``scale * weights[i]`` and toll ``toll + slope * j``.
    Exact rows hold ints or Fractions (object arrays) under a rational scale;
    int weights under ``scale = Fraction(1, d)`` reach the solver's integer
    kernels as they are. Float rows hold float64. A float row with slope 0
    mixes as a product with the stacked child rows, any other by shifted adds.
    ``cache_key`` marks weight rows reused across levels, whose inner
    mixtures the engine memoizes (it must identify weights and slope).
    """

    first_start: int
    weights: np.ndarray
    scale: object = 1
    others: tuple = ()
    toll: object = 0
    slope: object = 0
    cache_key: Hashable | None = None


@dataclass(frozen=True)
class SolveOptions:
    """Arithmetic mode and truncation budget for exact solves."""

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

    The joint law at ``n >= n0`` is given either by ``groups(n, exact)`` as
    :class:`VectorGroup` rows, ``exact`` picking rational or float64 weights,
    or by ``joint_law(n)`` as atoms ``(indices, toll, weight)`` with exact
    rational weights and integer or rational tolls (a float toll is read as
    its shortest decimal), which :meth:`law_groups` groups for the solver.
    ``sampler(rng, ns)`` draws one joint atom per entry of the int64 index
    array ``ns`` and returns ``(children, tolls)``: ``k`` child-index arrays
    and a toll array, each aligned with ``ns``. It is required when the joint
    law cannot be tabulated (then only Monte Carlo is available).
    """

    name: str
    k: int
    n0: int
    base_laws: tuple
    joint_law: Callable[[int], Sequence[tuple]] | None = None
    groups: Callable[[int, bool], Sequence[VectorGroup]] | None = None
    sampler: Callable[[np.random.Generator, np.ndarray], tuple] | None = None
    index_law: Callable[[int], Sequence[tuple]] | None = None
    exact_cap: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise PreconditionError("need at least one subproblem copy")
        if self.n0 < 1:
            raise PreconditionError("recursion must start at n0 >= 1")
        if len(self.base_laws) != self.n0:
            raise PreconditionError("need one base law per index below n0")
        if self.joint_law is not None and self.groups is not None:
            raise PreconditionError("give the joint law as atoms or as groups, not both")
        if self.joint_law is None and self.groups is None and self.sampler is None:
            raise PreconditionError("spec needs a joint law or a sampler")

    def supports_exact(self) -> bool:
        return self.joint_law is not None or self.groups is not None

    def _check_index(self, n: int) -> None:
        if n < self.n0:
            raise PreconditionError(
                f"{self.name}: no joint law below n0={self.n0} (requested n={n})"
            )

    def law_groups(self, n: int, exact: bool) -> list:
        """The joint law at ``n`` as weight rows, exact or float64."""
        if self.groups is None:
            return _atom_groups(self.joint_atoms(n), exact)
        self._check_index(n)
        groups = list(self.groups(n, exact))
        if not groups:
            return groups
        # one pass per property over all rows; the weights themselves are
        # checked for being rational where the exact kernels read them
        if exact and (
            any(g.weights.dtype != object for g in groups)
            or not all(isinstance(g.scale, Rational) for g in groups)
        ):
            raise PreconditionError("exact mode requires rational joint weights")
        trailing = [i for g in groups for i in g.others]
        if (
            {len(g.others) for g in groups} != {self.k - 1}
            or min(g.first_start for g in groups) < 0
            or max(g.first_start + len(g.weights) for g in groups) > n + 1
            or (trailing and (min(trailing) < 0 or max(trailing) > n))
        ):
            raise PreconditionError("joint group arity differs from k or index outside {0,...,n}")
        return groups

    def joint_atoms(self, n: int) -> list:
        """The joint law at ``n`` as atoms ``(indices, toll, weight)``, row by row."""
        self._check_index(n)
        if self.groups is not None:
            return [
                ((j, *g.others), g.toll + g.slope * j, g.scale * w)
                for g in self.law_groups(n, True)
                for j, w in enumerate(g.weights.tolist(), g.first_start)
                if w
            ]
        if self.joint_law is None:
            raise UnsupportedExactError(
                f"{self.name}: joint law is sampler-only; exact computation unavailable"
            )
        atoms = list(self.joint_law(n))
        for idx, _, _ in atoms:
            if len(idx) != self.k or min(idx) < 0 or max(idx) > n:
                raise PreconditionError("joint atom arity differs from k or index outside {0,...,n}")
        return atoms

    def joint_arrays(self, n: int) -> tuple:
        """The float rows at ``n`` as arrays ``(indices, tolls, weights)``: int64
        of shape (atoms, k), float64 and float64; one atom per nonzero weight,
        row by row."""
        parts = [(np.empty((0, self.k), dtype=np.int64), np.empty(0), np.empty(0))]
        for g in self.law_groups(n, exact=False):
            w = float(g.scale) * np.asarray(g.weights, dtype=float)
            keep = np.flatnonzero(w)
            j = g.first_start + keep
            idx = np.empty((keep.size, self.k), dtype=np.int64)
            idx[:, 0] = j
            idx[:, 1:] = g.others
            parts.append((idx, float(g.toll) + float(g.slope) * j, w[keep]))
        idx, tolls, weights = zip(*parts)
        return np.concatenate(idx), np.concatenate(tolls), np.concatenate(weights)

    def index_atoms(self, n: int) -> list:
        """Joint law of the index tuple alone (weights collapsed over tolls)."""
        self._check_index(n)
        if self.index_law is not None:
            return list(self.index_law(n))
        acc: dict = {}
        for idx, _, w in self.joint_atoms(n):
            acc[idx] = acc.get(idx, 0) + w
        return list(acc.items())


def _atom_groups(atoms: Sequence[tuple], exact: bool) -> list:
    """Joint-law atoms as slope-0 weight rows, one per (trailing indices, toll)."""
    rows: dict = {}
    for idx, toll, w in atoms:
        if exact and not isinstance(w, Rational):
            raise PreconditionError("exact mode requires rational joint weights")
        key = (tuple(idx[1:]), toll if type(toll) is int else _rational(toll))
        rows.setdefault(key, []).append((idx[0], w if exact else float(w)))
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
        self._stackable = not self._exact  # see _mat_write
        self._mat: np.ndarray | None = None
        self._col_lo = 0
        self._inner_cache: dict = {}
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
            for off, arr, _, c, _ in terms:
                acc[off - lo : off - lo + len(arr)] += arr if c == 1 else c * arr
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
            base = spec.base_laws[m]
            ks = [int(_rational(v) * self._den) for v in base.values]
            row, den = self._zeros(m, ks[-1] - ks[0] + 1), 1
            if exact:  # float probabilities (e.g. from JSON) promote losslessly
                qs = [Fraction(p) for p in base.probs]
                den = math.lcm(*(q.denominator for q in qs))
                for k, q in zip(ks, qs):
                    row[k - ks[0]] = q.numerator * (den // q.denominator)
            else:
                for k, p in zip(ks, base.probs):
                    row[k - ks[0]] = float(p)
            self._publish(m, ks[0], row, den, 0 * self._budget)
            return
        groups = spec.law_groups(m, exact)
        den = self._den
        for g in groups:
            for t in (g.toll, g.slope):
                if type(t) is not int:
                    den = math.lcm(den, _rational(t).denominator)
        if den != self._den:
            self._refine(m, den)
        if not exact and self.opts.tail_eps > 0:
            # drop the longest run of trailing rows (models list rows heaviest
            # first) whose mass fits in tail_eps/4; it lands in lost_mass
            cut, dropped = len(groups), 0.0
            while cut > 1:
                dropped += groups[cut - 1].scale * float(groups[cut - 1].weights.sum())
                if dropped > self.opts.tail_eps / 4.0:
                    break
                cut -= 1
            groups = groups[:cut]

        self_terms: list = []
        pieces: list = []  # (offset, array, denominator, scale, None) contributions
        for g in groups:
            weights, fs = g.weights, g.first_start
            # self-referential atoms: n in a trailing position makes the whole
            # row refer back, n as the leading index one entry of it
            if m in g.others:
                selfs, weights = np.flatnonzero(weights).tolist(), weights[:0]
            else:
                selfs = [m - fs] if fs + len(weights) > m and weights[m - fs] else []
                weights = weights[: m - fs]
            self_terms += [self._self_atom_term(m, g, i) for i in selfs]
            inner = self._inner_mix(m, g, weights)
            if inner is None:
                continue
            off, vec, vden = inner
            for i in g.others:
                off_i, arr_i, den_i = self._rows[i]
                vec = self._convolve(m, vec, arr_i)
                off, vden = off + off_i, vden * den_i
            pieces.append((off + self._units(g.toll), vec, vden, g.scale, None))

        if not pieces:
            raise PreconditionError(f"law at n={m} has no mass")
        lo, acc, den = self._add_rows(m, pieces)
        acc, den = self._eliminate_self(m, acc, den, self_terms)
        self._publish(m, lo, acc, den, self._budget)

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
        self._mat = None
        for i, (off, arr, _) in enumerate(rows):
            self._mat_write(i, off, arr)

    def _self_atom_term(self, m: int, g: VectorGroup, i: int) -> tuple:
        """Reduce the self-referential atom ``i`` of row ``g`` to (coefficient,
        lattice shift): the unknown law may occur once, next to point-mass
        factors only."""
        j = g.first_start + i
        idx, shift = (j, *g.others), self._units(g.toll + g.slope * j)
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
        w = g.weights[i] * g.scale
        return (_exact_weight(w) if self._exact else w), shift

    def _eliminate_self(self, m: int, acc: np.ndarray, den: int, self_terms: list) -> tuple:
        """Remove self-referential atoms from the mixture ``acc / den`` of
        smaller terms; returns the new (array, denominator).

        An unshifted self weight c0 divides the rest by 1 - c0. Upward shifts
        add a geometric series, summed until its remainder drops below the
        truncation budget; the remainder stays missing and lands in lost_mass.
        """
        if not self_terms:
            return acc, den
        c0 = sum(c for c, s in self_terms if s == 0)
        shifted = [(c, s) for c, s in self_terms if s != 0]
        if any(s < 0 for _, s in shifted):
            raise UnsupportedExactError("self-referential shifts must be nonnegative")
        if c0 + sum(c for c, _ in shifted) >= 1:
            raise PreconditionError(
                f"{self.spec.name}: joint law at n={m} recurses on n with probability 1"
            )
        denom = 1 - c0
        if self._exact:
            denom = Fraction(denom)
            if denom != 1:
                acc, den = acc * denom.denominator, den * denom.numerator
        else:
            acc = acc / denom
        if not shifted:
            return acc, den
        ratio = float(sum(c for c, _ in shifted) / denom)
        eps = max(self.opts.tail_eps / 4.0, _GEO_EPS_FLOOR)
        smax = max(s for _, s in shifted)
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
        nz = np.flatnonzero(acc)
        if nz.size == 0:
            raise PreconditionError(f"law at n={m} has no mass")
        atoms = acc[nz]
        positive = atoms > 0  # False for NaN too
        if not positive.all():
            p = atoms[int(np.argmin(positive))]
            p = Fraction(p, den) if self._exact else p
            raise PreconditionError(f"law at n={m}: atom probability {p} is not positive")
        first, last, _ = outer_trim(atoms, budget * den if self._exact else budget)
        row = acc[nz[first] : nz[last] + 1]
        nums = row.tolist() if self._exact else None
        mass = sum(nums) / den if self._exact else float(row.sum())
        if mass > 1.0 + MASS_TOL * 8:
            raise PreconditionError(f"law at n={m}: mass {mass} deviates from 1 beyond tolerance")
        if self._exact:
            g = math.gcd(den, *nums)
            if g > 1:
                row, den = row // g, den // g
        off = lo + int(nz[first])
        self._rows.append((off, row, den))
        self._mat_write(m, off, row)
        self._levels.append(_Level(off, row, den, self._den))

    # ---- inner mixtures over the leading index ----

    def _mat_write(self, m: int, off: int, arr: np.ndarray) -> None:
        """Store row m in the stacked matrix (float mode), growing it as needed;
        give it up rather than let drifting rows span levels x global width."""
        if not self._stackable:
            return
        lo, hi = off, off + len(arr) - 1
        mat = self._mat
        if mat is None:
            col_lo, width, height = lo - 16, max(64, hi - lo + 1 + 32), 256
        else:
            col_lo, (height, width) = self._col_lo, mat.shape
            if lo < col_lo or hi >= col_lo + width:
                col_lo, width = min(col_lo, lo - 16), max(col_lo + width, hi + 17) - min(col_lo, lo - 16)
            height = max(2 * height, m + 1) if m >= height else height
        if mat is None or (height, width) != mat.shape:
            stored = sum(len(r[1]) for r in self._rows)
            if height * width > _STACK_SPARSITY * (stored + 4096):
                self._mat, self._stackable = None, False
                return
            grown = np.zeros((height, width))
            if mat is not None:  # cached inner mixtures keep their absolute offsets
                shift = self._col_lo - col_lo
                grown[: mat.shape[0], shift : shift + mat.shape[1]] = mat
            self._mat, self._col_lo = grown, col_lo
        self._mat[m, lo - col_lo : hi + 1 - col_lo] = arr

    def _inner_mix(self, m: int, g: VectorGroup, weights: np.ndarray):
        """Mixture over the leading index of a row, each child shifted by its
        ``slope * j``, as (offset, dense array, denominator); None if it has
        no mass."""
        # a cached mixture had mass, and its key identifies these weights
        cacheable = g.cache_key is not None and len(weights) == len(g.weights)
        if cacheable and g.cache_key in self._inner_cache:
            return self._inner_cache[g.cache_key]
        if not weights.any():
            return None
        fs = g.first_start
        if g.slope == 0 and self._mat is not None:
            lo, vec, den = self._col_lo, weights @ self._mat[fs : fs + len(weights)], 1
        else:
            terms = []
            for i in np.flatnonzero(weights).tolist():
                off, arr, row_den = self._rows[fs + i]
                atoms = self._atoms_of(fs + i) if self._exact else None
                terms.append((off + self._units(g.slope * (fs + i)), arr, row_den, weights[i], atoms))
            lo, vec, den = self._add_rows(m, terms)
        nz = np.flatnonzero(vec)
        if nz.size == 0:
            return None
        out = (lo + int(nz[0]), vec[nz[0] : nz[-1] + 1], den)
        if cacheable:
            self._inner_cache[g.cache_key] = out
        return out


def _lattice_value(k: int, den: int):
    q = Fraction(k, den)
    return q.numerator if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# module-level operation surface
# ---------------------------------------------------------------------------


def exact_distribution(spec: RecurrenceSpec, n: int, opts: SolveOptions | None = None) -> Pmf:
    """Solve the recurrence exactly at index ``n`` (memoized bottom-up)."""
    return Solver(spec, opts).law(n)


def moment_table(solver_or_spec, ns: Sequence[int], opts: SolveOptions | None = None) -> list:
    """Mean, variance and third absolute central moment per requested index."""
    solver = solver_or_spec if isinstance(solver_or_spec, Solver) else Solver(solver_or_spec, opts)
    return solver.moment_rows(ns)


class _TableSampler:
    """Inverse-CDF sampler over a tabulated joint law, cached per index."""

    def __init__(self, spec: RecurrenceSpec):
        self.spec = spec
        self._tables: dict = {}

    def _table(self, n: int) -> tuple:
        tab = self._tables.get(n)
        if tab is None:
            atoms = self.spec.joint_atoms(n)
            idx = np.array([a[0] for a in atoms], dtype=np.int64)
            tolls = np.array([float(a[1]) for a in atoms])
            cum = np.cumsum([float(a[2]) for a in atoms])
            tab = self._tables[n] = (idx, tolls, cum / cum[-1])
        return tab

    def __call__(self, rng: np.random.Generator, ns: np.ndarray) -> tuple:
        u = rng.random(ns.size)
        children = np.empty((self.spec.k, ns.size), dtype=np.int64)
        tolls = np.empty(ns.size)
        # particles sorted by index, one searchsorted per distinct index
        order = np.argsort(ns, kind="stable")
        for sel in np.split(order, np.flatnonzero(np.diff(ns[order])) + 1):
            if sel.size:
                idx, tab_tolls, cum = self._table(int(ns[sel[0]]))
                picks = np.minimum(np.searchsorted(cum, u[sel], side="right"), len(cum) - 1)
                children[:, sel] = idx[picks].T
                tolls[sel] = tab_tolls[picks]
        return list(children), tolls


#: particles simulated together by ``sample_many``; bounds its working memory
_BLOCK = 1 << 16


def sample_many(
    spec: RecurrenceSpec, n, size: int, rng: np.random.Generator, *, reps=None
) -> np.ndarray:
    """Independent draws of the recurrence value, fully vectorized.

    ``n`` is the start index of every draw, or an integer array of ``size``
    start indices, one per draw. With ``reps``, ``n`` is instead an array of
    group start indices, ``reps[g]`` draws start at ``n[g]``, ``size`` is
    ``sum(reps)``, and the result is the sum of each group's draws; a caller
    that needs only group means then never holds every draw.

    Particles run in blocks of ``_BLOCK``; in a block each round makes one
    sampler call over every pending subproblem, so a round costs O(pending)
    numpy work however many indices are pending.
    """
    starts = np.asarray(n)
    if reps is None:
        ok = starts.shape in ((), (size,))
        counts = np.ones(size, dtype=np.int64) if starts.ndim else np.array([size])
    else:
        counts = np.asarray(reps)
        ok = (
            starts.ndim == 1
            and counts.shape == starts.shape
            and np.issubdtype(counts.dtype, np.integer)
            and (starts.size == 0 or counts.min() >= 0)
            and int(counts.sum()) == size
        )
    if not np.issubdtype(starts.dtype, np.integer) or not ok:
        raise PreconditionError(
            f"{spec.name}: start index must be an integer, {size} integers, "
            f"or group starts with counts summing to {size}"
        )
    if starts.size and starts.min() < 0:
        raise PreconditionError(
            f"{spec.name}: index must be nonnegative (got {int(starts.min())})"
        )
    starts = np.atleast_1d(starts).astype(np.int64)
    ends = np.cumsum(counts)
    draw = spec.sampler or _TableSampler(spec)
    base = [(b.values_f, np.cumsum(b.probs_f) / float(np.sum(b.probs_f))) for b in spec.base_laws]
    out = np.empty(size) if reps is None else np.zeros(starts.size)
    for lo in range(0, size, _BLOCK):
        group = np.searchsorted(ends, np.arange(lo, min(lo + _BLOCK, size)), side="right")
        draws = _sample_block(spec, draw, base, starts[group], rng)
        if reps is None:
            out[lo : lo + _BLOCK] = draws
        else:
            out += np.bincount(group, weights=draws, minlength=starts.size)
    return out


def _sample_block(spec: RecurrenceSpec, draw, base: list, ns: np.ndarray, rng) -> np.ndarray:
    """Draws for one block of particles started at indices ``ns``.

    Pending subproblems are (particle, index) pairs; base indices resolve
    from their laws, every other pending index takes one joint draw.
    """
    size = ns.size
    totals = np.zeros(size)
    pids = np.arange(size, dtype=np.int64)
    rounds = 0
    while pids.size:
        rounds += 1
        if rounds > 10_000:
            raise CapacityError("sampling recursion failed to terminate")
        small = ns < spec.n0
        if small.any():
            for b in np.unique(ns[small]).tolist():
                at = pids[ns == b]
                vals, cum = base[b]
                if len(vals) == 1:
                    totals += vals[0] * np.bincount(at, minlength=size)
                else:
                    picks = np.minimum(np.searchsorted(cum, rng.random(at.size)), len(vals) - 1)
                    totals += np.bincount(at, weights=vals[picks], minlength=size)
            pids, ns = pids[~small], ns[~small]
            if not pids.size:
                break
        children, tolls = draw(rng, ns)
        totals += np.bincount(pids, weights=tolls, minlength=size)
        pids = np.tile(pids, spec.k)
        ns = np.concatenate([np.asarray(c, dtype=np.int64) for c in children])
    return totals


def sample(spec: RecurrenceSpec, n: int, rng: np.random.Generator):
    """One draw of the recurrence value at ``n`` with independent subcalls."""
    val = float(sample_many(spec, n, 1, rng)[0])
    return int(val) if val.is_integer() else val


# ---------------------------------------------------------------------------
# custom recurrences from JSON
# ---------------------------------------------------------------------------


def _parse_number(x):
    """Fraction strings and JSON numbers as exact rationals; a non-integer
    JSON number is the decimal it spells (0.1 is 1/10)."""
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        q = _rational(x)
        return q.numerator if q.denominator == 1 else q
    return x


def spec_from_json(doc: dict | str) -> RecurrenceSpec:
    """Build a recurrence from a JSON document tabulating joint-law rows.

    Expected shape::

        {"name": ..., "k": 1 | 2, "n0": ...,
         "base": [<pmf json>, ...],
         "rows": [[n, i1, i2_or_null, toll, prob], ...]}

    Tolls and probabilities may be numbers or fraction strings like "1/3".
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    k = int(doc["k"])
    if k not in (1, 2):
        raise PreconditionError("custom recurrences support k in {1, 2}")
    base = tuple(Pmf.from_json_dict(b) for b in doc["base"])
    table: dict = {}
    for row in doc["rows"]:
        try:
            n, i1, i2, toll, prob = row
            idx = (int(i1),) if k == 1 else (int(i1), int(i2))
            table.setdefault(int(n), []).append((idx, _parse_number(toll), _parse_number(prob)))
        except (TypeError, ValueError, ZeroDivisionError, PreconditionError) as exc:
            raise PreconditionError(f"bad joint-law row {row!r}: {exc}") from None

    def joint_law(n: int) -> list:
        if n not in table:
            raise PreconditionError(f"custom recurrence has no joint law at n={n}")
        return table[n]

    return RecurrenceSpec(
        name=str(doc.get("name", "custom")),
        k=k,
        n0=int(doc["n0"]),
        base_laws=base,
        joint_law=joint_law,
    )
