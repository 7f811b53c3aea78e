"""Finite discrete probability laws with exact atoms and honest mass bookkeeping.

A :class:`Pmf` is what the solver hands out for one index: strictly
increasing atoms (ints or :class:`fractions.Fraction`, floats in floating
mode) with probabilities carried as fractions (exact mode) or floats, plus
the mass lost to truncation. It offers affine maps, moments, cached float
views and the JSON encoding; distances read it through ``metrics._law``.

Truncation has one rule, :func:`outer_trim`, which the solver applies at
every level. Mass it removes is accumulated in ``lost_mass`` and is never
silently renormalized away, so ``sum(probs) + lost_mass == 1`` always holds
within ``MASS_TOL``.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, PreconditionError

MASS_TOL = 1e-12
#: floating-mode atoms merge when |x - y| <= VALUE_MERGE_REL * max(1, |x|)
VALUE_MERGE_REL = 1e-12


def _is_exact_number(x) -> bool:
    return isinstance(x, Rational)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x)  # exact binary expansion of a float


def _canonical_value(x):
    """Normalize Fraction-with-denominator-1 to int; leave floats alone."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _values_equal(a, b) -> bool:
    if _is_exact_number(a) and _is_exact_number(b):
        return a == b
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= VALUE_MERGE_REL * max(1.0, abs(fa))


def _strictly_above(a, b) -> bool:
    """a > b, exactly for rationals (distinct ones may share a float)."""
    if _is_exact_number(a) and _is_exact_number(b):
        return a > b
    return float(a) > float(b)


def outer_trim(probs: Sequence, eps) -> tuple:
    """The outer-truncation rule: repeatedly drop the smaller of the two
    outermost positive probabilities (the lower one on a tie) while the total
    dropped stays within ``eps``. Returns (first kept index, last kept index,
    mass dropped). The atoms are read as one Python list, not as numpy
    scalars one by one."""
    atoms = probs.tolist() if isinstance(probs, np.ndarray) else probs
    lo, hi = 0, len(atoms) - 1
    removed = 0
    while lo < hi:
        side_lo = atoms[lo] <= atoms[hi]
        cand = atoms[lo] if side_lo else atoms[hi]
        if removed + cand > eps:
            break
        removed = removed + cand
        if side_lo:
            lo += 1
        else:
            hi -= 1
    return lo, hi, removed


@dataclass(frozen=True)
class Pmf:
    """A finite discrete law: strictly increasing atoms plus tracked lost mass."""

    values: tuple
    probs: tuple
    lost_mass: object = 0.0

    def __post_init__(self):
        if len(self.values) != len(self.probs):
            raise PreconditionError("values and probs length mismatch")
        if not self.values:
            raise PreconditionError("pmf needs at least one atom")
        vals = self.values
        kinds = set(map(type, vals))
        # all ints or all floats compare as they are; anything else pair by pair
        above = operator.gt if kinds == {int} or kinds == {float} else _strictly_above
        if not all(map(above, vals[1:], vals)):
            v = next(v for v, u in zip(vals[1:], vals) if not _strictly_above(v, u))
            raise PreconditionError(f"atom values not strictly increasing near {v}")
        for p in self.probs:
            if not p > 0:
                raise PreconditionError(f"atom probability {p} is not positive")
        lost = self.lost_mass
        if lost < 0:
            raise PreconditionError("lost_mass must be nonnegative")
        total = math.fsum(self.probs) + float(lost)
        if abs(total - 1.0) > MASS_TOL * 8:
            raise PreconditionError(f"mass {total} deviates from 1 beyond tolerance")

    # ---- constructors ----

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple], lost_mass=0.0) -> "Pmf":
        """Build from (value, prob) pairs; sorts, merges equal atoms, drops zeros."""
        pairs = [(v, p) for v, p in atoms if p != 0]
        if not pairs:
            raise PreconditionError("no atoms with positive mass")
        # exact atoms closer than float resolution are ordered by their value
        pairs.sort(key=lambda vp: (float(vp[0]), vp[0]))
        merged_v: list = []
        merged_p: list = []
        for v, p in pairs:
            if merged_v and _values_equal(merged_v[-1], v):
                merged_p[-1] = merged_p[-1] + p
            else:
                merged_v.append(_canonical_value(v))
                merged_p.append(p)
        return cls(tuple(merged_v), tuple(merged_p), lost_mass)

    @classmethod
    def delta(cls, value) -> "Pmf":
        """Point mass at ``value``."""
        exact = _is_exact_number(value)
        return cls((_canonical_value(value),), (Fraction(1) if exact else 1.0,))

    # ---- cached float views ----

    @cached_property
    def values_f(self) -> np.ndarray:
        return np.array([float(v) for v in self.values], dtype=float)

    @cached_property
    def probs_f(self) -> np.ndarray:
        return np.array([float(p) for p in self.probs], dtype=float)

    @property
    def exact(self) -> bool:
        """True when both atoms and probabilities are exact rationals."""
        return all(_is_exact_number(v) for v in self.values) and all(
            _is_exact_number(p) for p in self.probs
        )

    # ---- algebra ----

    def affine(self, scale, shift=0) -> "Pmf":
        """Map atoms x -> scale*x + shift; probabilities are unchanged."""
        if scale == 0:
            raise PreconditionError("affine scale must be nonzero")
        mapped = [scale * v + shift for v in self.values]
        if any(isinstance(v, float) and not math.isfinite(v) for v in mapped):
            raise CapacityError("atom value overflow in affine map")
        if scale > 0:
            return Pmf(tuple(_canonical_value(v) for v in mapped), self.probs, self.lost_mass)
        return Pmf(
            tuple(_canonical_value(v) for v in reversed(mapped)),
            tuple(reversed(self.probs)),
            self.lost_mass,
        )

    def moment(self, k: int, central: bool = False):
        """k-th raw or central moment; exact when atoms and probs are rational."""
        if k < 1:
            raise PreconditionError("moment order must be >= 1")
        if self.exact:
            if central:
                mu = self.moment(1)
                return sum(p * (v - mu) ** k for v, p in zip(self.values, self.probs))
            return sum(p * v**k for v, p in zip(self.values, self.probs))
        v = self.values_f
        if central:
            v = v - float(np.dot(v, self.probs_f))
        return float(np.dot(v**k, self.probs_f))

    # ---- serialization ----

    def to_json_dict(self) -> dict:
        atoms = []
        for v, p in zip(self.values, self.probs):
            fv = _as_fraction(v)
            atoms.append([int(fv.numerator), int(fv.denominator), float(p)])
        return {"atoms": atoms, "lost_mass": float(self.lost_mass)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Pmf":
        atoms = [
            (_canonical_value(Fraction(int(num), int(den))), float(p))
            for num, den, p in doc["atoms"]
        ]
        return cls.from_atoms(atoms, float(doc.get("lost_mass", 0.0)))

    def __repr__(self) -> str:  # compact, atoms elided when long
        inner = ", ".join(
            f"{v}: {p}" for v, p in list(zip(self.values, self.probs))[:6]
        )
        more = "" if len(self.values) <= 6 else f", ... ({len(self.values)} atoms)"
        lost = f", lost={float(self.lost_mass):.2e}" if self.lost_mass else ""
        return f"Pmf({{{inner}{more}}}{lost})"
