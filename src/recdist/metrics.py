"""Distances between finite discrete laws and normal mixtures.

The Zolotarev distance of order three is evaluated through its integral
representation

    zeta3(X, Y) = 1/2 * integral |E(X-t)+^2 - E(Y-t)+^2| dt,

valid when the first two moments of X and Y agree. The representation is a
known identity for ideal metrics rather than something this artifact can take
on faith, so the library offers certification through
:func:`zeta3_lower_probe`: it rebuilds the extremal test function explicitly (a
member of the defining function class, evaluated by closed-form expectations)
and bounds the integral value from below. Nothing calls it implicitly.

Every distance reads one view of its laws (:func:`_law`): sorted point masses
(the atoms of a Pmf, or a mixture's zero-sd components merged by mean),
normal components with sd > 0, and the lost mass. Point masses are always
evaluated from prefix and suffix moment sums; normal components always
through one blocked kernel.

The integrand H(t) = E(X-t)+^2 - E(Y-t)+^2 is taken from its small side.
Right of the mean of X it is evaluated as written; left of it, as
E(t-Y)+^2 - E(t-X)+^2, since there E(X-t)+^2 and E(Y-t)+^2 both grow like t^2
and their difference would carry their rounding error. The two forms differ
by the quadratic E(X-t)^2 - E(Y-t)^2, which vanishes for laws with equal mass
and first two moments; its coefficients are the gaps in mass (lost mass
included), mean and second moment, and the exact integral of its absolute
value left of the mean is charged to the error bound.

Between point masses only, H is a quadratic on each piece of the merged
atoms (the mean of X included), read from the same sums, and |H| is
integrated exactly; the bound is the charge above plus a rounding envelope
of those sums, integrated the same way. Anything involving a
normal component uses adaptive Gauss-Kronrod quadrature (the 21 Kronrod
nodes hold the 10 Gauss nodes, so one set of evaluations gives the value and
its error estimate) with an analytic bound on the tail remainder.

The normal components are evaluated at many points (excess squares and the
CDF) through one blocked kernel: the (points x components) product is worked
through in blocks of ``_BLOCK`` pairs with in-place ufuncs, and each block is
contracted with its coefficients by ``np.einsum``, which never enters
threaded BLAS, so memory stays bounded and the cost does not depend on the
machine's load. The probe finds the sign changes of the integrand by
bisecting all bracketed roots at once on the quadrature's integrand and
skeleton, and takes expectations of its piecewise cubic in blocks of
(pieces x components), anchored at the mean of the law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np
from scipy.special import ndtr

from .errors import MomentMismatchError, PreconditionError
from .pmf import Pmf

_SQRT2PI = math.sqrt(2.0 * math.pi)
#: integration window reaches this many standard deviations past the extreme
#: component; the remainder beyond it is bounded analytically.
_WINDOW_SDS = 12.0
_QUAD_ATOL = 1e-12
_QUAD_RTOL = 1e-10
_MOMENT_MATCH_TOL = 1e-9


def _phi(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * np.square(z)) / _SQRT2PI


@dataclass(frozen=True, eq=False)
class NormalMixture:
    """Finite mixture of normals; zero-sd components are point masses. Its
    weights, means and sds are read-only float64 arrays of equal length."""

    weights: np.ndarray
    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self):
        w, m, s = (np.array(v, dtype=float) for v in (self.weights, self.means, self.sds))
        if w.ndim != 1 or not w.shape == m.shape == s.shape:
            raise PreconditionError("mixture component arrays differ in length")
        if not w.size:
            raise PreconditionError("mixture needs at least one component")
        if not (w >= 0).all():
            raise PreconditionError("mixture weights must be nonnegative")
        if not (s >= 0).all():
            raise PreconditionError("mixture sds must be nonnegative")
        total = math.fsum(w)
        if abs(total - 1.0) > 1e-12:
            raise PreconditionError(f"mixture weights sum to {total}, not 1")
        for name, arr in (("weights", w), ("means", m), ("sds", s)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_components(cls, comps: Sequence[tuple]) -> "NormalMixture":
        arr = np.array(list(comps), dtype=float).reshape(-1, 3)
        arr = arr[arr[:, 0] != 0]
        if not arr.size:
            raise PreconditionError("no components with positive weight")
        return cls(arr[:, 0], arr[:, 1], arr[:, 2])

    @classmethod
    def std_normal(cls) -> "NormalMixture":
        return cls.normal(0.0, 1.0)

    @classmethod
    def normal(cls, mean: float, sd: float) -> "NormalMixture":
        return cls([1.0], [mean], [sd])

    @property
    def mean(self) -> float:
        return float(np.dot(self.weights, self.means))

    @property
    def variance(self) -> float:
        return float(np.dot(self.weights, np.square(self.means) + np.square(self.sds)) - self.mean**2)

    def scaled_shifted(self, scale: float, shift: float = 0.0) -> "NormalMixture":
        if scale == 0:
            raise PreconditionError("scale must be nonzero")
        return NormalMixture(self.weights, scale * self.means + shift, abs(scale) * self.sds)

    def cdf(self, ts: np.ndarray) -> np.ndarray:
        return _law(self).cdf(ts)

    def is_discrete(self) -> bool:
        return not self.sds.any()


Dist = Union[Pmf, NormalMixture]


@dataclass(frozen=True)
class MetricReport:
    """A computed distance plus an absolute error bound.

    The bound covers quadrature residuals, analytic tail remainders, the
    residue left of the mean that the two-sided integrand drops (the exact
    integral of |E(X-t)^2 - E(Y-t)^2|, nonzero when mass, mean or second
    moment differ, lost mass included), and the contribution of any truncated
    (lost) probability mass. Between point masses only, the integral itself
    is exact, and the bound is that residue, the lost mass and a rounding
    envelope of the moment sums H is read from. With a normal component it
    does not bound the rounding of H right of the mean. ``adjustment`` records the
    (shift, scale - 1) applied to the second argument to match moments
    exactly before integrating.
    """

    value: float
    abs_error_bound: float
    adjustment: tuple = (0.0, 0.0)

    def to_json_dict(self) -> dict:
        return {"value": self.value, "abs_error_bound": self.abs_error_bound}


# ---------------------------------------------------------------------------
# partial moments
# ---------------------------------------------------------------------------


def normal_partial_square_moment(t, mean=0.0, sd=1.0):
    """E (X - t)+^2 for X ~ Normal(mean, sd^2), in closed form.

    For sd = 0 this degenerates to ((mean - t)+)^2.
    """
    if sd < 0:
        raise PreconditionError("sd must be nonnegative")
    t_arr = np.asarray(t, dtype=float)
    if sd == 0:
        out = np.square(np.maximum(mean - t_arr, 0.0))
    else:
        z = (t_arr - mean) / sd
        out = sd * sd * ((1.0 + np.square(z)) * ndtr(-z) - z * _phi(z))
        out = np.maximum(out, 0.0)
    return float(out) if np.isscalar(t) else out


# ---------------------------------------------------------------------------
# the law view
# ---------------------------------------------------------------------------

_EMPTY = np.zeros(0)


@dataclass(frozen=True, eq=False)
class _Law:
    """A law as every distance reads it: point masses at sorted ``atoms``
    with ``masses``, normal components (``means``, ``sds`` > 0, ``weights``),
    and the ``lost`` mass."""

    atoms: np.ndarray
    masses: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    weights: np.ndarray
    lost: float = 0.0

    @cached_property
    def mean(self) -> float:
        return float(self.atoms @ self.masses + self.means @ self.weights)

    @cached_property
    def variance(self) -> float:
        mu = self.mean
        spread = np.square(self.means - mu) + np.square(self.sds)
        return float(np.square(self.atoms - mu) @ self.masses + spread @ self.weights)

    def affine(self, scale: float, shift: float) -> "_Law":
        """The law of scale * X + shift, for scale > 0."""
        return _Law(
            scale * self.atoms + shift, self.masses, scale * self.means + shift, scale * self.sds,
            self.weights, self.lost,
        )

    def cdf(self, ts) -> np.ndarray:
        """P(X <= t) at every t, over retained mass."""
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        out = np.zeros(flat.size)
        _blocked_sum(flat, self.means, self.sds, self.weights, _normal_cdf_kernel, out)
        if self.atoms.size:
            below = _atom_sums(self, 0.0)[1][0]
            out += below[np.searchsorted(self.atoms, flat, side="right")]
        return out.reshape(ts.shape)


def _law(d: Dist) -> _Law:
    """The view of a Pmf or a NormalMixture; a mixture's zero-sd components
    become point masses, merged where their means are equal."""
    if isinstance(d, Pmf):
        return _Law(d.values_f, d.probs_f, _EMPTY, _EMPTY, _EMPTY, float(d.lost_mass))
    point = d.sds == 0
    atoms, which = np.unique(d.means[point], return_inverse=True)
    masses = np.bincount(which, weights=d.weights[point], minlength=atoms.size)
    normal = ~point
    return _Law(atoms, masses, d.means[normal], d.sds[normal], d.weights[normal])


def _atom_sums(d: _Law, center: float) -> tuple:
    """(suffix, prefix): (3, atoms + 1) arrays whose column i sums
    (w, w u, w u^2), u = atom - center, over the point masses from index i on
    (suffix) and below index i (prefix)."""
    u, w = d.atoms - center, d.masses
    sums = np.stack([w, w * u, w * u * u])
    zero = np.zeros((3, 1))
    suffix = np.concatenate([np.cumsum(sums[:, ::-1], axis=1)[:, ::-1], zero], axis=1)
    prefix = np.concatenate([zero, np.cumsum(sums, axis=1)], axis=1)
    return suffix, prefix


# ---------------------------------------------------------------------------
# blocked normal kernels
# ---------------------------------------------------------------------------

#: (point, component) pairs a normal kernel evaluates at once. It bounds the
#: working memory of every mixture evaluation whatever the numbers of points
#: and components; blocks that outgrow the CPU cache run slower, not faster.
_BLOCK = 1 << 14


def _normal_excess_kernel(z, a, b):
    """(1 + z^2) Phi(-z) - z phi(z), clipped at 0, in place of z (a, b scratch)."""
    np.square(z, out=a)
    a *= -0.5
    np.exp(a, out=a)
    a /= _SQRT2PI
    a *= z
    np.negative(z, out=b)
    ndtr(b, out=b)
    np.square(z, out=z)
    z += 1.0
    z *= b
    z -= a
    return np.maximum(z, 0.0, out=z)


def _normal_cdf_kernel(z, a, b):
    return ndtr(z, out=z)


def _blocked_sum(ts, centers, scales, coefs, kernel, out) -> None:
    """out += sum_j coefs[j] * kernel((ts - centers[j]) / scales[j]), one block
    of at most _BLOCK (point, component) pairs at a time."""
    ncomp = centers.size
    if ncomp == 0:
        return
    cols = min(ncomp, _BLOCK)
    rows = _BLOCK // cols
    bufs = np.empty((3, rows * cols))
    for j in range(0, ncomp, cols):
        c = centers[j : j + cols]
        for i in range(0, ts.size, rows):
            t = ts[i : i + rows]
            z, a, b = (buf[: t.size * c.size].reshape(t.size, c.size) for buf in bufs)
            np.subtract(t[:, None], c, out=z)
            z /= scales[j : j + cols]
            out[i : i + rows] += np.einsum("ij,j->i", kernel(z, a, b), coefs[j : j + cols])


def _excess_squares(d: _Law, center: float) -> tuple:
    """(E (X - t)+^2, E (t - X)+^2) as batched functions of 1-D t: point
    masses from their moment sums about ``center``, normal components through
    the blocked kernel (on the reflected law for the lower side)."""
    suffix, prefix = _atom_sums(d, center)
    coefs = d.weights * np.square(d.sds)

    def side(sums, how, sign):
        means = sign * d.means

        def excess(ts):
            out = np.zeros(ts.size)
            _blocked_sum(sign * ts, means, d.sds, coefs, _normal_excess_kernel, out)
            if d.atoms.size:
                a, b, c = sums[:, np.searchsorted(d.atoms, ts, side=how)]
                u = ts - center
                out += c - 2.0 * u * b + u * u * a
            return out

        return excess

    return side(suffix, "right", 1.0), side(prefix, "left", -1.0)


def _excess_gap(x: _Law, y: _Law) -> tuple:
    """H(t) = E(X-t)+^2 - E(Y-t)+^2 from its small side, as a batched function
    of t, and the center (the mean of x) where it switches sides: right of
    it as written, left of it as E(t-Y)+^2 - E(t-X)+^2. The two differ by
    the quadratic that :func:`_residue_charge` integrates."""
    center = x.mean
    (above_x, below_x), (above_y, below_y) = _excess_squares(x, center), _excess_squares(y, center)

    def fn(ts: np.ndarray) -> np.ndarray:
        out = np.empty(ts.shape)
        left = ts < center
        r, l = ts[~left], ts[left]
        out[~left] = above_x(r) - above_y(r)
        out[left] = below_y(l) - below_x(l)
        return out

    return fn, center


def _residue_charge(x: _Law, y: _Law, lo: float, center: float) -> float:
    """Exact integral over [lo, center] of |E(X-t)^2 - E(Y-t)^2|, the part of H
    its left-side form drops. With u = t - center it is the quadratic
    dm0 u^2 - 2 dm1 u + dm2 in the gaps of mass (lost mass included) and of
    the first two moments about the center; moment matching makes it zero up
    to rounding."""
    dm0, dm1, dm2 = (a - b for a, b in zip(_moments_about(x, center), _moments_about(y, center)))
    return float(_abs_quadratic_integral(dm0, -2.0 * dm1, dm2, lo - center, 0.0))


def _moments_about(d: _Law, center: float) -> tuple:
    """(mass, E(X - c), E(X - c)^2) about c = center, each summed exactly rounded."""
    u = np.concatenate([d.atoms, d.means]) - center
    w = np.concatenate([d.masses, d.weights])
    var = np.concatenate([np.zeros(d.atoms.size), np.square(d.sds)])
    return math.fsum(w), math.fsum(w * u), math.fsum(w * (u * u + var))


def _tail_cube(d: _Law, t: float, side: float) -> float:
    """E (side * (X - t))+^3: with side +1 (above t) or -1 (below t) it bounds
    the integral remainder outside the window on that side."""
    atoms = float(np.dot(np.maximum(side * (d.atoms - t), 0.0) ** 3, d.masses))
    z = side * (t - d.means) / d.sds  # how far t lies past each mean, into the tail
    val = _phi(z) * (z * z + 2.0) - z * (z * z + 3.0) * ndtr(-z)
    return atoms + float(d.sds**3 * np.maximum(val, 0.0) @ d.weights)


def _window(ds: Sequence[_Law], pad_sds: float) -> tuple:
    lo, hi = math.inf, -math.inf
    for d in ds:
        if d.atoms.size:
            lo = min(lo, float(d.atoms[0]))
            hi = max(hi, float(d.atoms[-1]))
        if d.sds.size:
            pad = pad_sds * float(d.sds.max())
            lo = min(lo, float(d.means.min()) - pad)
            hi = max(hi, float(d.means.max()) + pad)
    return lo, hi


#: the quadrature and probe skeleton spreads at most this many points over
#: the atoms and the component means and means +- 1 sd; kinks come on top
_SKELETON = 48
#: the skeleton also marks this many widest sds past the extreme means,
#: doubling out to the window's 12, so no tail segment spans many decades of
#: the integrand's Gaussian decay
_TAIL_SDS = (1.5, 3.0, 6.0)


def _breakpoints(ds: Sequence[_Law], lo: float, hi: float, center: float) -> np.ndarray:
    """Seed points of the quadrature and the probe: a skeleton of at most
    ``_SKELETON`` points, the tail marks of ``_TAIL_SDS``, and every point
    where the integrand may have a kink (point masses, the window ends, and
    the center where it switches sides)."""
    pts = [v for d in ds for v in (d.atoms, d.means, d.means + d.sds, d.means - d.sds)]
    arr = np.unique(np.clip(np.concatenate(pts), lo, hi))
    if len(arr) > _SKELETON:
        arr = arr[np.unique(np.linspace(0, len(arr) - 1, _SKELETON).astype(int))]
    marks = [lo, hi, center] + [v for pad in _TAIL_SDS for v in _window(ds, pad)]
    kinks = np.clip(np.concatenate([marks] + [d.atoms for d in ds]), lo, hi)
    return np.unique(np.concatenate([arr, kinks]))


# ---------------------------------------------------------------------------
# adaptive quadrature (Gauss-Kronrod 10/21 pair, vectorized integrand)
# ---------------------------------------------------------------------------

# The 21-point Kronrod extension of the 10-point Gauss rule on [-1, 1]
# (QUADPACK's qk21 table): the nonnegative nodes, then the Kronrod weights of
# those nodes and the Gauss weights of the nodes at odd positions.
_KRONROD_X = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_KRONROD_W = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525452184, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GAUSS_W = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _kronrod_rule() -> tuple:
    """(21 nodes in increasing order, 21 x 2 weights: Gauss column with zeros
    at the Kronrod-only nodes, Kronrod column)."""
    x, kw = np.array(_KRONROD_X), np.array(_KRONROD_W)
    nodes = np.concatenate([-x[:-1], x[::-1]])
    kronrod = np.concatenate([kw[:-1], kw[::-1]])
    gauss = np.zeros(21)
    gauss[1::2] = np.concatenate([_GAUSS_W, _GAUSS_W[::-1]])
    return nodes, np.stack([gauss, kronrod], axis=1)


_KRONROD_NODES, _KRONROD_WEIGHTS = _kronrod_rule()


def _gauss_kronrod(fn, a: np.ndarray, b: np.ndarray) -> tuple:
    """Gauss (10-point) and Kronrod (21-point) integrals of fn on segments
    [a_i, b_i], batched, from one evaluation at the 21 shared nodes."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid[:, None] + half[:, None] * _KRONROD_NODES
    both = half[:, None] * (fn(xs.ravel()).reshape(xs.shape) @ _KRONROD_WEIGHTS)
    return both[:, 0], both[:, 1]


def _adaptive_abs_integral(fn, seeds: np.ndarray, atol: float, rtol: float) -> tuple:
    """Integrate |fn| over the union of seed segments; returns (value, err
    bound). Each segment's value is its Kronrod integral and its error
    estimate the gap to the Gauss integral."""
    absfn = lambda xs: np.abs(fn(xs))
    a = seeds[:-1].copy()
    b = seeds[1:].copy()
    keep = b - a > 0
    a, b = a[keep], b[keep]
    if a.size == 0:
        return 0.0, 0.0
    total_len = float(np.sum(b - a))
    gauss, kronrod = _gauss_kronrod(absfn, a, b)
    scale = max(float(np.sum(kronrod)), atol)
    total = 0.0
    err = 0.0
    for _ in range(64):
        seg_err = np.abs(kronrod - gauss)
        tol_seg = max(atol, rtol * scale) * (b - a) / total_len
        tiny = (b - a) <= 1e-14 * np.maximum(1.0, np.abs(a))
        ok = (seg_err <= tol_seg) | tiny
        total += float(np.sum(kronrod[ok]))
        err += float(np.sum(seg_err[ok]))
        if bool(np.all(ok)) or a[~ok].size > 400_000:
            if not bool(np.all(ok)):
                # give up on the stragglers, charging their error estimate
                total += float(np.sum(kronrod[~ok]))
                err += float(np.sum(seg_err[~ok]))
            return total, err
        a, b = a[~ok], b[~ok]
        mid = 0.5 * (a + b)
        a = np.concatenate([a, mid])
        b = np.concatenate([mid, b])
        gauss, kronrod = _gauss_kronrod(absfn, a, b)
        scale = max(scale, total + float(np.sum(kronrod)))
    total += float(np.sum(kronrod))
    err += float(np.sum(np.abs(kronrod - gauss)))
    return total, err


# ---------------------------------------------------------------------------
# zeta3
# ---------------------------------------------------------------------------


def _match_moments(x: _Law, y: _Law) -> tuple:
    """Recenter/rescale y to x's first two moments; returns (y', (shift, scale-1))."""
    mx, vx = x.mean, x.variance
    my, vy = y.mean, y.variance
    mean_gap = abs(mx - my)
    m2_gap = abs((vx + mx * mx) - (vy + my * my))
    scale_ref = max(1.0, abs(mx), math.sqrt(max(vx, vy, 0.0)))
    if mean_gap > _MOMENT_MATCH_TOL * scale_ref or m2_gap > _MOMENT_MATCH_TOL * scale_ref**2:
        raise MomentMismatchError(mean_gap, m2_gap)
    if vy > 0 and vx > 0:
        scale = math.sqrt(vx / vy)
    elif vy == 0 and vx == 0:
        scale = 1.0
    else:
        # one side is a point mass and the other is not: moments cannot match
        raise MomentMismatchError(mean_gap, m2_gap)
    shift = mx - scale * my
    if scale == 1.0 and shift == 0.0:
        return y, (0.0, 0.0)
    return y.affine(scale, shift), (shift, scale - 1.0)


def _abs_quadratic_integral(a2, a1, a0, lo, hi) -> np.ndarray:
    """Exact integral of |a2 u^2 + a1 u + a0| over [lo, hi], elementwise. The
    interval is cut at the roots, and each piece is integrated from its left
    end, so no term grows with the distance from u = 0."""
    a2, a1, a0, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a2, a1, a0, lo, hi)))
    disc = a1 * a1 - 4.0 * a2 * a0
    two = (np.abs(a2) > 1e-300) & (disc > 0)
    one = (np.abs(a2) <= 1e-300) & (np.abs(a1) > 1e-300)
    # the roots of a quadratic as q / a2 and a0 / q, free of cancellation
    q = -0.5 * (a1 + np.copysign(np.sqrt(np.where(two, disc, 0.0)), a1))
    r1 = np.where(two, q / np.where(two, a2, 1.0), np.where(one, -a0 / np.where(one, a1, 1.0), lo))
    r2 = np.where(two, a0 / np.where(two, q, 1.0), lo)
    cuts = np.sort(np.stack([lo, np.clip(r1, lo, hi), np.clip(r2, lo, hi), hi]), axis=0)
    u, h = cuts[:-1], np.diff(cuts, axis=0)
    piece = h * ((a2 * u + a1) * u + a0 + h * (a2 * u + 0.5 * a1 + h * (a2 / 3.0)))
    return np.abs(piece).sum(axis=0)


def _zeta3_discrete(x: _Law, y: _Law) -> tuple:
    """Exact integral of |H| between point masses. On each piece of the
    merged atoms, the mean of x included, H is a quadratic in u = t - mean
    whose coefficients are the moment-sum gaps from the piece's side of the
    mean (:func:`_atom_sums`).

    The bound adds to the residue charge a rounding envelope: the sums, the
    gaps and the integration each err by at most (atoms + 10) ulps of
    sum w (|atom - mean| + |u|)^2 <= 2 (w u^2 + w (atom - mean)^2) over both
    laws' side sums, integrated exactly like H."""
    center = x.mean
    grid = np.unique(np.concatenate([x.atoms, y.atoms, [center]]))
    lo, hi = grid[:-1] - center, grid[1:] - center
    sides = []
    for d in (x, y):
        suffix, prefix = _atom_sums(d, center)
        i = np.searchsorted(d.atoms, grid[:-1], side="right")
        sides.append(np.where(lo < 0, prefix[:, i], suffix[:, i]))
    gap, size = sides[0] - sides[1], sides[0] + sides[1]
    total = math.fsum(_abs_quadratic_integral(gap[0], -2.0 * gap[1], gap[2], lo, hi))
    ulps = (x.atoms.size + y.atoms.size + 10) * np.finfo(float).eps
    envelope = 2.0 * ulps * math.fsum(_abs_quadratic_integral(size[0], 0.0, size[2], lo, hi))
    return 0.5 * total, 0.5 * (_residue_charge(x, y, float(grid[0]), center) + envelope)


def _zeta3_quad(x: _Law, y: _Law) -> tuple:
    lo, hi = _window((x, y), _WINDOW_SDS)
    fn, center = _excess_gap(x, y)
    seeds = _breakpoints((x, y), lo, hi, center)
    val, err = _adaptive_abs_integral(fn, seeds, _QUAD_ATOL, _QUAD_RTOL)
    err += _residue_charge(x, y, lo, center)
    tail = (
        _tail_cube(x, hi, 1.0)
        + _tail_cube(y, hi, 1.0)
        + _tail_cube(x, lo, -1.0)
        + _tail_cube(y, lo, -1.0)
    ) / 3.0
    return 0.5 * val, 0.5 * err + tail


def zeta3(x: Dist, y: Dist) -> MetricReport:
    """Zolotarev distance of order three between two laws.

    Requires the first two moments to agree within 1e-9 (the distance is
    infinite otherwise); small mismatches are absorbed by recentring and
    rescaling ``y``, and the applied adjustment is reported.
    """
    x = _law(x)
    y, adjustment = _match_moments(x, _law(y))
    if x.sds.size or y.sds.size:
        value, err = _zeta3_quad(x, y)
    else:
        value, err = _zeta3_discrete(x, y)
    lo, hi = _window((x, y), 0.0)
    err += (x.lost + y.lost) * (hi - lo) * (hi - lo)
    return MetricReport(value, err, adjustment)


# ---------------------------------------------------------------------------
# piecewise-cubic test functions (dual certification of zeta3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseCubic:
    """A C^2 function whose third derivative is piecewise constant in [-1, 1].

    This is exactly the regularity class defining the order-three Zolotarev
    distance (twice differentiable, second derivative 1-Lipschitz), so the
    expectation gap of any instance is a certified lower bound on zeta3.

    The function and its first two derivatives vanish at ``origin`` (the
    leftmost break when None). Moving the origin adds a quadratic, which
    leaves the gap between laws with equal first two moments unchanged;
    an origin near the mass keeps the expectations small, so the gap is not
    the difference of two large rounded numbers.
    """

    breaks: tuple
    third: tuple  # per piece: (-inf, b0], [b0, b1], ..., [bm, inf)
    origin: float | None = None

    def __post_init__(self):
        if len(self.third) != len(self.breaks) + 1:
            raise PreconditionError("need one third-derivative value per piece")
        if any(abs(c) > 1.0 + 1e-12 for c in self.third):
            raise PreconditionError("third derivative must stay within [-1, 1]")

    @cached_property
    def _origin(self) -> tuple:
        """(origin, index of the piece holding it)."""
        x0 = self.breaks[0] if self.origin is None else float(self.origin)
        return x0, int(np.searchsorted(self.breaks, x0))

    @cached_property
    def _states(self):
        """(f, f', f'') at each breakpoint, integrating outward from the origin."""
        b = np.asarray(self.breaks, dtype=float)
        x0, start = self._origin
        f, d, s = np.zeros(len(b)), np.zeros(len(b)), np.zeros(len(b))
        # rightwards, break j is reached across piece j; leftwards across piece j + 1
        for order, piece in ((range(start, len(b)), 0), (range(start - 1, -1, -1), 1)):
            pos, fj, dj, sj = x0, 0.0, 0.0, 0.0
            for j in order:
                h = b[j] - pos
                c = self.third[j + piece]
                fj, dj, sj = (
                    fj + dj * h + sj * h * h / 2 + c * h**3 / 6,
                    dj + sj * h + c * h * h / 2,
                    sj + c * h,
                )
                f[j], d[j], s[j], pos = fj, dj, sj, b[j]
        return f, d, s

    @cached_property
    def _pieces(self):
        """Per piece: its anchor, the point of the piece nearest the origin,
        with (f, f', f'') there, and its third derivative. Each cubic is
        evaluated from its own anchor, so values near the origin stay small."""
        x0, start = self._origin
        j = np.arange(len(self.third))
        at = np.clip(np.where(j < start, j, j - 1), 0, len(self.breaks) - 1)
        anchor = np.asarray(self.breaks, dtype=float)[at]
        f, d, s = (v[at] for v in self._states)
        anchor[start], f[start], d[start], s[start] = x0, 0.0, 0.0, 0.0
        return anchor, f, d, s, np.asarray(self.third, dtype=float)

    def __call__(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        anchor, f, d, s, c = self._pieces
        idx = np.searchsorted(self.breaks, xs)  # piece index; 0 => left tail piece
        u = xs - anchor[idx]
        return f[idx] + d[idx] * u + s[idx] * u * u / 2 + c[idx] * u**3 / 6

    def expect(self, dist: Dist) -> float:
        return self._expect(_law(dist))

    def _expect(self, d: _Law) -> float:
        per = np.empty(d.means.size)  # E f over each normal component
        b = np.asarray(self.breaks, dtype=float)
        anchor, f, df, ss, c3 = (v[:, None] for v in self._pieces)
        step = max(1, _BLOCK // len(self.third))  # components per (pieces x components) block
        for lo in range(0, d.means.size, step):
            mi, si = d.means[lo : lo + step], d.sds[lo : lo + step]
            # E f = sum over pieces of sum_q e_q si^q J_q, with e_q the Taylor
            # coefficients of the piece's cubic at the component mean and J_q
            # the standard normal's partial moments over the piece
            j0, j1, j2, j3 = _piece_partials(b, mi, si)
            u = mi - anchor
            e0 = f + u * (df + u * (ss / 2.0 + u * c3 / 6.0))
            e1 = df + u * (ss + u * c3 / 2.0)
            e2 = (ss + u * c3) / 2.0
            per[lo : lo + step] = (e0 * j0 + si * (e1 * j1 + si * (e2 * j2 + si * (c3 / 6.0) * j3))).sum(axis=0)
        return math.fsum(np.concatenate([d.masses * self(d.atoms), d.weights * per]))


def _piece_partials(breaks: np.ndarray, mean: np.ndarray, sd: np.ndarray) -> tuple:
    """(J0, J1, J2, J3), each (pieces x components): J_q = integral of z^q phi(z)
    over the standardized piece between consecutive breaks (first and last
    pieces unbounded). J0 differences the smaller tail of each side, so a
    piece far out in a tail keeps its relative accuracy."""
    z = (breaks[:, None] - mean) / sd
    tail = ndtr(-np.abs(z))
    below = np.where(z <= 0, tail, 1.0 - tail)  # Phi(z)
    above = np.where(z > 0, tail, 1.0 - tail)  # 1 - Phi(z)
    ones, zeros = np.ones((1, mean.size)), np.zeros((1, mean.size))
    below = np.concatenate([zeros, below, ones])
    above = np.concatenate([ones, above, zeros])
    left = np.concatenate([-ones, z])  # only the sign of the left end matters
    j0 = np.where(left >= 0, above[:-1] - above[1:], below[1:] - below[:-1])
    phi = _phi(z)
    p, zp, zzp = (np.concatenate([zeros, v, zeros]) for v in (phi, z * phi, z * z * phi))
    j1 = p[:-1] - p[1:]
    return j0, j1, j0 + zp[:-1] - zp[1:], 2.0 * j1 + zzp[:-1] - zzp[1:]


def random_smooth_member(rng: np.random.Generator, lo: float, hi: float, max_knots: int = 8) -> PiecewiseCubic:
    """Random member of the defining class: piecewise-linear second derivative
    with slopes drawn from [-1, 1], constant outside the sampled knots."""
    m = int(rng.integers(2, max_knots + 1))
    breaks = np.sort(rng.uniform(lo, hi, size=m))
    third = rng.uniform(-1.0, 1.0, size=m + 1)
    third[0] = 0.0
    third[-1] = 0.0
    return PiecewiseCubic(tuple(breaks.tolist()), tuple(third.tolist()))


#: bisection stops once a bracket is this narrow (plus 4 ulps of the root)
_ROOT_XTOL = 1e-13


def _sign_change_points(x: _Law, y: _Law, lo: float, hi: float) -> tuple:
    """Roots of H and the sign of H on each resulting piece.

    H is the quadrature's integrand (:func:`_excess_gap`), evaluated on 33
    points per segment of the quadrature's skeleton in one batched call; every
    bracketed sign change is then bisected at once, one batched call of the
    same evaluator per step, so a bracket never loses its sign change.
    """
    fn, center = _excess_gap(x, y)
    seeds = _breakpoints((x, y), lo, hi, center)
    segs = np.diff(seeds) > 0
    grid = np.linspace(seeds[:-1][segs], seeds[1:][segs], 33, axis=1)
    sign = np.sign(fn(grid.ravel())).reshape(grid.shape)
    left, right = grid[:, :-1], grid[:, 1:]
    roots = [left[sign[:, :-1] == 0]]
    bracket = sign[:, :-1] * sign[:, 1:] < 0
    a, b, sa = left[bracket], right[bracket], sign[:, :-1][bracket]
    for _ in range(200):
        mid = 0.5 * (a + b)
        if np.all(b - a <= _ROOT_XTOL + 4 * np.finfo(float).eps * np.abs(mid)):
            break
        stay = np.sign(fn(mid)) == sa  # the sign change lies right of mid
        a = np.where(stay, mid, a)
        b = np.where(stay, b, mid)
    roots.append(0.5 * (a + b))
    roots = np.unique(np.concatenate(roots))
    roots = roots[(roots > lo) & (roots < hi)]
    edges = np.concatenate([[lo], roots, [hi]])
    signs = np.sign(fn(0.5 * (edges[:-1] + edges[1:])))
    return roots.tolist(), signs.tolist()


def zeta3_lower_probe(x: Dist, y: Dist) -> float:
    """Expectation gap of the extremal admissible function: a certified lower
    bound on zeta3, computed by direct expectations rather than the integral
    representation."""
    x = _law(x)
    y, _ = _match_moments(x, _law(y))
    lo, hi = _window((x, y), _WINDOW_SDS)
    roots, signs = _sign_change_points(x, y, lo, hi)
    if not roots:
        breaks = ((lo + hi) / 2.0,)
        third = (signs[0], signs[0]) if signs else (0.0, 0.0)
    else:
        breaks = tuple(roots)
        third = tuple(signs)
    f_star = PiecewiseCubic(breaks, third, origin=x.mean)
    return abs(f_star._expect(x) - f_star._expect(y))


# ---------------------------------------------------------------------------
# Kolmogorov and Wasserstein distances
# ---------------------------------------------------------------------------


def kolmogorov(x: Dist, y: Dist) -> float:
    """sup_t |F_x(t) - F_y(t)|, evaluated at point masses (both sides) and,
    when both laws have normal components, at refined stationary points of
    the gap."""
    x, y = _law(x), _law(y)
    ts = np.unique(np.concatenate([x.atoms, y.atoms]))
    best = abs(x.lost - y.lost)  # limiting gap above both supports
    if ts.size:
        fx, fy = x.cdf(ts), y.cdf(ts)
        best = max(best, float(np.max(np.abs(fx - fy))))
        eps = 1e-12 * np.maximum(1.0, np.abs(ts))
        fx_l, fy_l = x.cdf(ts - eps), y.cdf(ts - eps)
        best = max(best, float(np.max(np.abs(fx_l - fy_l))))
    if x.sds.size and y.sds.size:
        lo, hi = _window((x, y), _WINDOW_SDS)
        ts = np.linspace(lo, hi, 8193)
        gap = np.abs(x.cdf(ts) - y.cdf(ts))
        k = int(np.argmax(gap))
        best = max(best, float(gap[k]))
        # grid refinement around the argmax: each round narrows the bracket 16-fold
        for _ in range(8):
            a, b = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
            ts = np.linspace(a, b, 33)
            gap = np.abs(x.cdf(ts) - y.cdf(ts))
            k = int(np.argmax(gap))
            best = max(best, float(gap[k]))
    return best


def wasserstein1(x: Pmf, y: Pmf) -> float:
    """integral |F_x - F_y| dt between two discrete laws, exactly."""
    if not isinstance(x, Pmf) or not isinstance(y, Pmf):
        raise PreconditionError("wasserstein1 is defined for discrete laws")
    grid = np.unique(np.concatenate([x.values_f, y.values_f]))
    if len(grid) == 1:
        return 0.0
    fx, fy = x.cdf(grid[:-1]), y.cdf(grid[:-1])
    return float(np.sum(np.abs(fx - fy) * np.diff(grid)))
