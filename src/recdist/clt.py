"""Normal-limit verification for recurrences with slowly varying variance.

Given exponent parameters for the growth of mean and variance, this module
standardizes the exact laws, builds the accompanying normal surrogate (the
same recurrence step applied to scaled normal variables instead of the
recursing quantity), evaluates the distance terms that drive the convergence
rate, and fits the observed decay exponents.

Scaling uses a logarithm padded at the two smallest indices so that base cases
standardize cleanly; the padding only affects small-index bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .engine import Solver
from .errors import PreconditionError
from .metrics import MetricReport, NormalMixture, kolmogorov, zeta3
from .pmf import Pmf


@dataclass(frozen=True)
class CltParams:
    """Exponent tuple driving the normal-limit analysis.

    alpha: half the variance growth exponent (Var ~ c * ln^(2 alpha) n)
    kappa: toll-norm growth exponent
    lam:   variance error-term exponent, 0 <= lam < 2 alpha
    xi:    growth exponent of the trailing subproblem indices (k >= 2 only)
    c:     leading variance constant
    delta: small-index padding of the logarithmic scale
    """

    alpha: float
    kappa: float = 0.0
    lam: float = 0.0
    xi: float = 0.0
    c: float = 1.0
    delta: float = 0.1

    def __post_init__(self):
        if self.alpha <= 0:
            raise PreconditionError("alpha must be positive")
        if self.kappa < 0 or self.xi < 0:
            raise PreconditionError("kappa and xi must be nonnegative")
        if not 0 <= self.lam < 2 * self.alpha:
            raise PreconditionError("lambda must satisfy 0 <= lambda < 2*alpha")
        if self.c <= 0:
            raise PreconditionError("variance constant must be positive")
        if self.delta <= 0:
            raise PreconditionError("delta must be positive")


def padded_log(n: int, delta: float) -> float:
    """ln(n or 1), padded by delta at the two indices whose log vanishes."""
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    return math.log(max(n, 1)) + (delta if n in (0, 1) else 0.0)


class RateGate(NamedTuple):
    beta: float
    applicable: bool  # the limit theorem needs beta > 1


def rate_exponent(params: CltParams, k: int = 1) -> RateGate:
    """Decay exponent of the surrogate distance, with the applicability gate.

    The exponent is the minimum of 3/2, 3(alpha-kappa), 3(alpha-lambda/2) and
    (alpha-kappa+1); branching factors above one add 3(alpha-xi).
    """
    terms = [
        1.5,
        3.0 * (params.alpha - params.kappa),
        3.0 * (params.alpha - params.lam / 2.0),
        params.alpha - params.kappa + 1.0,
    ]
    if k >= 2:
        terms.append(3.0 * (params.alpha - params.xi))
    beta = min(terms)
    return RateGate(beta, beta > 1.0)


# ---------------------------------------------------------------------------
# standardized and accompanying laws
# ---------------------------------------------------------------------------


class StandardizedLaw(NamedTuple):
    law: Pmf
    sd: float  # standard deviation of the standardized law; tends to one


def standardized_law(solver: Solver, n: int, params: CltParams) -> StandardizedLaw:
    """Center the exact law and divide by sqrt(c) times the padded log power."""
    scale = 1.0 / (math.sqrt(params.c) * padded_log(n, params.delta) ** params.alpha)
    mu = float(solver.mean(n))
    law = solver.law(n).affine(scale, -mu * scale)
    return StandardizedLaw(law, float(solver.sd(n)) * scale)


@dataclass(frozen=True)
class AccompanyingLaw:
    """The normal surrogate at n plus its per-atom ingredients.

    For each joint atom the surrogate replaces every recursing child by an
    independent normal with the child's standardized scale, keeping the toll
    shift; conditionally on the atom this is one scaled and shifted normal
    component. ``gains``/``gaps`` refer to the leading index: the scale carried
    over from the leading child and its root-square distance to the target
    scale. ``shifts`` is the standardized toll. ``weights``, ``gains``,
    ``gaps`` and ``shifts`` hold one entry per atom of the float rows;
    ``mixture`` holds one component per distinct (shift, sd) pair.
    """

    mixture: NormalMixture
    weights: np.ndarray
    gains: np.ndarray
    gaps: np.ndarray
    shifts: np.ndarray
    sd: float  # target scale at n


def _centered_joint(solver: Solver, n: int) -> tuple:
    """``(indices, weights, tolls - mean at n + children's means)`` of the float
    rows of the joint law at n, one entry per atom (a toll law expanded atom
    by atom)."""
    idx, tolls, weights = solver.spec.joint_arrays(n)
    mu = solver.means_upto(n)
    return idx, weights, tolls - mu[n] + mu[idx].sum(axis=1)


def accompanying_law(solver: Solver, n: int, params: CltParams) -> AccompanyingLaw:
    idx, weights, centered = _centered_joint(solver, n)
    delta, alpha, c = params.delta, params.alpha, params.c
    ln_n = padded_log(n, delta) ** alpha
    logs = np.array([padded_log(i, delta) ** alpha for i in range(n + 1)])
    taus = solver.sds_upto(n) / (math.sqrt(c) * logs)
    tau_n = float(taus[n])

    shifts = centered * (1.0 / (math.sqrt(c) * ln_n))
    ratios = logs[idx] / ln_n
    comp_sds = np.sqrt(np.square(ratios * taus[idx]).sum(axis=1))
    gains = ratios[:, 0] * taus[idx[:, 0]]
    gaps = np.sqrt(np.abs(np.square(gains) - tau_n**2))
    # atoms with equal (shift, sd) give the same normal component; merging
    # them sums weights and leaves the law unchanged (k=2 tables list every
    # child pair in both orders)
    comps, which = np.unique(np.column_stack([shifts, comp_sds]), axis=0, return_inverse=True)
    comp_weights = np.bincount(which.ravel(), weights=weights, minlength=len(comps))
    # fold the rounding residue of the float rows and their merged sums into
    # the largest weight, so no mass gap enters zeta3's residue charge (the
    # rows' own cut, under 2^-65 per n, is below half an ulp of 1)
    top = int(np.argmax(comp_weights))
    for _ in range(4):
        residue = 1.0 - math.fsum(comp_weights)
        if not residue:
            break
        comp_weights[top] += residue
    mixture = NormalMixture(comp_weights, comps[:, 0], comps[:, 1])
    return AccompanyingLaw(mixture, weights, gains, gaps, shifts, tau_n)


@dataclass(frozen=True)
class SurrogateGapTerms:
    """The five norm terms bounding the surrogate-to-normal distance."""

    scale_term: float  # |sd ratio - 1|^3
    gap_term: float  # third moment of the scale gap
    toll_term: float  # third moment of the standardized toll
    gain_term: float  # third moment of |leading gain - 1|
    cross_term: float  # L2 toll norm times first-order scale errors

    @property
    def total(self) -> float:
        return (
            self.scale_term
            + self.gap_term
            + self.toll_term
            + self.gain_term
            + self.cross_term
        )


def surrogate_gap_terms(solver: Solver, n: int, params: CltParams) -> SurrogateGapTerms:
    return _gap_terms(accompanying_law(solver, n, params))


def _gap_terms(acc: AccompanyingLaw) -> SurrogateGapTerms:
    w = acc.weights
    tau_gap = abs(acc.sd - 1.0)
    toll_l2 = math.sqrt(float(w @ np.square(acc.shifts)))
    gain_l2 = math.sqrt(float(w @ np.square(acc.gains - 1.0)))
    return SurrogateGapTerms(
        scale_term=tau_gap**3,
        gap_term=float(w @ np.abs(acc.gaps) ** 3),
        toll_term=float(w @ np.abs(acc.shifts) ** 3),
        gain_term=float(w @ np.abs(acc.gains - 1.0) ** 3),
        cross_term=toll_l2 * (tau_gap + gain_l2),
    )


def zeta3_standardized(solver: Solver, n: int, params: CltParams) -> MetricReport:
    """Distance of the padded-log standardized law to a normal of matching scale."""
    law, tau = standardized_law(solver, n, params)
    return zeta3(law, NormalMixture.normal(0.0, tau))


def zeta3_accompanying(solver: Solver, n: int, params: CltParams) -> MetricReport:
    """Distance of the normal surrogate at n to a normal of matching scale."""
    return _zeta3_surrogate(accompanying_law(solver, n, params))


def _zeta3_surrogate(acc: AccompanyingLaw) -> MetricReport:
    return zeta3(acc.mixture, NormalMixture.normal(0.0, acc.sd))


def _unit_law(solver: Solver, n: int) -> Pmf:
    """The exact law at n shifted to mean 0 and scaled to variance 1; a
    vanishing variance is refused."""
    sd = solver.sd(n)
    if sd == 0.0:
        raise PreconditionError(
            f"variance at n={n} vanishes; the unit-variance scaling is undefined"
        )
    mu = float(solver.mean(n))
    return solver.law(n).affine(1.0 / sd, -mu / sd)


def zeta3_to_normal(solver: Solver, n: int) -> MetricReport:
    """Distance of the unit-variance standardized law to the standard normal."""
    return zeta3(_unit_law(solver, n), NormalMixture.std_normal())


def kolmogorov_to_normal(solver: Solver, n: int) -> float:
    """Kolmogorov distance of the unit-variance standardized law to the
    standard normal."""
    return kolmogorov(_unit_law(solver, n), NormalMixture.std_normal())


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionRow:
    n: int
    drift: float  # mean of ln((product of child sizes or 1)/n); must stay negative
    index_l3: float  # L3 norm of ln((leading size or 1)/n); must stay bounded
    toll_l3_ratio: float  # L3 toll norm divided by ln^kappa n


@dataclass(frozen=True)
class ConditionReport:
    rows: list
    drift_ok: bool
    norms_flagged: bool
    messages: list


def check_conditions(solver: Solver, params: CltParams, ns: Sequence[int]) -> ConditionReport:
    """Evaluate the index-drift and norm conditions over a probe window, on
    the float rows of the joint law and the solver's means."""
    rows: list = []
    messages: list = []
    for n in ns:
        idx, w, centered = _centered_joint(solver, n)
        toll_l3 = float(w @ np.abs(centered) ** 3) ** (1.0 / 3.0)
        toll_ratio = toll_l3 / math.log(n) ** params.kappa
        drift = float(w @ (np.log(np.maximum(idx, 1)).sum(axis=1) - math.log(n)))
        lead = np.log(np.maximum(idx[:, 0], 1) / n)
        index_l3 = float(w @ np.abs(lead) ** 3) ** (1.0 / 3.0)
        rows.append(ConditionRow(n, drift, index_l3, toll_ratio))
    drift_ok = all(r.drift < 0 for r in rows)
    if not drift_ok:
        messages.append("index drift is nonnegative at some probe points")
    l3s = [r.index_l3 for r in rows]
    norms_flagged = False
    if len(l3s) >= 4:
        half = len(l3s) // 2
        tail = l3s[half:]
        increments = [b - a for a, b in zip(tail, tail[1:])]
        growing = all(inc > 0 for inc in increments)
        # a bounded norm converging upward has shrinking increments; flag
        # only when the growth is not slowing down
        if growing and increments[-1] > 0.5 * increments[0] and tail[-1] > 1.2 * l3s[0]:
            norms_flagged = True
            messages.append("index L3 norm keeps growing across the window")
    return ConditionReport(rows, drift_ok, norms_flagged, messages)


# ---------------------------------------------------------------------------
# rate fitting and calculus checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    exponent: float
    constant: float
    residual: float  # max relative deviation over the fit window


def fit_rate(series: Sequence[tuple]) -> RateFit:
    """Least-squares fit of d_n = c / ln^e n, the one rate model, on a series
    of at least 4 (n, d_n) pairs with n >= 2 and d_n > 0: a line through
    (ln ln n, ln d_n)."""
    pts = [(int(n), float(d)) for n, d in series]
    if len(pts) < 4:
        raise PreconditionError("rate fit needs at least 4 points")
    if any(d <= 0 for _, d in pts):
        raise PreconditionError("rate fit needs positive distances")
    xs = np.array([math.log(math.log(n)) for n, _ in pts])
    ys = np.array([math.log(d) for _, d in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    exponent = -float(slope)
    constant = math.exp(float(intercept))
    fitted = constant * np.exp(-exponent * xs)
    observed = np.array([d for _, d in pts])
    residual = float(np.max(np.abs(fitted - observed) / observed))
    return RateFit(exponent, constant, residual)


#: most (n, i) pairs log_power_ratio_check evaluates at once
_PAIR_BLOCK = 1 << 13


def _pair_blocks(n_max: int):
    """Yield (n, i) integer arrays covering 3 <= n <= n_max, 1 <= i <= n in
    row order, at most _PAIR_BLOCK pairs at a time: whole rows grouped while
    they fit, and a longer row in pieces."""
    n = 3
    while n <= n_max:
        if n > _PAIR_BLOCK:
            for lo in range(1, n + 1, _PAIR_BLOCK):
                i = np.arange(lo, min(lo + _PAIR_BLOCK, n + 1))
                yield np.full(i.size, n), i
            n += 1
            continue
        stop, size = n, 0
        while stop <= n_max and size + stop <= _PAIR_BLOCK:
            size += stop
            stop += 1
        lengths = np.arange(n, stop)
        row_starts = np.cumsum(lengths) - lengths
        yield np.repeat(lengths, lengths), np.arange(1, size + 1) - np.repeat(row_starts, lengths)
        n = stop


def log_power_ratio_check(alpha: float, n_max: int) -> list:
    """Exhaustively verify |(ln i / ln n)^alpha - 1| <= (2 or alpha)/ln n * |ln(i/n)|
    for all 3 <= n <= n_max, 1 <= i <= n; returns the violations (expected none),
    ordered by n, then i. The pairs are evaluated in blocks of at most
    ``_PAIR_BLOCK``, so memory grows with n_max, not with the number of pairs."""
    if alpha <= 0:
        raise PreconditionError("alpha must be positive")
    if n_max < 3:
        raise PreconditionError("n_max must be at least 3")
    fac = max(2.0, alpha)
    ln_ns = np.array([math.log(n) for n in range(3, n_max + 1)])
    ln_is = np.log(np.arange(1, n_max + 1, dtype=float))
    violations = []
    for n, i in _pair_blocks(n_max):
        ln_n = ln_ns[n - 3]
        lhs = np.abs((ln_is[i - 1] / ln_n) ** alpha - 1.0)
        rhs = fac / ln_n * np.abs(np.log(i / n))
        for b in np.nonzero(lhs > rhs + 1e-12)[0]:
            violations.append((int(n[b]), int(i[b]), float(lhs[b]), float(rhs[b])))
    return violations


# ---------------------------------------------------------------------------
# per-n verification rows (CSV surface)
# ---------------------------------------------------------------------------

VERIFICATION_COLUMNS = (
    "n",
    "sd_ratio",
    "toll_norm3",
    "gain_norm3",
    "gap_norm3",
    "zeta3_std",
    "zeta3_acc",
    "bound_sum",
    "kolmogorov",
)


def verification_row(solver: Solver, n: int, params: CltParams) -> dict:
    acc = accompanying_law(solver, n, params)  # built once, shared by both uses
    terms = _gap_terms(acc)
    row = {
        "n": n,
        # the sd of the standardized law
        "sd_ratio": float(solver.sd(n)) / (math.sqrt(params.c) * padded_log(n, params.delta) ** params.alpha),
        "toll_norm3": terms.toll_term ** (1.0 / 3.0),
        "gain_norm3": terms.gain_term ** (1.0 / 3.0),
        "gap_norm3": terms.gap_term ** (1.0 / 3.0),
        "zeta3_std": zeta3_standardized(solver, n, params).value,
        "zeta3_acc": _zeta3_surrogate(acc).value,
        "bound_sum": terms.total,
        # undefined where the variance vanishes: JSON null, an empty CSV cell
        "kolmogorov": kolmogorov_to_normal(solver, n) if solver.sd(n) > 0 else None,
    }
    return row
