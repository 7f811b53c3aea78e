"""Reference values and output checks for the benchmark, computed without recdist.

Every reference here is derived from the definition of a recurrence (its index
law, toll and base values), never from a stored copy of the program's output
and never by calling into the package. Each ``check_*`` function takes parsed
outputs and returns a list of failure messages; an empty list means the output
passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: Monte Carlo estimates must lie within this many standard errors of the
#: exact value. At 6 a correct program fails about once in 5e8 checks, while
#: an estimate moved by 10 standard errors is caught unless it started 4 or
#: more standard errors the other way (probability 3e-5).
MC_Z = 6.0
#: relative agreement required between a float output and a float reference
REL_TOL = 1e-9
#: float slack on inequalities between a distance and its moment bounds
SLACK = 1e-12
#: tolerance of sum(probs) + lost_mass == 1 for float outputs
MASS_TOL = 1e-12

SQRT2 = math.sqrt(2.0)
ABS_NORMAL_M3 = 2.0 * math.sqrt(2.0 / math.pi)  # E|N(0,1)|^3


# ---------------------------------------------------------------------------
# closed forms and small recurrences
# ---------------------------------------------------------------------------


def harmonic(n: int, power: int = 1) -> float:
    return math.fsum(1.0 / k**power for k in range(1, n + 1))


def node_depth_moments(n: int) -> tuple:
    """Mean 2(1+1/n)H_n - 4 and variance
    (2+10/n)H_n - 4(1+1/n)(H_n^2/n + H_n^(2)) + 4 of the node depth."""
    h, h2 = harmonic(n), harmonic(n, 2)
    mean = 2.0 * (1.0 + 1.0 / n) * h - 4.0
    var = (2.0 + 10.0 / n) * h - 4.0 * (1.0 + 1.0 / n) * (h * h / n + h2) + 4.0
    return mean, var


def search_law(n: int) -> list:
    """Exact law of the unsuccessful-search cost at n as a list of Fractions
    indexed by value: the sum of independent Bernoulli(1/k), k = 1..n-1."""
    probs = [Fraction(1)]
    for k in range(1, n):
        p = Fraction(1, k)
        q = 1 - p
        nxt = [Fraction(0)] * (len(probs) + 1)
        for j, x in enumerate(probs):
            nxt[j] += x * q
            nxt[j + 1] += x * p
        probs = nxt
    while probs and probs[-1] == 0:
        probs.pop()
    return probs


def search_moments(n: int) -> tuple:
    """Mean H_{n-1} and variance H_{n-1} - H^(2)_{n-1} of the search cost."""
    h, h2 = harmonic(n - 1), harmonic(n - 1, 2)
    return h, h - h2


def _binomial_rows(n_max: int):
    """Yield (m, Binomial(m, 1/2) pmf) for m = 0..n_max, one Pascal step each."""
    row = np.array([1.0])
    yield 0, row
    for m in range(1, n_max + 1):
        nxt = np.zeros(m + 1)
        nxt[:m] += 0.5 * row
        nxt[1:] += 0.5 * row
        row = nxt
        yield m, row


def broadcast_trailing_law(n: int) -> np.ndarray:
    """Law of the trailing size K: P(K=k) = 2^-(k+1), k = 0..n-1, plus 2^-n at 0."""
    pk = 0.5 ** np.arange(1, n + 1)
    pk[0] += 0.5**n
    return pk


def broadcast_means(n_max: int, comparisons: bool) -> np.ndarray:
    """E Y_0..E Y_{n_max} of the broadcast recurrence Y_n = Y_J + Y_K + toll.

    After one round the leading size J is Binomial(n, 1/2) and the trailing
    size K has the law of :func:`broadcast_trailing_law`. The toll is 1 for
    the time measure and n - J for the comparison count; Y_0 = Y_1 = 1 for
    time and 0 for comparisons. The atom J = n (weight 2^-n) points back at
    n, so its share moves to the left-hand side.
    """
    base = 0.0 if comparisons else 1.0
    means = np.zeros(n_max + 1)
    means[:2] = base
    for n, row in _binomial_rows(n_max):
        if n < 2:
            continue
        toll = n / 2.0 if comparisons else 1.0
        known = row[:n] @ means[:n] + broadcast_trailing_law(n) @ means[:n]
        means[n] = (toll + known) / (1.0 - row[n])
    return means


def broadcast_index_terms(n: int) -> tuple:
    """(drift, index_l3) of the broadcast index law at n: the mean of
    ln(max(J,1) max(K,1) / n) and the L3 norm of ln(max(J,1) / n)."""
    j = np.arange(n + 1)
    pj = np.exp([math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1) - n * math.log(2.0)
                 for x in range(n + 1)])
    pk = broadcast_trailing_law(n)
    lj = np.log(np.maximum(j, 1))
    lk = np.log(np.maximum(np.arange(n), 1))
    drift = float(pj @ lj + pk @ lk - math.log(n))
    l3 = float(pj @ np.abs(lj - math.log(n)) ** 3) ** (1.0 / 3.0)
    return drift, l3


def uniform_index_terms(lo: int, hi: int, n: int) -> tuple:
    """(drift, index_l3) for a leading index uniform on lo..hi (k = 1)."""
    i = np.arange(lo, hi + 1)
    lead = np.log(np.maximum(i, 1) / n)
    return float(np.mean(lead)), float(np.mean(np.abs(lead) ** 3)) ** (1.0 / 3.0)


def election_means(n_max: int) -> np.ndarray:
    """E T_m of the leader-election rounds for m = 0..n_max:
    E T_m = (1 + sum_{h=1}^{m-1} C(m,h) 2^-m E T_h) / (1 - 2^(1-m))."""
    t = np.zeros(n_max + 1)
    for m, row in _binomial_rows(n_max):
        if m < 2:
            continue
        t[m] = (1.0 + row[1:m] @ t[1:m]) / (1.0 - 2.0 ** (1 - m))
    return t


def broadcast_b_means(n_max: int) -> np.ndarray:
    """E Y_n = E T_n + mean(E Y_0..E Y_{n-1}) with Y_0 = Y_1 = 1."""
    t = election_means(n_max)
    y = np.ones(n_max + 1)
    running = 2.0
    for n in range(2, n_max + 1):
        y[n] = t[n] + running / n
        running += y[n]
    return y


def quickselect_fixed_point_moments(k_max: int = 6) -> list:
    """Raw moments E X^0..E X^k_max of X = U X + sqrt(2)(2U - 1)."""

    def mixed(j: int, r: int) -> float:  # E[U^j (sqrt2 (2U-1))^r]
        s = math.fsum(math.comb(r, i) * 2.0**i * (-1.0) ** (r - i) / (j + i + 1) for i in range(r + 1))
        return SQRT2**r * s

    m = [1.0]
    for k in range(1, k_max + 1):
        rhs = math.fsum(math.comb(k, j) * mixed(j, k - j) * m[j] for j in range(k))
        m.append(rhs / (1.0 - 1.0 / (k + 1)))
    return m


def dickman_moments(k_max: int = 6) -> list:
    """Raw moments of the Dickman law from W = U(W + 1):
    E W^k = (1/k) sum_{j<k} C(k, j) E W^j."""
    m = [Fraction(1)]
    for k in range(1, k_max + 1):
        m.append(Fraction(sum(math.comb(k, j) * m[j] for j in range(k)), k))
    return [float(x) for x in m]


# ---------------------------------------------------------------------------
# generic output properties
# ---------------------------------------------------------------------------


def find_nan(obj, path: str = "") -> list:
    """Paths of every NaN or infinite float inside a parsed JSON document."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path or "<root>"]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in find_nan(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in find_nan(v, f"{path}[{i}]")]
    return []


def check_no_nan(tag: str, doc) -> list:
    return [f"{tag}: non-finite number at {p}" for p in find_nan(doc)]


def check_mass(tag: str, probs, lost) -> list:
    total = math.fsum(float(p) for p in probs) + float(lost)
    if not abs(total - 1.0) <= MASS_TOL:
        return [f"{tag}: sum(probs) + lost_mass = {total!r}, not 1"]
    if float(lost) < 0 or any(not float(p) > 0 for p in probs):
        return [f"{tag}: negative lost mass or non-positive atom"]
    return []


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def check_jensen(tag: str, var: float, m3abs: float) -> list:
    """E|X - EX|^3 >= Var^(3/2) for every law."""
    if var < 0 or m3abs < var**1.5 * (1.0 - 1e-9) - 1e-12:
        return [f"{tag}: variance {var!r} and third absolute moment {m3abs!r} are inconsistent"]
    return []


# ---------------------------------------------------------------------------
# exact-dp checks
# ---------------------------------------------------------------------------


def atoms_of(pmf_json: dict) -> list:
    """[(Fraction value, float prob)] from the CLI's pmf JSON encoding."""
    return [(Fraction(num, den), float(p)) for num, den, p in pmf_json["atoms"]]


def check_moment_rows(tag: str, rows: list, reference) -> list:
    """Rows of ``recdist moments``: mean (and variance, when the reference
    gives one) against ``reference(n) -> (mean, var or None)``."""
    errs = []
    for row in rows:
        n = row["n"]
        mean, var = reference(n)
        if not close(row["mean"], mean):
            errs.append(f"{tag} n={n}: mean {row['mean']!r}, reference {mean!r}")
        if var is not None and not close(row["variance"], var, rel=1e-7):
            errs.append(f"{tag} n={n}: variance {row['variance']!r}, reference {var!r}")
        errs += check_jensen(f"{tag} n={n}", row["variance"], row["third_abs_central"])
    return errs


def check_search_exact(tag: str, pmf_json: dict, n: int, exact_atoms: bool) -> list:
    """Exact-mode law of the unsuccessful-search cost against the
    Poisson-binomial oracle.

    Every retained atom's probability is at most the oracle's, and the total
    shortfall equals ``lost_mass``. The output carries probabilities as
    floats, so the equality holds up to half an ulp of each printed number;
    that bound is summed exactly. With ``exact_atoms`` (no truncation) every
    atom must equal the oracle's rounded probability and lost_mass must be 0.
    """
    oracle = search_law(n)
    atoms = atoms_of(pmf_json)
    lost = float(pmf_json["lost_mass"])
    errs = check_mass(tag, [p for _, p in atoms], lost)
    seen = set()
    shortfall = Fraction(0)
    slack = Fraction(math.ulp(lost)) / 2
    for v, p in atoms:
        if v.denominator != 1 or not 0 <= v < len(oracle) or oracle[int(v)] == 0:
            errs.append(f"{tag}: atom at {v} is outside the oracle's support")
            continue
        ref = oracle[int(v)]
        seen.add(int(v))
        if exact_atoms and p != float(ref):
            errs.append(f"{tag}: P({v}) = {p!r}, oracle {float(ref)!r}")
        if p > float(ref):  # float rounding is monotone, so this is exact
            errs.append(f"{tag}: P({v}) = {p!r} exceeds the oracle's {float(ref)!r}")
        shortfall += ref - Fraction(p)
        slack += Fraction(math.ulp(p)) / 2
    shortfall += sum((oracle[v] for v in range(len(oracle)) if v not in seen), Fraction(0))
    if exact_atoms and lost != 0.0:
        errs.append(f"{tag}: lost_mass {lost!r} without truncation")
    if abs(shortfall - Fraction(lost)) > slack:
        errs.append(
            f"{tag}: oracle shortfall {float(shortfall)!r} differs from lost_mass {lost!r}"
        )
    return errs


def check_half_toll(tag: str, pmf_json: dict, n: int) -> list:
    """A uniform-index recurrence with toll 1/2 has the unsuccessful-search
    law scaled by 1/2. In float mode truncation at smaller indices only
    removes mass, so every atom is at most the oracle's (up to float
    rounding) and the shortfall equals ``lost_mass``."""
    oracle = search_law(n)
    atoms = atoms_of(pmf_json)
    lost = float(pmf_json["lost_mass"])
    errs = check_mass(tag, [p for _, p in atoms], lost)
    got = {}
    for v, p in atoms:
        k = 2 * v
        if k.denominator != 1 or not 0 <= k < len(oracle) or oracle[int(k)] == 0:
            errs.append(f"{tag}: atom at {v} is not half an integer of the oracle's support")
            continue
        got[int(k)] = p
        if p > float(oracle[int(k)]) * (1.0 + REL_TOL) + 1e-300:
            errs.append(f"{tag}: P({v}) = {p!r} exceeds the oracle's {float(oracle[int(k)])!r}")
    shortfall = math.fsum(float(oracle[k]) - got.get(k, 0.0) for k in range(len(oracle)))
    if not abs(shortfall - lost) <= 1e-14:
        errs.append(f"{tag}: oracle shortfall {shortfall!r} differs from lost_mass {lost!r}")
    mean = math.fsum(float(v) * p for v, p in atoms)
    ref_mean, ref_var = search_moments(n)
    var = math.fsum((float(v) - mean) ** 2 * p for v, p in atoms)
    if not close(mean, ref_mean / 2.0, rel=1e-9) or not close(var, ref_var / 4.0, rel=1e-7):
        errs.append(f"{tag}: mean/variance {mean!r}/{var!r}, reference {ref_mean / 2}/{ref_var / 4}")
    return errs


# ---------------------------------------------------------------------------
# zeta3 and Kolmogorov checks
# ---------------------------------------------------------------------------


def pmf_central_moments(values, probs) -> tuple:
    """(mean, variance, E(X-mu)^3, E|X-mu|^3) of retained atoms, renormalized
    over retained mass so the moment identities hold exactly."""
    v = np.asarray(values, dtype=float)
    p = np.asarray(probs, dtype=float)
    p = p / math.fsum(p)
    mu = math.fsum(v * p)
    c = v - mu
    return mu, math.fsum(c * c * p), math.fsum(c**3 * p), math.fsum(np.abs(c) ** 3 * p)


def mixture_central_moments(weights, means, sds) -> tuple:
    """(mean, variance, E(X-mu)^3) of a normal mixture:
    E(X-mu)^3 = sum w ((m-mu)^3 + 3 (m-mu) s^2)."""
    w = np.asarray(weights, dtype=float)
    w = w / math.fsum(w)
    m = np.asarray(means, dtype=float)
    s = np.asarray(sds, dtype=float)
    mu = math.fsum(w * m)
    c = m - mu
    return mu, math.fsum(w * (c * c + s * s)), math.fsum(w * (c**3 + 3.0 * c * s * s))


def check_zeta3(tag: str, value: float, bound: float, third_central: float,
                abs_third: float | None = None, sd: float | None = None) -> list:
    """A zeta3 distance to a normal of matched mean and variance.

    x^3/6 belongs to the zeta3 class, so the distance is at least
    |E(Z-mu)^3|/6. Normalizing a test function to vanish with its first two
    derivatives at mu gives |f| <= |x-mu|^3/6, so the distance is at most
    (E|Z-mu|^3 + E|N-mu|^3)/6 = (E|Z-mu|^3 + 2 sqrt(2/pi) sd^3)/6.
    """
    errs = []
    if not (math.isfinite(value) and math.isfinite(bound)) or value < 0 or bound < 0:
        return [f"{tag}: value {value!r} with bound {bound!r} is not a distance"]
    lower = abs(third_central) / 6.0
    if value + bound < lower * (1.0 - SLACK) - SLACK:
        errs.append(f"{tag}: zeta3 {value!r} + {bound!r} is below |E Z^3|/6 = {lower!r}")
    if abs_third is not None:
        upper = (abs_third + ABS_NORMAL_M3 * sd**3) / 6.0
        if value - bound > upper * (1.0 + SLACK) + SLACK:
            errs.append(f"{tag}: zeta3 {value!r} exceeds the third-moment ceiling {upper!r}")
    return errs


def check_probe(tag: str, probe: float, value: float, bound: float) -> list:
    if not math.isfinite(probe) or probe < 0 or probe > value + bound + SLACK * max(1.0, value):
        return [f"{tag}: probe {probe!r} exceeds zeta3 {value!r} + {bound!r}"]
    return []


def check_kolmogorov(tag: str, dist: float, max_atom: float) -> list:
    """A law with an atom of mass p is at least p/2 from any continuous law."""
    if not max_atom / 2.0 * (1.0 - 1e-9) <= dist <= 1.0:
        return [f"{tag}: Kolmogorov distance {dist!r} below half the largest atom {max_atom!r}"]
    return []


def check_conditions(tag: str, cond_rows: list, reference) -> list:
    """Drift and index L3 norm of ``verify`` against ``reference(n)``."""
    errs = []
    for row in cond_rows:
        drift, l3 = reference(row["n"])
        if not close(row["drift"], drift, rel=1e-9) or not close(row["index_l3"], l3, rel=1e-9):
            errs.append(
                f"{tag} n={row['n']}: drift/index_l3 {row['drift']!r}/{row['index_l3']!r}, "
                f"reference {drift!r}/{l3!r}"
            )
        ratio = row["toll_l3_ratio"]
        if ratio is not None and not (math.isfinite(ratio) and ratio >= 0):
            errs.append(f"{tag} n={row['n']}: toll_l3_ratio {ratio!r}")
    return errs


def check_log_power(tag: str, violations: dict) -> list:
    bad = {a: v for a, v in violations.items() if v != 0}
    return [f"{tag}: log-power ratio violations {bad}"] if bad else []


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------


def check_mc_mean(tag: str, estimate: float, exact: float, var: float, count: int) -> list:
    se = math.sqrt(var / count)
    z = (estimate - exact) / se if se > 0 else math.inf
    if not abs(z) <= MC_Z:
        return [f"{tag}: mean {estimate!r} is {z:+.2f} standard errors from {exact!r}"]
    return []


def check_mc_raw_moments(tag: str, estimates: list, exact: list, count: int) -> list:
    """Sample raw moments k = 1..len(estimates) against exact moments; the
    standard error of the k-th uses the exact moment of order 2k."""
    errs = []
    for k, est in enumerate(estimates, start=1):
        var = exact[2 * k] - exact[k] ** 2
        errs += check_mc_mean(f"{tag} moment {k}", est, exact[k], var, count)
    return errs
