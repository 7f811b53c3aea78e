"""Oracles independent of the solver.

``brute_law`` expands every recursion path with plain dictionaries of
fractions: no memoization, no truncation, no shared code with the solver
beyond the joint-law tables themselves (``spec.joint_atoms``), which
``index_law`` collapses over the tolls. ``broadcast_index_pmf`` writes out
the broadcast models' index law atom by atom, and ``broadcast_means`` runs
their mean recurrence from the law in its docstring, without touching the
catalog's tables. ``election_rounds_law`` is the exact law of a leader
election's length, from its transition matrix, and ``leader_election_rounds``
simulates elections coin by coin; ``broadcast_b_means`` runs the mean
recurrence of the election-toll model on the election's own mean
recurrence. ``sampled_tv`` measures a sample against a reference law with
the bound it may reach by chance."""

import math
from fractions import Fraction

import numpy as np


def brute_law(spec, n: int) -> dict:
    """Exact law at n as {value: Fraction}, by exhaustive path expansion.

    Only valid for recurrences whose joint law never points back at n (true
    for the search-tree and selection entries at small n).
    """
    if n < spec.n0:
        base = spec.base_laws[n]
        return {v: Fraction(p) for v, p in zip(base.values, base.probs)}
    out: dict = {}
    for idx, toll, w in spec.joint_atoms(n):
        if any(i == n for i in idx):
            raise ValueError("oracle cannot expand self-referential atoms")
        combo = {toll: Fraction(w)}
        for i in idx:
            part = brute_law(spec, i)
            nxt: dict = {}
            for v, p in combo.items():
                for u, q in part.items():
                    key = v + u
                    nxt[key] = nxt.get(key, Fraction(0)) + p * q
            combo = nxt
        for v, p in combo.items():
            out[v] = out.get(v, Fraction(0)) + p
    return out


def index_law(spec, n: int) -> dict:
    """Joint law of the index tuple alone at n, {indices: weight}, the
    weights of ``spec.joint_atoms(n)`` summed over the tolls."""
    out: dict = {}
    for idx, _, w in spec.joint_atoms(n):
        out[idx] = out.get(idx, 0) + w
    return out


def broadcast_index_pmf(n: int) -> dict:
    """Exact joint law of the two subgroup sizes after one broadcast round
    among n contenders, {(j, k): Fraction}.

    The leading size is Binomial(n, 1/2); the trailing size is 0 with
    probability 1/2 + 2^-n and k with probability 2^-(k+1) for 1 <= k <= n-1.
    """
    if n < 1:
        raise ValueError("need at least one contender")
    half_pow = Fraction(1, 2**n)
    out = {(0, 0): half_pow}
    for k in range(0, n):
        for j in range(1, n - k + 1):
            out[(j, k)] = math.comb(n - k - 1, j - 1) * half_pow
    return out


def leader_election_rounds(m, rng: np.random.Generator):
    """Rounds needed to thin ``m`` contenders to one by fair coin flipping,
    simulated round by round.

    Every contender flips each round; the heads-flippers survive whenever that
    leaves at least one and fewer than all contenders, otherwise the round is
    wasted. Accepts a scalar or an array of contender counts.
    """
    scalar = np.isscalar(m)
    counts = np.atleast_1d(np.asarray(m, dtype=np.int64)).ravel()
    if (counts < 1).any():
        raise ValueError("contender counts must be at least 1")
    rounds = np.zeros(counts.size, dtype=np.int64)
    # only running elections are carried: their output positions and counts
    pos = np.flatnonzero(counts > 1)
    cur = counts[pos]
    r = 0
    while pos.size:
        r += 1
        heads = rng.binomial(cur, 0.5)
        cur = np.where((heads >= 1) & (heads < cur), heads, cur)
        done = cur == 1
        rounds[pos[done]] = r
        pos, cur = pos[~done], cur[~done]
    return int(rounds[0]) if scalar else rounds.reshape(np.shape(m))


def broadcast_means(n_max: int, toll_mean, base_means=(0.0, 0.0)):
    """Float means E Y_0..E Y_{n_max} of a broadcast recurrence, by the mean
    recurrence alone (O(n) per index, O(n_max^2) in total).

    Y_n = Y_J + Y_K + toll with the law of ``broadcast_index_pmf``: the
    leading size J is Binomial(n, 1/2) and the trailing size K is 0 with
    probability 1/2 + 2^-n and k with probability 2^-(k+1) for 1 <= k < n.
    Only the all-heads atom (n, 0), of weight 2^-n, points back at n; its
    share of E Y_n moves to the left-hand side. ``toll_mean(n)`` is the
    toll's expectation over the whole joint law.
    """
    means = np.zeros(n_max + 1)
    means[: len(base_means)] = base_means
    binom = np.array([1.0])  # Binomial(n, 1/2) pmf, one Pascal step per n
    for n in range(1, n_max + 1):
        binom = 0.5 * (np.append(binom, 0.0) + np.insert(binom, 0, 0.0))
        if n < len(base_means):
            continue
        trailing = 0.5 ** np.arange(1, n + 1)
        trailing[0] += 0.5**n
        rest = toll_mean(n) + (binom[:n] + trailing) @ means[:n]
        means[n] = rest / (1.0 - 0.5**n)
    return means


def sampled_tv(keys, reference: dict, t: float = 0.02) -> tuple:
    """Total variation between the empirical law of ``keys`` and
    ``reference`` ({key: probability}), with the bound it must stay under.

    E[TV] <= 1/2 sum_i sqrt(p_i (1 - p_i) / N) by Jensen, and one draw moves
    TV by at most 1/N, so TV exceeds that mean by ``t`` with probability at
    most exp(-2 N t^2) (McDiarmid): 1e-7 for N = 20000 and t = 0.02.
    """
    n_draws = len(keys)
    emp: dict = {}
    for key in keys:
        emp[key] = emp.get(key, 0) + 1
    tv = 0.5 * sum(
        abs(emp.get(k, 0) / n_draws - reference.get(k, 0.0)) for k in set(emp) | set(reference)
    )
    p = np.array([float(x) for x in reference.values()])
    return tv, 0.5 * float(np.sum(np.sqrt(p * (1.0 - p) / n_draws))) + t


def election_rounds_law(m: int, eps: float = 1e-13) -> dict:
    """Exact law {rounds: probability} of thinning m contenders to one by fair
    coin flips: from c contenders the h heads-flippers survive when
    1 <= h < c, otherwise the round is wasted. Stops once the running mass
    is below ``eps``."""
    if m == 1:
        return {0: 1.0}
    step = np.zeros((m + 1, m + 1))
    for c in range(2, m + 1):
        row = np.array([math.comb(c, h) / 2**c for h in range(c + 1)])
        step[c, 1:c] = row[1:c]
        step[c, c] = row[0] + row[c]
    state = np.zeros(m + 1)
    state[m] = 1.0
    law: dict = {}
    rounds = 0
    while state.sum() > eps:
        rounds += 1
        state = state @ step
        law[rounds] = float(state[1])
        state[1] = 0.0
    return law


def broadcast_b_means(n_max: int) -> list:
    """Float means E Y_0..E Y_{n_max} of Y_n = Y_J + L_n, J uniform on
    0..n-1 and Y_0 = Y_1 = 1: E Y_n = E L_n + mean(E Y_0..E Y_{n-1}). The
    election means come from one step of its chain: E L_1 = 0 and
    E L_m = (1 + sum_{h=1}^{m-1} C(m,h) 2^-m E L_h) / (1 - 2^(1-m)), each
    binomial weight a correctly rounded ratio of ints."""
    rounds = [0.0, 0.0]
    for m in range(2, n_max + 1):
        terms, c = [], 1
        for h in range(1, m):
            c = c * (m - h + 1) // h  # C(m, h)
            terms.append(c / 2**m * rounds[h])
        rounds.append((1.0 + math.fsum(terms)) / (1.0 - 2.0 ** (1 - m)))
    means = [1.0, 1.0]
    for n in range(2, n_max + 1):
        means.append(rounds[n] + math.fsum(means) / n)
    return means
