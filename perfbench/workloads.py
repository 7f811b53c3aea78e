"""The benchmark's workloads: a fixed list of operations each, plus the checks
that run on their outputs once the timed part is over.

An operation is either a ``recdist`` command run in process through
``recdist.cli.main(argv)`` with ``--output``, or a public library call where
the command line exposes no result (zeta3 error bounds, laws to probe). Every
operation of a workload runs in every round, in the same order, so a failure
that repeats on fixed inputs is the same share of the attempts in every run.

Sizes come in two scales: ``full`` for measurement and ``small`` for the
benchmark's own tests.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import oracles

WORKLOADS = ("exact-dp", "normal-verify", "monte-carlo")

SIZES = {
    "full": {
        "node_depth_ns": "64:4096",
        "broadcast_time_ns": "16:1024",
        "broadcast_comparisons_ns": "16,32,64,80",
        "search_exact_n": 100,
        "search_untruncated_n": 60,
        "half_toll_n": 100,
        "verify_search_ns": "16:2048",
        "verify_broadcast_ns": "16:128",
        "rate_ns": "64:2048",
        "sim_depth": (1024, 100_000),
        "sim_election": (1024, 20_000),
        "verify_election_ns": "16:32",
        "fixed_point": (500_000, 60),
    },
    "small": {
        "node_depth_ns": "64:256",
        "broadcast_time_ns": "16:64",
        "broadcast_comparisons_ns": "16,24",
        "search_exact_n": 30,
        "search_untruncated_n": 20,
        "half_toll_n": 20,
        "verify_search_ns": "16:64",
        "verify_broadcast_ns": "16:32",
        "rate_ns": "64:512",
        "sim_depth": (128, 20_000),
        "sim_election": (64, 4_000),
        "verify_election_ns": "16",
        "fixed_point": (20_000, 30),
    },
}


def grid(text: str) -> list:
    """The index grid of a ``--ns`` argument: 'a:b' doubles from a to b."""
    if ":" in text:
        lo, hi = (int(x) for x in text.split(":"))
        out = []
        while lo <= hi:
            out.append(lo)
            lo *= 2
        return out
    return [int(x) for x in text.split(",")]


class OperationFailed(Exception):
    """A ``recdist`` command that returned a nonzero exit code."""


class CertificateError(Exception):
    """A zeta3 lower probe that does not certify the reported distance."""


@dataclass
class Operation:
    name: str
    run: Callable[[], object]


class Round:
    """One workload's operations and checks for one seed and scale.

    ``outputs`` maps operation names to what they returned; checks read it
    after every operation has run. Operations that failed have no entry.
    """

    def __init__(self, workload: str, seed: int, scale: str, work_dir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.size = SIZES[scale]
        self.seed = seed
        self.work_dir = work_dir
        self.outputs: dict = {}
        self._solvers: dict = {}
        self._seeds = 0
        self.operations = {
            "exact-dp": self._exact_dp,
            "normal-verify": self._normal_verify,
            "monte-carlo": self._monte_carlo,
        }[workload]()

    # ---- operations ----

    def _next_seed(self) -> int:
        """Per-operation Monte Carlo seeds, derived from the benchmark seed."""
        self._seeds += 1
        return (self.seed % 2**31) * 64 + self._seeds

    def _cli(self, name: str, argv: list) -> Operation:
        path = os.path.join(self.work_dir, name.replace("/", "_") + ".json")

        def run():
            from recdist import cli

            code = cli.main(argv + ["--output", path])
            if code != 0:
                raise OperationFailed(f"exit {code}")
            return path

        return Operation(name, run)

    def _solver(self, model: str):
        """One library solver per model, shared by the round's library calls."""
        from recdist import catalog

        if model not in self._solvers:
            entry = catalog.make(model)
            self._solvers[model] = (entry.solver(), entry.params)
        return self._solvers[model]

    def _exact_dp(self) -> list:
        z = self.size
        half = self._half_toll_spec(z["half_toll_n"])
        return [
            self._cli("moments/node_depth", ["moments", "--model", "node-depth", "--ns", z["node_depth_ns"]]),
            self._cli("moments/broadcast_a_time",
                      ["moments", "--model", "broadcast-a-time", "--ns", z["broadcast_time_ns"]]),
            self._cli("moments/broadcast_a_comparisons",
                      ["moments", "--model", "broadcast-a-comparisons", "--ns", z["broadcast_comparisons_ns"]]),
            self._cli("dist/search_exact",
                      ["dist", "--model", "unsuccessful-search", "--exact", "--n", str(z["search_exact_n"])]),
            self._cli("dist/search_untruncated",
                      ["dist", "--model", "unsuccessful-search", "--exact", "--tail-eps", "0",
                       "--n", str(z["search_untruncated_n"])]),
            self._cli("dist/half_toll", ["dist", "--spec-json", half, "--n", str(z["half_toll_n"])]),
        ]

    def _half_toll_spec(self, n_max: int) -> str:
        """Custom recurrence Y_n = Y_I + 1/2, I uniform on 1..n-1. Its toll is
        not an integer, so the solver cannot use the integer lattice."""
        rows = [[n, i, None, "1/2", f"1/{n - 1}"] for n in range(2, n_max + 1) for i in range(1, n)]
        doc = {
            "name": "half_toll_search", "k": 1, "n0": 2,
            "base": [{"atoms": [[0, 1, 1.0]]}, {"atoms": [[0, 1, 1.0]]}],
            "rows": rows,
        }
        path = os.path.join(self.work_dir, "half_toll_spec.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def _normal_verify(self) -> list:
        z = self.size
        ops = [
            self._cli("verify/unsuccessful_search",
                      ["verify", "--model", "unsuccessful-search", "--ns", z["verify_search_ns"],
                       "--seed", str(self._next_seed())]),
            self._cli("verify/broadcast_a_time",
                      ["verify", "--model", "broadcast-a-time", "--ns", z["verify_broadcast_ns"],
                       "--seed", str(self._next_seed())]),
            self._cli("rate/node_depth", ["rate", "--model", "node-depth", "--ns", z["rate_ns"]]),
        ]
        for model, ns in (
            ("unsuccessful_search", z["verify_search_ns"]),
            ("broadcast_a_time", z["verify_broadcast_ns"]),
        ):
            for n in grid(ns):
                ops += self._certify(model, n)
        for n in grid(z["rate_ns"]):
            ops += self._certify_unit("node_depth", n)
        return ops

    def _certify(self, model: str, n: int) -> list:
        """zeta3 with its error bound, and the lower probe, for the
        standardized law and for the accompanying surrogate at n."""
        from recdist import clt, metrics

        def std_zeta3():
            solver, params = self._solver(model)
            return clt.zeta3_standardized(solver, n, params)

        def std_probe():
            solver, params = self._solver(model)
            law, tau = clt.standardized_law(solver, n, params)
            target = metrics.NormalMixture.normal(0.0, tau)
            return self._certify_probe(f"std/{model}/{n}", law, target)

        def acc_zeta3():
            solver, params = self._solver(model)
            return clt.zeta3_accompanying(solver, n, params)

        def acc_probe():
            solver, params = self._solver(model)
            acc = clt.accompanying_law(solver, n, params)
            target = metrics.NormalMixture.normal(0.0, acc.sd)
            return self._certify_probe(f"acc/{model}/{n}", acc.mixture, target)

        return [
            Operation(f"zeta3-std/{model}/{n}", std_zeta3),
            Operation(f"probe-std/{model}/{n}", std_probe),
            Operation(f"zeta3-acc/{model}/{n}", acc_zeta3),
            Operation(f"probe-acc/{model}/{n}", acc_probe),
        ]

    def _certify_probe(self, tag: str, law, target) -> float:
        """The lower probe of zeta3(law, target), certifying the zeta3 report
        of the operation ``zeta3-<tag>`` that ran just before. Raises when the
        probe raises or when it exceeds that report's value plus its bound:
        either way the reported distance is not certified. The law is kept as
        ``law-<tag>`` for the moment checks, whether or not the probe fails."""
        from recdist import metrics

        self.outputs[f"law-{tag}"] = law
        rep = self.outputs.get(f"zeta3-{tag}")
        if rep is None:
            raise CertificateError(f"zeta3-{tag} has no report to certify")
        probe = metrics.zeta3_lower_probe(law, target)
        failed = oracles.check_probe(f"probe-{tag}", probe, rep.value, rep.abs_error_bound)
        if failed:
            raise CertificateError(failed[0])
        return probe

    def _certify_unit(self, model: str, n: int) -> list:
        """zeta3 of the unit-variance standardized law (as ``rate`` reports
        it) with its error bound, and the lower probe on the same law."""
        from recdist import clt, metrics

        def zeta3():
            return clt.zeta3_to_normal(self._solver(model)[0], n)

        def probe():
            solver = self._solver(model)[0]
            mu, sd = float(solver.mean(n)), solver.sd(n)
            law = solver.law(n).affine(1.0 / sd, -mu / sd)
            return self._certify_probe(f"unit/{model}/{n}", law, metrics.NormalMixture.std_normal())

        return [Operation(f"zeta3-unit/{model}/{n}", zeta3), Operation(f"probe-unit/{model}/{n}", probe)]

    def _monte_carlo(self) -> list:
        z = self.size
        (nd_n, nd_runs), (el_n, el_runs) = z["sim_depth"], z["sim_election"]
        pop, steps = z["fixed_point"]
        return [
            self._cli("simulate/node_depth",
                      ["simulate", "--model", "node-depth", "--n", str(nd_n), "--runs", str(nd_runs),
                       "--seed", str(self._next_seed())]),
            self._cli("simulate/broadcast_b_time",
                      ["simulate", "--model", "broadcast-b-time", "--n", str(el_n), "--runs", str(el_runs),
                       "--seed", str(self._next_seed())]),
            self._cli("verify/broadcast_b_time",
                      ["verify", "--model", "broadcast-b-time", "--ns", z["verify_election_ns"],
                       "--seed", str(self._next_seed())]),
            *(
                self._cli(f"fixed-point/{eq}",
                          ["fixed-point", "--equation", eq, "--population", str(pop),
                           "--iterations", str(steps), "--seed", str(self._next_seed())])
                for eq in ("quickselect", "dickman")
            ),
        ]

    # ---- checks ----

    def check(self) -> list:
        """Failure messages of every check on the outputs (empty: all pass)."""
        docs = {}
        errs = []
        for name, out in self.outputs.items():
            if isinstance(out, str):  # a CLI output file
                with open(out) as fh:
                    docs[name] = json.load(fh)
                errs += oracles.check_no_nan(name, docs[name])
        return errs + {
            "exact-dp": check_exact_dp,
            "normal-verify": check_normal_verify,
            "monte-carlo": check_monte_carlo,
        }[self.workload](self, docs)


def check_exact_dp(rnd: Round, docs: dict) -> list:
    z = rnd.size
    errs = []
    comparisons_max = max(grid(z["broadcast_comparisons_ns"]))
    time_max = max(grid(z["broadcast_time_ns"]))
    time_means = oracles.broadcast_means(time_max, comparisons=False)
    comp_means = oracles.broadcast_means(comparisons_max, comparisons=True)
    references = {
        "moments/node_depth": (oracles.node_depth_moments, z["node_depth_ns"]),
        "moments/broadcast_a_time": (lambda n: (time_means[n], None), z["broadcast_time_ns"]),
        "moments/broadcast_a_comparisons": (lambda n: (comp_means[n], None), z["broadcast_comparisons_ns"]),
    }
    for name, (ref, ns) in references.items():
        if name in docs:
            rows = docs[name]["rows"]
            if [r["n"] for r in rows] != grid(ns):
                errs.append(f"{name}: rows for {[r['n'] for r in rows]}, asked for {grid(ns)}")
            errs += oracles.check_moment_rows(name, rows, ref)
    if "dist/search_exact" in docs:
        errs += oracles.check_search_exact(
            "dist/search_exact", docs["dist/search_exact"]["pmf"], z["search_exact_n"], exact_atoms=False)
    if "dist/search_untruncated" in docs:
        errs += oracles.check_search_exact(
            "dist/search_untruncated", docs["dist/search_untruncated"]["pmf"],
            z["search_untruncated_n"], exact_atoms=True)
    if "dist/half_toll" in docs:
        errs += oracles.check_half_toll("dist/half_toll", docs["dist/half_toll"]["pmf"], z["half_toll_n"])
    return errs


def _check_law(tag: str, law) -> list:
    return oracles.check_mass(tag, law.probs, law.lost_mass)


def check_normal_verify(rnd: Round, docs: dict) -> list:
    z = rnd.size
    out = rnd.outputs
    errs = []
    references = {
        "unsuccessful_search": lambda n: oracles.uniform_index_terms(1, n - 1, n),
        "broadcast_a_time": oracles.broadcast_index_terms,
    }
    for model, ns in (
        ("unsuccessful_search", z["verify_search_ns"]),
        ("broadcast_a_time", z["verify_broadcast_ns"]),
    ):
        name = f"verify/{model}"
        doc = docs.get(name)
        if doc is not None:
            errs += oracles.check_conditions(name, doc["conditions"]["rows"], references[model])
            errs += oracles.check_log_power(name, doc["log_power_ratio_violations"])
            rows = {row["n"]: row for row in doc["rows"]}
            if sorted(rows) != grid(ns):
                errs.append(f"{name}: rows for {sorted(rows)}, asked for {grid(ns)}")
        for n in grid(ns):
            errs += _check_certificate(f"{model}/{n}", out, docs.get(name), n, model)
    rate = docs.get("rate/node_depth")
    series = {p["n"]: p["value"] for p in rate["series"]} if rate else {}
    if rate is not None:
        if sorted(series) != grid(z["rate_ns"]):
            errs.append(f"rate/node_depth: series for {sorted(series)}, asked for {grid(z['rate_ns'])}")
        if not (math.isfinite(rate["fit"]["exponent"]) and rate["fit"]["residual"] >= 0):
            errs.append(f"rate/node_depth: fit {rate['fit']}")
    for n in grid(z["rate_ns"]):
        tag = f"node_depth/{n}"
        rep = out.get(f"zeta3-unit/{tag}")
        law = out.get(f"law-unit/{tag}")
        if rep is not None and n in series and not oracles.close(series[n], rep.value):
            errs.append(f"rate/node_depth n={n}: {series[n]!r}, library {rep.value!r}")
        if law is not None:
            errs += _check_law(f"probe-unit/{tag}", law)
            _, var, c3, a3 = oracles.pmf_central_moments(law.values_f, law.probs_f)
            if rep is not None:
                errs += oracles.check_zeta3(f"zeta3-unit/{tag}", rep.value, rep.abs_error_bound,
                                            c3, a3, math.sqrt(var))
    return errs


def _check_certificate(tag: str, out: dict, verify_doc, n: int, model: str) -> list:
    """Checks on the zeta3 reports and probes of one (model, n)."""
    errs = []
    row = None
    if verify_doc is not None:
        row = next((r for r in verify_doc["rows"] if r["n"] == n), None)
    for kind, column in (("std", "zeta3_std"), ("acc", "zeta3_acc")):
        rep = out.get(f"zeta3-{kind}/{tag}")
        law = out.get(f"law-{kind}/{tag}")
        if rep is not None and row is not None and not oracles.close(row[column], rep.value):
            errs.append(f"verify/{model} n={n}: {column} {row[column]!r}, library {rep.value!r}")
        if law is None:
            continue
        if kind == "std":
            errs += _check_law(f"probe-std/{tag}", law)
            _, var, c3, a3 = oracles.pmf_central_moments(law.values_f, law.probs_f)
            if row is not None:
                errs += oracles.check_kolmogorov(f"verify/{model} n={n}", row["kolmogorov"],
                                                 float(max(law.probs_f)))
        else:
            _, var, c3 = oracles.mixture_central_moments(law.weights, law.means, law.sds)
            a3 = None
        if rep is not None:
            errs += oracles.check_zeta3(f"zeta3-{kind}/{tag}", rep.value, rep.abs_error_bound,
                                        c3, a3, math.sqrt(var))
    return errs


def check_monte_carlo(rnd: Round, docs: dict) -> list:
    z = rnd.size
    errs = []
    (nd_n, nd_runs), (el_n, el_runs) = z["sim_depth"], z["sim_election"]
    doc = docs.get("simulate/node_depth")
    if doc is not None:
        mean, var = oracles.node_depth_moments(nd_n)
        errs += oracles.check_mc_mean("simulate/node_depth", doc["mean"], mean, var, nd_runs)
        if not abs(doc["variance"] - var) <= 0.05 * var:
            errs.append(f"simulate/node_depth: variance {doc['variance']!r}, exact {var!r}")
        # TV of an empirical law: mean at most sqrt(K/N)/2 for K atoms (K <= n+1
        # here), and a deviation of 0.02 above it has probability exp(-800) at 1e5
        tv_cap = 0.5 * math.sqrt((nd_n + 1) / nd_runs) + 0.02
        if not 0.0 <= doc.get("tv_to_exact", -1.0) <= tv_cap:
            errs.append(f"simulate/node_depth: tv_to_exact {doc.get('tv_to_exact')!r} above {tv_cap!r}")
    doc = docs.get("simulate/broadcast_b_time")
    if doc is not None:
        mean = oracles.broadcast_b_means(el_n)[el_n]
        errs += oracles.check_mc_mean("simulate/broadcast_b_time", doc["mean"], mean, doc["variance"], el_runs)
    doc = docs.get("verify/broadcast_b_time")
    if doc is not None:
        errs += oracles.check_conditions(
            "verify/broadcast_b_time", doc["conditions"]["rows"],
            lambda n: oracles.uniform_index_terms(0, n - 1, n))
        errs += oracles.check_log_power("verify/broadcast_b_time", doc["log_power_ratio_violations"])
        ratios = [r["toll_l3_ratio"] for r in doc["conditions"]["rows"]]
        if [r["n"] for r in doc["conditions"]["rows"]] != grid(z["verify_election_ns"]) or None in ratios:
            errs.append(f"verify/broadcast_b_time: condition rows {doc['conditions']['rows']}")
    pop = z["fixed_point"][0]
    exact = {
        "quickselect": oracles.quickselect_fixed_point_moments(),
        "dickman": oracles.dickman_moments(),
    }
    for eq, moments in exact.items():
        doc = docs.get(f"fixed-point/{eq}")
        if doc is not None:
            est = [doc["mean"], doc["second_moment"], doc["third_moment"]]
            errs += oracles.check_mc_raw_moments(f"fixed-point/{eq}", est, moments, pop)
            k = doc.get("kolmogorov_to_normal")
            if k is not None and not 0.0 <= k <= 1.0:
                errs.append(f"fixed-point/{eq}: kolmogorov_to_normal {k!r}")
    return errs
