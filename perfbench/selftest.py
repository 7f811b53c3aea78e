"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

Each check must pass on the program's real output and fail on a deliberately
corrupted copy of it. The end-to-end tests run every workload at the small
scale through ``run.py`` in a few seconds each.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _cli(tmp_path, argv: list) -> dict:
    from recdist import cli

    out = tmp_path / "out.json"
    assert cli.main(argv + ["--output", str(out)]) == 0
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------


def test_reference_values():
    assert oracles.broadcast_b_means(1024)[1024] == pytest.approx(48.328, abs=5e-4)
    assert oracles.dickman_moments()[1:4] == pytest.approx([1.0, 1.5, 17.0 / 6.0], rel=1e-15)
    q = oracles.quickselect_fixed_point_moments()
    assert q[1:4] == pytest.approx([0.0, 1.0, 2.0 * math.sqrt(2.0) / 3.0], abs=1e-14)
    law = oracles.search_law(5)  # Bernoulli(1), (1/2), (1/3), (1/4)
    assert sum(law) == 1 and law[0] == 0 and law[4] == Fraction(1, 24)
    mean, var = oracles.search_moments(5)
    assert mean == pytest.approx(sum(k * p for k, p in enumerate(law)))
    assert var == pytest.approx(sum((k - mean) ** 2 * p for k, p in enumerate(law)))


def test_broadcast_means_match_brute_force_expansion():
    """The mean recurrence against E Y_n summed over the joint law itself."""
    def index_law(n):  # the law stated in the broadcast_index_pmf docstring
        out = {(0, 0): Fraction(1, 2**n)}
        for k in range(n):
            for j in range(1, n - k + 1):
                out[(j, k)] = Fraction(math.comb(n - k - 1, j - 1), 2**n)
        return out

    for comparisons in (False, True):
        means = oracles.broadcast_means(12, comparisons)
        exact = [Fraction(0 if comparisons else 1)] * 2
        for n in range(2, 13):
            law = index_law(n)
            toll = sum(w * ((n - j) if comparisons else 1) for (j, k), w in law.items())
            rest = sum(w * ((exact[j] if j < n else 0) + exact[k]) for (j, k), w in law.items())
            exact.append((toll + rest) / (1 - law[(n, 0)]))
        assert means == pytest.approx([float(x) for x in exact], rel=1e-13)


# ---------------------------------------------------------------------------
# each check passes on real output and fails on a corrupted copy
# ---------------------------------------------------------------------------


def test_exact_law_check_catches_shifted_atom_and_halved_lost_mass(tmp_path):
    doc = _cli(tmp_path, ["dist", "--model", "unsuccessful-search", "--exact", "--n", "40"])
    pmf = doc["pmf"]
    assert pmf["lost_mass"] > 0
    assert oracles.check_search_exact("t", pmf, 40, exact_atoms=False) == []
    shifted = copy.deepcopy(pmf)
    shifted["atoms"][3][0] += shifted["atoms"][3][1]  # value + 1
    assert oracles.check_search_exact("t", shifted, 40, exact_atoms=False)
    halved = copy.deepcopy(pmf)
    halved["lost_mass"] /= 2
    assert oracles.check_search_exact("t", halved, 40, exact_atoms=False)


def test_untruncated_law_check_needs_every_atom_exact(tmp_path):
    doc = _cli(tmp_path, ["dist", "--model", "unsuccessful-search", "--exact", "--tail-eps", "0", "--n", "20"])
    pmf = doc["pmf"]
    assert oracles.check_search_exact("t", pmf, 20, exact_atoms=True) == []
    bad = copy.deepcopy(pmf)
    bad["atoms"][5][2] = math.nextafter(bad["atoms"][5][2], 0.0)
    assert oracles.check_search_exact("t", bad, 20, exact_atoms=True)


def test_half_toll_check(tmp_path):
    rnd = workloads.Round("exact-dp", 0, "small", str(tmp_path))
    spec = rnd._half_toll_spec(40)
    pmf = _cli(tmp_path, ["dist", "--spec-json", spec, "--n", "40"])["pmf"]
    assert oracles.check_half_toll("t", pmf, 40) == []
    shifted = copy.deepcopy(pmf)
    num, den, _ = shifted["atoms"][2]
    shifted["atoms"][2][0] = num + den  # value + 1
    assert oracles.check_half_toll("t", shifted, 40)
    halved = copy.deepcopy(pmf)
    halved["lost_mass"] /= 2
    assert pmf["lost_mass"] > 0 and oracles.check_half_toll("t", halved, 40)


def test_moment_row_checks(tmp_path):
    rows = _cli(tmp_path, ["moments", "--model", "node-depth", "--ns", "64:256"])["rows"]
    assert oracles.check_moment_rows("t", rows, oracles.node_depth_moments) == []
    bad = copy.deepcopy(rows)
    bad[1]["mean"] += 1e-6
    assert oracles.check_moment_rows("t", bad, oracles.node_depth_moments)
    bad = copy.deepcopy(rows)
    bad[2]["variance"] *= 1.001
    assert oracles.check_moment_rows("t", bad, oracles.node_depth_moments)

    rows = _cli(tmp_path, ["moments", "--model", "broadcast-a-comparisons", "--ns", "8,16"])["rows"]
    means = oracles.broadcast_means(16, comparisons=True)
    ref = lambda n: (means[n], None)  # noqa: E731
    assert oracles.check_moment_rows("t", rows, ref) == []
    rows[0]["mean"] *= 1 + 1e-7
    assert oracles.check_moment_rows("t", rows, ref)


def test_zeta3_checks_catch_value_below_third_moment_bound():
    from recdist import catalog, clt

    solver = catalog.make("node_depth").solver()
    rep = clt.zeta3_to_normal(solver, 256)
    mu, sd = float(solver.mean(256)), solver.sd(256)
    law = solver.law(256).affine(1.0 / sd, -mu / sd)
    _, var, c3, a3 = oracles.pmf_central_moments(law.values_f, law.probs_f)
    ok = oracles.check_zeta3("t", rep.value, rep.abs_error_bound, c3, a3, math.sqrt(var))
    assert ok == []
    lower = abs(c3) / 6.0
    assert oracles.check_zeta3("t", 0.5 * lower, rep.abs_error_bound, c3, a3, math.sqrt(var))
    assert oracles.check_zeta3("t", 10.0, rep.abs_error_bound, c3, a3, math.sqrt(var))
    assert oracles.check_probe("t", rep.value * 0.999, rep.value, rep.abs_error_bound) == []
    assert oracles.check_probe("t", rep.value * 1.001, rep.value, rep.abs_error_bound)
    assert oracles.check_kolmogorov("t", 0.3, 0.2) == []
    assert oracles.check_kolmogorov("t", 0.09, 0.2)


def test_mixture_third_moment():
    mu, var, c3 = oracles.mixture_central_moments([0.5, 0.5], [-1.0, 2.0], [1.0, 0.5])
    # direct: E X = 0.5, central components -1.5 and 1.5
    assert mu == pytest.approx(0.5)
    assert var == pytest.approx(0.5 * (2.25 + 1.0) + 0.5 * (2.25 + 0.25))
    assert c3 == pytest.approx(0.5 * (-3.375 - 4.5) + 0.5 * (3.375 + 1.125))


def test_condition_checks(tmp_path):
    doc = _cli(tmp_path, ["verify", "--model", "unsuccessful-search", "--ns", "16:32"])
    ref = lambda n: oracles.uniform_index_terms(1, n - 1, n)  # noqa: E731
    rows = doc["conditions"]["rows"]
    assert oracles.check_conditions("t", rows, ref) == []
    rows[0]["drift"] *= 1.01
    assert oracles.check_conditions("t", rows, ref)
    assert oracles.check_log_power("t", doc["log_power_ratio_violations"]) == []
    assert oracles.check_log_power("t", {"0.5": 1})
    doc = _cli(tmp_path, ["verify", "--model", "broadcast-a-time", "--ns", "16"])
    rows = doc["conditions"]["rows"]
    assert oracles.check_conditions("t", rows, oracles.broadcast_index_terms) == []


def test_monte_carlo_checks_catch_mean_moved_ten_standard_errors(tmp_path):
    n, runs = 256, 20_000
    doc = _cli(tmp_path, ["simulate", "--model", "node-depth", "--n", str(n), "--runs", str(runs), "--seed", "3"])
    mean, var = oracles.node_depth_moments(n)
    assert oracles.check_mc_mean("t", doc["mean"], mean, var, runs) == []
    se = math.sqrt(var / runs)
    assert oracles.check_mc_mean("t", doc["mean"] + 10 * se, mean, var, runs)
    assert oracles.check_mc_mean("t", doc["mean"] - 10 * se, mean, var, runs)

    pop = 20_000
    doc = _cli(tmp_path, ["fixed-point", "--equation", "dickman", "--population", str(pop), "--seed", "5"])
    exact = oracles.dickman_moments()
    est = [doc["mean"], doc["second_moment"], doc["third_moment"]]
    assert oracles.check_mc_raw_moments("t", est, exact, pop) == []
    se3 = math.sqrt((exact[6] - exact[3] ** 2) / pop)
    assert oracles.check_mc_raw_moments("t", est[:2] + [est[2] + 10 * se3], exact, pop)


def test_nan_and_mass_checks():
    assert oracles.check_no_nan("t", {"a": [1.0, {"b": 2}]}) == []
    assert oracles.check_no_nan("t", {"a": [1.0, {"b": float("nan")}]})
    assert oracles.check_mass("t", [0.25, 0.75], 0.0) == []
    assert oracles.check_mass("t", [0.25, 0.75], 1e-9)


def test_importtime_parser_counts_nested_imports_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy",
        "import time:       400 |        450 |     scipy.optimize",
        "import time:        10 |        460 |   recdist.metrics",
        "import time:        30 |        790 | recdist",
    ])
    out = spans.parse_importtime(text)
    assert out["import.numpy_s"] == pytest.approx(300e-6)
    assert out["import.scipy_s"] == pytest.approx(450e-6)
    assert out["import.scipy_optimize_s"] == pytest.approx(450e-6)
    assert out["import.recdist_s"] == pytest.approx(790e-6)


# ---------------------------------------------------------------------------
# end to end at the small scale
# ---------------------------------------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_passes_every_check(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "4", "--seconds", "0", "--scale", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # the only failures are the surrogate probes that fail on every run
    for line in proc.stdout.splitlines():
        if line.startswith("  failed each round:"):
            assert "probe-acc/" in line


def test_small_traced_run_reports_every_layer_metric():
    proc = _run(ROOT, "--workload", "normal-verify", "--seed", "4", "--seconds", "0",
                "--scale", "small", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == {name for name, _, _ in spans.LAYER_METRICS}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["metrics.probe_attempted"] > m["metrics.probe_failed"] > 0
    assert m["clt.accompanying_law_calls"] > 0 and m["metrics.zeta3_quad_components"] > 0
    assert m["engine.levels_solved"] > 0 and m["metrics.zeta3_quad_peak_alloc_mb"] > 0
    assert m["import.recdist_s"] > m["import.numpy_s"] > 0


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-dp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
