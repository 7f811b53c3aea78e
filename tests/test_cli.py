"""CLI and package surface tests: schemas, determinism, exit codes, exports."""

import json
import subprocess
import sys

import pytest

from recdist.cli import main as cli_main

BASE = [sys.executable, "-m", "recdist"]


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, timeout=600
    )


def test_dist_json_values():
    res = run_cli("dist", "--model", "unsuccessful-search", "--n", "4", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    atoms = doc["pmf"]["atoms"]
    assert [a[:2] for a in atoms] == [[1, 1], [2, 1], [3, 1]]
    assert atoms[0][2] == pytest.approx(1 / 3)
    assert atoms[1][2] == pytest.approx(1 / 2)
    assert atoms[2][2] == pytest.approx(1 / 6)


def test_dist_csv_schema():
    res = run_cli("dist", "--model", "quickselect", "--n", "3", "--format", "csv")
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "value,prob"
    assert len(lines) == 3


def test_exact_flag_round_numbers():
    res = run_cli("dist", "--model", "unsuccessful-search", "--n", "4", "--exact")
    doc = json.loads(res.stdout)
    assert doc["pmf"]["lost_mass"] == 0.0


def test_simulate_deterministic_bytes():
    args = ("simulate", "--model", "node-depth", "--n", "30", "--runs", "20000", "--seed", "9")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_seed_env_var_default():
    args = ("simulate", "--model", "node-depth", "--n", "20", "--runs", "5000")
    a = run_cli(*args, env_extra={"RECDIST_SEED": "123"})
    b = run_cli(*args, env_extra={"RECDIST_SEED": "123"})
    c = run_cli(*args, env_extra={"RECDIST_SEED": "124"})
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


def test_moments_csv():
    res = run_cli("moments", "--model", "unsuccessful-search", "--ns", "2:16", "--format", "csv")
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "n,mean,variance,third_abs_central"
    assert len(lines) == 5  # 2, 4, 8, 16


def test_zeta3_series_json():
    res = run_cli("zeta3", "--model", "unsuccessful-search", "--ns", "16:64")
    doc = json.loads(res.stdout)
    ns = [row["n"] for row in doc["rows"]]
    assert ns == [16, 32, 64]
    assert all(row["value"] > 0 for row in doc["rows"])


def test_rate_fit_window():
    res = run_cli("rate", "--model", "unsuccessful-search", "--metric", "zeta3",
                  "--ns", "64:1024")
    doc = json.loads(res.stdout)
    assert 0.2 <= doc["fit"]["exponent"] <= 0.8


def test_verify_quickselect_routes_to_fixed_point():
    res = run_cli("verify", "--model", "quickselect")
    doc = json.loads(res.stdout)
    assert doc["degenerate"] is False
    assert doc["route"] == "fixed-point"
    assert res.returncode == 0


def test_verify_rows_csv_schema():
    res = run_cli("verify", "--model", "unsuccessful-search", "--ns", "8:32", "--format", "csv")
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "n,sd_ratio,toll_norm3,gain_norm3,gap_norm3,zeta3_std,zeta3_acc,bound_sum,kolmogorov"
    assert len(lines) == 4


def test_verify_election_model_is_exact_and_seed_free():
    # every term of verify is computed from exact laws: the seed changes nothing
    runs = [run_cli("verify", "--model", "broadcast-b-time", "--ns", "16:32", "--seed", s) for s in "12"]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    doc = json.loads(runs[0].stdout)
    assert [row["n"] for row in doc["rows"]] == [16, 32]
    assert [row["n"] for row in doc["conditions"]["rows"]] == [16, 32]


def test_fixed_point_moments_json():
    res = run_cli("fixed-point", "--equation", "dickman", "--population", "50000",
                  "--iterations", "40", "--seed", "3")
    doc = json.loads(res.stdout)
    assert doc["mean"] == pytest.approx(1.0, abs=0.05)


def test_catalog_lists_all_models():
    res = run_cli("catalog")
    doc = json.loads(res.stdout)
    names = [m["name"] for m in doc["models"]]
    assert names == [
        "unsuccessful_search", "node_depth", "quickselect",
        "broadcast_a_time", "broadcast_a_comparisons", "broadcast_b_time",
    ]
    assert all(m["exact_dp"] for m in doc["models"])


def test_unknown_model_is_usage_error():
    res = run_cli("dist", "--model", "nonsense", "--n", "4")
    assert res.returncode == 2


def test_unknown_flag_is_usage_error():
    res = run_cli("dist", "--model", "quickselect", "--n", "4", "--frobnicate")
    assert res.returncode == 2


def test_capacity_exit_code():
    res = run_cli("dist", "--model", "quickselect", "--n", "400")
    assert res.returncode == 3
    assert "n=256" in res.stderr


def test_precondition_exit_code():
    res = run_cli("zeta3", "--model", "quickselect", "--ns", "16:64")
    assert res.returncode == 4


def test_output_file(tmp_path):
    out = tmp_path / "pmf.csv"
    res = run_cli("dist", "--model", "quickselect", "--n", "3", "--format", "csv",
                  "--output", str(out))
    assert res.returncode == 0 and res.stdout == ""
    assert out.read_text().startswith("value,prob")


def test_spec_json_input(tmp_path):
    doc = {
        "name": "custom", "k": 1, "n0": 2,
        "base": [{"atoms": [[0, 1, 1.0]], "lost_mass": 0.0}] * 2,
        "rows": [[2, 1, None, 1, 1.0], [3, 1, None, 1, 0.5], [3, 2, None, 1, 0.5]],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    res = run_cli("dist", "--spec-json", str(path), "--n", "3")
    out = json.loads(res.stdout)
    assert [a[:2] for a in out["pmf"]["atoms"]] == [[1, 1], [2, 1]]


def test_spec_json_rows_keep_their_law_bytes(tmp_path):
    """A JSON recurrence carries no polynomial rows: Y_n = Y_I + 1/2 with I
    uniform on 1..n-1, tabulated row by row, keeps the `dist` output bytes
    it had before polynomial rows existed (sha256, spec path masked)."""
    import hashlib

    from recdist import cli, spec_from_json

    rows = [[n, i, None, "1/2", f"1/{n - 1}"] for n in range(2, 101) for i in range(1, n)]
    doc = {"name": "half_toll_search", "k": 1, "n0": 2,
           "base": [{"atoms": [[0, 1, 1.0]]}, {"atoms": [[0, 1, 1.0]]}], "rows": rows}
    spec, out = tmp_path / "spec.json", tmp_path / "out.json"
    spec.write_text(json.dumps(doc))
    assert not any(g.poly for g in spec_from_json(doc).law_groups(100, False))
    assert cli.main(["dist", "--spec-json", str(spec), "--n", "100", "--output", str(out)]) == 0
    text = out.read_text().replace(str(spec), "SPEC")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0c6d73df74ce8f11e938f69e8db36050a07be23ff6525416808f492ee7f7627c"
    )


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("weights", [("3/5", "3/5"), ("3/2", "-1/2")], ids=["heavy", "negative"])
def test_moments_spec_json_rejects_malformed_weights(tmp_path, exact, weights):
    doc = {
        "name": "custom", "k": 1, "n0": 2,
        "base": [{"atoms": [[0, 1, 1.0]], "lost_mass": 0.0}] * 2,
        "rows": [[2, 1, None, 1, 1.0]] + [[3, i, None, 1, w] for i, w in enumerate(weights, 1)],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    res = run_cli("moments", "--spec-json", str(path), "--ns", "2,3", *(["--exact"] if exact else []))
    assert res.returncode == 4, res.stderr
    assert "Traceback" not in res.stderr


def test_negative_index_is_precondition_error():
    res = run_cli("dist", "--model", "unsuccessful-search", "--n", "-1")
    assert res.returncode == 4
    assert "Traceback" not in res.stderr


def test_verify_below_n0_is_precondition_error():
    res = run_cli("verify", "--model", "unsuccessful-search", "--ns", "1,2")
    assert res.returncode == 4
    assert "n0=2" in res.stderr
    assert "Traceback" not in res.stderr


def test_simulate_zero_runs_is_usage_error():
    res = run_cli("simulate", "--model", "node-depth", "--n", "20", "--runs", "0")
    assert res.returncode == 2
    assert res.stdout == ""


@pytest.mark.parametrize("command", [
    ("simulate", "--model", "node-depth", "--n", "20", "--runs", "500"),
    ("fixed-point", "--equation", "dickman", "--population", "1000", "--iterations", "5"),
])
def test_seed_from_environment_is_recorded(command):
    res = run_cli(*command, env_extra={"RECDIST_SEED": "123"})
    assert res.returncode == 0
    assert json.loads(res.stdout)["seed"] == 123
    explicit = run_cli(*command, "--seed", "123")
    assert explicit.stdout == res.stdout


def _uniform_index_doc(toll, n_max: int) -> dict:
    """Uniform surviving index on {1, ..., n-1} with a constant toll."""
    rows = [[n, i, None, toll, f"1/{n - 1}"] for n in range(2, n_max + 1) for i in range(1, n)]
    return {"name": "uniform", "k": 1, "n0": 2,
            "base": [{"atoms": [[0, 1, 1.0]], "lost_mass": 0.0}] * 2, "rows": rows}


def test_simulate_rational_toll_tv_bins_on_the_lattice(tmp_path):
    path = tmp_path / "tenth.json"
    path.write_text(json.dumps(_uniform_index_doc("1/10", 30)))
    res = run_cli("simulate", "--spec-json", str(path), "--n", "30", "--runs", "20000",
                  "--seed", "1")
    assert res.returncode == 0, res.stderr
    # exact float equality put 0.1 + 0.1 + 0.1 and 0.3 in different bins (0.260)
    assert json.loads(res.stdout)["tv_to_exact"] <= 0.03


def test_tv_to_exact_unchanged_for_integer_draws():
    import numpy as np

    from recdist.catalog import make
    from recdist.cli import _tv_to_exact
    from recdist.engine import Solver, sample_many

    spec = make("node_depth").spec
    law = Solver(spec).law(40)
    draws = sample_many(spec, 40, 20_000, np.random.default_rng(4))
    # the exact-float-equality binning used before the lattice binning
    vals, counts = np.unique(draws, return_counts=True)
    emp = dict(zip(vals.tolist(), (counts / len(draws)).tolist()))
    ex = {float(v): float(p) for v, p in zip(law.values, law.probs)}
    old = 0.5 * sum(abs(emp.get(k, 0.0) - ex.get(k, 0.0)) for k in set(emp) | set(ex))
    assert _tv_to_exact(draws, law, 1) == old


def test_memory_error_is_capacity_exit(monkeypatch, capsys):
    from recdist import cli

    def exhausted(args):
        raise MemoryError("Unable to allocate 939. MiB for an array")

    monkeypatch.setattr(cli, "_cmd_verify", exhausted)
    code = cli.main(["verify", "--model", "broadcast-a-time", "--ns", "512"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CAPACITY == 3
    assert err.startswith("capacity error:") and "Traceback" not in err


@pytest.mark.parametrize("args, env", [
    (("moments", "--model", "node-depth", "--ns", "x:y"), None),
    (("moments", "--model", "node-depth", "--ns", "4,,x"), None),
    (("simulate", "--model", "node-depth", "--n", "10", "--runs", "10", "--seed", "-1"), None),
    (("simulate", "--model", "node-depth", "--n", "10", "--runs", "10"), {"RECDIST_SEED": "abc"}),
    (("fixed-point", "--equation", "dickman", "--population", "1000", "--iterations", "2",
      "--bins", "0"), None),
], ids=["ns-range", "ns-list", "negative-seed", "seed-env", "zero-bins"])
def test_malformed_numbers_are_usage_errors(args, env):
    res = run_cli(*args, env_extra=env)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("usage error:") and "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("flag", [("--exact",), ("--tail-eps", "nan")], ids=["exact", "tail-eps"])
def test_fixed_point_refuses_solver_flags(flag):
    # population iteration solves no recurrence, so these would go unread
    res = run_cli("fixed-point", "--equation", "dickman", "--population", "1000",
                  "--iterations", "2", *flag)
    assert res.returncode == 2, res.stderr
    assert "unrecognized arguments" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["dist", "moments"])
def test_nan_tail_eps_is_precondition_error(command):
    where = ("--n", "5") if command == "dist" else ("--ns", "4,8")
    res = run_cli(command, "--model", "node-depth", *where, "--tail-eps", "nan")
    assert res.returncode == 4, res.stderr
    assert "tail_eps" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_verify_json_has_no_nan():
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    res = run_cli("verify", "--model", "unsuccessful-search", "--ns", "2,4")
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout, parse_constant=refuse)["rows"]
    # the variance vanishes at n = 2, where the Kolmogorov distance is undefined
    assert rows[0]["kolmogorov"] is None and rows[1]["kolmogorov"] > 0
    csv = run_cli("verify", "--model", "unsuccessful-search", "--ns", "2,4", "--format", "csv")
    assert csv.stdout.split("\n")[1].endswith(",2.0,")


#: rows at n = 3 of a k = 2 document, each with one index outside {0,...,3}
BAD_INDEX_ROWS = {
    "leading-past-n": [3, 4, 1, 1, 1.0],
    "leading-negative": [3, -1, 1, 1, 1.0],
    "trailing-past-n": [3, 1, 4, 1, 1.0],
    "trailing-negative": [3, 1, -1, 1, 1.0],
}


def _bad_index_doc(row: list) -> dict:
    return {"k": 2, "n0": 2, "base": [{"atoms": [[0, 1, 1.0]]}] * 2, "rows": [[2, 1, 1, 1, 1.0], row]}


def _main_in_process(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI run; an uncaught
    exception fails the test instead of printing a traceback."""
    from recdist import cli

    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


@pytest.mark.parametrize("content, code", [
    (None, 2),
    ("", 4),
    ("{not json", 4),
    ('{"k": 1}', 4),
    ("[1, 2]", 4),
    ('{"k": 1, "n0": 1, "base": [{"atoms": [[0, 1, 1.0]]}], "rows": 5}', 4),
    ('{"k": 1, "n0": 2, "base": [{"atoms": [[0, 1, 1.0]]}, {"atoms": [[0, 1, 1.0]]}], '
     '"rows": [[2, 1, null, 1, null]]}', 4),
    ('{"k": 1, "n0": 2, "base": [{"atoms": [[0, 1, 1.0]]}, {"atoms": [[0, 1, 1.0]]}], '
     '"rows": [[2, 1, null, null, 1]]}', 4),
    *((json.dumps(_bad_index_doc(row)), 4) for row in BAD_INDEX_ROWS.values()),
], ids=["missing", "empty", "not-json", "no-base", "not-an-object", "rows-not-a-list",
        "null-prob", "null-toll", *BAD_INDEX_ROWS])
def test_bad_spec_json_is_a_typed_error(tmp_path, capsys, content, code):
    path = tmp_path / "spec.json"
    if content is not None:
        path.write_text(content)
    got, out, err = _main_in_process(capsys, ["dist", "--spec-json", str(path), "--n", "3"])
    assert got == code, err
    assert err.startswith("usage error:" if code == 2 else "precondition error:")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["dist", "--model", "node-depth", "--n", "3", "--format", "csv"],
    ["catalog"],
], ids=["dist", "catalog"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = _main_in_process(capsys, argv + ["--output", str(target)])
    assert code == 2, err
    assert err.startswith("usage error:") and out == ""
    assert not target.exists()


@pytest.mark.parametrize("command", ["zeta3", "verify", "moments"])
@pytest.mark.parametrize("grid", [",", ""], ids=["comma", "blank"])
def test_empty_index_grid_is_usage_error(capsys, command, grid):
    code, out, err = _main_in_process(capsys, [command, "--model", "unsuccessful-search", "--ns", grid])
    assert code == 2, err
    assert err.startswith("usage error:") and out == ""


@pytest.mark.parametrize("argv", [
    ["dist", "--n", "3"],
    ["simulate", "--n", "3", "--runs", "10"],
    ["moments", "--ns", "2,3"],
], ids=["dist", "simulate", "moments"])
def test_model_and_spec_json_exclude_each_other(tmp_path, capsys, argv):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_bad_index_doc([3, 1, 1, 1, 1.0])))
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + ["--model", "node-depth", "--spec-json", str(path)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    # either one alone is accepted
    for source in (["--model", "node-depth"], ["--spec-json", str(path)]):
        assert cli_main(argv + source + ["--output", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("command", ["zeta3", "rate", "verify"])
def test_catalog_only_commands_refuse_spec_json(capsys, command):
    # the path is never opened: the flag is not one of these commands'
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--model", "unsuccessful-search", "--spec-json", "x", "--ns", "16"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --spec-json" in capsys.readouterr().err


def test_rate_kolmogorov_series_is_the_distance_at_each_n(capsys, solver_nd):
    from recdist import clt

    code, out, err = _main_in_process(
        capsys, ["rate", "--model", "node-depth", "--ns", "64:1024", "--metric", "kolmogorov"]
    )
    assert code == 0, err
    series = json.loads(out)["series"]
    assert [row["n"] for row in series] == [64, 128, 256, 512, 1024]
    for row in series:
        assert row["value"] == clt.kolmogorov_to_normal(solver_nd, row["n"])


@pytest.mark.parametrize("argv", [
    ["zeta3", "--ns", "1"],
    ["rate", "--ns", "1:16"],
    ["rate", "--ns", "1:16", "--metric", "kolmogorov"],
], ids=["zeta3", "rate-zeta3", "rate-kolmogorov"])
def test_vanishing_variance_is_a_precondition_error(capsys, argv):
    # node depth is 0 at n = 1: the unit-variance scaling is undefined
    code, out, err = _main_in_process(capsys, argv + ["--model", "node-depth"])
    assert code == 4, err
    assert err.startswith("precondition error:") and "n=1" in err
    assert out == ""


def test_every_export_resolves():
    import recdist

    assert [name for name in recdist.__all__ if not hasattr(recdist, name)] == []
    exec("from recdist import *", {})  # raises AttributeError on a stale name
