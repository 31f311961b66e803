import csv
import io
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from rqls import __version__
from rqls.cli import main


def run_cli(args, **kw):
    result = CliRunner().invoke(main, args, **kw)
    assert result.exit_code == 0, result.output
    return result


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# ")
    manifest = json.loads(lines[0][2:])
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return manifest, rows[0], rows[1:]


def test_params_json():
    res = run_cli([
        "params", "--kappa-star", "10", "--eps-t", "5e-3", "--eps-d", "5e-3",
    ])
    doc = json.loads(res.output)
    assert doc["version"] == __version__
    assert doc["config"]["command"] == "params"
    assert doc["params"]["J"] == 154 and doc["params"]["K"] == 62
    assert doc["params"]["kappa_tilde"] == 10.0


def test_gen_matrix_artifact(tmp_path):
    out = tmp_path / "mat.json"
    run_cli([
        "gen-matrix", "--n-qubits", "2", "--kappa", "25", "--seed", "3",
        "--out", str(out),
    ])
    doc = json.loads(out.read_text())
    mat = np.array([
        [complex(re, im) for re, im in row] for row in doc["artifact"]["matrix"]
    ])
    ev = np.linalg.eigvalsh(mat)
    cond = np.abs(ev).max() / np.abs(ev).min()
    assert cond == pytest.approx(25.0, abs=1e-10)
    assert doc["artifact"]["lam"] >= 1.0


def test_gen_matrix_deterministic():
    a = run_cli(["gen-matrix", "--kappa", "10", "--seed", "1"]).output
    b = run_cli(["gen-matrix", "--kappa", "10", "--seed", "1"]).output
    assert a == b


def test_build_series_reports_constants():
    res = run_cli([
        "build-series", "--kappa-star", "10", "--eps-t", "5e-3",
        "--eps-d", "5e-3",
    ])
    doc = json.loads(res.output)
    s = doc["series"]
    assert s["n_terms"] == s["J"] * s["K"] == 154 * 62
    assert len(s["y_nodes"]) == s["J"] and len(s["z_nodes"]) == s["K"]
    assert s["sum_abs_alpha"] == pytest.approx(s["N_y"] * s["N_z"], rel=1e-12)


def test_verify_series_csv(tmp_path):
    out = tmp_path / "verify.csv"
    run_cli([
        "verify-series", "--kappa-star", "10", "--eps-t", "5e-3",
        "--eps-d", "5e-3", "--trials", "5", "--out", str(out),
    ])
    manifest, header, rows = parse_csv(out.read_text())
    assert header == ["x", "series_re", "series_im", "abs_error"]
    assert len(rows) == 5 * 4
    assert manifest["config"]["eps_max"] <= manifest["config"]["budget"]
    assert max(float(r[3]) for r in rows) == pytest.approx(
        manifest["config"]["eps_max"]
    )


def test_table1_sizes_only(tmp_path):
    out = tmp_path / "table1.csv"
    run_cli(["table1", "--out", str(out)])
    manifest, header, rows = parse_csv(out.read_text())
    assert len(rows) == 12
    got = {(int(r[0]), float(r[1])): (int(r[2]), int(r[3])) for r in rows}
    assert got[(10, 1e-2)] == (154, 62)
    assert got[(1000, 1e-5)] == (30969, 12880)
    assert all(r[5] == "" for r in rows)  # no verification column content


def test_table1_with_trials(tmp_path):
    out = tmp_path / "table1v.csv"
    run_cli(["table1", "--trials", "3", "--out", str(out)])
    _, _, rows = parse_csv(out.read_text())
    for r in rows:
        if int(r[0]) < 1000:
            assert float(r[5]) <= float(r[1])  # eps_max within eps_F
        else:
            assert r[5] == ""  # heavy rows skipped without --heavy


def test_resources_pf_requires_f():
    result = CliRunner().invoke(main, [
        "resources", "--kernel", "pf", "--kappa-star", "10",
        "--eps-t", "5e-3", "--eps-d", "5e-3",
    ])
    assert result.exit_code != 0
    assert "--f" in result.output


def test_resources_pf_json():
    res = run_cli([
        "resources", "--kernel", "pf", "--kappa-star", "2",
        "--eps-t", "2e-2", "--eps-d", "2e-2", "--eps", "0.5",
        "--delta", "0.01", "--f", "0.001", "--big-l", "10",
    ])
    doc = json.loads(res.output)
    est = doc["estimate"]
    assert est["kernel"] == "pf" and not est["infeasible"]
    assert est["bias_bound"] < 0.5 / 2
    assert est["n_cp_per_sample"] == 2 * est["r"] * 10


def test_resources_rte_heavy_instance():
    # the headline hard instance: the sample count only fits in logs
    res = run_cli([
        "resources", "--kernel", "rte", "--kappa-star", "209",
        "--eps-t", "1e-3", "--eps-d", "1e-3", "--eps", "1e-3",
        "--delta", "0.01",
    ])
    doc = json.loads(res.output)
    est = doc["estimate"]
    t_max = doc["series"]["t_max"]
    assert t_max == pytest.approx(5579.757, abs=0.01)
    assert est["infeasible"] and est["n_s"] is None
    assert est["log10_n_s"] == pytest.approx(
        2 * t_max / math.log(10), rel=0.01
    )


def test_solve_exact(tmp_path):
    out = tmp_path / "solve.json"
    run_cli([
        "solve", "--kappa", "10", "--eps-t", "1e-2", "--eps-d", "1e-2",
        "--kernel", "exact", "--n-samples", "500", "--noise", "exact",
        "--seed", "5", "--out", str(out),
    ])
    doc = json.loads(out.read_text())
    rep = doc["report"]
    assert rep["n_samples"] == 500
    assert rep["abs_error"] is not None
    assert "records" not in rep["diagnostics"]


@pytest.mark.parametrize("kappa_star, certified", [(None, True), ("3", False)])
def test_solve_warns_when_uncertified(tmp_path, kappa_star, certified):
    out = tmp_path / "solve.json"
    extra = [] if kappa_star is None else ["--kappa-star", kappa_star]
    res = run_cli([
        "solve", "--kappa", "10", "--noise", "exact", "--n-samples", "200",
        "--out", str(out), *extra,
    ])
    doc = json.loads(out.read_text())
    assert doc["report"]["diagnostics"]["certified"] is certified
    assert ("not certified" in res.stderr) is not certified


def test_solve_from_artifact(tmp_path):
    mat = tmp_path / "mat.json"
    run_cli(["gen-matrix", "--kappa", "10", "--seed", "2", "--out", str(mat)])
    out = tmp_path / "solve.json"
    run_cli([
        "solve", "--matrix", str(mat), "--kernel", "pf", "--r-quad", "0.1",
        "--n-samples", "200", "--noise", "exact", "--out", str(out),
    ])
    doc = json.loads(out.read_text())
    assert doc["report"]["kernel"] == "pf"


def test_solve_certified_pf(tmp_path):
    out = tmp_path / "solve.json"
    run_cli([
        "solve", "--kappa", "5", "--eps-t", "2e-2", "--eps-d", "2e-2",
        "--kernel", "pf", "--eps-pf", "0.5", "--n-samples", "100",
        "--noise", "exact", "--out", str(out),
    ])
    doc = json.loads(out.read_text())
    assert doc["config"]["eps_pf"] == 0.5


def test_rmse_sweep_tiny(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli([
        "rmse-sweep", "--kappa", "5", "--eps-f", "4e-2", "--fixed-r", "3",
        "--max-samples", "1000", "--trials", "2", "--noise", "exact",
        "--out", str(out),
    ])
    manifest, header, rows = parse_csv(out.read_text())
    assert header == ["policy", "n_s", "rmse"]
    policies = {r[0] for r in rows}
    assert policies == {"exact", "fixed-r3", "adaptive-0.05", "adaptive-0.1"}
    assert manifest["master_seed"] == 0


def test_rte_single_tiny(tmp_path):
    out = tmp_path / "rte.csv"
    run_cli([
        "rte-single", "--taus", "1,2", "--r", "4", "--n-max", "6",
        "--max-samples", "500", "--trials", "2", "--kappa", "5",
        "--out", str(out),
    ])
    _, header, rows = parse_csv(out.read_text())
    assert header == ["tau", "n_s", "rmse"]
    assert {r[0] for r in rows} == {"1.0", "2.0"}
    assert all(float(r[2]) >= 0 for r in rows)


def test_threads_option_is_gone():
    args = ["params", "--kappa-star", "10", "--eps-t", "5e-3", "--eps-d", "5e-3"]
    result = CliRunner().invoke(main, ["--threads", "4", *args])
    assert result.exit_code == 2 and "No such option" in result.output
    assert "threads" not in json.loads(run_cli(args).output)


@pytest.mark.parametrize("args, message", [
    (["--kernel", "pf"], "exactly one r policy"),
    (["--kernel", "rte"], "exactly one r policy"),
    (["--kernel", "rte", "--r-quad", "0.25"], "n_max"),
])
def test_solve_missing_kernel_options_is_usage_error(args, message):
    result = CliRunner().invoke(main, [
        "solve", "--kappa", "5", "--eps-t", "5e-2", "--eps-d", "5e-2", *args,
    ])
    assert result.exit_code == 2, result.output
    assert not isinstance(result.exception, ValueError)
    assert "Error:" in result.output and message in result.output


def test_solve_rte_weight_overflow_is_click_error():
    # at r = 2 the longest times of the kappa = 1000 series have
    # log10 alpha^r = 373, beyond a float
    result = CliRunner().invoke(main, [
        "solve", "--kernel", "rte", "--r", "2", "--n-max", "150",
        "--kappa", "1000", "--n-samples", "20",
    ])
    assert result.exit_code == 1, result.output
    assert not isinstance(result.exception, ValueError)
    assert "Error:" in result.output and "log10 alpha^r = " in result.output


def test_rte_single_weight_overflow_is_click_error():
    # tau = 2000 in r = 2 segments: log10 alpha^r = 376
    result = CliRunner().invoke(main, [
        "rte-single", "--taus", "2000", "--r", "2", "--n-max", "150",
        "--max-samples", "100", "--trials", "1",
    ])
    assert result.exit_code == 1, result.output
    assert not isinstance(result.exception, ValueError)
    assert "Error:" in result.output and "log10 alpha^r = 376.158" in result.output


@pytest.mark.parametrize("args, option", [
    (["solve", "--n-samples", "0"], "--n-samples"),
    (["rmse-sweep", "--max-samples", "50"], "--max-samples"),
    (["rmse-sweep", "--trials", "0"], "--trials"),
    (["rte-single", "--max-samples", "99"], "--max-samples"),
    (["rte-single", "--trials", "0"], "--trials"),
    (["rte-single", "--r", "0"], "--r"),
    (["rte-single", "--taus", "1,x"], "--taus"),
    (["verify-series", "--kappa-star", "10", "--eps-t", "1e-2", "--eps-d", "1e-2",
      "--trials", "0"], "--trials"),
    (["table1", "--trials", "-1"], "--trials"),
    (["rmse-sweep", "--fixed-r", "0"], "--fixed-r"),
    (["rte-single", "--n-max", "-2"], "--n-max"),
    (["rte-single", "--kappa", "0.5"], "--kappa"),
    (["gen-matrix", "--kappa", "2", "--n-qubits", "0"], "--n-qubits"),
    (["gen-matrix", "--kappa", "2", "--seed", "-1"], "--seed"),
    (["solve", "--kappa", "0.5"], "--kappa"),
    (["solve", "--n-qubits", "0"], "--n-qubits"),
    (["solve", "--kernel", "pf", "--eps-pf", "-1"], "--eps-pf"),
    (["params", "--kappa-star", "10", "--eps-d", "1e-2", "--eps-t", "0"], "--eps-t"),
    (["params", "--kappa-star", "10", "--eps-t", "1e-2", "--eps-d", "1e-2",
      "--lam", "0.5"], "--lam"),
    (["resources", "--kernel", "rte", "--kappa-star", "10", "--eps-t", "1e-2",
      "--eps-d", "1e-2", "--delta", "2"], "--delta"),
    (["resources", "--kernel", "pf", "--kappa-star", "10", "--eps-t", "1e-2",
      "--eps-d", "1e-2", "--f", "0.1", "--big-l", "0"], "--big-l"),
])
def test_bad_count_is_usage_error_naming_the_option(args, option):
    # rejected while parsing: no traceback, and no NaN output from an empty
    # trial axis
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert not isinstance(result.exception, ValueError)
    assert f"Invalid value for '{option}'" in result.output


@pytest.mark.parametrize("args, options", [
    # eps_T < 3 kappa_tilde
    (["params", "--kappa-star", "1", "--eps-t", "5", "--eps-d", "0.01"],
     "'--eps-t' / '--kappa-star' / '--lam'"),
    (["build-series", "--kappa-star", "1", "--eps-t", "5", "--eps-d", "0.01"],
     "'--eps-t' / '--eps-d' / '--kappa-star' / '--lam'"),
    (["verify-series", "--kappa-star", "1", "--eps-t", "5", "--eps-d", "0.01"],
     "'--eps-t' / '--eps-d' / '--kappa-star' / '--lam'"),
    (["resources", "--kernel", "pf", "--kappa-star", "1", "--eps-t", "5", "--eps-d", "0.01",
      "--f", "0.1", "--big-l", "4"], "'--eps-t' / '--eps-d' / '--kappa-star' / '--lam'"),
    # J K beyond the series term guard
    (["build-series", "--kappa-star", "1e6", "--eps-t", "1e-10", "--eps-d", "1e-10"],
     "'--eps-t' / '--eps-d' / '--kappa-star' / '--lam'"),
    # r >= t_max, with t_max from the series
    (["resources", "--kernel", "rte", "--kappa-star", "10", "--eps-t", "1e-2",
      "--eps-d", "1e-2", "--r", "2"], "'--r' / '--kappa-star' / '--lam' / '--eps-t'"),
    # eps_T < 3 kappa_tilde for the series that solve and rmse-sweep build
    (["solve", "--kappa", "1", "--eps-t", "100", "--n-samples", "10"],
     "'--eps-t' / '--kappa-star' / '--kappa'"),
    (["rmse-sweep", "--kappa", "1", "--eps-f", "1000", "--max-samples", "100",
      "--trials", "1"], "'--eps-f' / '--kappa'"),
])
def test_bound_between_options_is_usage_error_naming_them(args, options):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert not isinstance(result.exception, ValueError)
    assert f"Invalid value for {options}" in result.output


SERIES_ARGS = ["--kappa-star", "10", "--eps-t", "1e-2", "--eps-d", "1e-2"]


@pytest.mark.parametrize("args, given, results", [
    (["gen-matrix", "--kappa", "3"], {"kappa": 3.0}, set()),
    (["params", *SERIES_ARGS], {"kappa_star": 10.0}, set()),
    (["build-series", *SERIES_ARGS, "--lam", "2"], {"lam": 2.0}, set()),
    (["verify-series", *SERIES_ARGS, "--trials", "1"], {"trials": 1}, {"eps_max", "budget"}),
    (["table1"], {"heavy": False}, set()),
    (["resources", "--kernel", "pf", *SERIES_ARGS, "--f", "0.1", "--big-l", "4"],
     {"f": 0.1, "r": None}, set()),
    (["resources", "--kernel", "rte", *SERIES_ARGS, "--r", "500"], {"r": 500, "f": None}, set()),
    (["solve", "--kernel", "pf", "--r", "3", "--n-samples", "20"],
     {"r": 3, "matrix": None, "kernel": "pf"}, set()),
    (["rmse-sweep", "--max-samples", "100", "--trials", "1"], {"max_samples": 100}, set()),
    (["rte-single", "--taus", "1,2", "--r", "4", "--max-samples", "100", "--trials", "1"],
     {"taus": [1.0, 2.0], "r": 4}, set()),
])
def test_manifest_config_is_the_parsed_options(args, given, results):
    # config holds the command's name and every one of its parameters but
    # seed and out, under the parameter's name; verify-series adds results
    names = {p.name for p in main.commands[args[0]].params}
    seed = ["--seed", "2"] if "seed" in names else []
    out = run_cli([*args, *seed]).output
    doc = json.loads(out) if out.startswith("{") else parse_csv(out)[0]
    config = doc["config"]
    assert set(config) == {"command"} | (names - {"seed", "out"}) | results
    assert config["command"] == args[0]
    assert {k: config[k] for k in given} == given
    assert doc["master_seed"] == (2 if seed else 0)
