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


def test_threads_recorded_in_manifest():
    res = run_cli([
        "--threads", "4", "params", "--kappa-star", "10",
        "--eps-t", "5e-3", "--eps-d", "5e-3",
    ])
    assert json.loads(res.output)["threads"] == 4


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
