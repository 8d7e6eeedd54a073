import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bootchain import cli, config, distances, experiments, models

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

MINIMAL_RISK = {
    "kind": "risk",
    "model": {"variant": "gaussian_shift"},
    "functional": {"variant": "quadratic_form"},
    "theta": {"rule": "unit_sin"},
    "k": 1,
    "grid": {"n": [50], "d": 2},
    "mc": {"M": 20, "R": 50},
    "seed": 7,
    "timing": "none",
}
D3 = {"n": [50], "d": 3}
I2 = [[1.0, 0.0], [0.0, 1.0]]


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_minimal_risk_run_writes_csv(tmp_path, capsys):
    doc = dict(MINIMAL_RISK, outputs={"csv": "out.csv"})
    rc = cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "50"
    assert "n=50" in capsys.readouterr().out


def test_sweep_rows_ascending(tmp_path):
    doc = dict(
        MINIMAL_RISK,
        kind="sweep",
        grid={"n": [400, 100, 200, 800, 1600], "alpha": 0.4},
        outputs={"csv": "sweep.csv"},
    )
    rc = cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = cli.read_results_csv(tmp_path / "sweep.csv")
    assert [r["n"] for r in rows] == [100.0, 200.0, 400.0, 800.0, 1600.0]


def test_json_mirror_matches_csv_exactly(tmp_path):
    doc = dict(MINIMAL_RISK, outputs={"csv": "o.csv", "json": "o.json"})
    assert cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)]) == 0
    csv_rows = cli.read_results_csv(tmp_path / "o.csv")
    mirror = json.loads((tmp_path / "o.json").read_text())
    assert mirror["kind"] == "risk"
    for crow, jrow in zip(csv_rows, mirror["rows"]):
        for col in cli.CSV_COLUMNS:
            assert crow[col] == jrow[col]  # bit-identical numerics


def test_unknown_config_key_exits_2(tmp_path, capsys):
    doc = dict(MINIMAL_RISK, typo_key=1)
    rc = cli.main(["run", str(write_cfg(tmp_path, doc))])
    assert rc == 2
    assert "typo_key" in capsys.readouterr().err


def test_poisson_theta0_is_not_a_config_key(tmp_path, capsys):
    # a Poisson row without an MLE takes the clamp rule; no fallback is configurable
    doc = dict(MINIMAL_RISK, model={"variant": "exponential_family", "theta0": [0.0, 0.0]})
    assert cli.main(["run", str(write_cfg(tmp_path, doc))]) == 2
    assert "model: unknown key(s) ['theta0']" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["run", str(p)]) == 2


def test_missing_config_exits_4(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 4


def test_bad_field_values_exit_2(tmp_path, capsys):
    for patch in (
        {"k": 13},
        {"grid": {"n": [50]}},
        {"grid": {"n": [50], "d": 2, "alpha": 0.5}},
        {"mc": {"M": 20}},
        {"model": {"variant": "gaussian_shift", "bogus": 1}},
        {"functional": {"variant": "power", "u": [1.0, 0.0]}},
        {"functional": {"variant": "quadratic_form", "zzz": 1}},
        {"functional": {"variant": "linear", "u": {"rule": "nope"}}},
        {"theta": {"rule": "nope"}},
        {"compare": {"plugin": "yes"}},
        {"kind": "nope"},
        {"delta": -1.0, "compare": {"tilde": True}},
        {"delta": math.nan, "compare": {"tilde": True}},
        {"theta": [math.nan, 0.0]},
        {"functional": {"variant": "linear", "u": [math.nan, 0.0]}},
        {"model": {"variant": "log_concave_location", "scale": math.inf}},
        {"model": {"variant": "exponential_family", "family": "gaussian_mean", "base": math.inf}},
        {"outputs": {"csv": ""}},
        {"sigma0": 1e-6},
        {"functional": {"variant": "quadratic_form", "Q": I2}, "grid": D3},
        {"functional": {"variant": "quadratic_form", "Q": [[math.nan, 0.0], [0.0, 1.0]]}},
        {"model": {"variant": "gaussian_shift", "noise": {"kind": "constant", "matrix": I2}}, "grid": D3},
        {
            "model": {"variant": "gaussian_shift", "noise": {"kind": "diag_tanh", "a": [1.0, 1.0], "b": 0.5}},
            "grid": D3,
        },
        {"model": {"variant": "independent_components", "directions": [[math.nan, 0.0], I2[1]]}},
    ):
        doc = dict(MINIMAL_RISK, **patch)
        assert cli.main(["run", str(write_cfg(tmp_path, doc))]) == 2, patch
    assert "error: model.directions[0]: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value", [("compare", []), ("compare", 0), ("compare", False), ("outputs", []), ("outputs", "")]
)
def test_non_object_compare_or_outputs_exits_2(tmp_path, capsys, key, value):
    # a falsy non-object is no empty object: "outputs": [] would write no file
    assert cli.main(["run", str(write_cfg(tmp_path, dict(MINIMAL_RISK, **{key: value})))]) == 2
    assert capsys.readouterr().err == f"error: {key}: expected an object\n"


BASE_ERROR = "model: gaussian_mean base variances must be finite and positive"


@pytest.mark.parametrize(
    "model, line",
    [
        ({"family": "poisson_product", "base": 2.0}, "model: poisson_product takes no base parameters"),
        ({"family": "nope"}, "model: unknown exponential family 'nope'"),
        ({"family": "gaussian_mean", "base": 0.0}, BASE_ERROR),
        ({"family": "gaussian_mean", "base": -1.0}, BASE_ERROR),
        ({"family": "gaussian_mean", "base": math.inf}, BASE_ERROR),
    ],
    ids=["poisson_base", "unknown_family", "base_0", "base_-1", "base_inf"],
)
def test_exponential_family_config_errors_exit_2(tmp_path, capsys, model, line):
    doc = dict(MINIMAL_RISK, model={"variant": "exponential_family", **model})
    assert cli.main(["run", str(write_cfg(tmp_path, doc))]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


def test_gaussian_mean_is_no_oracle_check_model(tmp_path, capsys):
    # a shift, but with a (d,) vector scale, even at the default base 1
    doc = dict(
        MINIMAL_RISK,
        kind="oracle-check",
        model={"variant": "exponential_family", "family": "gaussian_mean"},
        functional={"variant": "exp_linear", "u": {"rule": "e1"}},
    )
    assert cli.main(["run", str(write_cfg(tmp_path, doc))]) == 2
    assert "oracle check needs the shift model with Sigma = sigma^2 I" in capsys.readouterr().err


def test_gaussian_mean_run_writes_the_same_bytes_at_one_and_two_workers(tmp_path):
    # four blocks of 16 replicates, so the run at 2 threads ships the model to the pool
    doc = dict(
        MINIMAL_RISK,
        model={"variant": "exponential_family", "family": "gaussian_mean", "base": [0.5, 2.0]},
        mc={"M": 2000, "R": 64},
        outputs={"csv": "g.csv", "json": "g.json"},
    )
    assert experiments._block_size(2000, 2) == 16
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(out), "--threads", threads]) == 0
        written.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert len(written[0]) == 2 and written[0] == written[1]


def test_config_errors_name_their_field_once(tmp_path, capsys):
    for line, patch in {
        "error: functional.u: length 2 does not match d = 3": dict(
            functional={"variant": "linear", "u": [1.0, 0.0]}, grid=D3
        ),
        "error: model.noise.kind: unknown scaling map 'bogus'": dict(
            model={"variant": "gaussian_shift", "noise": {"kind": "bogus"}}
        ),
        "error: model.base: length 2 does not match d = 3": dict(
            model={"variant": "exponential_family", "family": "gaussian_mean", "base": [1.0, 2.0]}, grid=D3
        ),
        "error: model.scale: length 2 does not match d = 3": dict(
            model={"variant": "log_concave_location", "scale": [1.0, 2.0]}, grid=D3
        ),
    }.items():
        assert cli.main(["run", str(write_cfg(tmp_path, dict(MINIMAL_RISK, **patch)))]) == 2
        assert capsys.readouterr().err == line + "\n"


def test_sweep_matrix_of_the_wrong_size_fails_before_any_replicate(tmp_path, monkeypatch, capsys):
    # the matrix fits the first grid point (d = 2), not the last (d = 10)
    def no_pass(*args, **kwargs):
        raise AssertionError("a replicate pass ran before every grid point was resolved")

    monkeypatch.setattr(experiments, "_batched_errors", no_pass)
    doc = dict(
        MINIMAL_RISK,
        kind="sweep",
        model={"variant": "gaussian_shift", "noise": {"kind": "constant", "matrix": I2}},
        grid={"n": [4, 100, 400], "alpha": 0.38},  # d = 2, 6, 10
    )
    assert cli.main(["run", str(write_cfg(tmp_path, doc))]) == 2
    assert capsys.readouterr().err.startswith("error: model.noise.matrix: ")


def test_diag_tanh_scalars_fit_every_dimension(tmp_path):
    noise = {"kind": "diag_tanh", "a": 1.0, "b": 0.5}
    doc = dict(
        MINIMAL_RISK,
        kind="sweep",
        model={"variant": "gaussian_shift", "noise": noise},
        grid={"n": [4, 100, 400], "alpha": 0.38},
    )
    assert cli.main(["run", str(write_cfg(tmp_path, doc))]) == 0


def test_independent_components_take_the_location_drivers(tmp_path):
    # a Laplace driver has unit variance, so Sigma = scale^2 I
    noise = {"kind": "identity", "scale": 1.5}
    model = {"variant": "independent_components", "noise_dist": "laplace", "noise": noise}
    assert np.allclose(models.sigma(config.build_model(model, 3), np.zeros(3)), 2.25 * np.eye(3))
    assert cli.main(["run", str(write_cfg(tmp_path, dict(MINIMAL_RISK, model=model)))]) == 0


def test_vector_rules_regenerate_at_every_grid_point():
    """e1 and unit_sin give their vector at every d of an alpha sweep, from
    build_functional and through _grid_point; theta still refuses e1."""
    doc = dict(MINIMAL_RISK, grid={"n": [1, 9, 49], "alpha": 0.5})
    e1 = lambda d: (np.arange(d) == 0).astype(float)
    for rule, vector in (("e1", e1), ("unit_sin", experiments.unit_sin_theta)):
        functional = {"variant": "linear", "u": {"rule": rule}}
        cfg, _ = config.parse_config(dict(doc, functional=functional))
        assert [d for _, d in cfg.grid.points()] == [1, 3, 7]
        for n, d in cfg.grid.points():
            assert np.array_equal(config.build_functional(functional, d).u, vector(d))
            _, func, theta, _ = experiments._grid_point(cfg, n, d)
            assert np.array_equal(func.u, vector(d))
            assert np.array_equal(theta, experiments.unit_sin_theta(d))
    with pytest.raises(experiments.ConfigError, match="theta.rule: unknown rule 'e1'"):
        config.parse_config(dict(doc, theta={"rule": "e1"}))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_parses(path):
    cfg, outputs = config.load_config(path)
    assert cfg.kind in experiments.KINDS and outputs


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_writes_the_same_bytes_at_one_and_two_workers(path, tmp_path):
    cfg = write_cfg(tmp_path, dict(json.loads(path.read_text()), timing="none"))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert cli.main(["run", str(cfg), "--out-dir", str(out), "--threads", threads]) == 0
        written.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert written[0] and written[0] == written[1]


def test_failed_grid_point_exits_3(tmp_path):
    doc = dict(
        MINIMAL_RISK,
        model={"variant": "exponential_family", "family": "poisson_product"},
        theta=[40.0, 40.0],  # every data draw overflows the Poisson guard
        outputs={"csv": "fail.csv"},
    )
    rc = cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)])
    assert rc == 3
    rows = cli.read_results_csv(tmp_path / "fail.csv")
    assert rows[0]["aborts"] == 50.0
    assert math.isnan(rows[0]["bias"])


def test_report_power_law_slope_label(tmp_path):
    csv_path = tmp_path / "rates.csv"
    ns = [100, 400, 1600]
    lines = [",".join(cli.CSV_COLUMNS)]
    for n in ns:
        rmse = 3.0 / math.sqrt(n)
        lines.append(
            f"{n},4,1,0.0,0.0,{rmse!r},{rmse!r},{math.sqrt(n) * rmse!r},1.0,0.01,0,0.0"
        )
    csv_path.write_text("\n".join(lines) + "\n")
    svg_path = tmp_path / "rates.svg"
    assert cli.main(["report", str(csv_path), "--svg", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 1
    assert "slope=-0.50" in svg


def test_report_plots_only_the_run_order(tmp_path):
    # a compare.plugin CSV holds k = 0 and k = 1 rows; report, like run, plots k = 1
    doc = dict(
        MINIMAL_RISK,
        grid={"n": [100, 400, 1600], "d": 2},
        compare={"plugin": True},
        outputs={"csv": "r.csv", "svg": "run.svg"},
    )
    assert cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)]) == 0
    assert [r["k"] for r in cli.read_results_csv(tmp_path / "r.csv")] == [0, 1] * 3
    svg_path = tmp_path / "report.svg"
    assert cli.main(["report", str(tmp_path / "r.csv"), "--svg", str(svg_path)]) == 0
    report, run = svg_path.read_text(), (tmp_path / "run.svg").read_text()
    assert report.count("<circle") == 3
    label = next(line for line in run.splitlines() if "slope=" in line)
    assert label in report
    assert report == run


def test_report_two_points_ok(tmp_path):
    csv_path = tmp_path / "two.csv"
    header = ",".join(cli.CSV_COLUMNS)
    csv_path.write_text(
        f"{header}\n100,2,1,0.0,0.0,0.5,0.5,5.0,1.0,0.01,0,0.0\n"
        f"400,2,1,0.0,0.0,0.25,0.25,5.0,1.0,0.01,0,0.0\n"
    )
    svg_path = tmp_path / "two.svg"
    assert cli.main(["report", str(csv_path), "--svg", str(svg_path)]) == 0
    assert svg_path.read_text().count("<polyline") == 1


def test_report_empty_rows_error_and_no_file(tmp_path):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text(",".join(cli.CSV_COLUMNS) + "\n")
    svg_path = tmp_path / "empty.svg"
    assert cli.main(["report", str(csv_path), "--svg", str(svg_path)]) == 2
    assert not svg_path.exists()


def test_report_malformed_csv(tmp_path):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("a,b\n1,2\n")
    assert cli.main(["report", str(csv_path), "--svg", str(tmp_path / "x.svg")]) == 2
    assert cli.main(["report", str(tmp_path / "missing.csv"), "--svg", "x.svg"]) == 4


def test_render_rate_chart_deterministic():
    ns = [100, 400]
    rmses = [0.5, 0.25]
    a = cli.render_rate_chart(ns, rmses, -0.5)
    b = cli.render_rate_chart(ns, rmses, -0.5)
    assert a == b


def test_selftest_passes_and_lists_checks(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == 5
    for name in ("weight identities", "pauli basis", "normal cdf", "wasserstein", "kolmogorov"):
        assert name in out


def test_selftest_fault_injection(monkeypatch, capsys):
    def corrupted(k):
        return tuple(1 for _ in range(k + 1))

    monkeypatch.setattr(cli, "difference_weights", corrupted)
    assert cli.main(["selftest"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_threads_env_var_honored(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.THREADS_ENV, "2")
    doc = dict(MINIMAL_RISK, outputs={"csv": "env.csv"})
    assert cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "env.csv").exists()


def test_malformed_threads_env_var_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.THREADS_ENV, "abc")
    assert cli.main(["run", str(write_cfg(tmp_path, MINIMAL_RISK))]) == 2
    err = capsys.readouterr().err
    assert cli.THREADS_ENV in err and len(err.splitlines()) == 1


def test_threads_env_var_below_one_names_the_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.THREADS_ENV, "0")
    assert cli.main(["run", str(write_cfg(tmp_path, MINIMAL_RISK))]) == 2
    assert capsys.readouterr().err == f"error: {cli.THREADS_ENV} ('0') must be >= 1\n"


def test_zero_noise_surrogate_run_has_zero_bias(tmp_path):
    # default delta = 3 sqrt(tr Sigma / n) = 0: surrogate and bootstrap chains
    # both stay at theta_hat = theta, so both rows read the same rounding-level bias
    model = {"variant": "gaussian_shift", "noise": {"kind": "identity", "scale": 0}}
    rows = []
    for tilde in (False, True):
        doc = dict(MINIMAL_RISK, model=model, compare={"tilde": tilde}, outputs={"csv": "z.csv"})
        assert cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)]) == 0
        rows.append((tmp_path / "z.csv").read_text())
    assert rows[1] == rows[0]
    (row,) = cli.read_results_csv(tmp_path / "z.csv")
    assert abs(row["bias"]) <= 1e-15 and row["aborts"] == 0


def test_clt_run_reports_distances_in_json(tmp_path):
    doc = dict(
        MINIMAL_RISK,
        kind="clt",
        k=0,
        functional={"variant": "linear", "u": {"rule": "e1"}},
        model={"variant": "independent_components", "noise_dist": "rademacher"},
        mc={"M": 1, "R": 500},
        outputs={"json": "clt.json"},
    )
    assert cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)]) == 0
    mirror = json.loads((tmp_path / "clt.json").read_text())
    assert "w1" in mirror["rows"][0]["extra"]
    assert "w2" in mirror["rows"][0]["extra"]


def test_oracle_check_run_from_config(tmp_path, capsys):
    doc = dict(
        MINIMAL_RISK,
        kind="oracle-check",
        functional={"variant": "exp_linear", "u": {"rule": "e1"}},
        theta=[0.0, 0.0],
        grid={"n": [100], "d": 2},
        mc={"M": 100, "R": 1500},
        outputs={"csv": "oracle.csv", "json": "oracle.json"},
    )
    rc = cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    rows = json.loads((tmp_path / "oracle.json").read_text())["rows"]
    assert [r["k"] for r in rows] == [0, 1]
    assert all(r["extra"]["oracle_pass"] for r in rows)


def test_svg_output_from_run(tmp_path):
    doc = dict(
        MINIMAL_RISK,
        kind="sweep",
        k=0,
        functional={"variant": "linear", "u": {"rule": "unit_sin"}},
        grid={"n": [100, 200, 400], "d": 3},
        mc={"M": 1, "R": 300},
        outputs={"csv": "s.csv", "svg": "s.svg"},
    )
    assert cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)]) == 0
    svg = (tmp_path / "s.svg").read_text()
    assert svg.count("<polyline") == 1 and "slope=" in svg


def test_poisson_overflow_counts_every_replicate_as_aborted(tmp_path, capsys):
    doc = dict(
        MINIMAL_RISK,
        model={"variant": "exponential_family", "family": "poisson_product"},
        theta=[25.0, 0.0],
        grid={"n": [100], "d": 2},
        outputs={"csv": "p.csv"},
    )
    rc = cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)])
    assert rc == 3
    row = cli.read_results_csv(tmp_path / "p.csv")[0]
    assert row["aborts"] == 50
    captured = capsys.readouterr()
    assert "aborts=50" in captured.out and "FAILED" in captured.out
    assert "Traceback" not in captured.err


CLT_RADEMACHER = dict(
    MINIMAL_RISK,
    kind="clt",
    k=0,
    functional={"variant": "linear", "u": {"rule": "e1"}},
    model={"variant": "independent_components", "noise_dist": "rademacher"},
    mc={"M": 1, "R": 50},
)


def test_clt_run_without_two_survivors_is_a_failed_row(tmp_path, capsys):
    doc = dict(
        CLT_RADEMACHER,
        model={"variant": "exponential_family", "family": "poisson_product"},
        theta=[25.0, 0.0],
        grid={"n": [100], "d": 2},
        outputs={"csv": "c.csv"},
    )
    rc = cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)])
    assert rc == 3
    row = cli.read_results_csv(tmp_path / "c.csv")[0]
    assert row["aborts"] == 50
    assert math.isnan(row["bias"]) and math.isnan(row["d_k"])
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, patch",
    [
        ("k", {"k": 3}),
        ("mc.M", {"mc": {"M": 999, "R": 50}}),
        ("delta", {"delta": 0.5}),
        ("compare.tilde", {"compare": {"tilde": True}}),
        ("compare.plugin", {"compare": {"plugin": True}}),
    ],
)
def test_clt_config_rejects_fields_it_ignores(tmp_path, capsys, field, patch):
    assert cli.main(["run", str(write_cfg(tmp_path, dict(CLT_RADEMACHER, **patch)))]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}:")


@pytest.mark.parametrize(
    "field, patch",
    [
        ("delta", {"delta": 1e-9}),
        ("delta", {"delta": "auto", "compare": {"tilde": False}}),
        ("compare.tilde", {"k": 0, "compare": {"tilde": True}}),
        ("compare.tilde", {"k": 0, "delta": 0.5, "compare": {"tilde": True}}),
        ("compare.plugin", {"k": 0, "compare": {"plugin": True}}),
        ("compare.plugin", {"kind": "oracle-check", "compare": {"plugin": True}}),
    ],
)
def test_risk_config_rejects_fields_it_ignores(tmp_path, capsys, field, patch):
    # delta truncates surrogate chains only, a k = 0 run steps no chains, and
    # the plug-in row is the only row at k = 0 and one of every oracle-check
    assert cli.main(["run", str(write_cfg(tmp_path, dict(MINIMAL_RISK, **patch)))]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}:")


def test_w1_above_w2_is_an_experiment_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(distances, "wasserstein2", lambda a, b: -1.0)
    doc = dict(
        MINIMAL_RISK,
        kind="clt",
        k=0,
        functional={"variant": "linear", "u": {"rule": "e1"}},
        mc={"M": 1, "R": 100},
        outputs={"json": "clt.json"},
    )
    rc = cli.main(["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds W2" in err


def _kill_worker(payload, start, stop):
    os._exit(1)


# M d = 160, so a block holds 409 replicates: R = 2000 gives 5 blocks, enough
# to split over 2 workers
SPLIT_RISK = dict(MINIMAL_RISK, mc={"M": 80, "R": 2000})


def test_killed_pool_worker_is_an_experiment_failure(tmp_path, monkeypatch, capsys):
    # the worker dies without a result, so the pool breaks under the run; a
    # pass of fewer than 2 blocks per worker would run in process, where
    # _kill_worker ends the test run itself
    mc = SPLIT_RISK["mc"]
    blocks = -(-mc["R"] // experiments._block_size(mc["M"], SPLIT_RISK["grid"]["d"]))
    assert blocks >= 2 * 2
    monkeypatch.setattr(experiments, "_run_replicates", _kill_worker)
    doc = dict(SPLIT_RISK, outputs={"csv": "k.csv"})
    rc = cli.main(
        ["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path), "--threads", "2"]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("experiment failed: ") and err.count("\n") == 1
    assert not (tmp_path / "k.csv").exists()


def _kernel_error(payload, start, stop):
    raise ValueError("kernel failed\non a second line")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_error_in_the_replicate_pass_is_an_experiment_failure(
    tmp_path, monkeypatch, capsys, threads
):
    monkeypatch.setattr(experiments, "_run_replicates", _kernel_error)
    doc = dict(SPLIT_RISK, outputs={"csv": "e.csv"})
    rc = cli.main(
        ["run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path), "--threads", threads]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "experiment failed: kernel failed on a second line\n"
    assert not (tmp_path / "e.csv").exists()


def _python_m(module, *args):
    src = Path(cli.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("module", ["bootchain", "bootchain.cli"])
def test_python_m_entry_points(module):
    proc = _python_m(module, "selftest")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.count("ok  ") == 5


def test_sweep_with_zero_rmse_rows_fits_no_slope(tmp_path):
    # zero noise: every replicate's estimate is exact, so no row has a
    # positive rmse to fit on a log scale
    doc = {
        "kind": "sweep",
        "model": {"variant": "gaussian_shift", "noise": {"kind": "identity", "scale": 0.0}},
        "functional": {"variant": "quadratic_form"},
        "k": 0,
        "grid": {"n": [10, 20, 40], "d": 2},
        "mc": {"M": 5, "R": 20},
        "seed": 1,
        "outputs": {"json": "z.json"},
    }
    proc = _python_m("bootchain", "run", str(write_cfg(tmp_path, doc)), "--out-dir", str(tmp_path))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    mirror = (tmp_path / "z.json").read_text()
    assert [r["rmse"] for r in json.loads(mirror)["rows"]] == [0.0, 0.0, 0.0]
    assert "slope" not in mirror
