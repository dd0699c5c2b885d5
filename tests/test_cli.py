"""CLI contract tests: exit codes, output formats, manifest, coverage.

Everything goes through cli.main(argv) in-process -- same code path as the
console script, but fast enough to run the whole battery in seconds.
"""

import json
import math

import pytest

from kezeta import cli
import kezeta.meanfield
import kezeta.verify


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# coverage: every public operation is reachable from some subcommand

EXPECTED_OPERATIONS = [
    "gammaprod.log_gamma",
    "gammaprod.eval_gamma_product",
    "gammaprod.restrict_to_line",
    "gammaprod.zeros_and_poles_in_strip",
    "sphere.stereo_to_sphere",
    "sphere.sphere_to_stereo",
    "sphere.chordal",
    "sphere.green",
    "sphere.config_energy",
    "sphere.sample_uniform_array",
    "closedforms.selberg_gamma_product",
    "closedforms.pn_minimal_Z",
    "closedforms.p1_three_point_Z",
    "closedforms.circular_Z",
    "closedforms.gaussian_det_Z",
    "closedforms.zero_free_in_tube",
    "stability.weight_condition",
    "stability.gamma_threshold",
    "stability.classify",
    "stability.lct_point_divisor",
    "montecarlo.mc_selberg",
    "montecarlo.mc_sphere_partition",
    "montecarlo.mc_circular",
    "montecarlo.mc_gaussian_det",
    "montecarlo.free_energy_curve",
    "sampler.log_target",
    "sampler.run_chain",
    "sampler.mean_energy_estimate",
    "sampler.marginal_histogram",
    "sampler.ks_against",
    "meanfield.reduced_laplacian",
    "meanfield.solve_mean_field",
    "meanfield.free_energy_functional",
    "meanfield.solve_poisson",
    "meanfield.phi_n_approximant",
]


def test_every_operation_has_a_cli_route():
    import importlib

    missing = [op for op in EXPECTED_OPERATIONS if op not in cli.OPERATION_COVERAGE]
    assert not missing, f"operations without a CLI route: {missing}"
    for op, (command, _how) in cli.OPERATION_COVERAGE.items():
        mod_name, func_name = op.split(".")
        mod = importlib.import_module(f"kezeta.{mod_name}")
        assert callable(getattr(mod, func_name)), op
        assert command in cli._DISPATCH, (op, command)


# ----------------------------------------------------------------------
# exit codes

def test_malformed_weight_list_is_validation_exit_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, err = run_cli(
        ["zeta", "--family", "selberg", "--n", "3", "--w", "0.5,,x",
         "--out", str(out)], capsys)
    assert code == 2
    assert "weight" in err
    assert not list(out.glob("*")) if out.exists() else True


def test_unstable_weights_refuse_with_exit_3(tmp_path, capsys):
    code, _, err = run_cli(
        ["mc", "--target", "selberg", "--w", "0.9,0.1,0.1", "--n", "3",
         "--samples", "1000", "--out", str(tmp_path)], capsys)
    assert code == 3
    assert "NotGibbsStable" in err or "refusal" in err
    assert not list(tmp_path.glob("*.csv"))


def test_mc_selberg_weight_condition_edge_refuses_with_exit_3(tmp_path, capsys):
    # 3/5 = 1/5 + 2/5 exactly: the integral diverges, so nothing is estimated
    code, _, err = run_cli(
        ["mc", "--target", "selberg", "--w", "1/5,2/5,3/5", "--n", "2",
         "--samples", "20000", "--seed", "1", "--out", str(tmp_path)], capsys)
    assert code == 3
    assert "NotGibbsStable" in err


def test_stability_rejects_capital_n_flag(tmp_path, capsys):
    code, _, err = run_cli(
        ["stability", "--w", "0.5,0.5,0.5", "--N", "4", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "--N" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4}))  # not silently dropped from a config file either
    code, _, err = run_cli(
        ["stability", "--w", "0.5,0.5,0.5", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "not N" in err


def test_beta_at_threshold_refuses_with_exit_3(tmp_path, capsys):
    code, _, _ = run_cli(
        ["sample", "--beta=-0.7", "--N", "3", "--sweeps", "10",
         "--out", str(tmp_path)], capsys)
    assert code == 3


def test_nonconvergence_maps_to_exit_4(tmp_path, capsys, monkeypatch):
    from kezeta.errors import ConvergenceError

    def explode(*a, **k):
        raise ConvergenceError("newton stalled")

    monkeypatch.setattr(cli, "solve_mean_field", explode)
    code, _, err = run_cli(
        ["oracle", "meanfield", "--w", "0.5", "--beta", "1",
         "--out", str(tmp_path)], capsys)
    assert code == 4
    assert "newton stalled" in err


def test_unknown_config_key_is_validation_exit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target": "circular", "bogus": 1}))
    code, _, err = run_cli(["mc", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "bogus" in err


def test_config_key_of_another_subcommand_is_validation_exit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweeps": 10}))  # a sample flag, which zeta would drop
    code, out, err = run_cli(
        ["zeta", "--family", "circular", "--n", "3", "--beta", "1", "--config", str(cfg),
         "--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert "not sweeps" in err
    assert not (tmp_path / "manifest.jsonl").exists()


def test_bad_tube_kind_is_validation_exit(tmp_path, capsys):
    code, _, _ = run_cli(
        ["zeta", "--family", "selberg", "--n", "3", "--tube", "xyz",
         "--out", str(tmp_path)], capsys)
    assert code == 2


# ----------------------------------------------------------------------
# documented examples

def test_zeta_circular_three_points_beta_one_is_48_pi_squared(tmp_path, capsys):
    code, out, _ = run_cli(
        ["zeta", "--family", "circular", "--n", "3", "--beta", "1",
         "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    value = report["value"]["value_re"]
    assert math.isclose(value, 48 * math.pi**2, rel_tol=1e-12)


def test_stability_example_reports_gibbs_stable(tmp_path, capsys):
    code, out, _ = run_cli(
        ["stability", "--w", "0.5,0.5,0.5", "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "GibbsStable"
    assert report["weight_condition"] is True
    assert report["d_L"] == 0.5


@pytest.mark.parametrize("weights", ["1/10,1/5,3/10", "1/5,2/5,3/5"])
def test_stability_weight_condition_edge_is_not_stable(tmp_path, capsys, weights):
    # w_max equals the sum of the other two exactly; in floats 1/10 + 1/5 > 3/10
    # and 1/5 + 2/5 > 3/5, so a float decision would call these stable
    code, out, _ = run_cli(
        ["stability", "--w", weights, "--n", "4", "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "NotGibbsStable"
    assert report["weight_condition"] is False
    assert report["integral_finite"] is False


def test_zeta_selberg_pinned_beta(tmp_path, capsys):
    # the closed form is a beta = -1 object; asking for it explicitly is fine,
    # any other beta is a validation error
    ok, out, _ = run_cli(
        ["zeta", "--family", "selberg", "--n", "3", "--w", "0.5,0.5,0.5",
         "--beta", "-1", "--out", str(tmp_path)], capsys)
    assert ok == 0
    report = json.loads(out)
    assert report["value"]["kind"] == "regular"
    assert report["value"]["value_re"] > 0
    bad, _, _ = run_cli(
        ["zeta", "--family", "selberg", "--n", "3", "--w", "0.5,0.5,0.5",
         "--beta", "-2", "--out", str(tmp_path)], capsys)
    assert bad == 2


def test_zeta_restrict_to_line_and_pole_enumeration(tmp_path, capsys):
    code, out, _ = run_cli(
        ["zeta", "--family", "selberg", "--n", "3", "--w", "0.5,0.5,t",
         "--poles-in=-2:0", "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    locs = {e["location"] for e in report["poles_and_zeros"]}
    assert "0" in locs  # the w3 -> 0 wall


def test_gaussdet_reports_bernstein_ratio(tmp_path, capsys):
    code, out, _ = run_cli(
        ["zeta", "--family", "gaussdet", "--n", "1", "--s", "1/2",
         "--out", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["bernstein_next_ratio"] == pytest.approx(3.75)


# ----------------------------------------------------------------------
# config file and manifest

def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"target": "circular", "n": 3, "beta": "1", "samples": 5000, "seed": 9}))
    code, out, _ = run_cli(
        ["mc", "--config", str(cfg), "--samples", "8000", "--out", str(tmp_path)],
        capsys)
    assert code == 0
    est = json.loads(out)["estimate"]
    assert est["n_samples"] == 8000  # flag wins
    assert est["seed"] == 9          # file fills the gap


def test_manifest_appends_and_deterministic_fields_reproduce(tmp_path, capsys):
    argv = ["mc", "--target", "circular", "--n", "3", "--beta", "1",
            "--samples", "3000", "--seed", "5", "--out", str(tmp_path)]
    assert run_cli(argv, capsys)[0] == 0
    assert run_cli(argv, capsys)[0] == 0
    lines = [json.loads(l) for l in (tmp_path / "manifest.jsonl").read_text().splitlines()]
    assert len(lines) == 2
    for rec in lines:
        assert rec["schema"] == 1
        assert rec["artifact_version"]
        assert rec["command"] == "mc"
        assert rec["wall_clock_s"] >= 0
    strip = lambda rec: {k: v for k, v in rec.items() if k != "wall_clock_s"}
    assert strip(lines[0]) == strip(lines[1])


def test_mc_batch_csv_has_header(tmp_path, capsys):
    code, _, _ = run_cli(
        ["mc", "--target", "circular", "--n", "3", "--beta", "1",
         "--samples", "4000", "--batch-csv", "batches.csv", "--out", str(tmp_path)],
        capsys)
    assert code == 0
    lines = (tmp_path / "batches.csv").read_text().splitlines()
    assert lines[0] == "batch_index,batch_mean"
    assert len(lines) > 2


# ----------------------------------------------------------------------
# sample and oracle payloads

def test_sample_writes_csv_and_run_report(tmp_path, capsys):
    code, _, _ = run_cli(
        ["sample", "--beta", "1", "--N", "4", "--sweeps", "100", "--chains", "2",
         "--seed", "3", "--ks-uniform", "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = (tmp_path / "samples.csv").read_text().splitlines()
    assert rows[0].startswith("chain,step,energy,x0,y0,z0")
    assert len(rows[0].split(",")) == 3 + 3 * 4
    report = json.loads((tmp_path / "sample_run.json").read_text())
    assert report["kept"] == len(rows) - 1
    assert report["ks_uniform"]["ks"] <= 1.0
    assert "mean_energy" in report and "axial_histogram" in report


def test_sample_score_mode_writes_no_payload(tmp_path, capsys):
    from kezeta.sampler import log_target
    from kezeta.sphere import PointConfiguration, config_to_csv, stereo_to_sphere
    from kezeta.stability import LogFanoCurve

    conf = PointConfiguration(tuple(
        stereo_to_sphere(z) for z in (0.3 + 0.1j, -1.2 + 0.5j, 2.0 + 0j)))
    path = tmp_path / "conf.csv"
    path.write_text(config_to_csv(conf))
    code, out, _ = run_cli(
        ["sample", "--score", str(path), "--w", "0.5,0.5,0.5", "--beta", "1",
         "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["n_points"] == 3
    curve = LogFanoCurve.standard((0.5, 0.5, 0.5))
    assert report["log_target"] == pytest.approx(log_target(conf, curve, 1.0))
    assert not (tmp_path / "samples.csv").exists()


def test_oracle_meanfield_payloads(tmp_path, capsys):
    code, out, _ = run_cli(
        ["oracle", "meanfield", "--w", "0.5", "--beta", "1", "--m", "400",
         "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["residual"] < 1e-8
    assert report["laplacian_defect"] < 1e-8
    for name in ("meanfield_density.csv", "meanfield_potential.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 402  # m+1 grid nodes


def test_oracle_poisson_and_phin(tmp_path, capsys):
    code, out, _ = run_cli(
        ["oracle", "poisson", "--target", "exp:1", "--degree", "80",
         "--out", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["spectral_residual"] < 1e-4
    assert (tmp_path / "poisson_potential.csv").read_text().splitlines()[0] == "t,value"

    code, out, _ = run_cli(
        ["oracle", "phin", "--target", "exp:1", "--N", "3", "--out", str(tmp_path)],
        capsys)
    assert code == 0
    assert json.loads(out)["mode"] == "quadrature"
    assert (tmp_path / "phi_n.csv").exists()


# ----------------------------------------------------------------------
# verify plumbing

def test_verify_quick_runs_are_byte_identical(tmp_path, capsys):
    code1, out1, _ = run_cli(["verify", "--level", "quick", "--out", str(tmp_path)], capsys)
    code2, out2, _ = run_cli(["verify", "--level", "quick", "--out", str(tmp_path)], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "summary: 6/6 criteria passed" in out1


def test_verify_failure_exits_5(tmp_path, capsys, monkeypatch):
    from kezeta.verify import CriterionResult, VerifyReport

    def rigged(level):
        return VerifyReport(level, (CriterionResult(3, "x", "bad", "exact", False),))

    monkeypatch.setattr(cli, "run_verify", rigged)
    code, out, _ = run_cli(["verify", "--level", "quick", "--out", str(tmp_path)], capsys)
    assert code == 5
    assert "FAIL" in out


def test_tampered_laplacian_calibration_only_breaks_criterion_11(monkeypatch):
    # negative control for the oracle cross-validation: nudging the axial
    # Laplacian coupling must show up in the potential-approximant check and
    # nowhere else
    monkeypatch.setattr(kezeta.meanfield, "C_LAP", 0.30)
    assert not kezeta.verify.criterion_11().passed
    assert kezeta.verify.criterion_3().passed
    assert kezeta.verify.criterion_12().passed
