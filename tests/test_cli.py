"""CLI contract tests: exit codes, output formats, manifest, coverage.

Everything goes through cli.main(argv) in-process -- same code path as the
console script, but fast enough to run the whole battery in seconds.
"""

import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kezeta import cli, cli_numeric
import kezeta.meanfield
import kezeta.montecarlo
import kezeta.sampler
import kezeta.verify
from kezeta.errors import ValidationError
from kezeta.stability import LogFanoCurve


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# coverage: every public operation is reachable from some subcommand

# One argv per public operation; {score} is a three-point configuration CSV.
_SELBERG = ["zeta", "--family", "selberg", "--n", "3"]
_SAMPLE = ["sample", "--w", "1/2", "--beta", "1", "--N", "3", "--sweeps", "20", "--thinning", "5"]
_SCORE = ["sample", "--score", "{score}", "--w", "1/2", "--beta", "1"]
_MEANFIELD = ["oracle", "meanfield", "--w", "1/2", "--beta", "1", "--m", "200"]
OPERATION_ROUTES = {
    "gammaprod.log_gamma": ["zeta", "--log-gamma", "1.5"],
    "gammaprod.eval_gamma_product": [*_SELBERG, "--w", "1/2,1/2,1/2"],
    "gammaprod.restrict_to_line": [*_SELBERG, "--w", "t,1/2,1/2"],
    "gammaprod.zeros_and_poles_in_strip": ["zeta", "--family", "p1three", "--poles-in=-1:0"],
    "gammaprod.gp_to_json": ["zeta", "--family", "p1three"],
    "sphere.stereo_to_sphere": _SAMPLE,
    "sphere.sphere_to_stereo": _SCORE,
    "sphere.config_energy": _SCORE,
    "sphere.sample_uniform_array": _SAMPLE,
    "closedforms.selberg_gamma_product": _SELBERG,
    "closedforms.pn_minimal_Z": ["zeta", "--family", "pnmin", "--n", "2"],
    "closedforms.p1_three_point_Z": ["zeta", "--family", "p1three"],
    "closedforms.circular_Z": ["zeta", "--family", "circular", "--n", "3"],
    "closedforms.gaussian_det_Z": ["zeta", "--family", "gaussdet", "--n", "2"],
    "closedforms.bernstein_product": ["zeta", "--family", "gaussdet", "--n", "2", "--s", "1/2"],
    "closedforms.zero_free_in_tube": [*_SELBERG, "--tube", "canonical"],
    "closedforms.selberg_integral_finite": ["stability", "--w", "1/2,1/2,1/2", "--n", "3"],
    "stability.weight_condition": ["stability", "--w", "1/2,1/2,1/2"],
    "stability.gamma_threshold": ["stability", "--w", "1/2,1/2,1/2", "--n", "3"],
    "stability.classify": ["stability", "--w", "1/2,1/2,1/2"],
    "stability.lct_point_divisor": ["stability", "--lct", "1,1"],
    "montecarlo.mc_selberg": ["mc", "--target", "selberg", "--w", "1/2,1/2,1/2", "--n", "3", "--samples", "2000"],
    "montecarlo.mc_sphere_partition": ["mc", "--target", "sphere", "--beta", "1", "--n", "3", "--samples", "2000"],
    "montecarlo.mc_circular": ["mc", "--target", "circular", "--beta", "1", "--n", "3", "--samples", "2000"],
    "montecarlo.mc_gaussian_det": ["mc", "--target", "gaussdet", "--n", "2", "--s", "0", "--samples", "2000"],
    "montecarlo.mc_gaussian_det_ratio": ["mc", "--target", "gaussdet-ratio", "--n", "2", "--s", "0",
                                         "--samples", "2000"],
    "montecarlo.free_energy_curve": ["mc", "--target", "free-energy", "--n", "3", "--grid", "1/2:1:1/2",
                                     "--budget", "2000"],
    "sampler._log_target": _SCORE,  # log_target's body, given the energy the CLI already has
    "sampler.run_chain": _SAMPLE,
    "sampler.mean_energy_estimate": _SAMPLE,
    "sampler.marginal_histogram": _SAMPLE,
    "sampler.ks_against": [*_SAMPLE, "--ks-uniform"],
    "meanfield.reduced_laplacian": _MEANFIELD,
    "meanfield.solve_mean_field": _MEANFIELD,
    "meanfield.free_energy_functional": _MEANFIELD,
    "meanfield.solve_poisson": ["oracle", "poisson", "--target", "exp:1"],
    "meanfield.phi_n_approximant": ["oracle", "phin", "--target", "exp:1", "--N", "3"],
    "verify.run_verify": ["verify", "--level", "quick"],
}


def test_every_operation_has_a_cli_route(tmp_path, capsys, monkeypatch):
    # each operation is wrapped wherever a kezeta module binds it, and its
    # argv must reach the wrapper through cli.main
    import functools
    import importlib
    import sys

    score = tmp_path / "score.csv"
    score.write_text("x,y,z\n0.6,0,0.8\n0,0.6,-0.8\n-0.8,0,0.6\n")
    called = set()

    def recording(op, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called.add(op)
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for name, m in list(sys.modules.items()) if name.startswith("kezeta.")]
    for op in OPERATION_ROUTES:
        mod_name, func_name = op.split(".")
        fn = getattr(importlib.import_module(f"kezeta.{mod_name}"), func_name)
        assert callable(fn), op
        wrapper = recording(op, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setitem(vars(module), key, wrapper)

    by_argv = {}
    for op, argv in OPERATION_ROUTES.items():
        by_argv.setdefault(tuple(argv), []).append(op)
    for k, (argv, ops) in enumerate(by_argv.items()):
        called.clear()
        argv = [a.replace("{score}", str(score)) for a in argv]
        code, _, err = run_cli([*argv, "--out", str(tmp_path / f"run{k}")], capsys)
        assert code == 0, (argv, err)
        missing = [op for op in ops if op not in called]
        assert not missing, (f"ke-zeta {shlex.join(argv)} never calls", missing)


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


def test_mc_sphere_refuses_a_curve_that_is_not_log_fano(tmp_path, capsys):
    # its reference measure c^-2.1 cannot be normalised: exit 3, as for sample
    out = tmp_path / "run"
    code, stdout, err = run_cli(
        ["mc", "--target", "sphere", "--w", "1.05", "--beta", "1", "--n", "3",
         "--samples", "1000", "--out", str(out)], capsys)
    assert code == 3 and stdout == ""
    assert "NotLogFano" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv, config, unread", [
    (["zeta", "--family", "gaussdet", "--n", "1", "--beta", "1"], {}, "--beta"),
    (["zeta", "--family", "circular", "--n", "3", "--beta", "1", "--s", "5"], {}, "--s"),
    (["mc", "--target", "circular", "--n", "3", "--beta", "1", "--w", "1/2", "--grid", "1"], {},
     "--w --grid"),
    (["mc", "--target", "free-energy", "--n", "3", "--grid", "1/2:1:1/2"], {"s": 1}, "--s"),
    (["oracle", "meanfield", "--w", "1/2", "--beta", "1", "--target", "exp:3"], {}, "--target"),
    (["oracle", "poisson", "--target", "exp:1", "--w", "1/2", "--beta", "2"], {}, "--w --beta"),
    (["sample", "--score", "{score}", "--beta", "1", "--N", "7", "--sweeps", "100",
      "--burn-in", "5"], {}, "--N --sweeps --burn-in"),
    (["sample", "--score", "{score}", "--beta", "1"], {"ks_uniform": True}, "--ks-uniform"),
], ids=["zeta-gaussdet-beta", "zeta-circular-s", "mc-circular", "mc-free-energy-config",
        "oracle-meanfield", "oracle-poisson", "sample-score", "sample-score-config"])
def test_value_flag_the_mode_does_not_read_is_validation_exit(tmp_path, capsys, argv, config,
                                                              unread):
    score = tmp_path / "score.csv"
    score.write_text("x,y,z\n0.6,0,0.8\n0,0.6,-0.8\n-0.8,0,0.6\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    argv = [a.replace("{score}", str(score)) for a in argv]
    code, stdout, err = run_cli([*argv, "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert f"does not read {unread}" in err
    assert not any(out.iterdir())


def test_nonconvergence_maps_to_exit_4(tmp_path, capsys, monkeypatch):
    from kezeta.errors import ConvergenceError

    def explode(*a, **k):
        raise ConvergenceError("newton stalled")

    monkeypatch.setattr(cli_numeric, "solve_mean_field", explode)
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


@pytest.mark.parametrize("argv", [
    ["zeta", "--family", "circular", "--n", "3", "--beta", "1", "--seed", "1"],
    ["stability", "--w", "0.5,0.5,0.5", "--workers", "2"],
    ["verify", "--level", "quick", "--seed", "1"],
], ids=["zeta-seed", "stability-workers", "verify-seed"])
def test_flag_the_subcommand_does_not_read_is_validation_exit(tmp_path, capsys, argv):
    code, out, _ = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert not (tmp_path / "manifest.jsonl").exists()


def test_config_key_for_an_unread_flag_is_validation_exit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 3}))  # only mc has --workers
    code, out, err = run_cli(
        ["zeta", "--family", "circular", "--n", "3", "--beta", "1", "--config", str(cfg),
         "--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert "not workers" in err


@pytest.mark.parametrize("value", [True, 5.5])
def test_config_value_of_wrong_type_for_int_flag_is_validation_exit(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chains": value}))
    code, out, err = run_cli(
        ["sample", "--beta", "1", "--N", "3", "--sweeps", "20", "--config", str(cfg),
         "--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert "chains" in err
    assert not (tmp_path / "samples.csv").exists()


@pytest.mark.parametrize("argv, values", [
    (["stability", "--w", "1/2,1/2,1/2"], {"out": 5}),
    (["mc", "--target", "circular", "--n", "3", "--beta", "1", "--samples", "1000"],
     {"batch_csv": 7}),
    (["sample", "--beta", "1"], {"score": 3}),
], ids=["out", "batch_csv", "score"])
def test_config_number_for_a_path_flag_is_validation_exit(tmp_path, capsys, monkeypatch,
                                                          argv, values):
    # only --beta and --s parse numbers; a path flag takes a string
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert f"config key {next(iter(values))}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_out_naming_a_file_is_validation_exit(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    code, out, err = run_cli(["stability", "--w", "0.5,0.5,0.5", "--out", str(taken)], capsys)
    assert code == 2 and out == ""
    assert "not a directory" in err
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("extra", [["--bins", "5"], ["--thinning", "50"]],
                         ids=["bins", "thinning-above-sweeps"])
def test_sample_rejects_its_inputs_before_sampling(tmp_path, capsys, monkeypatch, extra):
    def never(*a, **k):
        raise AssertionError("run_chain called before the inputs were checked")

    monkeypatch.setattr(cli_numeric, "run_chain", never)
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(
        ["sample", "--beta", "1", "--N", "3", "--sweeps", "20", *extra, "--out", str(out_dir)],
        capsys)
    assert code == 2 and out == ""
    assert not list(out_dir.iterdir())


def test_sample_negative_burn_in_is_validation_exit_and_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(
        ["sample", "--beta", "1", "--N", "3", "--sweeps", "20", "--thinning", "5",
         "--burn-in", "-5", "--out", str(out_dir)], capsys)
    assert code == 2 and out == ""
    assert "burn-in" in err
    assert not list(out_dir.iterdir())


def test_sample_score_of_a_missing_file_is_validation_exit(tmp_path, capsys):
    code, out, err = run_cli(
        ["sample", "--score", str(tmp_path / "nope.csv"), "--beta", "1", "--out", str(tmp_path)],
        capsys)
    assert code == 2 and out == ""
    assert "--score" in err
    assert not list(tmp_path.iterdir())


def test_sample_score_of_an_undecodable_file_is_validation_exit(tmp_path, capsys):
    score = tmp_path / "bin.csv"
    score.write_bytes(bytes(range(128, 256)) + bytes(range(72)))  # 200 bytes, not UTF-8
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["sample", "--score", str(score), "--beta", "1", "--out", str(out_dir)], capsys)
    assert code == 2 and out == ""
    assert "--score" in err
    assert not any(out_dir.iterdir())


def test_config_file_that_is_not_text_is_validation_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bin.csv"
    cfg.write_bytes(bytes(range(128, 256)) + bytes(range(72)))
    code, out, err = run_cli(["stability", "--w", "1/2,1/2,1/2", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert "config file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bin.csv"]


def test_mc_batch_csv_in_a_missing_directory_exits_2_before_estimating(tmp_path, capsys, monkeypatch):
    def never(*a, **k):
        raise AssertionError("estimate started before --batch-csv was checked")

    monkeypatch.setattr(cli_numeric, "mc_circular", never)
    code, out, err = run_cli(
        ["mc", "--target", "circular", "--n", "3", "--beta", "1", "--samples", "1000",
         "--batch-csv", "sub/b.csv", "--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert "--batch-csv" in err
    assert not list(tmp_path.iterdir())


def test_mc_free_energy_refuses_batch_csv_before_sampling(tmp_path, capsys, monkeypatch):
    # the thermodynamic-integration ladder has no batch means to write
    def never(*a, **k):
        raise AssertionError("ladder started although --batch-csv cannot be honoured")

    monkeypatch.setattr(cli_numeric, "free_energy_curve", never)
    out_dir = tmp_path / "fe"
    start = time.perf_counter()
    code, out, err = run_cli(
        ["mc", "--target", "free-energy", "--n", "3", "--grid", "1/2:1:1/2", "--budget", "2000",
         "--batch-csv", "b.csv", "--out", str(out_dir)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and "--batch-csv" in err
    assert not any(out_dir.iterdir())


def test_zero_workers_is_validation_exit(tmp_path, capsys):
    code, out, err = run_cli(
        ["mc", "--target", "circular", "--n", "3", "--beta", "1", "--workers", "0",
         "--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert "worker" in err


def test_bad_tube_kind_is_validation_exit(tmp_path, capsys):
    code, _, _ = run_cli(
        ["zeta", "--family", "selberg", "--n", "3", "--tube", "xyz",
         "--out", str(tmp_path)], capsys)
    assert code == 2


@pytest.mark.parametrize("flags", [
    ["--tube", "canonical"],
    ["--tube", "bogus"],
    ["--w", "1/2,1/2,1/2"],
], ids=["tube", "bad-tube", "w"])
def test_selberg_only_flag_on_another_family_is_validation_exit(tmp_path, capsys, flags):
    code, out, err = run_cli(
        ["zeta", "--family", "circular", "--n", "3", *flags, "--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert flags[0] in err and "selberg" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [
    ["--family", "circular"],
    ["--n", "3"],
    ["--w", "1"],
    ["--beta", "1"],
    ["--s", "0"],
    ["--poles-in=-2:1"],
    ["--tube", "bogus"],
    ["--family", "circular", "--tube", "bogus", "--n", "3", "--w", "1"],
], ids=["family", "n", "w", "beta", "s", "poles-in", "tube", "several"])
def test_log_gamma_with_another_zeta_flag_is_validation_exit(tmp_path, capsys, flags):
    code, out, err = run_cli(["zeta", "--log-gamma", "2", *flags, "--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert "--log-gamma" in err and flags[0].split("=")[0] in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["mc", "--target", "circular", "--n", "3", "--beta", "1e400"],
    ["sample", "--beta", "1e400", "--N", "3", "--sweeps", "20"],
    ["oracle", "meanfield", "--beta", "1e400"],
    ["zeta", "--log-gamma", "1e400"],
    ["zeta", "--family", "circular", "--n", "3", "--beta", "1e400"],
    ["mc", "--target", "gaussdet", "--n", "1", "--s", "1e400"],
    ["mc", "--target", "sphere", "--n", "3", "--beta", "1", "--w", "1e400"],
    ["stability", "--w", "1e400,1/2,1/2"],
    ["stability", "--lct", "1e400"],
    ["oracle", "poisson", "--target", "exp:1e400"],
    ["mc", "--target", "free-energy", "--n", "3", "--grid", "0:1e400:1"],
], ids=["mc-circular-beta", "sample-beta", "meanfield-beta", "log-gamma", "zeta-beta",
        "gaussdet-s", "sphere-w", "stability-w", "lct", "poisson-target", "free-energy-grid"])
def test_rational_that_overflows_a_float_is_validation_exit(tmp_path, capsys, argv):
    out_dir = tmp_path / "run"
    code, out, err = run_cli([*argv, "--out", str(out_dir)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("validation error: ")
    assert not any(out_dir.iterdir())


@pytest.mark.parametrize("grid", ["0:1:1/1000000000000", "0:1e300:1", "0:1:1/1000",
                                  ",".join(map(str, range(1001)))],
                         ids=["tiny-step", "huge-span", "one-past-the-cap", "list-one-past-the-cap"])
def test_grid_range_above_the_node_cap_is_validation_exit(tmp_path, capsys, monkeypatch, grid):
    def curve(*args, **kwargs):
        raise AssertionError("free_energy_curve ran on an over-size grid")

    monkeypatch.setattr(cli_numeric, "free_energy_curve", curve)
    out_dir = tmp_path / "run"
    code, out, err = run_cli(["mc", "--target", "free-energy", "--n", "3", "--grid", grid,
                              "--out", str(out_dir)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and "nodes" in err
    assert not any(out_dir.iterdir())
    assert len(cli._parse_grid("0:1:1/999")) == cli._MAX_GRID_NODES
    assert len(cli._parse_grid(",".join(map(str, range(1000))))) == cli._MAX_GRID_NODES


def test_parse_fraction_keeps_the_exact_rational():
    big = "1" + "0" * 300 + "/3"
    assert cli._parse_fraction(big, "beta") == Fraction(10**300, 3)
    assert cli._parse_fraction("1e-400", "beta") == Fraction(1, 10**400)  # underflows to 0.0


@pytest.mark.parametrize("argv, message", [
    (["oracle", "poisson", "--degree", "-1"], "degree"),
    (["oracle", "poisson", "--degree", "0"], "degree"),
    (["oracle", "poisson", "--m", "-5"], "at least 1 cell"),
    (["oracle", "phin", "--N", "3", "--m", "-2"], "at least 1 cell"),
    (["oracle", "meanfield", "--w", "1/2", "--beta", "1", "--m", "1000000000"], "at most 65536 cells"),
    (["oracle", "poisson", "--target", "exp:1", "--degree", "100000000"], "degree"),
    (["oracle", "phin", "--N", "1"], "--N >= 2"),
], ids=["poisson-degree-negative", "poisson-degree-zero", "poisson-m", "phin-m",
        "meanfield-m-cap", "poisson-degree-cap", "phin-N"])
def test_oracle_grid_and_degree_bounds_are_validation_exit(tmp_path, capsys, monkeypatch, argv, message):
    # an over-cap size must be refused before its arrays are allocated: the
    # grid and quadrature builders fail the test if asked for more than a cap
    linspace, leggauss = np.linspace, np.polynomial.legendre.leggauss

    def capped_linspace(start, stop, num=50, **kwargs):
        assert num <= kezeta.meanfield._MAX_GRID_CELLS + 1, f"linspace of {num} nodes"
        return linspace(start, stop, num, **kwargs)

    def capped_leggauss(deg):
        assert deg <= 2 * kezeta.meanfield._MAX_DEGREE + 2, f"leggauss of degree {deg}"
        return leggauss(deg)

    monkeypatch.setattr(np, "linspace", capped_linspace)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", capped_leggauss)
    out_dir = tmp_path / "run"
    code, out, err = run_cli([*argv, "--out", str(out_dir)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and message in err
    assert not any(out_dir.iterdir())


def test_tube_on_a_line_scans_the_full_product(tmp_path, capsys):
    # --w with a 't' entry restricts the reported product to a line; the tube
    # is still scanned over all three weights
    code, out, _ = run_cli(
        ["zeta", "--family", "selberg", "--n", "3", "--w", "1/2,1/2,t", "--tube", "canonical",
         "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["restricted_to_line"] == {"w1": ["0", "1/2"], "w2": ["0", "1/2"], "w3": ["1", "0"]}
    assert report["tube"] == {"kind": "canonical", "families_checked": 8, "zero_free": True}


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


@pytest.mark.parametrize("flags", [
    ["--family", "p1three", "--beta=-201/2"],
    ["--family", "circular", "--n", "3", "--beta=-400"],
], ids=["p1three", "circular"])
def test_zeta_zero_far_left_reports_a_finite_limit(tmp_path, capsys, flags):
    code, out, _ = run_cli(["zeta", *flags, "--out", str(tmp_path)], capsys)
    assert code == 0
    value = json.loads(out)["value"]
    assert value["kind"] == "zero"
    assert math.isfinite(value["limit_of_scaled_re"]) and value["limit_of_scaled_re"] != 0
    assert value["limit_of_scaled_im"] == 0.0  # both products are real


def test_zeta_zero_too_far_left_for_the_residue_is_validation_exit(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(["zeta", "--family", "circular", "--n", "3", "--beta=-1e300",
                              "--out", str(out_dir)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and "residue" in err
    assert not any(out_dir.iterdir())


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


@pytest.mark.parametrize("argv, ratio", [
    (["--n", "170", "--s", "1/2"], math.inf),
    (["--n", "3", "--s", "1e300"], math.inf),
    (["--n", "2", "--s=-1e300"], -math.inf),  # b(s) has three negative factors
], ids=["n-170", "huge-s", "huge-negative-s"])
def test_gaussdet_bernstein_ratio_past_the_float_range_is_infinite(tmp_path, capsys, argv, ratio):
    code, out, _ = run_cli(["zeta", "--family", "gaussdet", *argv, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["bernstein_next_ratio"] == ratio


@pytest.mark.parametrize("family", ["pnmin", "gaussdet"])
def test_zeta_n_of_the_gamma_factor_families_is_capped(tmp_path, capsys, family):
    start = time.perf_counter()
    code, out, err = run_cli(["zeta", "--family", family, "--n", str(cli._MAX_ZETA_N + 1),
                              "--out", str(tmp_path / "over")], capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and "--n" in err
    code, out, _ = run_cli(["zeta", "--family", family, "--n", str(cli._MAX_ZETA_N),
                            "--out", str(tmp_path / "at")], capsys)
    assert code == 0


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


def test_flag_before_config_file_still_wins(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"target": "circular", "n": 3, "beta": "1", "samples": 5000, "seed": 9}))
    code, out, _ = run_cli(
        ["mc", "--samples", "8000", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    est = json.loads(out)["estimate"]
    assert est["n_samples"] == 8000
    assert est["seed"] == 9


def test_config_file_can_name_the_oracle_solver(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": "poisson", "target": "exp:1", "degree": 40}))
    code, out, _ = run_cli(["oracle", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["solver"] == "poisson"


def test_config_values_do_not_leak_into_the_next_call(tmp_path, capsys):
    # one process, one shared parser: the second call sees only its own argv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chains": 2}))
    argv = ["sample", "--beta", "1", "--N", "3", "--sweeps", "20", "--thinning", "5"]
    assert run_cli(argv + ["--config", str(cfg), "--out", str(tmp_path / "a")], capsys)[0] == 0
    assert run_cli(argv + ["--out", str(tmp_path / "b")], capsys)[0] == 0
    chains = [json.loads((tmp_path / run / "manifest.jsonl").read_text())["config"]["chains"]
              for run in ("a", "b")]
    assert chains == [2, 4]


def test_parser_is_built_once_across_calls(tmp_path, capsys, monkeypatch):
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    for argv in (["stability", "--w", "0.5,0.5,0.5"],
                 ["zeta", "--family", "circular", "--n", "3", "--beta", "1"],
                 ["stability", "--w", "1/2,1/3,1/4", "--n", "3"]):
        assert run_cli(argv + ["--out", str(tmp_path)], capsys)[0] == 0
    assert len(builds) == 1


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


def test_verify_manifest_echoes_only_its_own_keys(tmp_path, capsys, monkeypatch):
    from kezeta.verify import VerifyReport

    monkeypatch.setattr(cli_numeric, "run_verify", lambda level: VerifyReport(level, ()))
    assert run_cli(["verify", "--out", str(tmp_path)], capsys)[0] == 0
    (rec,) = [json.loads(l) for l in (tmp_path / "manifest.jsonl").read_text().splitlines()]
    assert rec["config"] == {"command": "verify", "level": "quick", "out": str(tmp_path)}


def test_mc_batch_csv_has_header(tmp_path, capsys):
    code, _, _ = run_cli(
        ["mc", "--target", "circular", "--n", "3", "--beta", "1",
         "--samples", "4000", "--batch-csv", "batches.csv", "--out", str(tmp_path)],
        capsys)
    assert code == 0
    text = (tmp_path / "batches.csv").read_text()
    assert text.startswith("batch_index,batch_mean\n")
    # the rows of the manifest's batch means, joined, with a trailing newline
    (rec,) = [json.loads(l) for l in (tmp_path / "manifest.jsonl").read_text().splitlines()]
    batch_means = rec["outcome"]["diagnostics"]["batch_means"]
    assert len(batch_means) > 1
    lines = ["batch_index,batch_mean"] + [f"{i},{b!r}" for i, b in enumerate(batch_means)]
    assert text == "\n".join(lines) + "\n"


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


def test_sample_streams_its_csv_without_a_whole_text_copy(tmp_path, capsys, monkeypatch):
    # the benchmark's wide run: 64 chains keep 50 configurations of 16 points.
    # The CSV is written a row at a time, so the traced peak stays within a
    # few copies of the configurations array; a table held as text (a list
    # of rows, their join, the encoded file) takes about 9 copies.  A small
    # warm-up run keeps one-time allocations out, and the chain is run
    # before tracing starts, so only the CLI's handling and writer are traced.
    argv = ["sample", "--w", "1/2", "--beta", "1", "--N", "16", "--chains", "64",
            "--thinning", "10", "--sweeps", "500", "--seed", "7", "--out", str(tmp_path)]
    assert run_cli([*argv[:-2], "--chains", "2", "--sweeps", "20", "--out", str(tmp_path)], capsys)[0] == 0
    stream = kezeta.sampler.run_chain(LogFanoCurve.standard((0.5,)), 1.0, 16, sweeps=500,
                                      seed=7, thinning=10, chains=64)
    monkeypatch.setattr(cli_numeric, "run_chain", lambda *args, **kwargs: stream)
    config_bytes = 64 * 50 * 16 * 3 * 8
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert len((tmp_path / "samples.csv").read_text().splitlines()) == 1 + 64 * 50
    assert peak <= 3 * config_bytes, peak / config_bytes


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


def _score_file(tmp_path, planes):
    from kezeta.sphere import PointConfiguration, config_to_csv, stereo_to_sphere

    path = tmp_path / "conf.csv"
    path.write_text(config_to_csv(PointConfiguration(tuple(stereo_to_sphere(z) for z in planes))))
    return path


def test_sample_score_pair_fields_match_scalar_pair_walk(tmp_path, capsys):
    # the closest-pair fields, bit for bit, against a walk over every pair
    # with the scalar chordal and green helpers
    import numpy as np

    from kezeta.sphere import PointConfiguration, chordal, config_from_csv, green

    rng = np.random.default_rng(5)
    path = _score_file(tmp_path, rng.standard_normal(60) + 1j * rng.standard_normal(60))
    code, out, _ = run_cli(["sample", "--score", str(path), "--beta", "1", "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    pts = config_from_csv(path.read_text()).points
    pairs = [(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]]
    assert report["min_pair_chordal"] == min(chordal(p, q) for p, q in pairs)
    assert report["max_pair_green"] == max(green(p, q) for p, q in pairs)


def test_sample_score_builds_the_pair_buffer_twice(tmp_path, capsys, monkeypatch):
    # once for the energy (which log_target reuses) and once for the
    # closest-pair fields; log_target's value keeps its bits
    from kezeta import sphere
    from kezeta.sampler import log_target
    from kezeta.sphere import config_from_csv

    built = []
    original = sphere.pairwise_sq_chord

    def spy(arr):
        built.append(arr.shape)
        return original(arr)

    for module in (sphere, cli_numeric):
        monkeypatch.setattr(module, "pairwise_sq_chord", spy)
    path = _score_file(tmp_path, (0.3 + 0.1j, -1.2 + 0.5j, 2.0 + 0j, 0.5 - 0.7j))
    code, out, _ = run_cli(["sample", "--score", str(path), "--w", "1/2,1/3", "--beta", "1",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    assert built == [(4, 3), (4, 3)]
    monkeypatch.undo()
    curve = LogFanoCurve.standard((Fraction(1, 2), Fraction(1, 3)))
    assert json.loads(out)["log_target"] == log_target(config_from_csv(path.read_text()), curve, 1.0)


def test_sample_score_of_a_coincident_pair_raises(tmp_path, capsys):
    # two distinct points 1.7e-15 apart: below the coincidence tolerance, yet
    # above the energy kernel's clamp, so only the pair fields see it; the
    # CoincidenceError is a validation exit, not a traceback
    path = _score_file(tmp_path, (0.3 + 0.1j, 0.3 + 0.1j + 1e-15, 2.0 + 0j))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["sample", "--score", str(path), "--beta", "1", "--out", str(out_dir)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and "chordal distance 1.693e-15" in err
    assert not any(out_dir.iterdir())


def test_sample_score_above_the_state_cap_is_validation_exit(tmp_path, capsys, monkeypatch):
    # 60 points: 1770 pairs of 8 bytes; a blank line is no point
    from kezeta.sphere import SpherePoint

    rng = np.random.default_rng(5)
    path = _score_file(tmp_path, rng.standard_normal(60) + 1j * rng.standard_normal(60))
    path.write_text(path.read_text() + "\n")
    argv = ["sample", "--score", str(path), "--beta", "1", "--out", str(tmp_path / "out")]
    monkeypatch.setattr(kezeta.sampler, "_MAX_STATE_BYTES", 14_160)
    assert run_cli(argv, capsys)[0] == 0

    def built(*args, **kwargs):
        raise AssertionError("a point was built before the size check")

    monkeypatch.setattr(kezeta.sampler, "_MAX_STATE_BYTES", 14_159)
    monkeypatch.setattr(SpherePoint, "from_vec", built)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and "60 points" in err


def _refuse_allocation(monkeypatch):
    """Make every numpy allocator the samplers use fail, so that a run can
    only pass by refusing before it allocates."""

    def allocated(*args, **kwargs):
        raise AssertionError("an array was allocated before the size check")

    for name in ("empty", "zeros", "full", "ones"):
        monkeypatch.setattr(np, name, allocated)
    monkeypatch.setattr(kezeta.sampler, "sample_uniform_array", allocated)


@pytest.mark.parametrize("argv, message", [
    (["mc", "--target", "circular", "--n", "3", "--beta", "1", "--samples", "1000000000000"],
     "log-weights"),
    # two log-weights per sample: one sample past the cap
    (["mc", "--target", "sphere", "--n", "3", "--beta", "1", "--samples",
      str(kezeta.montecarlo._MAX_LOG_WEIGHT_BYTES // 16 + 1)], "log-weights"),
    (["sample", "--beta", "1", "--N", "100000", "--sweeps", "10", "--thinning", "5"], "MiB"),
    (["sample", "--beta", "1", "--N", "3", "--sweeps", "10", "--chains", "1000000000000"], "MiB"),
    # one chunk of 20 000 complex 101 x 101 matrices: 3.3 GB of normals
    (["mc", "--target", "gaussdet", "--n", "100", "--s", "1", "--samples", "100000"],
     "Gaussian entries"),
    # a block of 4096 configurations of N = 182 points: 16,471 pairs of 8 bytes
    # each, one pair buffer past 512 MiB (N = 181 stays under it)
    (["mc", "--target", "circular", "--n", "182", "--beta", "1", "--samples", "4096"], "pair terms"),
    (["mc", "--target", "selberg", "--w", "1/2,1/2,1/2", "--n", "182", "--samples", "4096"],
     "pair terms"),
    (["mc", "--target", "sphere", "--n", "182", "--beta", "1", "--samples", "4096"], "pair terms"),
    (["mc", "--target", "gaussdet", "--n", "1", "--s", "1/2", "--samples", "1000",
      "--workers", str(kezeta.montecarlo._MAX_WORKERS + 1)], "workers"),
    (["zeta", "--family", "selberg", "--n", str(cli._MAX_ZETA_N + 1)], "--n"),
    # 4.5 million (factor, m) pairs on this line; 450,000 took 2.5 s to enumerate
    (["zeta", "--family", "selberg", "--n", "3", "--w", "1/2,1/2,t", "--poles-in=-1000000:0"],
     "strip"),
], ids=["mc-circular", "mc-sphere-one-past", "sample-N", "sample-chains", "mc-gaussdet-n",
        "mc-circular-pairs", "mc-selberg-pairs", "mc-sphere-pairs", "mc-workers",
        "zeta-selberg-n", "zeta-strip"])
def test_over_size_run_is_refused_before_any_allocation(tmp_path, capsys, monkeypatch, argv, message):
    # never run for real: these ask for up to terabytes
    _refuse_allocation(monkeypatch)
    out_dir = tmp_path / "run"
    start = time.perf_counter()
    code, out, err = run_cli([*argv, "--out", str(out_dir)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and message in err
    assert not any(out_dir.iterdir())


def test_stability_at_a_billion_points_reads_the_walls_at_once(tmp_path, capsys):
    # finiteness is two exact inequalities, so --n has no cap
    start = time.perf_counter()
    code, out, _ = run_cli(
        ["stability", "--w", "1/2,1/2,1/2", "--n", "1000000000", "--out", str(tmp_path)], capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert json.loads(out)["integral_finite"] is True


def test_run_at_the_sample_state_cap_is_not_refused(monkeypatch):
    def run():
        return kezeta.sampler.run_chain(LogFanoCurve.standard(()), 1.0, 4, sweeps=2, burn_in=0,
                                        thinning=1, chains=8)

    # 8 lanes of N = 4 keeping 2 sweeps: 8 * 8 * (16 + 2 * 13) = 2688 bytes
    monkeypatch.setattr(kezeta.sampler, "_MAX_STATE_BYTES", 2688)
    assert run().configs.shape == (8, 2, 4, 3)
    monkeypatch.setattr(kezeta.sampler, "_MAX_STATE_BYTES", 2687)
    with pytest.raises(ValidationError):
        run()


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
from kezeta import cli

out = sys.argv[1]
jobs = [
    ["zeta", "--family", "circular", "--n", "3", "--beta", "1"],
    ["stability", "--w", "1/2,1/2,1/2", "--n", "3"],
    ["mc", "--target", "circular", "--n", "3", "--beta", "1", "--samples", "2000"],
    ["sample", "--w", "1/2", "--beta", "1", "--N", "3", "--sweeps", "20", "--thinning", "5"],
    ["oracle", "meanfield", "--w", "1/2", "--beta", "1"],
    ["oracle", "poisson", "--target", "exp:1"],
    ["oracle", "phin", "--target", "exp:1", "--N", "3"],
    ["verify", "--level", "quick"],
]
for argv in jobs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", out])
    assert code == 0, (argv, code)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_subcommand_imports_scipy(tmp_path):
    # a fresh interpreter, so that no other test's import of scipy is seen
    src = str(Path(kezeta.meanfield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


_TIER_SCRIPT = """
import contextlib, io, sys
from kezeta import cli

NUMERIC = ("numpy", "kezeta.sphere", "kezeta.montecarlo", "kezeta.sampler", "kezeta.meanfield",
           "kezeta.verify")
out = sys.argv[1]
for argv in (["zeta", "--family", "selberg", "--n", "3", "--w", "1/2,1/2,1/2", "--tube", "canonical",
              "--out", out],
             ["zeta", "--family", "p1three", "--poles-in=-1:0", "--out", out],
             ["stability", "--w", "1/2,1/2,1/2", "--n", "3", "--out", out],
             ["zeta", "--help"], ["--version"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print([m for m in NUMERIC if m in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["oracle", "poisson", "--out", out]) == 0
print([m for m in NUMERIC if m not in sys.modules])
"""


def test_exact_commands_load_no_numeric_module(tmp_path):
    # a fresh interpreter: zeta, stability, --help and --version run on the
    # exact engine alone; the first numeric command loads the whole numeric
    # tier at once, which the benchmark's tracer relies on
    src = str(Path(kezeta.meanfield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _TIER_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]"]


def test_python_m_kezeta_imports_cli_once(tmp_path, capsys):
    # `python -m kezeta` is the module entry point; it imports cli.py once, at
    # the top level, and cli_numeric's `from .cli import` finds it loaded
    argv = ["mc", "--target", "free-energy", "--n", "3", "--grid", "0.25:1:0.25", "--budget", "800",
            "--seed", "3"]
    src = str(Path(kezeta.meanfield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "kezeta", *argv, "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    imported = [line.rsplit("|", 1)[-1] for line in done.stderr.splitlines() if line.startswith("import time:")]
    assert [name for name in imported if name.strip() == "kezeta.cli"] == [" kezeta.cli"]
    assert " kezeta.cli_numeric" in imported
    assert run_cli([*argv, "--out", str(tmp_path)], capsys)[:2] == (0, done.stdout)


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


def test_oracle_field_csvs_are_the_joined_rows_of_their_fields(tmp_path, capsys):
    from kezeta.meanfield import phi_n_approximant, solve_mean_field, solve_poisson

    target = kezeta.meanfield.density_from_function(lambda t: np.exp(t), m=300)
    sol = solve_mean_field(LogFanoCurve.standard((0.5,)), 1.0, m=300)
    expected = {
        "meanfield_density.csv": sol.density,
        "meanfield_potential.csv": sol.potential,
        "poisson_potential.csv": solve_poisson(target, degree=80)[0],
        "phi_n.csv": phi_n_approximant(target),
    }
    for argv in (["oracle", "meanfield", "--w", "1/2", "--beta", "1", "--m", "300"],
                 ["oracle", "poisson", "--target", "exp:1", "--m", "300", "--degree", "80"],
                 ["oracle", "phin", "--target", "exp:1", "--m", "300", "--N", "3"]):
        assert run_cli([*argv, "--out", str(tmp_path)], capsys)[0] == 0
    for name, field in expected.items():
        lines = ["t,value"] + [f"{float(t)!r},{float(v)!r}" for t, v in zip(field.grid, field.values)]
        assert (tmp_path / name).read_text() == "\n".join(lines) + "\n", name


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
    assert json.loads(out)["n_points"] == 3
    assert (tmp_path / "phi_n.csv").exists()


# ----------------------------------------------------------------------
# README

def test_readme_command_lines_parse():
    # every example in the README's code blocks is a valid command line;
    # parsing only, nothing runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in readme.split("```")[1::2] for line in block.splitlines()
             if line.startswith("ke-zeta ") and not line.startswith("ke-zeta <")]
    assert len(lines) >= 10
    parser = cli._build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


# ----------------------------------------------------------------------
# verify plumbing

def test_verify_quick_runs_are_byte_identical(tmp_path, capsys):
    code1, out1, _ = run_cli(["verify", "--level", "quick", "--out", str(tmp_path)], capsys)
    code2, out2, _ = run_cli(["verify", "--level", "quick", "--out", str(tmp_path)], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "summary: 6/6 criteria passed" in out1


def test_verify_quick_report_matches_the_pinned_bytes():
    # the quick report is pinned across commits: a change that is meant to
    # move it updates tests/data/verify_quick.txt and says so in CHANGES.md
    pinned = (Path(__file__).resolve().parent / "data" / "verify_quick.txt").read_text()
    assert kezeta.verify.run_verify("quick").text() == pinned


def test_sample_output_matches_the_pinned_bytes(tmp_path, capsys):
    # the sampler's CSV and run report are pinned across commits, like the
    # quick report: 3 chains of 10 kept configurations, two adaptation steps
    argv = ["sample", "--w", "1/2,1/3", "--beta=-1/4", "--N", "4", "--chains", "3", "--thinning", "4",
            "--sweeps", "41", "--seed", "3", "--ks-uniform", "--out", str(tmp_path)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    pinned = Path(__file__).resolve().parent / "data" / "sample_pinned"
    for name in ("samples.csv", "sample_run.json"):
        assert (tmp_path / name).read_bytes() == (pinned / name).read_bytes(), name


def test_verify_failure_exits_5(tmp_path, capsys, monkeypatch):
    from kezeta.verify import CriterionResult, VerifyReport

    def rigged(level):
        return VerifyReport(level, (CriterionResult(3, "x", "bad", "exact", False),))

    monkeypatch.setattr(cli_numeric, "run_verify", rigged)
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
