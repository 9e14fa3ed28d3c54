import json
import math
import re
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modnls import cli, dispersion as dsp, harness, spectral as sp
from modnls.cli import main

from conftest import band_limited_field


def run_cli(args):
    return main(list(args))


def read_json(path):
    return json.loads(Path(path).read_text())


PICARD_CONFIG = {
    "grid": {"d": 2, "L_over_pi": 4, "n": 64},
    "coeffs": {"alpha": 1.0, "beta": 0.0, "gamma": 1.0},
    "nonlinearity": {"kind": "power", "pattern": "u,conj,u,u", "coeff": [-1.0, 0.0]},
    "window": {"t_min": 0.0, "t_max": 2.0, "nt": 17},
    "norms": {"s": 0.0, "q": 1, "r": 4, "p": 6, "k_max": 2},
    "solver": {"delta": 0.2, "eps_fix": 1e-10, "oracle_substeps": 2},
    "initial_data": {"kind": "gaussian-spectrum", "band": 1, "mod_norm": 0.05},
}

VERIFY_CONFIG = {
    "verify": {"d": 2, "L_over_pi": 4, "n": 64, "gamma": 1.0, "k_max": 2,
               "count": 3, "nt": 9, "t_max": 2.0, "band": 1},
}


class TestParams:
    def test_ledger_values(self, tmp_path, capsys):
        code = run_cli(["params", "-d", "2", "-m", "3", "--gamma-nonzero",
                        "-r", "4", "--out", str(tmp_path)])
        assert code == 0
        led = read_json(tmp_path / "ledger.json")
        assert led["m0"] == 3
        assert led["I"] == ["1/8", "1/4"]
        assert led["J"] == ["1/8", "1/6"]
        assert led["p_a"] == "6"
        out = capsys.readouterr().out
        assert '"m0": 3' in out

    def test_hypothesis_violation_exit_2(self, tmp_path):
        code = run_cli(["params", "-d", "2", "-m", "3", "--gamma-nonzero",
                        "-r", "2", "--out", str(tmp_path)])
        assert code == 2
        assert (tmp_path / "manifest.json").exists()

    def test_manifest_written(self, tmp_path):
        run_cli(["params", "-d", "3", "-m", "2", "--gamma-nonzero",
                 "--out", str(tmp_path)])
        man = read_json(tmp_path / "manifest.json")
        assert man["subcommand"] == "params" and man["status"] == "ok"
        assert "ledger.json" in man["outputs"]


class TestNorm:
    def test_reads_field_and_reports(self, tmp_path, grid2d_small):
        rng = np.random.default_rng(0)
        f = band_limited_field(grid2d_small, 1, rng)
        field_path = tmp_path / "f.bin"
        sp.write_field(field_path, f)
        out_dir = tmp_path / "out"
        code = run_cli(["norm", "--field", str(field_path), "-p", "2", "-q", "1",
                        "-s", "0.0", "--k-max", "2", "--out", str(out_dir)])
        assert code == 0
        rep = read_json(out_dir / "norm.json")
        assert rep["value"] > 0 and rep["truncation_residual"] < 1e-10

    @pytest.mark.parametrize("flag, value", [("-p", "0"), ("-p", "-2"), ("-q", "0"),
                                             ("-q", "1/2")])
    def test_exponent_outside_one_to_inf_rejected(self, tmp_path, grid2d_small, capsys,
                                                  flag, value):
        field_path = tmp_path / "f.bin"
        sp.write_field(field_path, band_limited_field(grid2d_small, 1, np.random.default_rng(0)))
        code = run_cli(["norm", "--field", str(field_path), flag, value, "--k-max", "2",
                        "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rejected: {flag[1]} must be in [1, inf], got ")
        assert not (tmp_path / "out" / "norm.json").exists()

    @pytest.mark.parametrize("d, n", [(2, 2**16), (3, 2**31)])
    def test_field_header_claiming_more_than_the_file_exit_2(self, tmp_path, capsys, d, n):
        """The header's 16 n^d bytes are checked against the file before the
        read is tried: 64 GiB at n = 2^16, d = 2 (a MemoryError), more than
        an index holds at n = 2^31, d = 3 (an OverflowError)."""
        field_path = tmp_path / "f.bin"
        field_path.write_bytes(struct.pack("<qdq", d, 4 * math.pi, n) + bytes(64))
        code = run_cli(["norm", "--field", str(field_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "rejected: truncated field data\n"
        assert read_json(tmp_path / "out" / "manifest.json")["status"] == "rejected"


class TestDumpJson:
    def test_floats_and_exact_exponents(self, tmp_path):
        cli._dump_json(tmp_path / "x.json", {"a": math.inf, "b": np.float64(math.inf),
                                             "c": np.float32(0.5), "d": Fraction(16, 3)})
        assert (tmp_path / "x.json").read_text() == (
            '{\n  "a": Infinity,\n  "b": Infinity,\n  "c": 0.5,\n  "d": "16/3"\n}\n')


class TestConfigReaders:
    def test_solve_defaults(self):
        scfg = cli._build_solve_config({"coeffs": {"beta": 1.0}})
        assert scfg.coeffs.gamma == 0.0 and scfg.k_max == 4
        assert scfg.partition_kind == "trigonometric-window"

    def test_nonlinearity_block(self):
        spec = cli._read_nonlinearity(
            {"kind": "power", "pattern": "u, conj,u", "coeff": [-1.0, 0.0]})
        assert spec.pattern == ("u", "conj", "u") and spec.coeff == -1.0
        espec = cli._read_nonlinearity({"kind": "exponential", "lambda": [0.0, 1.0], "rho": 0.5})
        assert espec.lam == 1j and espec.rho == 0.5
        assert cli._read_nonlinearity({"kind": "zero"}).kind == "zero"

    def test_typed_readers(self):
        big = 2**64 - 1  # a seed this large must not pass through a float
        assert cli._integer({"seed": big}, "seed", 0) == big
        assert cli._integer({"seed": str(big)}, "seed", 0) == big
        assert cli._integer({"n": 64.0}, "n", 128) == 64 and cli._integer({}, "n", 128) == 128
        assert cli._number({"tail_tol": "1e3"}, "tail_tol", None) == 1000.0
        assert cli._bound({"tail_tol": None}, "tail_tol", 1.0) is None
        assert cli._exponent({"p": 4.5}, "p", 6) == Fraction(9, 2)
        assert cli._exponent({"p": "16/3"}, "p", 6) == Fraction(16, 3)
        assert cli._exponent({"q": "inf"}, "q", 1) == math.inf
        assert cli._flag({}, "override_hypotheses", False) is False

    def test_empty_verify_block_defaults(self, tmp_path, monkeypatch):
        seen = {}

        def check(grid, coeffs, ens, p, r, q, s, times, partition, **kw):
            seen.update(coeffs=coeffs, partition=partition)
            return {"lebesgue": harness.RatioReport(), "lifted": harness.RatioReport()}

        monkeypatch.setattr(harness, "check_homogeneous_strichartz", check)
        code = run_cli(["verify", "--check", "strichartz-hom", "--out", str(tmp_path)])
        assert code == 0
        assert seen["coeffs"].gamma == 1.0 and seen["partition"].k_max == 5
        assert seen["partition"].spec.kind == "trigonometric-window"


class TestSolveCommands:
    def test_evolve_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PICARD_CONFIG))
        out_dir = tmp_path / "out"
        code = run_cli(["evolve", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "trajectory.bin").exists()
        series = (out_dir / "series.csv").read_text().splitlines()
        assert series[0] == "t,mass,mod_norm_l2,mod_norm_lp"
        assert len(series) == 1 + PICARD_CONFIG["window"]["nt"]
        # every cell is a plain parseable float (plot-ready contract)
        for line in series[1:]:
            cells = line.split(",")
            assert len(cells) == 4
            for cell in cells:
                float(cell)

    def test_picard_runs_and_reports(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PICARD_CONFIG))
        out_dir = tmp_path / "out"
        code = run_cli(["picard", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        rep = read_json(out_dir / "report.json")
        assert rep["converged"] and rep["theta_hat"] < 0.9
        assert rep["oracle_deviation"] < 1e-6

    def test_picard_hypothesis_gate_exit_2(self, tmp_path):
        bad = json.loads(json.dumps(PICARD_CONFIG))
        bad["nonlinearity"] = {"kind": "power", "pattern": "u,conj,u", "coeff": [-1.0, 0.0]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad))
        out_dir = tmp_path / "out"
        code = run_cli(["picard", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 2  # m = 2 below m0 = 3
        assert (out_dir / "manifest.json").exists()

    def test_scatter_outputs(self, tmp_path):
        cfg = json.loads(json.dumps(PICARD_CONFIG))
        cfg["window"] = {"t_min": -2.0, "t_max": 2.0, "nt": 17}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code = run_cli(["scatter", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "u0_plus.bin").exists()
        tails = (out_dir / "tails.csv").read_text().splitlines()
        assert tails[0] == "t,tail_minus,tail_plus"
        for line in tails[1:]:
            for cell in line.split(","):
                float(cell)

    def test_config_parse_error_exit_2(self, tmp_path):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{ not json")
        code = run_cli(["picard", "--config", str(cfg_path), "--out",
                        str(tmp_path / "out")])
        assert code == 2


def _picard_with_norms(tmp_path, r, p, extra_args=(), solver=None, initial_data=None):
    cfg = json.loads(json.dumps(PICARD_CONFIG))
    cfg["window"]["nt"] = 9
    cfg["norms"].update(r=r, p=p)
    cfg["solver"].update(solver or {})
    cfg["initial_data"].update(initial_data or {})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = run_cli(["picard", "--config", str(cfg_path), "--out", str(out_dir),
                    *extra_args])
    return code, out_dir


class TestExactExponents:
    """(r, p) = (16/3, p) with J = [5/24, 1/4]: fractional exponents from the
    config reach the norm engine exactly."""

    def test_fractional_r_even_p(self, tmp_path):
        code, out_dir = _picard_with_norms(tmp_path, "16/3", 4)
        assert code == 0
        rep = read_json(out_dir / "report.json")
        assert rep["converged"] and rep["hypothesis_ledger"]["J"] == ["5/24", "1/4"]

    def test_fractional_r_fractional_p(self, tmp_path):
        code, out_dir = _picard_with_norms(tmp_path, "16/3", "9/2")
        assert code == 0
        assert read_json(out_dir / "report.json")["converged"]

    def test_decimal_p_is_read_exactly(self, tmp_path):
        code, _ = _picard_with_norms(tmp_path, "16/3", 4.5)
        assert code == 0

    def test_p_outside_J_rejected_with_ledger(self, tmp_path, capsys):
        code, out_dir = _picard_with_norms(tmp_path, "16/3", 6)
        assert code == 2
        err = capsys.readouterr().err
        assert "outside J" in err and "5/24" in err and "1/4" in err
        assert (out_dir / "manifest.json").exists()


class TestBisectionFailure:
    def test_failed_first_trial_writes_report(self, tmp_path):
        code, out_dir = _picard_with_norms(tmp_path, 4, 6, ["--bisect-delta"],
                                           solver={"max_iters": 1, "eps_fix": 1e-30})
        assert code == 1
        rep = read_json(out_dir / "report.json")
        assert rep["iterations"] == 1 and not rep["converged"]
        assert "report.json" in read_json(out_dir / "manifest.json")["outputs"]


def _run_edited_config(tmp_path, subcommand, **sections):
    cfg = json.loads(json.dumps(PICARD_CONFIG))
    cfg["window"] = {"t_min": -2.0, "t_max": 2.0, "nt": 9}
    for key, values in sections.items():
        cfg[key].update(values)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = run_cli([subcommand, "--config", str(cfg_path), "--out", str(out_dir)])
    return code, read_json(out_dir / "manifest.json")["status"]


class TestConfigValues:
    def test_string_tail_tol_is_a_number(self, tmp_path):
        assert _run_edited_config(tmp_path, "scatter", solver={"tail_tol": "1e3"}) == (0, "ok")

    def test_bad_tail_tol_exit_2(self, tmp_path):
        code, status = _run_edited_config(tmp_path, "scatter", solver={"tail_tol": "small"})
        assert (code, status) == (2, "rejected")

    def test_unknown_exp_s_rule_exit_2(self, tmp_path, capsys):
        code, status = _run_edited_config(
            tmp_path, "picard", solver={"exp_s_rule": "s >= p"},
            nonlinearity={"kind": "exponential", "lambda": [-1.0, 0.0], "rho": 0.5})
        assert (code, status) == (2, "rejected")
        assert "exp_s_rule" in capsys.readouterr().err

    def test_bad_thread_count_exit_2(self, tmp_path, capsys):
        for threads in ("0", "-3"):
            code = run_cli(["params", "-d", "2", "-m", "3", "--threads", threads,
                            "--out", str(tmp_path)])
            assert code == 2
            assert read_json(tmp_path / "manifest.json")["status"] == "rejected"
            assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["params", "norm", "evolve", "picard", "scatter"])
    def test_threads_above_one_only_for_verify_exit_2(self, tmp_path, capsys, subcommand):
        """Only verify runs worker threads; the others reject more than one
        before they read their inputs."""
        args = {"params": ["-d", "2", "-m", "3"], "norm": ["--field", "absent.bin"]}
        argv = [subcommand, *args.get(subcommand, ["--config", "absent.json"])]
        code = run_cli([*argv, "--threads", "2", "--out", str(tmp_path)])
        assert code == 2
        assert read_json(tmp_path / "manifest.json")["status"] == "rejected"
        assert "--threads must be 1, or more for verify, got 2" in capsys.readouterr().err

    def test_threads_one_is_accepted_and_verify_takes_more(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**PICARD_CONFIG, **VERIFY_CONFIG}))
        assert run_cli(["params", "-d", "2", "-m", "3", "--threads", "1",
                        "--out", str(tmp_path / "params")]) == 0
        for subcommand in ("scatter", "verify"):
            extra = ["--check", "strichartz-hom"] if subcommand == "verify" else []
            code = run_cli([subcommand, "--config", str(cfg_path), *extra, "--threads", "1",
                            "--out", str(tmp_path / subcommand)])
            assert code == 0, subcommand
        assert run_cli(["verify", "--config", str(cfg_path), "--check", "strichartz-hom",
                        "--threads", "2", "--out", str(tmp_path / "two")]) == 0

    @pytest.mark.parametrize("subcommand", ["picard", "evolve"])
    @pytest.mark.parametrize("substeps", [0, -3])
    def test_oracle_substeps_below_one_exit_2(self, tmp_path, capsys, subcommand, substeps):
        """Rejected, not run as one substep."""
        cfg = json.loads(json.dumps(PICARD_CONFIG))
        cfg["solver"]["oracle_substeps"] = substeps
        _assert_rejected(tmp_path, capsys, cfg,
                         f"solver.oracle_substeps must be >= 1, got {substeps}", subcommand)

    def test_thread_count_is_read_from_the_option_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MODNLS_THREADS", "two")
        assert run_cli(["params", "-d", "2", "-m", "3", "--out", str(tmp_path)]) == 0
        assert cli.build_parser().parse_args(["params", "-d", "2", "-m", "3"]).threads == 1


# (edit of PICARD_CONFIG, the key the rejection names); None stands for a
# config whose root is a list
_MALFORMED = {
    "power_without_pattern": ({"nonlinearity": {"kind": "power", "coeff": [-1.0, 0.0]}},
                              "pattern"),
    "scalar_coeff": ({"nonlinearity": {"kind": "power", "pattern": "u,conj,u,u",
                                       "coeff": -1.0}}, "coeff"),
    "scalar_lambda": ({"nonlinearity": {"kind": "exponential", "lambda": -1.0,
                                        "rho": 0.5}}, "lambda"),
    "root_not_an_object": (None, "JSON object"),
    "block_not_an_object": ({"solver": [0.2]}, "solver"),
    "max_iters_zero": ({"solver": {"delta": 0.2, "max_iters": 0}}, "max_iters"),
    # a list or null where a number belongs
    "list_grid_n": ({"grid": {"d": 2, "L_over_pi": 4, "n": [64]}}, "'n'"),
    "null_window_nt": ({"window": {"t_min": 0.0, "t_max": 1.0, "nt": None}}, "'nt'"),
    "list_rho": ({"nonlinearity": {"kind": "exponential", "lambda": [-1.0, 0.0],
                                   "rho": [0.5]}}, "'rho'"),
    # a value of the wrong kind, which a bare bool(), int() or float() took
    # (r = 3 is outside I, so the string "false" overrode a violation)
    "string_override_hypotheses": (
        {"norms": {"s": 0.0, "q": 1, "r": 3, "p": 6, "k_max": 2},
         "solver": {"delta": 0.2, "override_hypotheses": "false"}}, "override_hypotheses"),
    "fractional_grid_n": ({"grid": {"d": 2, "L_over_pi": 4, "n": 64.9}}, "'n'"),
    "fractional_k_max": ({"norms": {"s": 0.0, "q": 1, "r": 4, "p": 6, "k_max": 2.7}},
                         "'k_max'"),
    "fractional_seed": ({"initial_data": {"kind": "gaussian-spectrum", "band": 1,
                                          "mod_norm": 0.05, "seed": 3.7}}, "'seed'"),
    "bool_delta": ({"solver": {"delta": True}}, "'delta'"),
    "nan_delta": ({"solver": {"delta": math.nan}}, "'delta'"),
    "infinite_t_max": ({"window": {"t_min": 0.0, "t_max": math.inf, "nt": 17}}, "'t_max'"),
    "list_file": ({"initial_data": {"file": ["a"]}}, "'file'"),
    "list_q": ({"norms": {"s": 0.0, "q": [1], "r": 4, "p": 6, "k_max": 2}}, "'q'"),
    # single-box draws at band 7 land in boxes |k| >= 3 for seed 0
    "draw_outside_every_box": ({"grid": {"d": 2, "L_over_pi": 4, "n": 128},
                                "initial_data": {"kind": "single-box", "band": 7}},
                               "initial_data"),
}


def _assert_rejected(tmp_path, capsys, cfg, key, subcommand="picard", *args):
    """The run exits 2, names `key` on stderr and writes a rejected manifest."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli([subcommand, "--config", str(cfg_path), *args,
                    "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected:") and key in err
    assert read_json(tmp_path / "out" / "manifest.json")["status"] == "rejected"


class TestMalformedConfig:
    @pytest.mark.parametrize("edit, key", list(_MALFORMED.values()), ids=list(_MALFORMED))
    def test_rejected_naming_the_key(self, tmp_path, capsys, edit, key):
        cfg = [PICARD_CONFIG] if edit is None else {**PICARD_CONFIG, **edit}
        _assert_rejected(tmp_path, capsys, cfg, key)


# every key the CLI reads, by subcommand and block; a nonlinearity key sits
# in a block of the kind that reads it
_READ_KEYS = [("picard", block, key) for block, keys in {
    "grid": ("d", "L_over_pi", "n"),
    "coeffs": ("alpha", "beta", "gamma"),
    "nonlinearity": ("kind", "pattern", "coeff", "lambda", "rho"),
    "window": ("t_min", "t_max", "nt"),
    "norms": ("s", "q", "r", "p", "partition", "k_max"),
    "solver": ("delta", "max_iters", "eps_fix", "oracle_substeps", "override_hypotheses",
               "exp_s_rule", "tail_tol"),
    "initial_data": ("file", "seed", "kind", "decay", "band", "mod_norm"),
}.items() for key in keys] + [("verify", "verify", key) for key in (
    "d", "L_over_pi", "n", "alpha", "beta", "gamma", "partition", "k_max", "t_max", "nt",
    "count", "law", "decay", "amplitude", "band")]
# a list, a null or a bool for each, but for the two that take one of them
_WRONG_KIND = {f"{block}.{key}-{name}": (subcommand, block, key, value)
               for subcommand, block, key in _READ_KEYS
               for name, value in (("list", [1]), ("null", None), ("bool", True))
               if (key, name) not in {("tail_tol", "null"), ("override_hypotheses", "bool")}}


class TestEveryReadKey:
    @pytest.mark.parametrize("subcommand, block, key, value", list(_WRONG_KIND.values()),
                             ids=list(_WRONG_KIND))
    def test_wrong_kind_rejected_naming_the_key(self, tmp_path, capsys, subcommand, block,
                                                key, value):
        cfg = json.loads(json.dumps(VERIFY_CONFIG if subcommand == "verify" else PICARD_CONFIG))
        if key in ("lambda", "rho"):
            cfg["nonlinearity"] = {"kind": "exponential", "lambda": [-1.0, 0.0], "rho": 0.5}
        cfg[block][key] = value
        args = ["--check", "strichartz-hom"] if subcommand == "verify" else []
        _assert_rejected(tmp_path, capsys, cfg, repr(key), subcommand, *args)

    def test_known_keys_are_the_read_keys(self):
        """The table that rejects unknown keys holds exactly the keys read."""
        known = {(block, key) for block, keys in cli._KNOWN_KEYS.items() for key in keys}
        assert known == {(block, key) for _, block, key in _READ_KEYS}


# keys that no reader reads: two knobs that were deleted (an old config's
# `compare_oracle`, next to a misspelt `max_iters`, and the exponential
# block's `cutoff`), a misspelt block, and a verify `seed`, which only
# --seed sets
_UNKNOWN = {
    "solver_compare_oracle": (
        "picard", {"solver": {"delta": 0.2, "max_iter": 1, "compare_oracle": "no"}},
        "solver.max_iter, solver.compare_oracle"),
    "nonlinearity_cutoff": (
        "picard", {"nonlinearity": {"kind": "exponential", "lambda": [-1.0, 0.0],
                                    "rho": 0.5, "cutoff": 10}}, "nonlinearity.cutoff"),
    "misspelt_block": ("picard", {"initial-data": {"band": 1}}, "initial-data"),
    "verify_seed": ("verify", {"verify": {**VERIFY_CONFIG["verify"], "seed": 3}},
                    "verify.seed"),
    # a block that the running subcommand does not read is checked too
    "unread_verify_block": ("picard", {"verify": {"count": 3, "sed": 3}}, "verify.sed"),
    "unread_solver_block": ("verify", {"solver": {"max_iter": 1}}, "solver.max_iter"),
}


class TestUnknownKeys:
    @pytest.mark.parametrize("subcommand, edit, named", list(_UNKNOWN.values()),
                             ids=list(_UNKNOWN))
    def test_rejected_naming_block_and_key(self, tmp_path, capsys, subcommand, edit, named):
        base = VERIFY_CONFIG if subcommand == "verify" else PICARD_CONFIG
        args = ["--check", "strichartz-hom"] if subcommand == "verify" else []
        _assert_rejected(tmp_path, capsys, {**base, **edit}, f"unknown config key {named}:",
                         subcommand, *args)

    def test_shipped_configs_are_known(self):
        """The README's solve config and verify block hold no unknown key."""
        text = (Path(__file__).parents[1] / "README.md").read_text()
        solve = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
        verify = json.loads(re.search(r'`(\{"verify": .*?\}\})`', text, re.S).group(1))
        for cfg in (solve, verify, PICARD_CONFIG, VERIFY_CONFIG):
            assert cli._known(cfg, cli._KNOWN_KEYS) is cfg
            assert all(cli._block(cfg, block) is cfg[block] for block in cfg)


@pytest.mark.parametrize("value, inv", [(4, Fraction(1, 4)), ("16/3", Fraction(3, 16)),
                                        ("inf", 0), (4.5, Fraction(2, 9)), (True, None)])
def test_one_exponent_parser(value, inv):
    """A config's exponent and a library caller's are read by the same rule."""
    if inv is None:
        with pytest.raises(ValueError, match="config key 'p' must be an exponent"):
            cli._exponent({"p": value}, "p", 6)
        with pytest.raises(TypeError):
            dsp.inv_exponent(value)
        return
    assert dsp.inv_exponent(cli._exponent({"p": value}, "p", 6)) == inv
    assert dsp.inv_exponent(value) == inv
    assert dsp.as_exponent(value) == cli._exponent({"p": value}, "p", 6)


def _rejected_ledger(out_dir, capsys):
    """The ledger a rejected run wrote, after checking that stderr carries
    the same ledger and the manifest lists it."""
    led = read_json(out_dir / "ledger.json")
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("rejected: hypothesis violation:")
    assert json.loads(err[1]) == led
    man = read_json(out_dir / "manifest.json")
    assert man["status"] == "rejected" and "ledger.json" in man["outputs"]
    return led


class TestRejectionLedger:
    """Every rejection point of the hypothesis chain exits 2 and leaves the
    ledger as far as it got, on disk and on stderr."""

    def test_m_below_m0(self, tmp_path, capsys):
        code = run_cli(["params", "-d", "2", "-m", "2", "--gamma-nonzero",
                        "--out", str(tmp_path)])
        assert code == 2
        led = _rejected_ledger(tmp_path, capsys)
        assert led["m0"] == 3 and "I" not in led
        assert led["problems"] == ["m = 2 below minimal degree m0 = 3"]

    @pytest.mark.parametrize("d, m, m0, rule", [
        (1, 3, None, "theory requires d >= 2, got d = 1"),
        (2, 2, 3, "m = 2 below minimal degree m0 = 3"),
    ])
    def test_params_without_gamma(self, tmp_path, capsys, d, m, m0, rule):
        # d and m are recorded before the chain refuses them, d = 1 included
        code = run_cli(["params", "-d", str(d), "-m", str(m), "--out", str(tmp_path)])
        assert code == 2
        led = _rejected_ledger(tmp_path, capsys)
        assert (led["d"], led["m"], led.get("m0")) == (d, m, m0)
        assert led["problems"] == [rule] and "I" not in led

    def test_r_outside_I(self, tmp_path, capsys):
        code = run_cli(["params", "-d", "2", "-m", "3", "--gamma-nonzero", "-r", "2",
                        "--out", str(tmp_path)])
        assert code == 2
        led = _rejected_ledger(tmp_path, capsys)
        assert led["I"] == ["1/8", "1/4"] and "J" not in led

    def test_p_outside_J(self, tmp_path, capsys):
        code = run_cli(["params", "-d", "2", "-m", "3", "--gamma-nonzero", "-r", "16/3",
                        "-p", "6", "--out", str(tmp_path)])
        assert code == 2
        led = _rejected_ledger(tmp_path, capsys)
        assert led["J"] == ["5/24", "1/4"] and led["r"] == "16/3" and "p" not in led

    def test_weight_rule(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(PICARD_CONFIG))
        cfg["norms"].update(q=2, s=0.0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli(["picard", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        led = _rejected_ledger(tmp_path, capsys)
        assert led["s_rule"] == "s > d/q' = 1.0: False"
        assert led["problems"] == ["q = 2 requires s > d/q' = 1.0, got s = 0.0"]

    def test_q_above_m_plus_1(self, tmp_path, capsys):
        code, _ = _run_edited_config(tmp_path, "scatter", norms={"q": 8, "s": 2.0})
        assert code == 2
        led = _rejected_ledger(tmp_path / "out", capsys)
        assert led["q_le_m_plus_1"] is False and led["J"] == ["1/8", "1/6"]

    def test_small_data(self, tmp_path, capsys):
        code, _ = _picard_with_norms(tmp_path, 4, 6, solver={"delta": 0.2},
                                     initial_data={"mod_norm": 0.5})
        assert code == 2
        led = _rejected_ledger(tmp_path / "out", capsys)
        assert led["problems"] == ["||u0|| = 5.000e-01 exceeds delta/2 = 1.000e-01"]
        assert led["p"] == "6" and led["s_rule"] == "s >= 0: True"

    def test_small_data_overridden(self, tmp_path):
        code, out_dir = _picard_with_norms(
            tmp_path, 4, 6, solver={"delta": 0.2, "override_hypotheses": True},
            initial_data={"mod_norm": 0.15})
        assert code == 0
        rep = read_json(out_dir / "report.json")
        msg = "||u0|| = 1.500e-01 exceeds delta/2 = 1.000e-01"
        assert rep["hypothesis_ledger"]["problems"] == [msg] and rep["warnings"] == [msg]


_OUTSIDE = {  # which coordinate leaves the admitted region -> the problem it raises
    "m": "below minimal degree",
    "r_low": "outside I", "r_high": "outside I",
    "p_low": "outside J", "p_high": "outside J",
    "s": "requires s > d/q'",
}


class TestRejectedRegion:
    """Points just outside the admitted region exit 2 with their ledger. The
    base point is admitted: m = m0, 1/r = max I and 1/p = max J, q = 1 and
    s = 0; one coordinate then leaves it by 1/j of its interval's width, or
    m drops to m0 - 1, or s sits on d/q' for q > 1."""

    @settings(max_examples=10, deadline=None)
    @given(d=st.sampled_from([2, 3]), gamma=st.sampled_from([0.0, 1.0]),
           side=st.sampled_from(sorted(_OUTSIDE)), j=st.integers(2, 8),
           q=st.sampled_from([2, math.inf]))
    def test_picard_exits_2_with_ledger(self, d, gamma, side, j, q):
        m0 = dsp.compute_m0(d, gamma)
        I = dsp.interval_I(m0, d, gamma)
        J = dsp.interval_J(1 / I[1], d, gamma, m0)
        inv_r, inv_p = {
            "r_low": (I[0] - (I[1] - I[0]) / j, J[1]),
            "r_high": (I[1] + (I[1] - I[0]) / j, J[1]),
            "p_low": (I[1], J[0] - (J[1] - J[0]) / j),
            "p_high": (I[1], J[1] + (J[1] - J[0]) / j),
        }.get(side, (I[1], J[1]))
        m = m0 - 1 if side == "m" else m0
        q, s = (q, d * (1 - 1 / q)) if side == "s" else (1, 0.0)
        cfg = {
            "grid": {"d": d, "L_over_pi": 4, "n": 64},
            "coeffs": {"alpha": 1.0, "beta": 1.0 - gamma, "gamma": gamma},
            "nonlinearity": {"kind": "power", "pattern": ",".join(["u"] * (m + 1)),
                             "coeff": [-1.0, 0.0]},
            "window": {"t_min": 0.0, "t_max": 1.0, "nt": 5},
            "norms": {"s": s, "q": "inf" if q == math.inf else q, "r": str(1 / inv_r),
                      "p": str(1 / inv_p), "k_max": 2},
            "initial_data": {"band": 1, "mod_norm": 0.05},
        }
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            code = run_cli(["picard", "--config", str(cfg_path), "--out", tmp])
            assert code == 2
            led = read_json(Path(tmp) / "ledger.json")
            assert read_json(Path(tmp) / "manifest.json")["status"] == "rejected"
        assert len(led["problems"]) == 1 and _OUTSIDE[side] in led["problems"][0]
        assert led["d"] == d and led["m"] == m


_EVEN_P = range(4, 16, 2)  # p M < n at M = 4, n = 64: the pruned-DFT box path


class TestAdmittedRegion:
    """Points inside the admitted region run: m in {m0, m0 + 1}, 1/r in I and
    1/p in J (rational), q in {1, 2, inf} with s = 0 for q = 1 and s just
    above d/q' otherwise. Each exits 0, or 1 with its report, and the report's
    ledger holds the `modnls params` ledger of the same (d, m, r, p) key for
    key. At d = 3 only even p are drawn: any other p takes the pruned DFT on
    R = n points per axis, about 8.4 s of CPU a solve at 64^3."""

    @settings(max_examples=12, deadline=None)
    @given(d=st.sampled_from([2, 3]), gamma=st.sampled_from([0.0, 1.0]),
           extra=st.integers(0, 1), u=st.fractions(0, 1, max_denominator=8),
           v=st.fractions(0, 1, max_denominator=4), q=st.sampled_from([1, 2, math.inf]),
           data=st.data())
    def test_picard_runs_with_the_params_ledger(self, d, gamma, extra, u, v, q, data):
        m = dsp.compute_m0(d, gamma) + extra
        I = dsp.interval_I(m, d, gamma)
        r = 1 / (I[0] + u * (I[1] - I[0]))
        J = dsp.build_param_ledger(d, m, gamma != 0.0, r=r).J
        if d == 3:
            evens = [p for p in _EVEN_P if J[0] <= Fraction(1, p) <= J[1]]
            assume(evens)
            p = Fraction(data.draw(st.sampled_from(evens)))
        else:
            p = 1 / (J[0] + v * (J[1] - J[0]))
        s = 0.0 if q == 1 else d * (1 - 1 / q) + 0.125
        cfg = {
            "grid": {"d": d, "L_over_pi": 4, "n": 64},
            "coeffs": {"alpha": 1.0, "beta": 1.0 - gamma, "gamma": gamma},
            "nonlinearity": {"kind": "power", "pattern": ",".join(["u"] * (m + 1)),
                             "coeff": [-1.0, 0.0]},
            "window": {"t_min": 0.0, "t_max": 1.0, "nt": 5},
            "norms": {"s": s, "q": "inf" if q == math.inf else q, "r": str(r),
                      "p": str(p), "k_max": 2},
            "initial_data": {"band": 1, "mod_norm": 0.05},
        }
        gamma_flag = ["--gamma-nonzero"] if gamma else []
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            code = run_cli(["picard", "--config", str(cfg_path), "--out", f"{tmp}/solve"])
            assert code in (0, 1)
            led = read_json(Path(tmp) / "solve" / "report.json")["hypothesis_ledger"]
            assert run_cli(["params", "-d", str(d), "-m", str(m), *gamma_flag, "-r", str(r),
                            "-p", str(p), "--out", f"{tmp}/params"]) == 0
            params = read_json(Path(tmp) / "params" / "ledger.json")
        assert led["problems"] == []
        assert {key: led[key] for key in params} == params


class TestVerify:
    def test_runs_and_summarizes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(VERIFY_CONFIG))
        out_dir = tmp_path / "out"
        code = run_cli(["verify", "--config", str(cfg_path), "--check",
                        "strichartz-hom", "--seed", "5", "--out", str(out_dir)])
        assert code == 0
        summary = read_json(out_dir / "summary.json")
        assert not summary["flagged"]
        csv = (out_dir / "ratios_strichartz_hom_lebesgue.csv").read_text()
        assert csv.startswith("index,lhs,rhs,ratio")

    def test_deterministic_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(VERIFY_CONFIG))
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code = run_cli(["verify", "--config", str(cfg_path), "--check",
                            "embeddings", "--seed", "7", "--out", str(out_dir)])
            assert code == 0
            outs.append({
                p.name: p.read_bytes()
                for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"
            })
        assert outs[0] == outs[1]

    def test_check_all_dispatch(self, tmp_path):
        cfg = json.loads(json.dumps(VERIFY_CONFIG))
        cfg["verify"]["count"] = 2
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code = run_cli(["verify", "--config", str(cfg_path), "--check", "all",
                        "--seed", "1", "--out", str(out_dir)])
        assert code == 0
        summary = read_json(out_dir / "summary.json")
        for name in ("strichartz_hom_lifted", "strichartz_inhom_lifted",
                     "hoelder_planchon", "lipschitz", "minkowski", "bernstein"):
            assert name in summary, name

    def test_one_sample_window_exit_2(self, tmp_path, capsys):
        """One sample has trapezoid weight 0, so every time-integrated side
        would read 0 and every check would pass vacuously."""
        cfg = json.loads(json.dumps(VERIFY_CONFIG))
        cfg["verify"]["nt"] = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code = run_cli(["verify", "--config", str(cfg_path), "--check", "all",
                        "--out", str(out_dir)])
        assert code == 2
        assert read_json(out_dir / "manifest.json")["status"] == "rejected"
        assert "verify.nt" in capsys.readouterr().err
        assert not (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("t_max", [0, -1])
    def test_nonpositive_t_max_exit_2(self, tmp_path, capsys, t_max):
        """The samples run from t = 0 to t_max: t_max <= 0 is named as its key."""
        cfg = json.loads(json.dumps(VERIFY_CONFIG))
        cfg["verify"]["t_max"] = t_max
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code = run_cli(["verify", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 2
        assert read_json(out_dir / "manifest.json")["status"] == "rejected"
        assert f"rejected: verify.t_max must be > 0, got {t_max}" in capsys.readouterr().err
        assert not (out_dir / "summary.json").exists()

    def test_probe_mode_never_fails(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(VERIFY_CONFIG))
        out_dir = tmp_path / "out"
        code = run_cli(["verify", "--config", str(cfg_path), "--check", "hoelder",
                        "--probe", "--seed", "3", "--out", str(out_dir)])
        assert code == 0
        summary = read_json(out_dir / "summary.json")
        assert "probe_hoelder_growth" in summary
