import json
from pathlib import Path

import numpy as np

from modnls import spectral as sp
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


def _picard_with_norms(tmp_path, r, p, extra_args=(), solver=None):
    cfg = json.loads(json.dumps(PICARD_CONFIG))
    cfg["window"]["nt"] = 9
    cfg["norms"].update(r=r, p=p)
    cfg["solver"].update(solver or {})
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


VERIFY_CONFIG = {
    "verify": {"d": 2, "L_over_pi": 4, "n": 64, "gamma": 1.0, "k_max": 2,
               "count": 3, "nt": 9, "t_max": 2.0, "band": 1},
}


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

    def test_probe_mode_never_fails(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(VERIFY_CONFIG))
        out_dir = tmp_path / "out"
        code = run_cli(["verify", "--config", str(cfg_path), "--check", "hoelder",
                        "--probe", "--seed", "3", "--out", str(out_dir)])
        assert code == 0
        summary = read_json(out_dir / "summary.json")
        assert "probe_hoelder_growth" in summary
