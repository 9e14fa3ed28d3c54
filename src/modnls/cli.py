"""Command-line interface: params / norm / evolve / picard / scatter / verify.

Every run writes a manifest (config hash, seed, versions, wall time, output
list) into the output directory, even when it fails. Exit codes: 0 success,
2 hypothesis-violation or config rejection (the check ledger, as far as it
got, goes to stderr and to ledger.json), 1 numerical failure
(non-contraction, tail overflow).

Data outputs (JSON / CSV / binary fields) are byte-identical across reruns
with the same config and seed; the manifest is the only file carrying
timing information.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, dispersion as disp, harness, modspace, nonlinear, solver
from .errors import HypothesisError, NumericsError
from .spectral import (
    SpectralField,
    _rebox,
    lp_norm,
    make_grid,
    read_field,
    write_field,
    write_trajectory,
)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_REJECTED = 2


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, disp.ParamLedger):
        return _ledger_json(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n")


def _parse_exponent(text: str):
    if text in ("inf", "Inf", "infinity"):
        return math.inf
    return Fraction(text)


def _config_exponent(x):
    """A config exponent kept exact: 4, "16/3", "inf", or a decimal (4.5 is 9/2)."""
    return _parse_exponent(x if isinstance(x, str) else repr(x))


class _Run:
    """Collects outputs and writes the manifest when the run ends."""

    def __init__(self, args, subcommand: str):
        self.out_dir = Path(args.out)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.subcommand = subcommand
        self.seed = args.seed
        self.outputs: list[str] = []
        self.config_text = ""
        self.t0 = time.perf_counter()

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.out_dir / name

    def finish(self, status: str) -> None:
        manifest = {
            "subcommand": self.subcommand,
            "config_hash": hashlib.sha256(self.config_text.encode()).hexdigest(),
            "seed": self.seed,
            "versions": {"modnls": __version__, "numpy": np.__version__},
            "wall_time_s": time.perf_counter() - self.t0,
            "status": status,
            "outputs": sorted(self.outputs),
        }
        _dump_json(self.out_dir / "manifest.json", manifest)


def _load_config(args) -> dict:
    if not args.config:
        raise ValueError("this subcommand needs --config PATH")
    path = Path(args.config)
    try:
        text = path.read_text()
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"config parse error in {path}, line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return cfg


def _build_solve_config(cfg: dict, seed: int) -> solver.SolveConfig:
    g = cfg.get("grid", {})
    grid = make_grid(
        int(g.get("d", 2)),
        math.pi * int(g.get("L_over_pi", 4)),
        int(g.get("n", 128)),
    )
    co = cfg.get("coeffs", {})
    coeffs = disp.EquationCoeffs(
        alpha=float(co.get("alpha", 1.0)),
        beta=float(co.get("beta", 0.0)),
        gamma=float(co.get("gamma", 0.0)),
    )
    nonlin = nonlinear.NonlinSpec.from_json(cfg.get("nonlinearity", {"kind": "zero"}))
    w = cfg.get("window", {})
    norms = cfg.get("norms", {})
    sol = cfg.get("solver", {})
    return solver.SolveConfig(
        coeffs=coeffs,
        nonlin=nonlin,
        grid=grid,
        t_min=float(w.get("t_min", 0.0)),
        t_max=float(w.get("t_max", 8.0)),
        nt=int(w.get("nt", 129)),
        delta=float(sol.get("delta", 0.2)),
        s=float(norms.get("s", 0.0)),
        q=_config_exponent(norms.get("q", 1)),
        r=_config_exponent(norms.get("r", 4)),
        p=_config_exponent(norms.get("p", 6)),
        partition_kind=norms.get("partition", "trigonometric-window"),
        k_max=int(norms.get("k_max", 4)),
        max_iters=int(sol.get("max_iters", 25)),
        eps_fix=float(sol.get("eps_fix", 1e-10)),
        oracle_substeps=int(sol.get("oracle_substeps", 2)),
        override_hypotheses=bool(sol.get("override_hypotheses", False)),
        exp_s_rule=sol.get("exp_s_rule", "s>=0"),
        tail_tol=None if sol.get("tail_tol") is None else float(sol["tail_tol"]),
    )


def _initial_datum(cfg: dict, scfg: solver.SolveConfig, seed: int,
                   partition: modspace.Partition) -> SpectralField:
    spec = cfg.get("initial_data", {})
    if "file" in spec:
        return read_field(spec["file"])
    ens = harness.EnsembleSpec(
        count=1,
        seed=int(spec.get("seed", seed)),
        law=spec.get("kind", "gaussian-spectrum"),
        decay=float(spec.get("decay", 2.0)),
        amplitude=1.0,
        band=int(spec.get("band", 1)),
    )
    # harness.sample_field's draw, normalized by the full-grid L^2 sum (its
    # box sum differs in the last bits, and the datum's bits are recorded)
    draw = _rebox(harness._draw(scfg.grid, ens, 0), scfg.grid.d, scfg.grid.n)
    draw *= ens.amplitude / harness._l2(draw, scfg.grid)
    f = SpectralField(scfg.grid, spectrum=draw)
    norm = modspace.mod_norm(f, scfg.mod_spec(), partition).value
    target = float(spec.get("mod_norm", scfg.delta / 2.0))
    return SpectralField(scfg.grid, spectrum=f.spectrum * (target / norm))


def _solve_setup(args, run: _Run):
    """The preamble of the solve subcommands: the config (its text recorded
    for the manifest), the SolveConfig, its partition and the initial datum."""
    cfg = _load_config(args)
    run.config_text = json.dumps(cfg, sort_keys=True)
    scfg = _build_solve_config(cfg, args.seed)
    partition = scfg.partition()
    return cfg, scfg, partition, _initial_datum(cfg, scfg, args.seed, partition)


def _series_csv(run: _Run, name: str, cfg: solver.SolveConfig, traj,
                partition: modspace.Partition) -> np.ndarray:
    """Write the per-sample mass and modulation norms; returns the masses.
    The L^p box table reuses the L^2 one."""
    engine, spec = modspace._BoxNormEngine(partition), cfg.mod_spec()  # q, s of both
    l2 = engine.series(traj.box, 2, support=traj.support)
    norm_l2 = modspace._series_norm(l2, spec, partition)
    norm_lp = modspace._series_norm(engine.series(traj.box, cfg.p, l2), spec, partition)
    masses = solver.mass_series(traj)
    with open(run.path(name), "w") as fh:
        fh.write("t,mass,mod_norm_l2,mod_norm_lp\n")
        for j in range(traj.n_samples):
            fh.write(
                f"{float(traj.times[j])!r},{float(masses[j])!r},"
                f"{float(norm_l2[j])!r},{float(norm_lp[j])!r}\n"
            )
    return masses


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _ledger_json(led: disp.ParamLedger) -> dict:
    """A parameter ledger, complete or as far as it got, with exact
    exponents as strings."""
    out = {"d": led.d, "m": led.m, "gamma_nonzero": led.gamma_nonzero,
           "c_gamma": led.c_gamma, "m0": led.m0}
    for key in ("I", "J"):
        if getattr(led, key) is not None:
            out[key] = [str(x) for x in getattr(led, key)]
    for key in ("r", "p_a", "p_tilde", "r_tilde", "p"):
        if getattr(led, key) is not None:
            out[key] = str(getattr(led, key))
    if led.r is not None:
        out.update(l=led.l, checks=led.checks)
    return out


def _cmd_params(args, run: _Run) -> int:
    r = _parse_exponent(args.r) if args.r else None
    p = _parse_exponent(args.p) if args.p else None
    led = disp.build_param_ledger(args.d, args.m, args.gamma_nonzero, r=r, p=p)
    out = _ledger_json(led)
    _dump_json(run.path("ledger.json"), out)
    print(json.dumps(out, sort_keys=True, default=_json_default))
    return EXIT_OK


def _cmd_norm(args, run: _Run) -> int:
    f = read_field(args.field)
    part_spec = modspace.PartitionSpec(kind=args.partition, k_max=args.k_max)
    partition = modspace.build_partition(part_spec, f.grid)
    spec = modspace.ModNormSpec(p=_parse_exponent(args.p), q=_parse_exponent(args.q),
                                s=args.s)
    res = modspace.mod_norm(f, spec, partition)
    out = {
        "spec": {"p": args.p, "q": args.q, "s": args.s,
                 "partition": args.partition, "k_max": args.k_max},
        "value": res.value,
        "truncation_residual": modspace.truncation_residual(f, partition),
        "l2_norm": lp_norm(f, 2),
    }
    _dump_json(run.path("norm.json"), out)
    print(json.dumps(out, sort_keys=True, default=_json_default))
    return EXIT_OK


def _cmd_evolve(args, run: _Run) -> int:
    _, scfg, partition, u0 = _solve_setup(args, run)
    traj = solver.split_step_oracle(scfg, u0)
    write_trajectory(run.path("trajectory.bin"), traj)
    masses = _series_csv(run, "series.csv", scfg, traj, partition)
    report = {
        "samples": traj.n_samples,
        "mass_initial": float(masses[0]),
        "mass_drift": float(np.max(np.abs(masses - masses[0])) / masses[0])
        if masses[0] > 0 else 0.0,
    }
    _dump_json(run.path("report.json"), report)
    print(json.dumps(report, sort_keys=True, default=_json_default))
    return EXIT_OK


def _cmd_picard(args, run: _Run) -> int:
    cfg, scfg, partition, u0 = _solve_setup(args, run)
    if args.bisect_delta:
        result = solver.delta_bisection(scfg, u0, partition=partition)
        rep = result["report"]
        out = {
            "delta": result["delta"],
            "history": result["history"],
            "report": rep.to_json(),
        }
        _dump_json(run.path("bisection.json"), out)
        print(json.dumps({"delta": result["delta"],
                          "theta_hat": rep.theta_hat}, sort_keys=True))
        return EXIT_OK
    traj, rep = solver.picard_solve(scfg, u0, partition)
    if cfg.get("solver", {}).get("compare_oracle", True):
        oracle = solver.split_step_oracle(scfg, u0)
        rep.oracle_deviation = solver.oracle_deviation(traj, oracle)
    write_trajectory(run.path("trajectory.bin"), traj)
    _series_csv(run, "series.csv", scfg, traj, partition)
    _dump_json(run.path("report.json"), rep.to_json())
    print(json.dumps({"iterations": rep.iterations, "theta_hat": rep.theta_hat,
                      "oracle_deviation": rep.oracle_deviation},
                     sort_keys=True, default=_json_default))
    return EXIT_OK


def _cmd_scatter(args, run: _Run) -> int:
    _, scfg, partition, u0_minus = _solve_setup(args, run)
    u0_plus, traj, rep = solver.scattering_map(scfg, u0_minus, partition)
    write_field(run.path("u0_plus.bin"), u0_plus)
    write_trajectory(run.path("trajectory.bin"), traj)
    with open(run.path("tails.csv"), "w") as fh:
        fh.write("t,tail_minus,tail_plus\n")
        for j in range(traj.n_samples):
            fh.write(f"{float(traj.times[j])!r},{rep.tail_minus[j]!r},"
                     f"{rep.tail_plus[j]!r}\n")
    _dump_json(run.path("report.json"), rep.to_json())
    print(json.dumps({"iterations": rep.iterations,
                      "scattered_mod_norm": rep.scattered_mod_norm},
                     sort_keys=True, default=_json_default))
    return EXIT_OK


_VERIFY_CHECKS = ("strichartz-hom", "strichartz-inhom", "hoelder", "lipschitz",
                  "embeddings", "all")


def _cmd_verify(args, run: _Run) -> int:
    cfg = _load_config(args) if args.config else {}
    run.config_text = json.dumps(cfg, sort_keys=True)
    v = cfg.get("verify", {})
    grid = make_grid(int(v.get("d", 2)), math.pi * int(v.get("L_over_pi", 4)),
                     int(v.get("n", 128)))
    coeffs = disp.EquationCoeffs(alpha=float(v.get("alpha", 1.0)),
                                 beta=float(v.get("beta", 0.0)),
                                 gamma=float(v.get("gamma", 1.0)))
    k_max = int(v.get("k_max", 5))
    partition = modspace.build_partition(
        modspace.PartitionSpec(v.get("partition", "trigonometric-window"), k_max), grid)
    count = int(v.get("count", 25))
    t_max = float(v.get("t_max", 8.0))
    nt = int(v.get("nt", 33))
    times = np.linspace(0.0, t_max, nt)
    ens = harness.EnsembleSpec(count=count, seed=args.seed,
                               law=v.get("law", "gaussian-spectrum"),
                               decay=float(v.get("decay", 2.0)),
                               amplitude=float(v.get("amplitude", 1.0)),
                               band=int(v.get("band", 1)))
    q, s = 1, 0.0
    probe = args.probe
    wanted = _VERIFY_CHECKS[:-1] if args.check == "all" else (args.check,)
    summary = {}
    flagged = False

    def emit(name: str, report: harness.RatioReport):
        nonlocal flagged
        with open(run.path(f"ratios_{name}.csv"), "w") as fh:
            fh.write("index,lhs,rhs,ratio\n")
            for row in report.csv_rows():
                fh.write(",".join(repr(x) for x in row) + "\n")
        summary[name] = report.to_json()
        flagged = flagged or report.flagged

    for check in wanted:
        if check == "strichartz-hom":
            rep = harness.check_homogeneous_strichartz(
                grid, coeffs, ens, 6, 4, q, s, times, partition,
                probe=probe, threads=args.threads)
            emit("strichartz_hom_lebesgue", rep["lebesgue"])
            emit("strichartz_hom_lifted", rep["lifted"])
        elif check == "strichartz-inhom":
            rep = harness.check_inhomogeneous_strichartz(
                grid, coeffs, ens, 6, 4, 2, 1, q, s, times, partition,
                probe=probe, threads=args.threads)
            emit("strichartz_inhom_lebesgue", rep["lebesgue"])
            emit("strichartz_inhom_lifted", rep["lifted"])
        elif check == "hoelder":
            rep = harness.check_hoelder_like(
                grid, coeffs, ens, q, s, p_target=2, p_factors=(4, 4),
                partition=partition, mode="modulation", probe=probe,
                threads=args.threads)
            emit("hoelder_modulation", rep)
            rep = harness.check_hoelder_like(
                grid, coeffs, ens, q, s, p_target=2, p_factors=(4, 4),
                r_target=2, r_factors=(4, 4), times=times,
                partition=partition, mode="planchon", probe=probe,
                threads=args.threads)
            emit("hoelder_planchon", rep)
        elif check == "lipschitz":
            spec = nonlinear.NonlinSpec(kind="power",
                                        pattern=("u", "conj", "u", "u"), coeff=-1.0)
            exps = nonlinear.LipschitzExponents(s=s, q=q, r_tilde=1, p_tilde=2,
                                                l=3, m=3)
            rep = harness.check_power_lipschitz(
                grid, coeffs, ens, spec, exps, times, partition,
                probe=probe, threads=args.threads)
            emit("lipschitz", rep)
            summary["lipschitz_scalar_max_ratio"] = harness.scalar_lipschitz_ratio(3)
        elif check == "embeddings":
            rep = harness.check_embeddings(
                grid, coeffs, ens, q, s, r=4, p1=2, p2=6, times=times,
                partition=partition, probe=probe, threads=args.threads)
            emit("minkowski", rep["minkowski"])
            emit("bernstein", rep["bernstein"])

    if probe:
        trend = harness.probe_hoelder_growth(grid, coeffs, q=2, s=0.0,
                                             box_counts=(1, 2, 3),
                                             seed=args.seed, partition=partition)
        summary["probe_hoelder_growth"] = trend

    summary["flagged"] = flagged
    _dump_json(run.path("summary.json"), summary)
    print(json.dumps({"flagged": flagged,
                      "checks": sorted(k for k in summary if k != "flagged")},
                     sort_keys=True, default=_json_default))
    return EXIT_NUMERICAL if flagged and not probe else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="modnls", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: MODNLS_THREADS or 1)")

    p = sub.add_parser("params", help="exact-rational parameter ledger")
    common(p)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--gamma-nonzero", action="store_true")
    p.add_argument("-r", default=None, help="time exponent (fraction or 'inf')")
    p.add_argument("-p", default=None, help="space exponent (fraction or 'inf')")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("norm", help="modulation norm of a serialized field")
    common(p)
    p.add_argument("--field", required=True)
    p.add_argument("-p", default="2")
    p.add_argument("-q", default="1")
    p.add_argument("-s", type=float, default=0.0)
    p.add_argument("--partition", default="trigonometric-window",
                   choices=modspace.PARTITION_KINDS)
    p.add_argument("--k-max", type=int, default=4)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("evolve", help="split-step oracle evolution")
    common(p)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("picard", help="Duhamel fixed-point solve")
    common(p)
    p.add_argument("--bisect-delta", action="store_true",
                   help="search the largest delta with theta < 0.9")
    p.set_defaults(func=_cmd_picard)

    p = sub.add_parser("scatter", help="scattering map u0- -> u0+")
    common(p)
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("verify", help="Monte-Carlo inequality checks")
    common(p)
    p.add_argument("--check", default="all", choices=_VERIFY_CHECKS)
    p.add_argument("--probe", action="store_true",
                   help="hypothesis-violation probe mode (trend data only)")
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = _Run(args, args.subcommand)
    try:
        if args.threads is None:
            args.threads = int(os.environ.get("MODNLS_THREADS", "1"))
        code = args.func(args, run)
    except HypothesisError as exc:
        print(f"rejected: hypothesis violation: {exc}", file=sys.stderr)
        if exc.ledger is not None:
            _dump_json(run.path("ledger.json"), exc.ledger)
            print(json.dumps(exc.ledger, sort_keys=True, default=_json_default),
                  file=sys.stderr)
        run.finish("rejected")
        return EXIT_REJECTED
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if exc.report is not None:
            _dump_json(run.path("report.json"), exc.report.to_json())
        run.finish("numerical-failure")
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        run.finish("rejected")
        return EXIT_REJECTED
    run.finish("ok")
    return code


if __name__ == "__main__":
    sys.exit(main())
