"""Command-line interface: params / norm / evolve / picard / scatter / verify.

Every run writes a manifest (config hash, seed, versions, wall time, output
list) into the output directory, even when it fails. Exit codes: 0 success,
2 hypothesis-violation or config rejection (a hypothesis violation writes
the ledger, as far as it got and with the failed rules in `problems`, to
stderr and to ledger.json), 1 numerical failure (non-contraction, tail
overflow).

Data outputs (JSON / CSV / binary fields) are byte-identical across reruns
with the same config and seed; the manifest is the only file carrying
timing information.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__, dispersion as disp, harness, modspace, nonlinear, solver
from .errors import HypothesisError, NumericsError
from .spectral import (
    GridSpec,
    SpectralField,
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
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n")


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
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object, got {type(cfg).__name__}")
    for block in _known(cfg, _KNOWN_KEYS):  # also the blocks this subcommand does not read
        _block(cfg, block)
    return cfg


# The keys of each config block that a reader reads. A file may hold the
# blocks of every subcommand; any other block or key is rejected.
_KNOWN_KEYS = {
    "grid": ("d", "L_over_pi", "n"),
    "coeffs": ("alpha", "beta", "gamma"),
    "nonlinearity": ("kind", "pattern", "coeff", "lambda", "rho"),
    "window": ("t_min", "t_max", "nt"),
    "norms": ("s", "q", "r", "p", "partition", "k_max"),
    "solver": ("delta", "max_iters", "eps_fix", "oracle_substeps", "override_hypotheses",
               "exp_s_rule", "tail_tol"),
    "initial_data": ("file", "seed", "kind", "decay", "band", "mod_norm"),
    "verify": ("d", "L_over_pi", "n", "alpha", "beta", "gamma", "partition", "k_max",
               "t_max", "nt", "count", "law", "decay", "amplitude", "band"),
}


def _known(obj: dict, known, where: str = "") -> dict:
    """obj, if every key of it is `known`; the others are named as `where`key."""
    unknown = [where + key for key in obj if key not in known]
    if unknown:
        raise ValueError(f"unknown config key {', '.join(unknown)}: no reader reads it")
    return obj


def _block(cfg: dict, key: str, default: dict | None = None) -> dict:
    """The config object under `key`: `default`, or {}, when it is absent."""
    block = cfg.get(key, {} if default is None else default)
    if not isinstance(block, dict):
        raise ValueError(f"config key {key!r} must be a JSON object, got {block!r}")
    return _known(block, _KNOWN_KEYS[key], f"{key}.")


def _reader(kind: str, convert):
    """A config reader: read(block, key, default) is convert(block[key]), or
    convert(default) when the key is absent. A value of the wrong kind, which
    convert refuses, is rejected naming the key and the kind it takes."""
    def read(block: dict, key: str, default):
        val = block.get(key, default)
        try:
            return convert(val)
        except (TypeError, ValueError, ArithmeticError):
            raise ValueError(f"config key {key!r} must be {kind}, got {val!r}") from None
    return read


def _scalar(val, *types):
    """val, if of one of `types`; a bool only if bool is one (JSON true is not 1)."""
    if not isinstance(val, types) or (isinstance(val, bool) and bool not in types):
        raise TypeError
    return val


def _finite(val) -> float:
    x = float(_scalar(val, int, float, str))
    if not math.isfinite(x):
        raise ValueError
    return x


def _exact_int(val) -> int:
    """Never through a float, so that a seed near 2^64 survives."""
    if isinstance(val, float) and val.is_integer():
        return int(val)
    return int(_scalar(val, int, str))


def _complex_pair(val) -> complex:
    if not (isinstance(val, list) and len(val) == 2):
        raise TypeError
    return complex(*map(_finite, val))


_number = _reader("a finite number", _finite)
_bound = _reader("a finite number or null", lambda v: None if v is None else _finite(v))
_integer = _reader("an integer", _exact_int)
_flag = _reader("true or false", lambda v: _scalar(v, bool))
_string = _reader("a string", lambda v: _scalar(v, str))
_pair = _reader("a pair [re, im] of finite numbers", _complex_pair)
_exponent = _reader('an exponent: a number, a fraction string or "inf"', disp.as_exponent)


# The readers of the config blocks that both the solve subcommands and
# `verify` have; each subcommand passes in its own documented defaults.
def _read_grid(block: dict) -> GridSpec:
    return make_grid(_integer(block, "d", 2), math.pi * _integer(block, "L_over_pi", 4),
                     _integer(block, "n", 128))


def _read_coeffs(block: dict, gamma: float) -> disp.EquationCoeffs:
    return disp.EquationCoeffs(_number(block, "alpha", 1.0), _number(block, "beta", 0.0),
                               _number(block, "gamma", gamma))


def _read_partition(block: dict, k_max: int) -> tuple[str, int]:
    """(partition kind, k_max)."""
    return _string(block, "partition", "trigonometric-window"), _integer(block, "k_max", k_max)


def _read_nonlinearity(block: dict) -> nonlinear.NonlinSpec:
    """The `nonlinearity` block: {"kind": "zero"}, a power with its comma-
    separated `pattern` and complex `coeff`, or the exponential with its
    complex `lambda` and `rho`; coeff and lambda default to 1."""
    kind = _string(block, "kind", None)
    if kind == "power":
        pattern = tuple(t.strip() for t in _string(block, "pattern", None).split(","))
        return nonlinear.NonlinSpec(kind, pattern, coeff=_pair(block, "coeff", [1.0, 0.0]))
    if kind == "exponential":
        return nonlinear.NonlinSpec(kind, lam=_pair(block, "lambda", [1.0, 0.0]),
                                    rho=_number(block, "rho", 1.0))
    return nonlinear.NonlinSpec(kind)


def _build_solve_config(cfg: dict) -> solver.SolveConfig:
    """The solve subcommands' config: gamma defaults to 0 and k_max to 4."""
    grid = _read_grid(_block(cfg, "grid"))
    coeffs = _read_coeffs(_block(cfg, "coeffs"), gamma=0.0)
    nonlin = _read_nonlinearity(_block(cfg, "nonlinearity", {"kind": "zero"}))
    w = _block(cfg, "window")
    norms = _block(cfg, "norms")
    sol = _block(cfg, "solver")
    partition_kind, k_max = _read_partition(norms, 4)
    return solver.SolveConfig(
        coeffs=coeffs,
        nonlin=nonlin,
        grid=grid,
        t_min=_number(w, "t_min", 0.0),
        t_max=_number(w, "t_max", 8.0),
        nt=_integer(w, "nt", 129),
        delta=_number(sol, "delta", 0.2),
        s=_number(norms, "s", 0.0),
        q=_exponent(norms, "q", 1),
        r=_exponent(norms, "r", 4),
        p=_exponent(norms, "p", 6),
        partition_kind=partition_kind,
        k_max=k_max,
        max_iters=_integer(sol, "max_iters", 25),
        eps_fix=_number(sol, "eps_fix", 1e-10),
        oracle_substeps=_integer(sol, "oracle_substeps", 2),
        override_hypotheses=_flag(sol, "override_hypotheses", False),
        exp_s_rule=_string(sol, "exp_s_rule", "s>=0"),
        tail_tol=_bound(sol, "tail_tol", None),
    )


def _initial_datum(cfg: dict, scfg: solver.SolveConfig, seed: int,
                   partition: modspace.Partition) -> SpectralField:
    """The `initial_data` block: a field file, or harness.sample_field's draw
    rescaled to the target modulation norm (delta / 2 by default)."""
    spec = _block(cfg, "initial_data")
    if "file" in spec:
        return read_field(_string(spec, "file", None))
    ens = harness.EnsembleSpec(
        count=1,
        seed=_integer(spec, "seed", seed),
        law=_string(spec, "kind", "gaussian-spectrum"),
        decay=_number(spec, "decay", 2.0),
        band=_integer(spec, "band", 1),
    )
    f = harness.sample_field(scfg.grid, ens, 0)
    norm = modspace.mod_norm(f, scfg.mod_spec(), partition).value
    if norm == 0.0:
        raise ValueError(f"initial_data: the draw lies outside every box |k| <= {scfg.k_max}")
    target = _number(spec, "mod_norm", scfg.delta / 2.0)
    return SpectralField._adopt(scfg.grid, f.spectrum * (target / norm), f.support)


def _solve_setup(args, run: _Run):
    """The preamble of the solve subcommands: the SolveConfig, its partition
    and the initial datum read from the config (its text kept for the manifest)."""
    cfg = _load_config(args)
    run.config_text = json.dumps(cfg, sort_keys=True)
    scfg = _build_solve_config(cfg)
    partition = scfg.partition()
    return scfg, partition, _initial_datum(cfg, scfg, args.seed, partition)


def _series_csv(run: _Run, name: str, cfg: solver.SolveConfig, traj,
                partition: modspace.Partition) -> np.ndarray:
    """Write the per-sample mass and modulation norms; returns the masses."""
    spec = cfg.mod_spec()  # p = 2 and the q, s of both norms
    norm_l2 = modspace.mod_norm_series(traj, spec, partition)
    norm_lp = modspace.mod_norm_series(traj, replace(spec, p=cfg.p), partition)
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


def _cmd_params(args, run: _Run) -> int:
    r = disp.as_exponent(args.r) if args.r else None
    p = disp.as_exponent(args.p) if args.p else None
    out = disp.build_param_ledger(args.d, args.m, args.gamma_nonzero, r=r, p=p).to_json()
    _dump_json(run.path("ledger.json"), out)
    print(json.dumps(out, sort_keys=True, default=_json_default))
    return EXIT_OK


def _cmd_norm(args, run: _Run) -> int:
    f = read_field(args.field)
    part_spec = modspace.PartitionSpec(kind=args.partition, k_max=args.k_max)
    partition = modspace.build_partition(part_spec, f.grid)
    spec = modspace.ModNormSpec(p=disp.as_exponent(args.p), q=disp.as_exponent(args.q),
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
    scfg, partition, u0 = _solve_setup(args, run)
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
    scfg, partition, u0 = _solve_setup(args, run)
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
    rep.oracle_deviation = solver.oracle_deviation(traj, solver.split_step_oracle(scfg, u0))
    write_trajectory(run.path("trajectory.bin"), traj)
    _series_csv(run, "series.csv", scfg, traj, partition)
    _dump_json(run.path("report.json"), rep.to_json())
    print(json.dumps({"iterations": rep.iterations, "theta_hat": rep.theta_hat,
                      "oracle_deviation": rep.oracle_deviation},
                     sort_keys=True, default=_json_default))
    return EXIT_OK


def _cmd_scatter(args, run: _Run) -> int:
    scfg, partition, u0_minus = _solve_setup(args, run)
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


def _named(prefix: str, reports: dict) -> dict:
    return {f"{prefix}_{key}": rep for key, rep in reports.items()}


# --check name -> the ratio reports it emits, by output name, for the run `c`
# (grid, coeffs, ens, times, partition, q, s, and kw: probe and threads)
_VERIFY_CHECKS = {
    "strichartz-hom": lambda c: _named(
        "strichartz_hom", harness.check_homogeneous_strichartz(
            c.grid, c.coeffs, c.ens, 6, 4, c.q, c.s, c.times, c.partition, **c.kw)),
    "strichartz-inhom": lambda c: _named(
        "strichartz_inhom", harness.check_inhomogeneous_strichartz(
            c.grid, c.coeffs, c.ens, 6, 4, 2, 1, c.q, c.s, c.times, c.partition, **c.kw)),
    "hoelder": lambda c: {
        "hoelder_modulation": harness.check_hoelder_like(
            c.grid, c.coeffs, c.ens, c.q, c.s, p_target=2, p_factors=(4, 4),
            partition=c.partition, mode="modulation", **c.kw),
        "hoelder_planchon": harness.check_hoelder_like(
            c.grid, c.coeffs, c.ens, c.q, c.s, p_target=2, p_factors=(4, 4), r_target=2,
            r_factors=(4, 4), times=c.times, partition=c.partition, mode="planchon", **c.kw),
    },
    "lipschitz": lambda c: {"lipschitz": harness.check_power_lipschitz(
        c.grid, c.coeffs, c.ens,
        nonlinear.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"), coeff=-1.0),
        nonlinear.LipschitzExponents(s=c.s, q=c.q, r_tilde=1, p_tilde=2, l=3, m=3),
        c.times, c.partition, **c.kw)},
    "embeddings": lambda c: harness.check_embeddings(
        c.grid, c.coeffs, c.ens, c.q, c.s, r=4, p1=2, p2=6, times=c.times,
        partition=c.partition, **c.kw),
}


def _cmd_verify(args, run: _Run) -> int:
    """The `verify` block: gamma defaults to 1 and k_max to 5."""
    cfg = _load_config(args) if args.config else {}
    run.config_text = json.dumps(cfg, sort_keys=True)
    v = _block(cfg, "verify")
    grid = _read_grid(v)
    nt, t_max = _integer(v, "nt", 33), _number(v, "t_max", 8.0)
    if nt < 2:  # one sample has trapezoid weight 0: every time integral would read 0
        raise ValueError(f"verify.nt must be >= 2, got {nt}")
    if t_max <= 0:  # the samples run from t = 0
        raise ValueError(f"verify.t_max must be > 0, got {t_max}")
    c = SimpleNamespace(
        grid=grid, coeffs=_read_coeffs(v, gamma=1.0), q=1, s=0.0,
        partition=modspace.build_partition(
            modspace.PartitionSpec(*_read_partition(v, 5)), grid),
        times=np.linspace(0.0, t_max, nt),
        ens=harness.EnsembleSpec(count=_integer(v, "count", 25), seed=args.seed,
                                 law=_string(v, "law", "gaussian-spectrum"),
                                 decay=_number(v, "decay", 2.0),
                                 amplitude=_number(v, "amplitude", 1.0),
                                 band=_integer(v, "band", 1)),
        kw={"probe": args.probe, "threads": args.threads})
    wanted = list(_VERIFY_CHECKS) if args.check == "all" else [args.check]
    summary, flagged = {}, False
    for check in wanted:
        for name, report in _VERIFY_CHECKS[check](c).items():
            with open(run.path(f"ratios_{name}.csv"), "w") as fh:
                fh.write("index,lhs,rhs,ratio\n")
                for row in report.csv_rows():
                    fh.write(",".join(repr(x) for x in row) + "\n")
            summary[name] = report.to_json()
            flagged = flagged or report.flagged
    if "lipschitz" in wanted:
        summary["lipschitz_scalar_max_ratio"] = harness.scalar_lipschitz_ratio(3)
    if args.probe:
        summary["probe_hoelder_growth"] = harness.probe_hoelder_growth(
            grid, c.coeffs, q=2, s=0.0, box_counts=(1, 2, 3), seed=args.seed,
            partition=c.partition)

    summary["flagged"] = flagged
    _dump_json(run.path("summary.json"), summary)
    print(json.dumps({"flagged": flagged,
                      "checks": sorted(k for k in summary if k != "flagged")},
                     sort_keys=True, default=_json_default))
    return EXIT_NUMERICAL if flagged and not args.probe else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="modnls", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (default: 1); only verify takes more than 1")

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
    p.add_argument("--check", default="all", choices=(*_VERIFY_CHECKS, "all"))
    p.add_argument("--probe", action="store_true",
                   help="hypothesis-violation probe mode (trend data only)")
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = _Run(args, args.subcommand)
    try:
        if not 1 <= args.threads <= (math.inf if args.subcommand == "verify" else 1):
            raise ValueError(f"--threads must be 1, or more for verify, got {args.threads}")
        code = args.func(args, run)
    except HypothesisError as exc:
        print(f"rejected: hypothesis violation: {exc}", file=sys.stderr)
        ledger = {"problems": [str(exc)], **(exc.ledger or {})}
        _dump_json(run.path("ledger.json"), ledger)
        print(json.dumps(ledger, sort_keys=True, default=_json_default), file=sys.stderr)
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
