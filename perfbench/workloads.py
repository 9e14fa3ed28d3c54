"""The four benchmark workloads: inputs, the timed call, correctness gates.

Every workload is a closed loop with one caller: a unit (one request)
starts only after the previous one has returned and been gated. Setup
builds a pool of `pool` inputs from the seed; unit i takes input i mod
pool, so a run that wraps around the pool repeats inputs, and a repeated
input must reproduce the first result exactly (the "repeatable" gate).

Sizes are those of the acceptance criteria cut down so that a unit takes
one to five seconds on a 2-core x86 box: a 20 s run then holds several
units, and 22 runs of every workload fit in an hour. `SIZES["toy"]` is
the self-test size. The acceptance seeds (5, 42, 77, 3) are the defaults.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
from pathlib import Path

import numpy as np

from modnls import cli, dispersion as dsp, harness as hn, modspace as ms
from modnls import nonlinear as nl, solver as sv, spectral as sp

GAMMA = dsp.EquationCoeffs(alpha=1.0, beta=0.0, gamma=1.0)
QUARTIC = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"), coeff=-1.0)
THETA_MAX = 0.9


def unit_seed(seed: int, k: int) -> int:
    """Seed of pool input k; input 0 uses the run seed itself."""
    return seed + 7919 * k


def band_datum(cfg: sv.SolveConfig, partition, seed: int, mod_norm: float,
               band: int) -> sp.SpectralField:
    """The acceptance suite's datum: Gaussian block |xi|_inf <= band, scaled
    to the requested modulation norm."""
    rng = np.random.default_rng(seed)
    grid = cfg.grid
    c0, w = grid.n // 2, band * grid.M
    block = (rng.standard_normal((2 * w + 1,) * grid.d)
             + 1j * rng.standard_normal((2 * w + 1,) * grid.d))
    spec = np.zeros(grid.shape, dtype=complex)
    spec[tuple(slice(c0 - w, c0 + w + 1) for _ in range(grid.d))] = block
    norm = ms.mod_norm(sp.SpectralField(grid, spectrum=spec), cfg.mod_spec(),
                       partition).value
    return sp.SpectralField(grid, spectrum=spec * (mod_norm / norm))


class Workload:
    name = ""
    acceptance_seed = 0
    pool = 4  # distinct inputs per run
    trace_units = 2  # units a traced run measures, each untraced and traced
    SIZES: dict = {}

    def __init__(self, size: str = "full", out_root: Path | None = None):
        self.p = self.SIZES[size]
        self.size = size
        self.out_root = out_root
        self.inputs: list = []
        self._first: dict = {}

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def unit(self, i: int):
        """The timed call into modnls for input i mod pool."""
        raise NotImplementedError

    def gates(self, i: int, result) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def fingerprint(self, result):
        raise NotImplementedError

    def final_gates(self) -> list[tuple[str, bool]]:
        return []

    def trial_flags(self, result) -> list[bool] | None:
        """Accept flags of the Picard solves a unit ran, when the unit
        decides acceptance itself (bisection); None: a solve is accepted
        when it returns."""
        return None

    def details(self) -> dict:
        return {}

    def check(self, i: int, result) -> list[tuple[str, bool]]:
        """All gates for one unit, including repeatability on a repeated input."""
        out = self.gates(i, result)
        fp = self.fingerprint(result)
        first = self._first.setdefault(i % len(self.inputs), fp)
        if first is not fp:
            out.append(("repeatable", first == fp))
        return out


# ---------------------------------------------------------------------------


def picard_gates(rep: sv.SolveReport, dev: float) -> list[tuple[str, bool]]:
    return [
        ("converged", bool(rep.converged)),
        ("theta_below_0.9", rep.theta_hat is not None and rep.theta_hat < THETA_MAX),
        ("oracle_dev_le_1e-4", dev <= 1e-4),
    ]


class PicardFull(Workload):
    """Criterion 5's full-resolution problem: picard_solve, then the RK4
    split-step oracle, then the oracle deviation."""

    name = "picard_full"
    acceptance_seed = 5
    trace_units = 3
    SIZES = {
        "full": dict(L_over_pi=8, n=256, k_max=7, t_max=8.0, nt=17, band=2),
        "toy": dict(L_over_pi=4, n=64, k_max=2, t_max=1.0, nt=5, band=1),
    }

    def setup(self, seed):
        p = self.p
        grid = sp.make_grid(2, p["L_over_pi"] * math.pi, p["n"])
        self.cfg = sv.SolveConfig(coeffs=GAMMA, nonlin=QUARTIC, grid=grid, t_min=0.0,
                                  t_max=p["t_max"], nt=p["nt"], delta=0.2, s=0.0,
                                  q=1, r=4, p=6, k_max=p["k_max"], oracle_substeps=4)
        partition = self.cfg.partition()
        self.inputs = [band_datum(self.cfg, partition, unit_seed(seed, k), 0.1, p["band"])
                       for k in range(self.pool)]
        self.devs = []

    def unit(self, i):
        u0 = self.inputs[i % self.pool]
        u, rep = sv.picard_solve(self.cfg, u0)
        oracle = sv.split_step_oracle(self.cfg, u0)
        return rep, sv.oracle_deviation(u, oracle)

    def gates(self, i, result):
        rep, dev = result
        self.devs.append(dev)
        return picard_gates(rep, dev)

    def fingerprint(self, result):
        rep, dev = result
        return rep.iterations, tuple(rep.diff_norms), dev

    def details(self):
        return {"oracle_dev": statistics.median(self.devs)} if self.devs else {}


# ---------------------------------------------------------------------------


def replay_bisection(flags, delta_init, growth, bisect_steps, delta_cap):
    """Trial deltas and accepted delta that solver.delta_bisection's rule
    produces from a sequence of accept flags; None if the flags run out
    or are left over."""
    flags = list(flags)
    deltas, best, k = [], None, 0
    delta = delta_init
    while delta <= delta_cap:
        if k == len(flags):
            return None
        deltas.append(delta)
        k += 1
        if not flags[k - 1]:
            break
        best = delta
        delta *= growth
    if best is not None and delta <= delta_cap:
        lo, hi = best, delta
        for _ in range(bisect_steps):
            if k == len(flags):
                return None
            mid = 0.5 * (lo + hi)
            deltas.append(mid)
            k += 1
            if flags[k - 1]:
                best, lo = mid, mid
            else:
                hi = mid
    if k != len(flags):
        return None
    return deltas, best


class Bisect(Workload):
    """Criterion 5's delta bisection: geometric growth from delta_init until
    a trial fails to contract with theta < 0.9, then bisection.

    The profile is the acceptance profile (seed 42) translated by a whole
    number of grid steps drawn from the seed. The equation and every norm
    are translation invariant, so each input costs the same trials and
    iterations; with independent random profiles the work of one bisection
    varies by tens of percent from seed to seed, which no bound could hold.
    Translation invariance also makes delta* and the accept/reject history
    the recorded ones for every seed.
    """

    name = "bisect"
    acceptance_seed = 42
    SIZES = {
        "full": dict(L_over_pi=4, n=64, k_max=3, nt=9, delta_init=0.05,
                     bisect_steps=4, delta_cap=64.0),
        "toy": dict(L_over_pi=4, n=64, k_max=2, nt=3, delta_init=3.2,
                    bisect_steps=1, delta_cap=64.0),
    }
    # size -> (delta*, accept flags), recorded from the untranslated profile.
    REFERENCE = {"full": (21.6, "AAAAAAAAARARAA"), "toy": (12.8, "AAARR")}

    def setup(self, seed):
        p = self.p
        grid = sp.make_grid(2, p["L_over_pi"] * math.pi, p["n"])
        self.cfg = sv.SolveConfig(coeffs=GAMMA, nonlin=QUARTIC, grid=grid, t_min=0.0,
                                  t_max=8.0, nt=p["nt"], delta=0.2, s=0.0, q=1, r=4,
                                  p=6, k_max=p["k_max"], max_iters=30, eps_fix=1e-11)
        profile = band_datum(self.cfg, self.cfg.partition(), self.acceptance_seed, 1.0, 1)
        self.inputs = []
        for k in range(self.pool):
            s = unit_seed(seed, k)
            shift = ((0, 0) if s == self.acceptance_seed else
                     tuple(int(j) for j in np.random.default_rng(s).integers(0, grid.n, 2)))
            moved = sp.SpectralField(grid, values=np.roll(profile.values, shift, axis=(0, 1)))
            self.inputs.append(sp.SpectralField(grid, spectrum=moved.spectrum))

    def unit(self, i):
        p = self.p
        return sv.delta_bisection(self.cfg, self.inputs[i % self.pool],
                                  theta_max=THETA_MAX, delta_init=p["delta_init"],
                                  bisect_steps=p["bisect_steps"],
                                  delta_cap=p["delta_cap"])

    def gates(self, i, result):
        return bisect_gates(result, self.p, self.cfg.eps_fix, self.REFERENCE[self.size])

    def fingerprint(self, result):
        return result["delta"], tuple(
            (h["delta"], h["accepted"], h["theta_hat"]) for h in result["history"])

    def trial_flags(self, result):
        return [h["accepted"] for h in result["history"]]


def bisect_gates(result, p, eps_fix, reference) -> list[tuple[str, bool]]:
    rep = result["report"]
    flags = [h["accepted"] for h in result["history"]]
    deltas = [h["delta"] for h in result["history"]]
    ratios = [b / a for a, b in zip(rep.diff_norms, rep.diff_norms[1:]) if a > eps_fix]
    replay = replay_bisection(flags, p["delta_init"], 2.0, p["bisect_steps"],
                              p["delta_cap"])
    return [
        ("theta_below_0.9", rep.theta_hat is not None and rep.theta_hat < THETA_MAX),
        ("ratios_below_0.9", bool(ratios) and all(r < THETA_MAX for r in ratios)),
        ("history_replays", replay is not None and replay[0] == deltas
         and replay[1] == result["delta"]),
        ("matches_recorded", math.isclose(result["delta"], reference[0], rel_tol=1e-12)
         and "".join("A" if f else "R" for f in flags) == reference[1]),
    ]


# ---------------------------------------------------------------------------


def criterion4_reports(grid, partition, times, seed: int, count: int) -> dict:
    """The criterion-4 inequality ensembles, as in the acceptance suite."""
    ens = hn.EnsembleSpec(count=count, seed=seed, law="gaussian-spectrum",
                          amplitude=1.0, band=1)
    out = {}
    hom = hn.check_homogeneous_strichartz(grid, GAMMA, ens, 6, 4, 1, 0.0, times,
                                          partition)
    out["strichartz_hom_lebesgue"] = hom["lebesgue"]
    out["strichartz_hom_lifted"] = hom["lifted"]
    inhom = hn.check_inhomogeneous_strichartz(grid, GAMMA, ens, 6, 4, 2, 1, 1, 0.0,
                                              times, partition)
    out["strichartz_inhom_lebesgue"] = inhom["lebesgue"]
    out["strichartz_inhom_lifted"] = inhom["lifted"]
    out["hoelder_modulation"] = hn.check_hoelder_like(
        grid, GAMMA, ens, 1, 0.0, p_target=2, p_factors=(4, 4), partition=partition,
        mode="modulation")
    out["hoelder_planchon"] = hn.check_hoelder_like(
        grid, GAMMA, ens, 1, 0.0, p_target=2, p_factors=(4, 4), r_target=2,
        r_factors=(4, 4), times=times, partition=partition, mode="planchon")
    lip_ens = hn.EnsembleSpec(count=count, seed=seed + 1, law="gaussian-spectrum",
                              amplitude=0.5, band=1)
    exps = nl.LipschitzExponents(s=0.0, q=1, r_tilde=1, p_tilde=2, l=3, m=3)
    out["lipschitz"] = hn.check_power_lipschitz(grid, GAMMA, lip_ens, QUARTIC, exps,
                                                times, partition)
    emb = hn.check_embeddings(grid, GAMMA, ens, 1, 0.0, r=4, p1=2, p2=6, times=times,
                              partition=partition)
    out["minkowski"] = emb["minkowski"]
    out["bernstein"] = emb["bernstein"]
    return out


class Ensembles(Workload):
    """Criterion 4's inequality ensembles on two grids; one unit draws one
    sample of every ensemble on each grid."""

    name = "ensembles"
    acceptance_seed = 77
    trace_units = 3
    SIZES = {
        "full": dict(grids=(128, 256), L_over_pi=4, k_max=5, nt=17),
        "toy": dict(grids=(64,), L_over_pi=4, k_max=3, nt=5),
    }

    def setup(self, seed):
        p = self.p
        self.times = np.linspace(0.0, 8.0, p["nt"])
        self.grids = []
        for n in p["grids"]:
            grid = sp.make_grid(2, p["L_over_pi"] * math.pi, n)
            part = ms.build_partition(ms.PartitionSpec("trigonometric-window",
                                                       p["k_max"]), grid)
            self.grids.append((grid, part))
        self.inputs = [unit_seed(seed, k) for k in range(self.pool)]
        self.pooled: dict = {}

    def unit(self, i):
        seed = self.inputs[i % self.pool]
        return [criterion4_reports(g, part, self.times, seed, count=1)
                for g, part in self.grids]

    def gates(self, i, result):
        first_time = i % self.pool not in self._first
        out = []
        for (grid, _), reports in zip(self.grids, result):
            for name, rep in reports.items():
                out.append((f"n{grid.n}.{name}.no_failures", rep.failures == 0))
                if first_time:
                    self.pooled.setdefault((grid.n, name), []).extend(rep.ratio)
        return out

    def final_gates(self):
        """max/median <= 10 over the ratios of all distinct inputs."""
        return [(f"n{n}.{name}.max_le_10_median",
                 bool(r) and max(r) <= hn.RATIO_BOUND * float(np.median(r)))
                for (n, name), r in sorted(self.pooled.items())]

    def fingerprint(self, result):
        return tuple(tuple((name, tuple(rep.ratio)) for name, rep in reports.items())
                     for reports in result)


# ---------------------------------------------------------------------------


class ScatterCli(Workload):
    """`modnls scatter` through cli.main on generated criterion-7 configs,
    writing its data files into the checkout's scratch output directory."""

    name = "scatter_cli"
    acceptance_seed = 3
    pool = 3
    trace_units = 3
    SIZES = {
        "full": dict(n=128, L_over_pi=4, k_max=5, nt=65),
        "toy": dict(n=64, L_over_pi=4, k_max=2, nt=9),
    }

    def setup(self, seed):
        p = self.p
        root = self.out_root / self.name / f"seed{seed}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        self.inputs = []
        for k in range(self.pool):
            s = unit_seed(seed, k)
            config = {
                "grid": {"d": 2, "L_over_pi": p["L_over_pi"], "n": p["n"]},
                "coeffs": {"alpha": 1.0, "beta": 0.0, "gamma": 1.0},
                "nonlinearity": {"kind": "power", "pattern": "u,conj,u,u",
                                 "coeff": [-1.0, 0.0]},
                "window": {"t_min": -4.0, "t_max": 4.0, "nt": p["nt"]},
                "norms": {"s": 0.0, "q": 1, "r": 4, "p": 6, "k_max": p["k_max"]},
                "solver": {"delta": 0.25},
                "initial_data": {"kind": "gaussian-spectrum", "band": 1,
                                 "mod_norm": 0.1, "seed": s},
            }
            path = root / f"config{k}.json"
            path.write_text(json.dumps(config, indent=1))
            self.inputs.append((path, root / f"out{k}", s))

    def unit(self, i):
        path, out, s = self.inputs[i % self.pool]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["scatter", "--config", str(path), "--seed", str(s),
                             "--out", str(out), "--threads", "1"])
        return code, out

    def gates(self, i, result):
        return scatter_gates(*result)

    def fingerprint(self, result):
        return output_hash(result[1])


def scatter_gates(code: int, out: Path) -> list[tuple[str, bool]]:
    gates = [("exit_0", code == 0)]
    try:
        rep = json.loads((out / "report.json").read_text())
        tol = 10 * max(rep["quad_tol"], 1e-300)
        ok = rep["tail_minus"][0] <= tol and rep["tail_plus"][-1] <= tol
    except (OSError, KeyError, TypeError, ValueError):
        ok = False
    gates.append(("tails_le_10_quad_tol", ok))
    return gates


def output_hash(out: Path) -> str:
    """sha256 over the names and bytes of the data outputs (the manifest
    carries timing and is left out)."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


WORKLOADS = {cls.name: cls for cls in (PicardFull, Bisect, Ensembles, ScatterCli)}
