"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single PASS line when its criterion holds (pytest -v
adds the red/green verdict per criterion). The criteria pin their own
grids, ensembles, tolerances and runtime budgets; nothing here is tuned
at runtime.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from modnls import cli, dispersion as dsp, harness as hn, modspace as ms
from modnls import nonlinear as nl, solver as sv, spectral as sp

F = Fraction
GAMMA_COEFFS = dsp.EquationCoeffs(alpha=1.0, beta=0.0, gamma=1.0)
QUARTIC = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"), coeff=-1.0)


def _report(name, elapsed, budget, detail=""):
    print(f"\nACCEPTANCE {name}: PASS in {elapsed:.1f}s (budget {budget:.0f}s) {detail}")


def _datum(cfg, seed, mod_norm, band=1):
    rng = np.random.default_rng(seed)
    c0 = cfg.grid.n // 2
    w = band * cfg.grid.M
    spec = np.zeros(cfg.grid.shape, dtype=complex)
    block = rng.standard_normal((2 * w + 1,) * cfg.grid.d) \
        + 1j * rng.standard_normal((2 * w + 1,) * cfg.grid.d)
    spec[tuple(slice(c0 - w, c0 + w + 1) for _ in range(cfg.grid.d))] = block
    f = sp.SpectralField(cfg.grid, spectrum=spec)
    n = ms.mod_norm(f, cfg.mod_spec(), cfg.partition()).value
    return sp.SpectralField(cfg.grid, spectrum=spec * (mod_norm / n))


def test_criterion_1_parameter_ledger():
    """Exact-rational parameter checks for (d, gamma != 0, m) in {2,3}x{3..6}."""
    t0 = time.perf_counter()
    assert dsp.compute_m0(2, 1.0) == 3
    assert dsp.compute_m0(3, 1.0) == 2
    assert dsp.interval_I(3, 2, 1.0) == (F(1, 8), F(1, 4))
    assert dsp.interval_J(F(4), 2, 1.0, 3) == (F(1, 8), F(1, 6))
    for d in (2, 3):
        m0 = dsp.compute_m0(d, 1.0)
        for m in (3, 4, 5, 6):
            I = dsp.interval_I(m, d, 1.0)
            for inv_r in (I[0], (I[0] + I[1]) / 2, I[1]):
                r = dsp.exponent_from_inv(inv_r)
                l = dsp.effective_l(r, m, m0)
                p_a = dsp.p_admissible(r, d, 1.0)
                assert dsp.admissible_defect(d, 2, p_a, r) == 0
                dp = dsp.dual_pair(r, l, d, 1.0)
                if dp.range_valid:
                    pc = dsp.conjugate_exponent(dp.p_tilde)
                    rc = dsp.conjugate_exponent(dp.r_tilde)
                    assert dsp.admissible_defect(d, 2, pc, rc) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("1 (parameter ledger)", elapsed, 1)


def test_criterion_2_propagator_suite():
    """Unitarity, group law and box commutation to 1e-12 on 50 random fields."""
    t0 = time.perf_counter()
    settings = [
        (sp.make_grid(1, 16 * math.pi, 512), 25),
        (sp.make_grid(2, 4 * math.pi, 128), 25),
    ]
    coeff_pool = [
        dsp.EquationCoeffs(1.0, 0.0, 1.0),
        dsp.EquationCoeffs(1.0, 1.0, 0.0),
        dsp.EquationCoeffs(-0.5, 0.3, 2.0),
        dsp.EquationCoeffs(2.0, -1.0, 0.5),
    ]
    for grid, count in settings:
        part = ms.build_partition(ms.PartitionSpec("trigonometric-window", 3), grid)
        rng = np.random.default_rng(2024)
        w = 2 * grid.M
        c0 = grid.n // 2
        sl = tuple(slice(c0 - w, c0 + w + 1) for _ in range(grid.d))
        for i in range(count):
            spec = np.zeros(grid.shape, dtype=complex)
            spec[sl] = rng.standard_normal((2 * w + 1,) * grid.d) \
                + 1j * rng.standard_normal((2 * w + 1,) * grid.d)
            f = sp.SpectralField(grid, spectrum=spec)
            coeffs = coeff_pool[i % len(coeff_pool)]
            t, s = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            norm0 = sp.lp_norm(f, 2)
            assert abs(sp.lp_norm(dsp.propagate(coeffs, t, f), 2) - norm0) <= 1e-12 * norm0
            a = dsp.propagate(coeffs, t, dsp.propagate(coeffs, s, f))
            b = dsp.propagate(coeffs, t + s, f)
            scale = np.max(np.abs(f.values))
            assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale
            k = tuple(int(rng.integers(-2, 3)) for _ in range(grid.d))
            x = ms.box(part, k, dsp.propagate(coeffs, t, f))
            y = dsp.propagate(coeffs, t, ms.box(part, k, f))
            assert np.max(np.abs(x.values - y.values)) <= 1e-12 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("2 (propagator suite)", elapsed, 10)


def test_criterion_3_decomposition_suite():
    """Partition of unity, reconstruction, and cross-partition equivalence
    with the constant stable under grid doubling."""
    t0 = time.perf_counter()
    grids = [sp.make_grid(2, 4 * math.pi, 128), sp.make_grid(2, 4 * math.pi, 256)]
    k_max = 5
    spec_norm = ms.ModNormSpec(2, 1, 0.5)
    c_stars = []
    for grid in grids:
        parts = [ms.build_partition(ms.PartitionSpec(kind, k_max), grid)
                 for kind in ms.PARTITION_KINDS]
        for part in parts:
            assert part.pou_residual <= 1e-12
        ens = hn.EnsembleSpec(count=100, seed=33, law="gaussian-spectrum",
                              amplitude=1.0, band=2)
        ratios = []
        for i in range(ens.count):
            f = hn.sample_field(grid, ens, i)
            # reconstruction on band-limited data
            if i < 10:
                acc = np.zeros(grid.shape, dtype=complex)
                for k in parts[0].boxes:
                    sl = parts[0].box_slices(k)
                    acc[sl] += f.spectrum[sl] * parts[0].window_nd()
                rel = np.linalg.norm(acc - f.spectrum) / np.linalg.norm(f.spectrum)
                assert rel <= 1e-10
            a = ms.mod_norm(f, spec_norm, parts[0]).value
            b = ms.mod_norm(f, spec_norm, parts[1]).value
            ratios.append(a / b)
        c_star = max(max(ratios), 1.0 / min(ratios))
        assert all(1.0 / c_star <= r <= c_star for r in ratios)
        c_stars.append(c_star)
    drift = abs(c_stars[1] - c_stars[0]) / c_stars[0]
    assert drift < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("3 (decomposition suite)", elapsed, 30,
            f"C* = {c_stars[0]:.4f}, doubling drift {drift:.2e}")


def _criterion4_reports(n, count, seed):
    grid = sp.make_grid(2, 4 * math.pi, n)
    partition = ms.build_partition(ms.PartitionSpec("trigonometric-window", 5), grid)
    times = np.linspace(0.0, 8.0, 17)
    ens = hn.EnsembleSpec(count=count, seed=seed, law="gaussian-spectrum",
                          amplitude=1.0, band=1)
    out = {}
    hom = hn.check_homogeneous_strichartz(grid, GAMMA_COEFFS, ens, 6, 4, 1, 0.0,
                                          times, partition)
    out["strichartz_hom_lebesgue"] = hom["lebesgue"]
    out["strichartz_hom_lifted"] = hom["lifted"]
    inhom = hn.check_inhomogeneous_strichartz(grid, GAMMA_COEFFS, ens, 6, 4, 2, 1,
                                              1, 0.0, times, partition)
    out["strichartz_inhom_lebesgue"] = inhom["lebesgue"]
    out["strichartz_inhom_lifted"] = inhom["lifted"]
    out["hoelder_modulation"] = hn.check_hoelder_like(
        grid, GAMMA_COEFFS, ens, 1, 0.0, p_target=2, p_factors=(4, 4),
        partition=partition, mode="modulation")
    out["hoelder_planchon"] = hn.check_hoelder_like(
        grid, GAMMA_COEFFS, ens, 1, 0.0, p_target=2, p_factors=(4, 4),
        r_target=2, r_factors=(4, 4), times=times, partition=partition,
        mode="planchon")
    lip_ens = hn.EnsembleSpec(count=count, seed=seed + 1, law="gaussian-spectrum",
                              amplitude=0.5, band=1)
    exps = nl.LipschitzExponents(s=0.0, q=1, r_tilde=1, p_tilde=2, l=3, m=3)
    out["lipschitz"] = hn.check_power_lipschitz(grid, GAMMA_COEFFS, lip_ens,
                                                QUARTIC, exps, times, partition)
    emb = hn.check_embeddings(grid, GAMMA_COEFFS, ens, 1, 0.0, r=4, p1=2, p2=6,
                              times=times, partition=partition)
    out["minkowski"] = emb["minkowski"]
    out["bernstein"] = emb["bernstein"]
    return out


def test_criterion_4_inequality_ensembles():
    """Strichartz / Hölder / Lipschitz / embedding ensembles: 100 samples,
    max/median <= 10, and grid-doubling changes the max ratio by < 20%."""
    t0 = time.perf_counter()
    base = _criterion4_reports(n=128, count=100, seed=77)
    doubled = _criterion4_reports(n=256, count=100, seed=77)
    for name, rep in base.items():
        assert not rep.failures, name
        assert rep.max_ratio <= 10.0 * rep.median_ratio, name
        other = doubled[name]
        denom = max(rep.max_ratio, 1e-300)
        stability = abs(other.max_ratio - rep.max_ratio) / denom
        assert stability < 0.20, (name, stability)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    worst = max(rep.max_ratio / rep.median_ratio for rep in base.values())
    _report("4 (inequality ensembles)", elapsed, 300,
            f"worst max/median = {worst:.2f}")


def test_criterion_5_picard_contraction():
    """Amplitude sweep, delta bisection with geometric decay, and the
    full-resolution oracle comparison at n = 256, N_t = 512."""
    t0 = time.perf_counter()
    sweep_grid = sp.make_grid(2, 4 * math.pi, 128)
    base = dict(coeffs=GAMMA_COEFFS, nonlin=QUARTIC, grid=sweep_grid,
                t_min=0.0, t_max=8.0, nt=129, delta=0.2, s=0.0, q=1, r=4, p=6,
                k_max=5, max_iters=30, eps_fix=1e-11)

    # amplitude sweep 1e-2 .. 1e-1
    for amp in (0.01, 0.03, 0.1):
        cfg = sv.SolveConfig(**base)
        u0 = _datum(cfg, seed=10, mod_norm=amp)
        _, rep = sv.picard_solve(cfg, u0)
        assert rep.converged and rep.theta_hat < 0.9

    # bisection: largest accepted delta, contraction below 0.9, geometric decay
    cfg = sv.SolveConfig(**base)
    profile = _datum(cfg, seed=42, mod_norm=1.0)
    result = sv.delta_bisection(cfg, profile, delta_init=0.05, bisect_steps=4,
                                delta_cap=64.0)
    rep = result["report"]
    assert rep.theta_hat < 0.9
    ratios = [b / a for a, b in zip(rep.diff_norms, rep.diff_norms[1:])
              if a > cfg.eps_fix]
    assert len(ratios) >= 5
    assert all(r < 0.9 for r in ratios)

    # full resolution: d=2, L=8pi, n=256, N_t=512 intervals
    full_grid = sp.make_grid(2, 8 * math.pi, 256)
    cfg_full = sv.SolveConfig(coeffs=GAMMA_COEFFS, nonlin=QUARTIC, grid=full_grid,
                              t_min=0.0, t_max=8.0, nt=513, delta=0.2, s=0.0,
                              q=1, r=4, p=6, k_max=7, oracle_substeps=4)
    u0 = _datum(cfg_full, seed=5, mod_norm=0.1, band=2)
    u, rep_full = sv.picard_solve(cfg_full, u0)
    oracle = sv.split_step_oracle(cfg_full, u0)
    deviation = sv.oracle_deviation(u, oracle)
    assert deviation <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report("5 (Picard contraction)", elapsed, 600,
            f"delta* = {result['delta']:.2f}, theta = {rep.theta_hat:.3f}, "
            f"full-res deviation = {deviation:.2e}")


def test_criterion_6_conservation():
    """Mass conservation for the real-coefficient |u|^4 u nonlinearity:
    oracle drift <= 1e-8 relative, Picard drift <= 1e-5."""
    t0 = time.perf_counter()
    grid = sp.make_grid(2, 4 * math.pi, 128)
    quintic = nl.NonlinSpec.odd_power(2, -1.0)
    cfg = sv.SolveConfig(coeffs=GAMMA_COEFFS, nonlin=quintic, grid=grid,
                         t_min=0.0, t_max=8.0, nt=129, delta=0.2, s=0.0, q=1,
                         r=5, p=8, k_max=5, oracle_substeps=4)
    u0 = _datum(cfg, seed=1, mod_norm=0.1)
    u, _ = sv.picard_solve(cfg, u0)
    oracle = sv.split_step_oracle(cfg, u0)
    m0 = sv.mass(oracle.field(0))
    oracle_drift = max(abs(sv.mass(oracle.field(j)) - m0)
                       for j in range(oracle.n_samples)) / m0
    picard_drift = max(abs(sv.mass(u.field(j)) - m0)
                       for j in range(u.n_samples)) / m0
    assert oracle_drift <= 1e-8
    assert picard_drift <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("6 (conservation)", elapsed, 60,
            f"oracle drift {oracle_drift:.2e}, Picard drift {picard_drift:.2e}")


def test_criterion_7_scattering():
    """Window-end tail defects below 10x the quadrature tolerance, the
    amplitude power law with slope m+1 within 10%, and S(0) = 0."""
    t0 = time.perf_counter()
    grid = sp.make_grid(2, 4 * math.pi, 128)
    base = dict(coeffs=GAMMA_COEFFS, nonlin=QUARTIC, grid=grid, t_min=-4.0,
                t_max=4.0, nt=257, delta=0.25, s=0.0, q=1, r=4, p=6, k_max=5)

    cfg = sv.SolveConfig(**base)
    u0m = _datum(cfg, seed=3, mod_norm=0.1)
    u0p, u, rep = sv.scattering_map(cfg, u0m)
    # defect at the window ends against the reported quadrature tolerance
    tol = max(rep.quad_tol, 1e-300)
    assert rep.tail_minus[0] <= 10 * tol
    assert rep.tail_plus[-1] <= 10 * tol
    # the tail sequences shrink monotonically toward their window ends
    assert all(a <= b + 1e-18 for a, b in zip(rep.tail_minus, rep.tail_minus[1:]))
    assert all(a >= b - 1e-18 for a, b in zip(rep.tail_plus, rep.tail_plus[1:]))

    # amplitude power law: ||u0+ - u0-|| ~ amplitude^(m+1), slope within 10%
    amps = (0.02, 0.04, 0.08)
    norms = []
    for amp in amps:
        cfg_a = sv.SolveConfig(**base)
        ua = _datum(cfg_a, seed=3, mod_norm=amp)
        pa, _, rep_a = sv.scattering_map(cfg_a, ua)
        diff = sp.SpectralField(grid, spectrum=pa.spectrum - ua.spectrum)
        norms.append(ms.mod_norm(diff, cfg_a.mod_spec(), cfg_a.partition()).value)
    slopes = np.diff(np.log(norms)) / np.diff(np.log(amps))
    assert np.all(np.abs(slopes - 4.0) <= 0.4)

    # S(0) = 0 exactly
    zero_plus, _, _ = sv.scattering_map(sv.SolveConfig(**base),
                                        sp.SpectralField.zero(grid))
    assert sp.lp_norm(zero_plus, 2) == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report("7 (scattering)", elapsed, 300,
            f"slopes = {np.round(slopes, 3).tolist()}")


def test_criterion_8_exponential_nonlinearity():
    """Series-vs-closed-form within the analytic tail bound for every cutoff
    in 1..12 on 20 random small fields, plus a converging exponential solve
    that matches the oracle to 1e-4."""
    t0 = time.perf_counter()
    grid = sp.make_grid(2, 4 * math.pi, 128)
    espec = nl.NonlinSpec(kind="exponential", lam=-1.0, rho=0.5)
    ens = hn.EnsembleSpec(count=20, seed=8, law="gaussian-spectrum",
                          amplitude=0.5, band=1)
    eps = np.finfo(float).eps
    for i in range(ens.count):
        f = hn.sample_field(grid, ens, i)
        closed = sp.SpectralField(grid, values=nl.evaluate(espec, f.values))
        sup = float(np.max(np.abs(f.values)))
        floor = 16 * eps * abs(espec.lam) * sup * max(1.0, espec.rho * sup**2)
        for cutoff in range(1, 13):
            series = nl.exponential_series(espec, f, cutoff=cutoff)
            dev = float(np.max(np.abs(closed.values - series.values)))
            assert dev <= nl.exponential_tail_bound(espec, f, cutoff=cutoff) + floor

    cfg = sv.SolveConfig(coeffs=GAMMA_COEFFS, nonlin=espec, grid=grid,
                         t_min=0.0, t_max=8.0, nt=129, delta=0.2, s=0.0, q=1,
                         r=4, p=6, k_max=5, oracle_substeps=4)
    u0 = _datum(cfg, seed=2, mod_norm=0.1)
    u, rep = sv.picard_solve(cfg, u0)
    assert rep.converged and rep.theta_hat < 0.9
    oracle = sv.split_step_oracle(cfg, u0)
    deviation = sv.oracle_deviation(u, oracle)
    assert deviation <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report("8 (exponential nonlinearity)", elapsed, 300,
            f"theta = {rep.theta_hat:.2e}, deviation = {deviation:.2e}")


def test_criterion_9_determinism(tmp_path):
    """Every subcommand, rerun with identical config and seed, produces
    byte-identical data outputs (the manifest carries the timing)."""
    t0 = time.perf_counter()
    solve_cfg = {
        "grid": {"d": 2, "L_over_pi": 4, "n": 64},
        "coeffs": {"alpha": 1.0, "beta": 0.0, "gamma": 1.0},
        "nonlinearity": {"kind": "power", "pattern": "u,conj,u,u",
                         "coeff": [-1.0, 0.0]},
        "window": {"t_min": 0.0, "t_max": 2.0, "nt": 17},
        "norms": {"s": 0.0, "q": 1, "r": 4, "p": 6, "k_max": 2},
        "solver": {"delta": 0.2, "oracle_substeps": 2},
        "initial_data": {"kind": "gaussian-spectrum", "band": 1, "mod_norm": 0.05},
    }
    scatter_cfg = json.loads(json.dumps(solve_cfg))
    scatter_cfg["window"] = {"t_min": -2.0, "t_max": 2.0, "nt": 17}
    verify_cfg = {"verify": {"d": 2, "L_over_pi": 4, "n": 64, "gamma": 1.0,
                             "k_max": 2, "count": 4, "nt": 9, "t_max": 2.0,
                             "band": 1}}
    cfg_solve = tmp_path / "solve.json"
    cfg_solve.write_text(json.dumps(solve_cfg))
    cfg_scatter = tmp_path / "scatter.json"
    cfg_scatter.write_text(json.dumps(scatter_cfg))
    cfg_verify = tmp_path / "verify.json"
    cfg_verify.write_text(json.dumps(verify_cfg))

    rng = np.random.default_rng(0)
    field_grid = sp.make_grid(2, 4 * math.pi, 64)
    w = field_grid.M
    c0 = field_grid.n // 2
    spec = np.zeros(field_grid.shape, dtype=complex)
    spec[c0 - w:c0 + w + 1, c0 - w:c0 + w + 1] = rng.standard_normal((2 * w + 1,) * 2)
    field_path = tmp_path / "field.bin"
    sp.write_field(field_path, sp.SpectralField(field_grid, spectrum=spec))

    commands = {
        "params": ["params", "-d", "2", "-m", "3", "--gamma-nonzero", "-r", "4"],
        "norm": ["norm", "--field", str(field_path), "-p", "2", "--k-max", "2"],
        "evolve": ["evolve", "--config", str(cfg_solve)],
        "picard": ["picard", "--config", str(cfg_solve)],
        "scatter": ["scatter", "--config", str(cfg_scatter)],
        "verify": ["verify", "--config", str(cfg_verify), "--check", "embeddings"],
    }
    for name, args in commands.items():
        snapshots = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"{name}_{attempt}"
            code = cli.main(args + ["--seed", "11", "--out", str(out_dir)])
            assert code == 0, name
            snapshots.append({
                p.name: p.read_bytes()
                for p in sorted(Path(out_dir).iterdir())
                if p.name != "manifest.json"
            })
        assert snapshots[0] == snapshots[1], f"{name} outputs differ between reruns"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("9 (determinism)", elapsed, 120)
