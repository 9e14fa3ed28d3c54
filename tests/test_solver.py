import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from modnls import dispersion as dsp, modspace as ms, nonlinear as nl, solver as sv
from modnls import spectral as sp
from modnls.errors import HypothesisError, NumericsError

from conftest import (assert_rel_close, band_limited_field, reference_duhamel,
                      reference_scatter, reference_split_step)

COEFFS = dsp.EquationCoeffs(alpha=1.0, beta=0.0, gamma=1.0)
QUARTIC = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"), coeff=-1.0)
QUINTIC = nl.NonlinSpec.odd_power(2, -1.0)  # |u|^4 u, m = 4, conserves mass
ZERO = nl.NonlinSpec(kind="zero")
EXPONENTIAL = nl.NonlinSpec(kind="exponential", lam=-1.0, rho=0.5)


def small_config(grid, nonlin=QUARTIC, nt=33, t_max=2.0, t_min=0.0, **kw):
    defaults = dict(coeffs=COEFFS, nonlin=nonlin, grid=grid, t_min=t_min,
                    t_max=t_max, nt=nt, delta=0.2, s=0.0, q=1, r=4, p=6,
                    k_max=2, oracle_substeps=2)
    defaults.update(kw)
    return sv.SolveConfig(**defaults)


def small_datum(cfg, seed=0, mod_norm=0.1, band=1):
    rng = np.random.default_rng(seed)
    f = band_limited_field(cfg.grid, band, rng)
    part = cfg.partition()
    n = ms.mod_norm(f, cfg.mod_spec(), part).value
    return sp.SpectralField(cfg.grid, spectrum=f.spectrum * (mod_norm / n))


class TestSolveConfig:
    @pytest.mark.parametrize("key, value", [
        ("delta", math.nan), ("delta", math.inf), ("t_min", math.nan), ("t_min", -math.inf),
        ("t_max", math.nan), ("t_max", math.inf)])
    def test_non_finite_window_and_delta_rejected(self, grid2d_small, key, value):
        with pytest.raises(ValueError, match=key):
            small_config(grid2d_small, **{key: value})


class TestHypothesisGate:
    def test_m_below_m0_rejected(self, grid2d_small):
        cubic = nl.NonlinSpec.cubic(-1.0)  # m = 2 < m0 = 3 at d = 2
        cfg = small_config(grid2d_small, nonlin=cubic)
        with pytest.raises(HypothesisError):
            sv.verify_hypotheses(cfg)

    def test_override_records_warning(self, grid2d_small):
        cubic = nl.NonlinSpec.cubic(-1.0)
        cfg = small_config(grid2d_small, nonlin=cubic, override_hypotheses=True)
        ledger = sv.verify_hypotheses(cfg)
        assert ledger["problems"]

    def test_r_outside_I_rejected(self, grid2d_small):
        cfg = small_config(grid2d_small, r=16)  # 1/16 < 1/8
        with pytest.raises(HypothesisError):
            sv.verify_hypotheses(cfg)

    def test_q_s_rule(self, grid2d_small):
        cfg = small_config(grid2d_small, q=2, s=0.5)  # need s > d/q' = 1
        with pytest.raises(HypothesisError):
            sv.verify_hypotheses(cfg)
        ok = small_config(grid2d_small, q=2, s=1.5)
        sv.verify_hypotheses(ok)

    def test_exponential_s_rules(self, grid2d_small):
        espec = nl.NonlinSpec(kind="exponential", lam=-1.0, rho=0.5)
        cfg = small_config(grid2d_small, nonlin=espec, s=0.0)
        sv.verify_hypotheses(cfg)  # default reading s >= 0 passes
        strict = small_config(grid2d_small, nonlin=espec, s=0.0, exp_s_rule="s>=p")
        with pytest.raises(HypothesisError):
            sv.verify_hypotheses(strict)

    def test_scattering_q_condition(self, grid2d_small):
        cfg = small_config(grid2d_small, q=8, s=3.0)
        with pytest.raises(HypothesisError):
            sv.verify_hypotheses(cfg, scattering=True)

    def test_rejection_carries_ledger(self, grid2d_small):
        cfg = small_config(grid2d_small, q=8, s=3.0)
        with pytest.raises(HypothesisError) as exc:
            sv.verify_hypotheses(cfg, scattering=True)
        assert exc.value.ledger["q_le_m_plus_1"] is False
        assert exc.value.ledger["problems"] == [str(exc.value)]

    def test_scattered_norm_is_a_report_field(self, grid2d_small):
        cfg = small_config(grid2d_small, t_min=-1.0, t_max=1.0, nt=9)
        u0p, _, rep = sv.scattering_map(cfg, small_datum(cfg, seed=3))
        assert rep.scattered_mod_norm == ms.mod_norm(u0p, cfg.mod_spec(),
                                                     cfg.partition()).value
        assert "scattered_mod_norm" not in rep.hypothesis_ledger

    def test_scattering_override_records_q_condition(self, grid2d_small):
        cfg = small_config(grid2d_small, q=8, s=3.0, t_min=-1.0, t_max=1.0, nt=17,
                           override_hypotheses=True)
        _, _, rep = sv.scattering_map(cfg, small_datum(cfg, seed=3))
        ledger = rep.hypothesis_ledger
        assert ledger["q_le_m_plus_1"] is False
        assert ledger["problems"] == ["scattering needs q <= m + 1 = 4, got q = 8"]

    def test_smallness_gate(self, grid2d_small):
        cfg = small_config(grid2d_small)
        big = small_datum(cfg, mod_norm=10 * cfg.delta)
        with pytest.raises(HypothesisError) as exc:
            sv.picard_solve(cfg, big)
        assert exc.value.ledger["problems"] == [str(exc.value)]
        assert str(exc.value).startswith("||u0|| = ")


class TestDuhamel:
    # at n = 64 one chunk of the nonlinearity pass holds 8 samples
    @pytest.mark.parametrize("nt", [5, 17])
    @pytest.mark.parametrize("t_min", [0.0, -1.0], ids=["zero", "minus_inf"])
    @pytest.mark.parametrize("nonlin", [ZERO, QUARTIC, EXPONENTIAL],
                             ids=["zero", "power", "exponential"])
    def test_matches_per_sample_reference(self, grid2d_small, nonlin, t_min, nt):
        cfg = small_config(grid2d_small, nonlin=nonlin, nt=nt, t_min=t_min, t_max=1.0)
        u0 = small_datum(cfg)
        u = dsp.propagate_trajectory(COEFFS, cfg.times(), small_datum(cfg, seed=1))
        u.box *= (1.0 + 0.5 * np.sin(3.0 * u.times))[:, None, None]
        source = np.array([
            sp.SpectralField(cfg.grid, values=nl.evaluate(nonlin, u.values(j))).spectrum
            for j in range(nt)])
        ref, ref_prefix = reference_duhamel(COEFFS, cfg.grid, u.times, source,
                                            base=u0.spectrum, coef=1j)
        assert_rel_close(sv.duhamel_apply(cfg, u, u0).spectra, ref, 1e-13)
        # the prefix integrals, which scattering reads, from the same kernel,
        # summed in place over the source stack
        out, prefix = source.copy(), source.copy()
        whole = cfg.grid.n // 2
        dsp.duhamel_sum(COEFFS, cfg.grid, u.times, out, whole, base=u0.spectrum, coef=1j)
        dsp.duhamel_sum(COEFFS, cfg.grid, u.times, prefix, whole, prefix=True)
        assert_rel_close(out, ref, 1e-13)
        assert_rel_close(prefix, ref_prefix, 1e-13)

    def test_zero_nonlinearity_is_free_flow(self, grid2d_small):
        cfg = small_config(grid2d_small, nonlin=ZERO)
        u0 = small_datum(cfg)
        traj = dsp.propagate_trajectory(COEFFS, cfg.times(), u0)
        out = sv.duhamel_apply(cfg, traj, u0)
        scale = np.max(np.abs(traj.spectra))
        assert np.max(np.abs(out.spectra - traj.spectra)) < 1e-14 * scale

    def test_zero_input_trajectory(self, grid2d_small):
        cfg = small_config(grid2d_small)
        u0 = small_datum(cfg)
        zero_traj = sp.Trajectory(cfg.grid, cfg.times(),
                                  np.zeros((cfg.nt,) + cfg.grid.shape, dtype=complex))
        out = sv.duhamel_apply(cfg, zero_traj, u0)
        free = dsp.propagate_trajectory(COEFFS, cfg.times(), u0)
        assert np.max(np.abs(out.spectra - free.spectra)) < 1e-15

    def test_window_must_start_at_zero(self, grid2d_small):
        cfg = small_config(grid2d_small, t_min=-1.0, t_max=1.0)
        u0 = small_datum(cfg)
        with pytest.raises(ValueError):
            sv.picard_solve(cfg, u0)

    def test_first_iterate_near_oracle_scales_cubically(self, grid2d_small):
        # one Picard step from the free flow vs the oracle: the residual is
        # the next Duhamel order, so it shrinks at least like amplitude^3
        cubic = nl.NonlinSpec.cubic(-1.0)
        devs = []
        amps = [1e-2, 3e-2, 1e-1]
        for a in amps:
            cfg = small_config(grid2d_small, nonlin=cubic, nt=65, t_max=1.0,
                               oracle_substeps=4, override_hypotheses=True,
                               delta=1.0)
            u0 = small_datum(cfg, mod_norm=a)
            free = dsp.propagate_trajectory(COEFFS, cfg.times(), u0)
            one_step = sv.duhamel_apply(cfg, free, u0)
            oracle = sv.split_step_oracle(cfg, u0)
            devs.append(sv.oracle_deviation(one_step, oracle))
        slopes = np.diff(np.log(devs)) / np.diff(np.log(amps))
        assert np.all(slopes >= 2.5)  # at least cubic up to quadrature floor


class TestPicard:
    def test_zero_datum_fixed_point(self, grid2d_small):
        cfg = small_config(grid2d_small)
        u, rep = sv.picard_solve(cfg, sp.SpectralField.zero(cfg.grid))
        assert rep.iterations == 1 and rep.converged
        assert rep.final_x_norm == 0.0

    def test_linear_problem_one_iteration(self, grid2d_small):
        cfg = small_config(grid2d_small, nonlin=ZERO)
        u0 = small_datum(cfg)
        u, rep = sv.picard_solve(cfg, u0)
        assert rep.iterations == 1 and rep.converged
        free = dsp.propagate_trajectory(COEFFS, cfg.times(), u0)
        scale = np.max(np.abs(free.spectra))
        assert np.max(np.abs(u.spectra - free.spectra)) < 1e-14 * scale

    def test_quartic_converges_and_matches_oracle(self, grid2d):
        cfg = small_config(grid2d, nt=65, t_max=2.0, k_max=5, oracle_substeps=4)
        u0 = small_datum(cfg, mod_norm=0.1)
        u, rep = sv.picard_solve(cfg, u0)
        assert rep.converged and rep.theta_hat < 0.9
        oracle = sv.split_step_oracle(cfg, u0)
        assert sv.oracle_deviation(u, oracle) < 1e-6

    def test_fixed_point_residual(self, grid2d_small):
        cfg = small_config(grid2d_small)
        u0 = small_datum(cfg, mod_norm=0.1)
        u, rep = sv.picard_solve(cfg, u0)
        again = sv.duhamel_apply(cfg, u, u0)
        resid = ms.x_norm_diff(again, u, cfg.s, cfg.q, cfg.r, cfg.p,
                               cfg.partition()).value
        assert resid <= 2 * cfg.eps_fix

    def test_contraction_on_random_pair(self, grid2d_small):
        cfg = small_config(grid2d_small, delta=0.3)
        u0 = small_datum(cfg, mod_norm=0.1)
        part = cfg.partition()
        times = cfg.times()
        rng = np.random.default_rng(11)
        # two random trajectories inside the ball M(delta)
        trajs = []
        for seed in (1, 2):
            f = small_datum(cfg, seed=seed, mod_norm=0.08)
            traj = dsp.propagate_trajectory(COEFFS, times, f)
            trajs.append(traj)
        tu = sv.duhamel_apply(cfg, trajs[0], u0)
        tv = sv.duhamel_apply(cfg, trajs[1], u0)
        num = ms.x_norm_diff(tu, tv, cfg.s, cfg.q, cfg.r, cfg.p, part).value
        den = ms.x_norm_diff(trajs[0], trajs[1], cfg.s, cfg.q, cfg.r, cfg.p, part).value
        assert num < den  # theta < 1 in the small-data ball

    def test_non_contraction_raises(self, grid2d_small):
        cfg = small_config(grid2d_small, delta=64.0, max_iters=8,
                           override_hypotheses=True)
        u0 = small_datum(cfg, mod_norm=30.0)
        with pytest.raises(NumericsError) as exc_info:
            sv.picard_solve(cfg, u0)
        assert exc_info.value.report is not None

    def test_continuity_modulus(self, grid2d_small):
        # sampled t -> ||u(t)||_M has no jumps beyond the derivative bound
        cfg = small_config(grid2d_small, nt=65, t_max=2.0)
        u0 = small_datum(cfg, mod_norm=0.1)
        u, rep = sv.picard_solve(cfg, u0)
        part = cfg.partition()
        mspec = cfg.mod_spec()
        series = np.array([
            ms.mod_norm(u.field(j), mspec, part).value for j in range(u.n_samples)
        ])
        jumps = np.abs(np.diff(series))
        dt = u.times[1] - u.times[0]
        band = (cfg.k_max + 1) / cfg.grid.M * cfg.grid.M  # boxes end at k_max + 1
        phi_max = abs(COEFFS.alpha) * 2 * band**2 + abs(COEFFS.gamma) * band**4
        bound = (phi_max * series.max() + rep.final_x_norm) * dt
        assert np.all(jumps <= 1.5 * bound)


    @pytest.mark.parametrize("nonlin, grid_name", [(QUARTIC, "grid2d_small"),
                                                   (EXPONENTIAL, "grid2d_small"),
                                                   (nl.NonlinSpec.cubic(-1.0), "grid2d")])
    def test_iterates_equal_a_replayed_loop(self, request, monkeypatch, nonlin, grid_name):
        """The loop writes each pass into the spent iterate's stack: its
        iterates and differences are bit for bit those of a loop of public
        duhamel_apply and x_norm_diff calls, and the stack it writes into
        is never u's or u0's. On the 128 grid the cubic's support grows
        for two iterations, so the shapes differ before they match."""
        cfg = small_config(request.getfixturevalue(grid_name), nonlin=nonlin, nt=9,
                           t_max=4.0, delta=8.0, override_hypotheses=True)
        u0 = small_datum(cfg, seed=3, mod_norm=4.0)
        apply, calls = sv.duhamel_apply, []

        def spy(cfg_, u, u0_, out=None):
            if out is not None:
                assert not np.shares_memory(out, u.box)
                assert not np.shares_memory(out, u0_.spectrum)
            v = apply(cfg_, u, u0_, out=out)
            calls.append((v.box.copy(), v.support,
                          out is not None and np.shares_memory(v.box, out)))
            return v

        monkeypatch.setattr(sv, "duhamel_apply", spy)
        u, rep = sv.picard_solve(cfg, u0)
        monkeypatch.undo()
        assert rep.converged and len(calls) == rep.iterations >= 3
        assert [reused for *_, reused in calls][-2:] == [True, True]
        part = cfg.partition()
        w = dsp.propagate_trajectory(COEFFS, cfg.times(), u0)
        for (box, support, _), diff in zip(calls, rep.diff_norms):
            nxt = sv.duhamel_apply(cfg, w, u0)
            assert support == nxt.support and np.array_equal(box, nxt.box)
            assert diff == ms.x_norm_diff(nxt, w, cfg.s, cfg.q, cfg.r, cfg.p, part).value
            w = nxt
        assert np.array_equal(u.box, w.box)


class TestOracle:
    def test_zero_nonlinearity_exact(self, grid2d_small):
        cfg = small_config(grid2d_small, nonlin=ZERO, nt=17)
        u0 = small_datum(cfg)
        traj = sv.split_step_oracle(cfg, u0)
        free = dsp.propagate_trajectory(COEFFS, cfg.times(), u0)
        scale = np.max(np.abs(free.spectra))
        assert np.max(np.abs(traj.spectra - free.spectra)) < 1e-12 * scale

    def test_pointwise_rotation_closed_form(self):
        # the nonlinear substep for c|u|^{2m}u with real c is a pure rotation
        vals = np.array([0.5 + 0.2j, -0.3j, 1.0 + 0.0j])
        spec = nl.NonlinSpec.cubic(-1.0)
        out = sv._nonlinear_substep(spec, vals, dt=0.37)
        expected = vals * np.exp(-1j * 0.37 * np.abs(vals) ** 2)
        assert np.allclose(out, expected, rtol=1e-14)

    def test_rk4_matches_rotation_for_generic_path(self):
        # force the RK4 branch with a complex coefficient of zero imag part
        # split: compare against the exact rotation it approximates
        vals = np.array([0.4 + 0.1j, 0.2 - 0.3j])
        spec = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u"), coeff=1j)
        dt = 1e-3
        out = sv._nonlinear_substep(spec, vals, dt)
        # du/dt = i * (i |u|^2 u) = -|u|^2 u: amplitude decay, solve tiny step
        # against a reference RK with halved steps
        half = sv._nonlinear_substep(spec, sv._nonlinear_substep(spec, vals, dt / 2), dt / 2)
        assert np.allclose(out, half, rtol=0, atol=1e-16)

    def test_step_halving_second_order(self, grid2d_small):
        # error against a much finer reference scales ~ dt^2; individual
        # halvings beat against the oscillatory splitting terms, so assert
        # the least-squares order over a decade of step sizes
        cubic = nl.NonlinSpec.cubic(-1.0)
        base = dict(coeffs=COEFFS, nonlin=cubic, grid=grid2d_small,
                    t_min=0.0, t_max=1.0, nt=5, delta=8.0, k_max=2,
                    override_hypotheses=True)
        u0 = small_datum(sv.SolveConfig(**base), seed=3, mod_norm=2.0)
        ref = sv.split_step_oracle(sv.SolveConfig(**base, oracle_substeps=128), u0)
        subs = (1, 2, 4, 8, 16)
        errs = [
            sv.oracle_deviation(
                sv.split_step_oracle(sv.SolveConfig(**base, oracle_substeps=s), u0), ref)
            for s in subs
        ]
        dts = np.array([0.25 / s for s in subs])
        order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 1.7 < order < 2.7

    @pytest.mark.parametrize("nonlin", [
        nl.NonlinSpec.cubic(-1.0),
        nl.NonlinSpec(kind="exponential", lam=-1.0, rho=0.5),
        nl.NonlinSpec(kind="power", pattern=("u", "conj", "u"), coeff=1j),
    ], ids=["rotation", "exponential-rotation", "rk4"])
    def test_matches_centered_reference_bitwise(self, grid2d_small, nonlin):
        cfg = small_config(grid2d_small, nonlin=nonlin, nt=5, t_max=0.5,
                           override_hypotheses=True)
        u0 = small_datum(cfg, seed=9, mod_norm=0.5)
        traj = sv.split_step_oracle(cfg, u0)
        assert np.array_equal(traj.spectra, reference_split_step(cfg, u0))

    def test_time_reversibility_linear(self, grid2d_small):
        cfg = small_config(grid2d_small, nonlin=ZERO, nt=9, t_max=1.0)
        u0 = small_datum(cfg, seed=5)
        fwd = sv.split_step_oracle(cfg, u0)
        end = fwd.field(fwd.n_samples - 1)
        back = dsp.propagate(COEFFS, -cfg.t_max, end)
        assert np.max(np.abs(back.values - u0.values)) < 1e-12 * np.max(np.abs(u0.values))

    def test_mass_conservation_quintic(self, grid2d_small):
        cfg = small_config(grid2d_small, nonlin=QUINTIC, nt=33, t_max=2.0,
                           oracle_substeps=2, override_hypotheses=True, delta=4.0)
        u0 = small_datum(cfg, seed=6, mod_norm=1.0)
        traj = sv.split_step_oracle(cfg, u0)
        m0 = sv.mass(traj.field(0))
        drift = max(abs(sv.mass(traj.field(j)) - m0) for j in range(traj.n_samples))
        assert drift / m0 < 1e-12


class TestMass:
    def test_series_is_per_sample_mass(self, grid2d_small):
        rng = np.random.default_rng(8)
        f = band_limited_field(grid2d_small, 2, rng)
        traj = dsp.propagate_trajectory(COEFFS, np.linspace(0.0, 1.0, 5), f)
        traj.box[2] = 0.0
        series = sv.mass_series(traj)
        expected = [sv.mass(traj.field(j)) for j in range(traj.n_samples)]
        np.testing.assert_allclose(series, expected, rtol=1e-12, atol=0.0)
        assert series[2] == 0.0

    def test_series_and_oracle_deviation_are_per_sample_plancherel(self, grid2d_small):
        # 11 samples: two chunks of the Plancherel sum at n = 64
        rng = np.random.default_rng(10)
        times = np.linspace(0.0, 1.0, 11)
        a = dsp.propagate_trajectory(COEFFS, times, band_limited_field(grid2d_small, 2, rng))
        b = dsp.propagate_trajectory(COEFFS, times, band_limited_field(grid2d_small, 2, rng))
        factor = (grid2d_small.dxi / (2.0 * math.pi)) ** 2
        mass = [factor * np.vdot(s, s).real for s in a.spectra]
        np.testing.assert_allclose(sv.mass_series(a), mass, rtol=1e-13, atol=0.0)
        dev = max(math.sqrt(factor * np.sum(np.abs(x - y) ** 2))
                  for x, y in zip(a.spectra, b.spectra))
        assert sv.oracle_deviation(a, b) == pytest.approx(dev, rel=1e-13)
        assert sv.oracle_deviation(a, a) == 0.0

    def test_zero(self, grid2d_small):
        assert sv.mass(sp.SpectralField.zero(grid2d_small)) == 0.0

    def test_constant_closed_form(self):
        # |a|^2 * (2L)^d with d = 1, L = 4 pi
        g = sp.make_grid(1, 4 * math.pi, 64)
        a = 0.5 - 1.0j
        f = sp.SpectralField(g, values=np.full(64, a))
        assert sv.mass(f) == pytest.approx(abs(a) ** 2 * 8 * math.pi, rel=1e-12)

    def test_invariant_under_flow(self, grid2d_small):
        rng = np.random.default_rng(7)
        f = band_limited_field(grid2d_small, 1, rng)
        g = dsp.propagate(COEFFS, 1.7, f)
        assert sv.mass(g) == pytest.approx(sv.mass(f), rel=1e-12)


class TestScattering:
    def _scatter_config(self, grid, **kw):
        return small_config(grid, t_min=-2.0, t_max=2.0, nt=65, k_max=4, **kw)

    def test_linear_flow_tail_zero(self, grid2d_small):
        cfg = small_config(grid2d_small, nonlin=ZERO, t_min=-2.0, t_max=2.0, nt=33)
        u0 = small_datum(cfg, seed=8)
        u, rep, total, prefix = sv.scatter_minus(cfg, u0)
        free = dsp.propagate_trajectory(COEFFS, cfg.times(), u0)
        scale = np.max(np.abs(free.spectra))
        assert np.max(np.abs(u.spectra - free.spectra)) < 1e-14 * scale
        assert max(rep.tail_minus) == 0.0

    def test_wave_operator_identity_for_linear(self, grid2d_small):
        cfg = small_config(grid2d_small, nonlin=ZERO, t_min=-2.0, t_max=2.0, nt=33)
        u0 = small_datum(cfg, seed=9)
        u, rep, total, prefix = sv.scatter_minus(cfg, u0)
        u0p, tails = sv.wave_operator_plus(cfg, u0, total, prefix)
        assert np.max(np.abs(u0p.spectrum - u0.spectrum)) == 0.0
        assert max(tails) == 0.0

    def test_prefix_integrates_f_of_the_returned_u(self, grid2d_small):
        cfg = small_config(grid2d_small, t_min=-2.0, t_max=2.0, nt=33)
        u0 = small_datum(cfg, seed=14)
        u, rep, total, prefix = sv.scatter_minus(cfg, u0)
        source = nl.apply_to_trajectory(cfg.nonlin, u).spectra
        _, ref_prefix = reference_duhamel(COEFFS, cfg.grid, u.times, source)
        # the prefix on the footprint, the whole-window integral on the grid
        assert_rel_close(prefix.box, sp._rebox(ref_prefix, 2, prefix.box.shape[-1]), 1e-13)
        assert_rel_close(total.spectrum, ref_prefix[-1], 1e-13)
        _, tail_plus = sv.wave_operator_plus(cfg, u0, total, prefix)
        assert rep.tail_minus[0] == 0.0 and tail_plus[-1] == 0.0

    def test_prefix_is_summed_in_place(self, grid2d, monkeypatch):
        """After the Picard loop scatter_minus holds no full-grid stack but u:
        it keeps f(u) on the partition's footprint only and sums the prefix in
        place over that, so it allocates less than half a stack beyond what
        the loop returns (a full-grid f(u) or prefix stack would be one). The
        whole call, loop included, stays below 2.5 stacks."""
        cfg = small_config(grid2d, t_min=-2.0, t_max=2.0, nt=33)
        u0 = small_datum(cfg, seed=14)
        partition = cfg.partition()
        run_fixed_point, after_loop = sv._run_fixed_point, []

        def traced(*args):
            out = run_fixed_point(*args)
            after_loop.extend(tracemalloc.get_traced_memory())  # (current, peak)
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(sv, "_run_fixed_point", traced)
        tracemalloc.start()
        try:
            u, _, total, prefix = sv.scatter_minus(cfg, u0, partition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u.box.shape == (cfg.nt,) + cfg.grid.shape
        assert prefix.box.shape == (cfg.nt,) + (2 * partition.footprint + 1,) * 2
        assert peak - after_loop[0] < 0.5 * u.box.nbytes
        assert max(peak, after_loop[1]) < 2.5 * u.box.nbytes

    @pytest.mark.parametrize("k_max, zero", [(2, False), (3, False), (2, True)])
    def test_matches_the_two_stack_reference(self, grid2d_small, k_max, zero):
        """u0+, both tails, quad_tol and the edge integrand norms are those of
        f(u) and its prefix as full-grid stacks, bit for bit."""
        cfg = small_config(grid2d_small, t_min=-2.0, t_max=2.0, nt=33, k_max=k_max)
        u0 = sp.SpectralField.zero(cfg.grid) if zero else small_datum(cfg, seed=15)
        u0p, u, rep = sv.scattering_map(cfg, u0)
        ref = reference_scatter(cfg, u, u0)
        assert u0p.spectrum.tobytes() == ref.pop("u0_plus").tobytes()
        assert {key: getattr(rep, key) for key in ref} == ref

    def test_scattering_zero_maps_to_zero(self, grid2d):
        cfg = self._scatter_config(grid2d)
        u0p, u, rep = sv.scattering_map(cfg, sp.SpectralField.zero(cfg.grid))
        assert sp.lp_norm(u0p, 2) == 0.0

    def test_tails_monotone_and_small(self, grid2d):
        cfg = self._scatter_config(grid2d)
        u0m = small_datum(cfg, seed=10, mod_norm=0.1)
        u0p, u, rep = sv.scattering_map(cfg, u0m)
        tm, tp = rep.tail_minus, rep.tail_plus
        assert tm[0] == 0.0 and tp[-1] == 0.0
        assert all(a <= b + 1e-18 for a, b in zip(tm, tm[1:]))
        assert all(a >= b - 1e-18 for a, b in zip(tp, tp[1:]))

    def test_amplitude_power_law(self, grid2d):
        amps = [0.02, 0.04, 0.08]
        norms = []
        for a in amps:
            cfg = self._scatter_config(grid2d, delta=0.25)
            u0m = small_datum(cfg, seed=11, mod_norm=a)
            u0p, u, rep = sv.scattering_map(cfg, u0m)
            part = cfg.partition()
            diff = sp.SpectralField(cfg.grid, spectrum=u0p.spectrum - u0m.spectrum)
            norms.append(ms.mod_norm(diff, cfg.mod_spec(), part).value)
        slopes = np.diff(np.log(norms)) / np.diff(np.log(amps))
        # leading order of the wave operator is the (m+1)-fold product
        assert np.all(np.abs(slopes - 4.0) < 0.4)

    def test_tail_tol_enforced(self, grid2d_small):
        cfg = small_config(grid2d_small, t_min=-2.0, t_max=2.0, nt=33,
                           tail_tol=1e-30)
        u0 = small_datum(cfg, seed=12, mod_norm=0.1)
        with pytest.raises(NumericsError):
            sv.scatter_minus(cfg, u0)


class TestDeltaBisection:
    def test_reports_largest_accepted(self, grid2d_small):
        cfg = small_config(grid2d_small, nt=33, t_max=4.0, max_iters=20,
                           override_hypotheses=True)
        profile = small_datum(cfg, seed=13, mod_norm=1.0)
        result = sv.delta_bisection(cfg, profile, delta_init=0.1,
                                    bisect_steps=3, delta_cap=64.0)
        assert result["delta"] > 0
        assert result["report"].theta_hat < 0.9
        assert any(not h["accepted"] for h in result["history"])

    def test_early_reject_stops_at_first_ratio_over_theta_max(self, grid2d_small):
        cfg = small_config(grid2d_small, nt=9, t_max=4.0, max_iters=30, delta=36.0,
                           override_hypotheses=True)
        u0 = small_datum(cfg, seed=13, mod_norm=18.0)
        with pytest.raises(NumericsError) as early:
            sv.picard_solve(cfg, u0, theta_max=0.9)
        with pytest.raises(NumericsError) as full:
            sv.picard_solve(cfg, u0)
        rep, full_rep = early.value.report, full.value.report
        ratios = [b / a for a, b in zip(rep.diff_norms, rep.diff_norms[1:])]
        assert ratios[-1] >= 0.9 and all(r < 0.9 for r in ratios[:-1])
        assert rep.theta_hat == max(ratios)
        # the same iterates, cut where the verdict is already certain
        assert full_rep.iterations > rep.iterations
        assert full_rep.diff_norms[:rep.iterations] == rep.diff_norms

    def test_early_reject_keeps_every_decision(self, grid2d_small):
        cfg = small_config(grid2d_small, nt=9, t_max=4.0, max_iters=30,
                           override_hypotheses=True)
        profile = small_datum(cfg, seed=13, mod_norm=1.0)
        part = cfg.partition()
        result = sv.delta_bisection(cfg, profile, delta_init=4.5, bisect_steps=3,
                                    delta_cap=64.0, partition=part)
        # delta = 36 and 33.75 are rejected early, on a ratio above 0.9
        assert sum(h["theta_hat"] >= 0.9 for h in result["history"]) == 2
        base = ms.mod_norm(profile, cfg.mod_spec(), part).value
        for h in result["history"]:
            trial = replace(cfg, delta=h["delta"])
            scaled = sp.SpectralField(cfg.grid,
                                      spectrum=profile.spectrum * (h["delta"] / 2 / base))
            try:
                _, rep = sv.picard_solve(trial, scaled, part)
                ok = rep.converged and rep.theta_hat < 0.9
            except NumericsError:
                ok = False
            assert ok == h["accepted"]

    @pytest.mark.parametrize("nonlin", [nl.NonlinSpec.cubic(-1.0), QUARTIC],
                             ids=["cubic", "quartic"])
    def test_trials_share_their_first_iterate(self, grid2d_small, monkeypatch, nonlin):
        """Each trial starts from W(t) u0 + (delta/2)^D D1: its first iterate
        and first difference match one Duhamel application to the free
        flow within 1e-13, and only the later iterations run one. That
        application rounds u1 to the last bits of u0, so the difference it
        gives is exact only to roundoff of the free flow's X norm."""
        cfg = small_config(grid2d_small, nonlin=nonlin, nt=9, t_max=4.0, max_iters=30,
                           override_hypotheses=True)
        profile = small_datum(cfg, seed=13, mod_norm=1.0)
        part = cfg.partition()
        solve, apply = sv.picard_solve, sv.duhamel_apply
        trials = []  # per picard_solve: its config, datum, u1 and report

        def spy_solve(trial_cfg, u0, *args, **kwargs):
            trials.append({"cfg": trial_cfg, "u0": u0, "u1": None, "applied": 0})
            try:
                out = solve(trial_cfg, u0, *args, **kwargs)
            except NumericsError as exc:
                trials[-1]["report"] = exc.report
                raise
            trials[-1]["report"] = out[1]
            return out

        def spy_apply(cfg_, u, u0, out=None):
            if trials:  # iteration 2 of the current trial reads u1
                if trials[-1]["u1"] is None:
                    trials[-1]["u1"] = (u.box.copy(), u.support)
                trials[-1]["applied"] += 1
            return apply(cfg_, u, u0, out=out)

        monkeypatch.setattr(sv, "picard_solve", spy_solve)
        monkeypatch.setattr(sv, "duhamel_apply", spy_apply)
        result = sv.delta_bisection(cfg, profile, delta_init=0.5, bisect_steps=2,
                                    delta_cap=64.0, partition=part)
        monkeypatch.undo()
        assert len(trials) == len(result["history"]) >= 4
        for t in trials:
            rep = t["report"]
            assert t["applied"] == rep.iterations - 1
            free = dsp.propagate_trajectory(COEFFS, t["cfg"].times(), t["u0"])
            u1 = sv.duhamel_apply(t["cfg"], free, t["u0"])
            d0 = ms.x_norm_diff(u1, free, cfg.s, cfg.q, cfg.r, cfg.p, part).value
            scale = ms.x_norm(free, cfg.s, cfg.q, cfg.r, cfg.p, part).value
            box, support = t["u1"]
            assert support == u1.support
            assert_rel_close(box, u1.box, 1e-13)
            assert abs(rep.diff_norms[0] - d0) <= 1e-13 * max(d0, scale)

    def test_exponential_runs_every_iteration(self, grid2d_small, monkeypatch):
        """The exponential has no degree: no shared first iterate, and every
        trial is bit for bit a picard_solve of its rescaled profile."""
        cfg = small_config(grid2d_small, nonlin=EXPONENTIAL, nt=9, t_max=4.0,
                           max_iters=30, override_hypotheses=True)
        profile = small_datum(cfg, seed=13, mod_norm=1.0)
        part = cfg.partition()
        solve, firsts = sv.picard_solve, []

        def spy(*args, first=None, **kwargs):
            firsts.append(first)
            return solve(*args, first=first, **kwargs)

        monkeypatch.setattr(sv, "picard_solve", spy)
        result = sv.delta_bisection(cfg, profile, delta_init=0.5, bisect_steps=2,
                                    delta_cap=64.0, partition=part)
        monkeypatch.undo()
        assert firsts == [None] * len(result["history"])
        base = ms.mod_norm(profile, cfg.mod_spec(), part).value
        for h in result["history"]:
            scaled = sp.SpectralField(cfg.grid,
                                      spectrum=profile.spectrum * (h["delta"] / 2.0 / base))
            try:
                _, rep = sv.picard_solve(replace(cfg, delta=h["delta"]), scaled, part,
                                         theta_max=0.9)
            except NumericsError as exc:
                rep = exc.report
            assert rep.theta_hat == h["theta_hat"]
            if h["delta"] == result["delta"]:
                assert rep.diff_norms == result["report"].diff_norms
