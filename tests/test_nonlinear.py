import math

import numpy as np
import pytest

from modnls import dispersion as dsp, modspace as ms, nonlinear as nl, spectral as sp

from conftest import (assert_support_sized, band_limited_field, centered_ifft,
                      reference_aliasing_residual, reference_apply_to_trajectory, single_mode,
                      support_stack)


def _const_field(grid, value):
    return sp.SpectralField(grid, values=np.full(grid.shape, value, dtype=complex))


class TestSpecValidation:
    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            nl.NonlinSpec(kind="power", pattern=())

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            nl.NonlinSpec(kind="power", pattern=("u", "vbar"))

    def test_rho_positive(self):
        with pytest.raises(ValueError):
            nl.NonlinSpec(kind="exponential", rho=-1.0)

    def test_phase_invariant_detection(self):
        assert nl.NonlinSpec.cubic(-1.0).is_phase_invariant_power()
        assert nl.NonlinSpec.odd_power(2, 3.0).is_phase_invariant_power()
        assert not nl.NonlinSpec.cubic(1j).is_phase_invariant_power()
        quartic = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"), coeff=-1.0)
        assert not quartic.is_phase_invariant_power()


class TestApplyPower:
    def test_constant_field(self, grid2d_small):
        # |a|^2 a with coefficient -1 at a = 1 + 2j: -(5)(1+2j)
        a = 1.0 + 2.0j
        f = _const_field(grid2d_small, a)
        out = sp.SpectralField(f.grid, values=nl.evaluate(nl.NonlinSpec.cubic(-1.0), f.values))
        assert np.allclose(out.values, -abs(a) ** 2 * a)

    def test_zero_field(self, grid2d_small):
        f = sp.SpectralField.zero(grid2d_small)
        out = sp.SpectralField(f.grid, values=nl.evaluate(nl.NonlinSpec.cubic(-1.0), f.values))
        assert sp.lp_norm(out, math.inf) == 0.0

    def test_frequency_tripling(self, grid1d):
        # (u, u, u) on a single mode triples the frequency
        f = single_mode(grid1d, (8,))
        spec = nl.NonlinSpec(kind="power", pattern=("u",) * 3, coeff=1.0)
        out = sp.SpectralField(f.grid, values=nl.evaluate(spec, f.values))
        expected = single_mode(grid1d, (24,))
        assert np.max(np.abs(out.values - expected.values)) < 1e-12

    def test_degree_homogeneity(self, grid2d_small):
        rng = np.random.default_rng(0)
        f = band_limited_field(grid2d_small, 1, rng)
        spec = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"), coeff=-2.0)
        c = 0.7 - 0.3j
        a = sp.SpectralField(f.grid, values=nl.evaluate(spec, c * f.values)).values
        b = sp.SpectralField(f.grid, values=nl.evaluate(spec, f.values)).values
        assert np.allclose(np.abs(a), abs(c) ** 4 * np.abs(b), rtol=1e-12, atol=1e-300)

    def test_gauge_covariance(self, grid2d_small):
        rng = np.random.default_rng(1)
        f = band_limited_field(grid2d_small, 1, rng)
        spec = nl.NonlinSpec.odd_power(2, -1.0)  # |u|^4 u
        theta = 0.9
        a = sp.SpectralField(
            f.grid, values=nl.evaluate(spec, np.exp(1j * theta) * f.values)).values
        b = np.exp(1j * theta) * sp.SpectralField(
            f.grid, values=nl.evaluate(spec, f.values)).values
        assert np.allclose(a, b, rtol=1e-12, atol=1e-300)


class TestExponential:
    def test_zero_field(self, grid2d_small):
        spec = nl.NonlinSpec(kind="exponential", lam=2.0, rho=1.0)
        f = sp.SpectralField.zero(grid2d_small)
        out = sp.SpectralField(f.grid, values=nl.evaluate(spec, f.values))
        assert sp.lp_norm(out, math.inf) == 0.0

    def test_constant_scalar_identity(self, grid2d_small):
        a = 0.3 + 0.1j
        lam = 1.0 - 0.5j
        rho = 0.7
        spec = nl.NonlinSpec(kind="exponential", lam=lam, rho=rho)
        f = _const_field(grid2d_small, a)
        out = sp.SpectralField(f.grid, values=nl.evaluate(spec, f.values))
        expected = lam * (math.exp(rho * abs(a) ** 2) - 1.0) * a
        assert np.allclose(out.values, expected, rtol=1e-13)

    def test_first_order_truncation(self, grid2d_small):
        # M = 1 series is exactly lambda rho |u|^2 u
        rng = np.random.default_rng(2)
        f = band_limited_field(grid2d_small, 1, rng, amplitude=0.3)
        spec = nl.NonlinSpec(kind="exponential", lam=-1.0, rho=0.8)
        series = nl.exponential_series(spec, f, cutoff=1)
        direct = -0.8 * np.abs(f.values) ** 2 * f.values
        assert np.allclose(series.values, direct, rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("cutoff", range(1, 13))
    def test_series_within_tail_bound(self, grid2d_small, cutoff):
        rng = np.random.default_rng(3 + cutoff)
        f = band_limited_field(grid2d_small, 1, rng, amplitude=0.5)
        spec = nl.NonlinSpec(kind="exponential", lam=0.5 + 0.2j, rho=1.0)
        closed = sp.SpectralField(f.grid, values=nl.evaluate(spec, f.values))
        series = nl.exponential_series(spec, f, cutoff=cutoff)
        dev = np.max(np.abs(closed.values - series.values))
        # at high cutoffs the analytic tail drops below the roundoff of
        # comparing two float evaluation paths; allow that floor explicitly
        sup = np.max(np.abs(f.values))
        floor = 16 * np.finfo(float).eps * abs(spec.lam) * sup * max(1.0, spec.rho * sup**2)
        assert dev <= nl.exponential_tail_bound(spec, f, cutoff=cutoff) + floor

    def test_overflow_rejected(self, grid2d_small):
        spec = nl.NonlinSpec(kind="exponential", lam=1.0, rho=1.0)
        with pytest.raises(ValueError):
            f = _const_field(grid2d_small, 30.0)
            sp.SpectralField(f.grid, values=nl.evaluate(spec, f.values))


class TestLipschitzWitness:
    def _trajectories(self, grid, rng, times, amplitude=1.0):
        coeffs = dsp.EquationCoeffs(1.0, 0.0, 1.0)
        u0 = band_limited_field(grid, 1, rng, amplitude=amplitude)
        return dsp.propagate_trajectory(coeffs, times, u0)

    def test_identical_arguments_vanish(self, grid2d, partition2d):
        rng = np.random.default_rng(4)
        times = np.linspace(0, 1, 5)
        u = self._trajectories(grid2d, rng, times)
        spec = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"), coeff=-1.0)
        exps = nl.LipschitzExponents(s=0.0, q=1, r_tilde=1, p_tilde=2, l=3, m=3)
        lhs, rhs = nl.power_lipschitz_witness(u, u, spec, exps, partition2d)
        assert lhs == 0.0

    def test_lhs_matches_two_pass_formula(self, grid2d, partition2d):
        # 5 samples at n = 128 span three chunks of the one-pass difference
        rng = np.random.default_rng(6)
        times = np.linspace(0, 1, 5)
        u = self._trajectories(grid2d, rng, times, amplitude=0.5)
        v = self._trajectories(grid2d, rng, times, amplitude=0.5)
        spec = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"), coeff=-1.0)
        exps = nl.LipschitzExponents(s=0.0, q=1, r_tilde=1, p_tilde=2, l=3, m=3)
        lhs, _ = nl.power_lipschitz_witness(u, v, spec, exps, partition2d)
        fu, fv = nl.apply_to_trajectory(spec, u), nl.apply_to_trajectory(spec, v)
        diff = sp.Trajectory(grid2d, times, fu.spectra - fv.spectra)
        ref = ms.planchon_norm(diff, ms.PlanchonNormSpec(s=0.0, q=1, r=1, p=2),
                               partition2d).value
        assert lhs == pytest.approx(ref, rel=1e-13)

    def test_v_zero_reduction(self, grid2d, partition2d):
        rng = np.random.default_rng(5)
        times = np.linspace(0, 1, 5)
        u = self._trajectories(grid2d, rng, times, amplitude=0.5)
        zero = sp.Trajectory(grid2d, times, np.zeros_like(u.spectra))
        spec = nl.NonlinSpec(kind="power", pattern=("u", "conj"), coeff=1.0)  # m = 1
        exps = nl.LipschitzExponents(s=0.0, q=1, r_tilde=1, p_tilde=2, l=1, m=1)
        lhs, rhs = nl.power_lipschitz_witness(u, zero, spec, exps, partition2d)
        assert rhs > 0 and lhs / rhs < 10.0

    def test_scalar_brute_force_bound(self):
        # |a^{m+1} - b^{m+1}| <= (m+1) |a - b| (|a|^m + |b|^m) on a complex mesh
        from modnls.harness import scalar_lipschitz_ratio
        for m in (1, 2, 3, 5):
            assert scalar_lipschitz_ratio(m) <= m + 1 + 1e-9


ALIASING_SPECS = [nl.NonlinSpec.cubic(-1.0 + 0.5j),
                  nl.NonlinSpec(kind="exponential", lam=-1.0, rho=0.5)]
# support W as a function of n: the cubic's pass is alias-free with reach
# 3n/16 inside the 2/3 boundary, alias-free with reach 3n/8 beyond it, or aliased
ALIASING_CASES = {"alias_free": lambda n: n // 16, "spread": lambda n: n // 8,
                  "aliased": lambda n: n // 2 - 1}


def _aliasing_input(d, n, width):
    """A field of L^2 norm 1, built from its spectrum, filling |k|_inf <= width(n)."""
    grid, stack = support_stack(d, n, width(n), seed=d, count=1)
    norm = math.sqrt(sp._plancherel(stack, grid, n // 2)[0])
    return sp.SpectralField(grid, spectrum=stack[0] / norm)


class TestAliasingResidual:
    def test_band_limited_input_clean(self, grid2d_small):
        # quartic of a band-1 field spreads to band 4 < (2/3) Nyquist at M=4
        rng = np.random.default_rng(7)
        f = band_limited_field(grid2d_small, 1, rng, amplitude=0.2)
        spec = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"), coeff=-1.0)
        assert nl.aliasing_residual(spec, f) < 1e-12

    def test_wide_input_flags_aliasing(self, grid2d_small):
        # cubing a field that fills most of the lattice wraps past Nyquist
        rng = np.random.default_rng(8)
        band = (grid2d_small.n // 2 - 2) // grid2d_small.M
        f = band_limited_field(grid2d_small, band, rng, amplitude=1.0)
        spec = nl.NonlinSpec(kind="power", pattern=("u",) * 3, coeff=1.0)
        assert nl.aliasing_residual(spec, f) > 1e-3

    def test_zero_field(self, grid2d_small):
        spec = nl.NonlinSpec.cubic()
        assert nl.aliasing_residual(spec, sp.SpectralField.zero(grid2d_small)) == 0.0

    @pytest.mark.parametrize("spec", ALIASING_SPECS, ids=["cubic", "exponential"])
    @pytest.mark.parametrize("case", sorted(ALIASING_CASES))
    @pytest.mark.parametrize("d, n", [(1, 256), (2, 64), (3, 32)])
    def test_matches_the_full_grid_formula(self, spec, case, d, n):
        """The pass and two Plancherel sums give the full-grid formula's
        fraction: to 1e-12 relative where it exceeds 1e-12, absolute below."""
        u = _aliasing_input(d, n, ALIASING_CASES[case])
        got, ref = nl.aliasing_residual(spec, u), reference_aliasing_residual(spec, u)
        assert abs(got - ref) <= 1e-12 * (ref if ref > 1e-12 else 1.0)
        if case == "aliased":
            assert ref > 1e-3
        if case == "spread" and spec.kind == "power":
            assert ref > 1e-3  # alias-free, but reaching beyond n // 3

    @pytest.mark.parametrize("d, n", [(1, 256), (2, 64), (3, 32)])
    def test_alias_free_product_reads_exactly_zero(self, d, n):
        # cubic of support n/16: reach 3n/16 <= n // 3, so no roundoff is kept
        u = _aliasing_input(d, n, ALIASING_CASES["alias_free"])
        assert nl.aliasing_residual(ALIASING_SPECS[0], u) == 0.0

    def test_makes_no_centered_transform(self, monkeypatch):
        u = _aliasing_input(2, 64, ALIASING_CASES["aliased"])

        def banned(*args, **kwargs):
            raise AssertionError("a centered transform was made")

        # the names, not _centered: the partial objects bound it at import
        monkeypatch.setattr(sp, "_centered_ifft", banned)
        monkeypatch.setattr(sp, "_centered_fft", banned)
        for spec in ALIASING_SPECS:
            assert nl.aliasing_residual(spec, u) > 1e-3


STACK_SPECS = [
    nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"), coeff=-1.0 + 0.5j),
    nl.NonlinSpec(kind="exponential", lam=-1.0, rho=0.5),
    nl.NonlinSpec(kind="zero"),
]
STACK_SPEC_IDS = ["quartic", "exponential", "zero"]


class TestTrajectoryApplication:
    def test_matches_per_sample(self, grid2d_small):
        rng = np.random.default_rng(6)
        coeffs = dsp.EquationCoeffs(1.0, 0.0, 1.0)
        u0 = band_limited_field(grid2d_small, 1, rng, amplitude=0.4)
        times = np.linspace(0, 1, 4)
        traj = dsp.propagate_trajectory(coeffs, times, u0)
        spec = nl.NonlinSpec.cubic(-1.0)
        out = nl.apply_to_trajectory(spec, traj)
        for j in range(4):
            direct = sp.SpectralField(traj.grid, values=nl.evaluate(spec, traj.field(j).values))
            scale = np.max(np.abs(direct.values))
            assert np.max(np.abs(out.values(j) - direct.values)) < 1e-13 * scale

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=STACK_SPEC_IDS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_centered_reference_bitwise(self, spec, d):
        # 17 samples span several chunks of the pass at every d
        grid = sp.make_grid(d, 4 * math.pi, {1: 4096, 2: 64, 3: 32}[d])
        u0 = band_limited_field(grid, 1, np.random.default_rng(7 + d), amplitude=0.4)
        traj = dsp.propagate_trajectory(dsp.EquationCoeffs(1.0, 0.0, 1.0),
                                        np.linspace(0, 1, 17), u0)
        out = nl.apply_to_trajectory(spec, traj)
        ref = reference_apply_to_trajectory(spec, traj)
        if spec.kind == "power" and 2 * spec.degree * traj.support < grid.n:
            # support W = M = 4: the quartic is alias-free, on 64 points
            # instead of 4096 at d = 1 and on all 64 at d = 2, with reach 4 W
            assert_support_sized(out.spectra, ref, spec.degree * traj.support)
        else:
            assert np.array_equal(out.spectra, ref)
        assert np.array_equal(out.field(3).values, centered_ifft(out.spectra[3], grid))

    def test_alias_free_reach_on_the_full_grid(self):
        """picard_full's shape: a band-2 datum (W = 16 at M = 8) under the
        quartic has 2 D W = 128 < 256, so the pass runs on the full grid and
        its free flow is stored at reach D W = 64, on a 129-wide box."""
        grid = sp.make_grid(2, 8 * math.pi, 256)
        u0 = band_limited_field(grid, 2, np.random.default_rng(5), amplitude=0.1)
        traj = dsp.propagate_trajectory(dsp.EquationCoeffs(1.0, 0.0, 1.0),
                                        np.linspace(0, 1, 3), u0)
        spec = STACK_SPECS[0]
        assert traj.support == 16 and sp._pass_grid(grid, 16, spec.degree)[0] == grid
        out = nl.apply_to_trajectory(spec, traj)
        assert out.support == 64 and out.box.shape == (3, 129, 129)
        assert_support_sized(out.spectra, reference_apply_to_trajectory(spec, traj), 64)

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=STACK_SPEC_IDS)
    def test_full_band_d1_matches_centered_reference_bitwise(self, spec):
        # a spectrum filling the grid keeps the d = 1 pass on all 4096 points
        grid = sp.make_grid(1, 4 * math.pi, 4096)
        rng = np.random.default_rng(8)
        spectrum = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        u0 = sp.SpectralField(grid, spectrum=spectrum * (0.4 / sp.lp_norm(
            sp.SpectralField(grid, spectrum=spectrum), 2)))
        traj = dsp.propagate_trajectory(dsp.EquationCoeffs(1.0, 0.0, 1.0),
                                        np.linspace(0, 1, 17), u0)
        out = nl.apply_to_trajectory(spec, traj)
        assert np.array_equal(out.spectra, reference_apply_to_trajectory(spec, traj))

