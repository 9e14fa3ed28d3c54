import math

import numpy as np
import pytest

from modnls import dispersion as dsp, harness as hn, modspace as ms, nonlinear as nl
from modnls import spectral as sp
from modnls.errors import HypothesisError

from conftest import assert_rel_close, reference_duhamel, single_mode

COEFFS = dsp.EquationCoeffs(alpha=1.0, beta=0.0, gamma=1.0)
TIMES = np.linspace(0.0, 2.0, 9)


def small_ensemble(count=6, seed=0, **kw):
    defaults = dict(count=count, seed=seed, law="gaussian-spectrum",
                    decay=2.0, amplitude=1.0, band=1)
    defaults.update(kw)
    return hn.EnsembleSpec(**defaults)


class TestEnsemble:
    def test_validation(self):
        with pytest.raises(ValueError):
            hn.EnsembleSpec(count=0)
        with pytest.raises(ValueError):
            hn.EnsembleSpec(law="white-noise")
        with pytest.raises(ValueError):
            hn.EnsembleSpec(decay=0.0)

    @pytest.mark.parametrize("law", hn.FIELD_LAWS)
    def test_sampling_reproducible(self, grid2d_small, law):
        ens = small_ensemble(law=law)
        a = hn.sample_field(grid2d_small, ens, 3)
        b = hn.sample_field(grid2d_small, ens, 3)
        assert np.array_equal(a.spectrum, b.spectrum)
        c = hn.sample_field(grid2d_small, ens, 4)
        assert not np.array_equal(a.spectrum, c.spectrum)

    def test_amplitude_normalization(self, grid2d_small):
        ens = small_ensemble(amplitude=0.25)
        f = hn.sample_field(grid2d_small, ens, 0)
        assert sp.lp_norm(f, 2) == pytest.approx(0.25, rel=1e-12)

    def test_grid_doubling_embeds_same_field(self):
        # same (seed, band, M): the doubled grid carries the same coefficients
        coarse = sp.make_grid(2, 4 * math.pi, 64)
        fine = sp.make_grid(2, 4 * math.pi, 128)
        ens = small_ensemble()
        a = hn.sample_field(coarse, ens, 1)
        b = hn.sample_field(fine, ens, 1)
        assert sp.lp_norm(a, 2) == pytest.approx(sp.lp_norm(b, 2), rel=1e-12)
        wa = 1 * coarse.M
        ca, cb = coarse.n // 2, fine.n // 2
        block_a = a.spectrum[ca - wa:ca + wa + 1, ca - wa:ca + wa + 1]
        block_b = b.spectrum[cb - wa:cb + wa + 1, cb - wa:cb + wa + 1]
        assert np.allclose(block_a, block_b, rtol=1e-12, atol=0)


class TestRatioReport:
    def test_statistics(self):
        rep = hn.RatioReport.from_pairs([(1.0, 2.0), (3.0, 2.0), (0.0, 0.0), (1.0, 0.0)])
        assert rep.excluded == 1 and rep.failures == 1
        assert rep.max_ratio == 1.5 and rep.median_ratio == 1.0
        assert rep.flagged  # failure present

    def test_flag_on_outlier(self):
        pairs = [(1.0, 1.0)] * 10 + [(20.0, 1.0)]
        assert hn.RatioReport.from_pairs(pairs).flagged
        assert not hn.RatioReport.from_pairs(pairs, probe=True).flagged

    def test_healthy_not_flagged(self):
        pairs = [(1.0 + 0.01 * i, 2.0) for i in range(10)]
        assert not hn.RatioReport.from_pairs(pairs).flagged


class TestStrichartz:
    def test_homogeneous_single_mode_closed_form(self, grid2d, partition2d):
        # unimodular mode: |W(t)u0| = 1, so the L^p_x norm is constant in
        # time and the whole ratio is computable in closed form
        f = single_mode(grid2d, (2, -1))
        traj = dsp.propagate_trajectory(COEFFS, TIMES, f)
        p, r = 6, 4
        lhs = hn._lebesgue_space_time(traj, p, r)
        L = grid2d.L
        T = TIMES[-1]
        expected = T ** (1.0 / r) * (2 * L) ** (grid2d.d / p)
        assert lhs == pytest.approx(expected, rel=1e-12)
        rhs = sp.lp_norm(f, 2)
        assert rhs == pytest.approx((2 * L) ** (grid2d.d / 2), rel=1e-12)

    def test_homogeneous_ensemble(self, grid2d, partition2d):
        rep = hn.check_homogeneous_strichartz(
            grid2d, COEFFS, small_ensemble(), 6, 4, 1, 0.0, TIMES, partition2d)
        assert not rep["lebesgue"].flagged and not rep["lifted"].flagged
        assert len(rep["lebesgue"].ratio) == 6

    def test_non_admissible_rejected(self, grid2d, partition2d):
        with pytest.raises(HypothesisError):
            hn.check_homogeneous_strichartz(
                grid2d, COEFFS, small_ensemble(), 2, 2, 1, 0.0, TIMES, partition2d)

    def test_non_admissible_probe_allowed(self, grid2d, partition2d):
        rep = hn.check_homogeneous_strichartz(
            grid2d, COEFFS, small_ensemble(count=3), 2, 2, 1, 0.0, TIMES,
            partition2d, probe=True)
        assert rep["lebesgue"].probe and not rep["lebesgue"].flagged

    def test_inhomogeneous_ensemble(self, grid2d, partition2d):
        rep = hn.check_inhomogeneous_strichartz(
            grid2d, COEFFS, small_ensemble(), 6, 4, 2, 1, 1, 0.0, TIMES, partition2d)
        assert not rep["lebesgue"].flagged and not rep["lifted"].flagged

    def test_duhamel_integral_matches_per_sample_reference(self, grid2d):
        forcing = hn.sample_trajectory(grid2d, COEFFS, small_ensemble(), 0, TIMES)
        ref, _ = reference_duhamel(COEFFS, grid2d, TIMES, forcing.spectra)
        got = hn.duhamel_integral(COEFFS, TIMES, forcing)
        assert_rel_close(got.spectra, ref, 1e-13)

    def test_inhomogeneous_separable_closed_form(self, grid2d):
        # forcing g(t) e^{i x xi0}: the Duhamel integral collapses to the
        # scalar prefix integral of g(t) exp(-i phi t), cross-checked here
        f = single_mode(grid2d, (1, 2))
        g_t = 1.0 + 0.5 * np.sin(TIMES)
        stack = np.array([gv * f.spectrum for gv in g_t])
        forcing = sp.Trajectory(grid2d, TIMES, stack)
        integral = hn.duhamel_integral(COEFFS, TIMES, forcing)
        xi0 = np.array([1, 2]) * grid2d.dxi
        phi = dsp.symbol(COEFFS, xi0)
        scalar = np.zeros(len(TIMES), dtype=complex)
        vals = g_t * np.exp(-1j * phi * TIMES)
        for j in range(1, len(TIMES)):
            scalar[j] = scalar[j - 1] + 0.5 * (TIMES[j] - TIMES[j - 1]) * (
                vals[j] + vals[j - 1])
        scalar *= np.exp(1j * phi * TIMES)
        per_t = np.array([sp.lp_norm(integral.field(j), 2) for j in range(len(TIMES))])
        expected = np.abs(scalar) * sp.lp_norm(f, 2)
        assert np.allclose(per_t, expected, rtol=1e-11, atol=1e-14)


class TestHoelder:
    def test_modulation_ensemble(self, grid2d, partition2d):
        rep = hn.check_hoelder_like(
            grid2d, COEFFS, small_ensemble(), 1, 0.0, p_target=2,
            p_factors=(4, 4), partition=partition2d, mode="modulation")
        assert not rep.flagged and rep.max_ratio > 0

    def test_three_factors(self, grid2d, partition2d):
        rep = hn.check_hoelder_like(
            grid2d, COEFFS, small_ensemble(count=4), 1, 0.0, p_target=2,
            p_factors=(6, 6, 6), partition=partition2d, mode="modulation")
        assert not rep.flagged

    def test_planchon_mode(self, grid2d, partition2d):
        rep = hn.check_hoelder_like(
            grid2d, COEFFS, small_ensemble(count=4), 1, 0.0, p_target=2,
            p_factors=(4, 4), r_target=2, r_factors=(4, 4), times=TIMES,
            partition=partition2d, mode="planchon")
        assert not rep.flagged

    def test_unit_factor_reduction(self, grid2d, partition2d):
        # second factor == 1: product equals the first factor, ratio is the
        # embedding constant between M_{2} and M_{4} norms (finite, modest)
        rng = np.random.default_rng(5)
        from conftest import band_limited_field
        f = band_limited_field(grid2d, 1, rng)
        one = sp.SpectralField(grid2d, values=np.ones(grid2d.shape, dtype=complex))
        prod = sp.SpectralField(grid2d, values=f.values * one.values)
        lhs = ms.mod_norm(prod, ms.ModNormSpec(2, 1, 0.0), partition2d).value
        rhs = (ms.mod_norm(f, ms.ModNormSpec(4, 1, 0.0), partition2d).value
               * ms.mod_norm(one, ms.ModNormSpec(4, 1, 0.0), partition2d).value)
        assert lhs < 10 * rhs

    def test_split_mismatch_rejected(self, grid2d, partition2d):
        with pytest.raises(ValueError):
            hn.check_hoelder_like(
                grid2d, COEFFS, small_ensemble(), 1, 0.0, p_target=2,
                p_factors=(4, 5), partition=partition2d, mode="modulation")

    def test_weight_hypothesis_rejected(self, grid2d, partition2d):
        with pytest.raises(HypothesisError):
            hn.check_hoelder_like(
                grid2d, COEFFS, small_ensemble(), 2, 0.0, p_target=2,
                p_factors=(4, 4), partition=partition2d, mode="modulation")

    def test_probe_growth_trend(self, grid2d, partition2d):
        trend = hn.probe_hoelder_growth(grid2d, COEFFS, q=2, s=0.0,
                                        box_counts=(1, 2), partition=partition2d,
                                        count=3)
        assert len(trend) == 2 and all(r > 0 for _, r in trend)


class TestLipschitz:
    def test_ensemble(self, grid2d, partition2d):
        spec = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"), coeff=-1.0)
        exps = nl.LipschitzExponents(s=0.0, q=1, r_tilde=1, p_tilde=2, l=3, m=3)
        ens = small_ensemble(count=4, amplitude=0.5)
        rep = hn.check_power_lipschitz(grid2d, COEFFS, ens, spec, exps,
                                       TIMES, partition2d)
        assert not rep.flagged and len(rep.ratio) == 4

    def test_scalar_oracle(self):
        for m in (1, 2, 3, 4):
            assert hn.scalar_lipschitz_ratio(m) <= m + 1 + 1e-9


class TestEmbeddingsCheck:
    def test_ensemble(self, grid2d, partition2d):
        rep = hn.check_embeddings(grid2d, COEFFS, small_ensemble(count=4),
                                  1, 0.0, r=4, p1=2, p2=6, times=TIMES,
                                  partition=partition2d)
        assert not rep["minkowski"].flagged and not rep["bernstein"].flagged
        # Minkowski holds with constant one at the quadrature level
        assert rep["minkowski"].max_ratio <= 1.0 + 1e-11

    def test_hypothesis_gates(self, grid2d, partition2d):
        with pytest.raises(HypothesisError):
            hn.check_embeddings(grid2d, COEFFS, small_ensemble(count=2),
                                4, 0.0, r=2, p1=2, p2=6, times=TIMES,
                                partition=partition2d)
        with pytest.raises(HypothesisError):
            hn.check_embeddings(grid2d, COEFFS, small_ensemble(count=2),
                                1, 0.0, r=4, p1=6, p2=2, times=TIMES,
                                partition=partition2d)


class TestDeterminism:
    def test_reports_bit_identical(self, grid2d, partition2d):
        ens = small_ensemble(count=4, seed=99)
        a = hn.check_homogeneous_strichartz(grid2d, COEFFS, ens, 6, 4, 1, 0.0,
                                            TIMES, partition2d)
        b = hn.check_homogeneous_strichartz(grid2d, COEFFS, ens, 6, 4, 1, 0.0,
                                            TIMES, partition2d)
        assert a["lebesgue"].ratio == b["lebesgue"].ratio
        assert a["lifted"].ratio == b["lifted"].ratio

    def test_threaded_matches_serial(self, grid2d, partition2d):
        ens = small_ensemble(count=4, seed=7)
        a = hn.check_embeddings(grid2d, COEFFS, ens, 1, 0.0, r=4, p1=2, p2=6,
                                times=TIMES, partition=partition2d, threads=1)
        b = hn.check_embeddings(grid2d, COEFFS, ens, 1, 0.0, r=4, p1=2, p2=6,
                                times=TIMES, partition=partition2d, threads=2)
        assert a["minkowski"].ratio == b["minkowski"].ratio


class TestStackPasses:
    def test_lebesgue_side_matches_per_sample_lp_norm(self, grid2d, partition2d):
        ens = small_ensemble(count=2)
        rep = hn.check_homogeneous_strichartz(grid2d, COEFFS, ens, 6, 4, 1, 0.0, TIMES,
                                              partition2d)["lebesgue"]
        for i, lhs in enumerate(rep.lhs):
            traj = dsp.propagate_trajectory(COEFFS, TIMES, hn.sample_field(grid2d, ens, i))
            per_t = [sp.lp_norm(traj.field(j), 6) for j in range(traj.n_samples)]
            assert lhs == pytest.approx(sp.time_lp_norm(per_t, TIMES, 4), rel=1e-13)

    @pytest.mark.parametrize("p", [2, 6, 3])  # Plancherel, support-sized, full grid
    def test_lebesgue_side_rejects_nan(self, grid2d, p):
        traj = hn.sample_trajectory(grid2d, COEFFS, small_ensemble(count=1), 0, TIMES)
        spectra = traj.spectra.copy()
        spectra[4, 64, 62] = np.nan
        traj = sp.Trajectory(grid2d, TIMES, spectra, support=traj.support)
        with pytest.raises(ValueError, match="NaN values in field"):
            hn._lebesgue_space_time(traj, p, 4)

    def test_modulation_product_matches_values_product(self, grid2d, partition2d):
        ens = small_ensemble(count=2)
        rep = hn.check_hoelder_like(grid2d, COEFFS, ens, 1, 0.0, p_target=2,
                                    p_factors=(4, 4), partition=partition2d)
        spec = ms.ModNormSpec(p=2, q=1, s=0.0)
        for i, lhs in enumerate(rep.lhs):
            a, b = (hn.sample_field(grid2d, ens, 2 * i + j) for j in range(2))
            prod = sp.SpectralField(grid2d, values=a.values * b.values)
            assert lhs == pytest.approx(ms.mod_norm(prod, spec, partition2d).value, rel=1e-13)

    @pytest.mark.parametrize("p_factors", [(4, 4), (6, 6, 6)])
    def test_planchon_product_matches_per_sample_product(self, grid2d, partition2d,
                                                         p_factors):
        ens = small_ensemble(count=2)
        rep = hn.check_hoelder_like(
            grid2d, COEFFS, ens, 1, 0.0, p_target=2, p_factors=p_factors, r_target=2,
            r_factors=p_factors, times=TIMES, partition=partition2d, mode="planchon")
        spec = ms.PlanchonNormSpec(s=0.0, q=1, r=2, p=2)
        k = len(p_factors)
        for i, lhs in enumerate(rep.lhs):
            trajs = [hn.sample_trajectory(grid2d, COEFFS, ens, i * k + j, TIMES)
                     for j in range(k)]
            stack = np.empty_like(trajs[0].spectra)
            for jt in range(TIMES.size):
                vals = trajs[0].values(jt)
                for tr in trajs[1:]:
                    vals = vals * tr.values(jt)
                stack[jt] = sp.SpectralField(grid2d, values=vals).spectrum
            prod = sp.Trajectory(grid2d, TIMES, stack)
            expected = ms.planchon_norm(prod, spec, partition2d).value
            assert lhs == pytest.approx(expected, rel=1e-13)
