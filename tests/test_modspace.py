import math
from fractions import Fraction

import numpy as np
import pytest

from modnls import dispersion as dsp, modspace as ms, spectral as sp

from conftest import band_limited_field, sigma_table


class TestPartition:
    def test_kinds_validate(self):
        with pytest.raises(ValueError):
            ms.PartitionSpec(kind="boxcar")
        with pytest.raises(ValueError):
            ms.PartitionSpec(k_max=1)

    @pytest.mark.parametrize("kind", ms.PARTITION_KINDS)
    def test_partition_of_unity_on_lattice(self, grid1d, kind):
        part = ms.build_partition(ms.PartitionSpec(kind, 7), grid1d)
        # direct summation of all retained sigma_k over the inner lattice
        total = np.zeros(grid1d.n)
        for k in part.boxes:
            total += sigma_table(part, k)
        xi = grid1d.axis_frequencies()
        inner = np.abs(xi) <= part.k_max - 1
        assert np.max(np.abs(total[inner] - 1.0)) <= 1e-12
        assert part.pou_residual <= 1e-12

    @pytest.mark.parametrize("kind", ms.PARTITION_KINDS)
    def test_center_value_and_lower_bound(self, grid2d, kind):
        part = ms.build_partition(ms.PartitionSpec(kind, 5), grid2d)
        table = sigma_table(part, (2, -1))
        center = (grid2d.n // 2 + 2 * grid2d.M, grid2d.n // 2 - 1 * grid2d.M)
        assert table[center] >= 0.5  # sigma_k(k) is actually 1 for both kinds
        # recorded C: minimum over the closed box Q_k on the lattice
        assert part.achieved_C == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("kind", ms.PARTITION_KINDS)
    def test_support_inside_ball(self, grid2d, kind):
        part = ms.build_partition(ms.PartitionSpec(kind, 5), grid2d)
        table = sigma_table(part, (0, 0))
        mesh = grid2d.frequency_mesh()
        dist = np.sqrt(sum(x * x for x in mesh))
        outside = dist > math.sqrt(grid2d.d)
        assert np.all(table[outside] == 0.0)

    def test_nyquist_overflow_rejected(self, grid2d_small):
        with pytest.raises(ValueError):
            ms.build_partition(ms.PartitionSpec("trigonometric-window", 4), grid2d_small)


class TestBoxOperator:
    def test_disjoint_support_annihilates(self, grid1d, partition1d):
        f = sp.SpectralField.single_mode(grid1d, (5 * grid1d.M,))  # xi0 = 5
        out = ms.box(partition1d, (0,), f)
        assert sp.lp_norm(out, math.inf) <= 1e-12

    def test_reconstruction_band_limited(self, grid2d, partition2d):
        rng = np.random.default_rng(0)
        f = band_limited_field(grid2d, partition2d.k_max - 1, rng)
        acc = sp.SpectralField.zero(grid2d)
        for k in partition2d.boxes:
            acc = sp.axpy(1.0, ms.box(partition2d, k, f), acc)
        rel = sp.lp_norm(acc - f, 2) / sp.lp_norm(f, 2)
        assert rel <= 1e-10

    def test_single_mode_multiplier_weight(self, grid1d, partition1d):
        # mode strictly inside Q_1 at xi0 = 1 + 3/16
        idx = grid1d.M + 3
        f = sp.SpectralField.single_mode(grid1d, (idx,))
        w = partition1d.window_1d[grid1d.M + 3]  # offset 3/16 from the center
        out = ms.box(partition1d, (1,), f)
        assert np.max(np.abs(out.values - w * f.values)) < 1e-13

    def test_out_of_range_k(self, grid1d, partition1d):
        f = sp.SpectralField.zero(grid1d)
        with pytest.raises(ValueError):
            ms.box(partition1d, (partition1d.k_max + 1,), f)

    def test_almost_orthogonality(self, grid2d, partition2d):
        # spec threshold: box_k box_l = 0 once |k - l|_inf > ceil(2 sqrt(d));
        # the shipped tensor windows vanish already for |k - l|_inf >= 2
        rng = np.random.default_rng(1)
        f = band_limited_field(grid2d, 2, rng)
        gap = math.ceil(2 * math.sqrt(grid2d.d))
        k, l = (0, 0), (gap + 1, 0)
        out = ms.box(partition2d, k, ms.box(partition2d, l, f))
        assert sp.lp_norm(out, 2) == 0.0


class TestModNorm:
    def test_zero(self, grid2d, partition2d):
        res = ms.mod_norm(sp.SpectralField.zero(grid2d), ms.ModNormSpec(), partition2d)
        assert res.value == 0.0 and res.truncation_residual == 0.0

    def test_single_mode_partition_sum(self, grid2d, partition2d):
        # (p,q,s) = (2,1,0): sum_k sigma_k(xi0) ||e^{i x xi0}||_2 = ||f||_2
        f = sp.SpectralField.single_mode(grid2d, (grid2d.M + 2, -3))
        res = ms.mod_norm(f, ms.ModNormSpec(2, 1, 0.0), partition2d)
        assert res.value == pytest.approx(sp.lp_norm(f, 2), rel=1e-12)

    def test_single_mode_box_weight(self, grid2d, partition2d):
        # a mode at the center of Q_k lies in no other box: the norm is <k>^s ||f||_2
        k = (2, -1)
        f = sp.SpectralField.single_mode(grid2d, (k[0] * grid2d.M, k[1] * grid2d.M))
        res = ms.mod_norm(f, ms.ModNormSpec(2, 1, 1.5), partition2d)
        assert res.value == pytest.approx(6.0**0.75 * sp.lp_norm(f, 2), rel=1e-12)

    def test_homogeneity(self, grid2d, partition2d):
        rng = np.random.default_rng(2)
        f = band_limited_field(grid2d, 2, rng)
        spec = ms.ModNormSpec(4, 2, 0.7)
        a = ms.mod_norm(3j * f, spec, partition2d).value
        b = 3 * ms.mod_norm(f, spec, partition2d).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_truncation_residual_reported(self, grid2d, partition2d):
        f = sp.SpectralField.single_mode(grid2d, ((partition2d.k_max + 2) * grid2d.M, 0))
        res = ms.mod_norm(f, ms.ModNormSpec(), partition2d)
        assert res.truncation_residual == pytest.approx(sp.lp_norm(f, 2), rel=1e-12)

    def test_weight_monotonicity_in_s(self, grid2d, partition2d):
        rng = np.random.default_rng(3)
        f = band_limited_field(grid2d, 2, rng)
        vals = [ms.mod_norm(f, ms.ModNormSpec(2, 2, s), partition2d).value
                for s in (-1.0, 0.0, 1.0, 2.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_aggregation_monotonicity_in_q(self, grid2d, partition2d):
        rng = np.random.default_rng(4)
        f = band_limited_field(grid2d, 2, rng)
        vals = [ms.mod_norm(f, ms.ModNormSpec(2, q, 0.5), partition2d).value
                for q in (1, 2, 4, math.inf)]
        assert all(a >= b * (1 - 1e-12) for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [2, 4, 6, 3, math.inf])
    def test_fast_matches_reference(self, grid2d, partition2d, p):
        rng = np.random.default_rng(5)
        f = band_limited_field(grid2d, 2, rng)
        spec = ms.ModNormSpec(p, 1, 0.5)
        fast = ms.mod_norm(f, spec, partition2d, method="fast").value
        ref = ms.mod_norm(f, spec, partition2d, method="reference").value
        assert fast == pytest.approx(ref, rel=1e-12)


def _envelope_trajectory(grid, f, times, envelope):
    stack = np.array([g * f.spectrum for g in envelope])
    return sp.Trajectory(grid, times, stack)


class TestPlanchonNorm:
    def test_zero(self, grid2d, partition2d):
        times = np.linspace(0, 1, 5)
        traj = sp.Trajectory(grid2d, times,
                             np.zeros((5,) + grid2d.shape, dtype=complex))
        assert ms.planchon_norm(traj, ms.PlanchonNormSpec(), partition2d).value == 0.0

    def test_stationary_reduces_to_mod_norm(self, grid2d, partition2d):
        rng = np.random.default_rng(6)
        f = band_limited_field(grid2d, 2, rng)
        times = np.linspace(0, 2, 9)
        traj = _envelope_trajectory(grid2d, f, times, np.ones(9))
        spec = ms.PlanchonNormSpec(s=0.5, q=1, r=math.inf, p=4)
        a = ms.planchon_norm(traj, spec, partition2d).value
        b = ms.mod_norm(f, ms.ModNormSpec(4, 1, 0.5), partition2d).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_separable_factorization(self, grid2d, partition2d):
        rng = np.random.default_rng(7)
        f = band_limited_field(grid2d, 2, rng)
        times = np.linspace(0, 1, 101)
        env = 1.0 + 0.5 * np.sin(2 * np.pi * times)
        traj = _envelope_trajectory(grid2d, f, times, env)
        spec = ms.PlanchonNormSpec(s=0.3, q=2, r=3, p=4)
        lhs = ms.planchon_norm(traj, spec, partition2d).value
        rhs = sp.time_lp_norm(env, times, 3) * ms.mod_norm(
            f, ms.ModNormSpec(4, 2, 0.3), partition2d).value
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestXNorm:
    def test_zero(self, grid2d, partition2d):
        times = np.linspace(0, 1, 3)
        traj = sp.Trajectory(grid2d, times,
                             np.zeros((3,) + grid2d.shape, dtype=complex))
        assert ms.x_norm(traj, 0.0, 1, 4, 6, partition2d).value == 0.0

    def test_stationary_double_mod_norm(self, grid2d, partition2d):
        rng = np.random.default_rng(8)
        f = band_limited_field(grid2d, 2, rng)
        times = np.linspace(0, 1, 5)
        traj = _envelope_trajectory(grid2d, f, times, np.ones(5))
        res = ms.x_norm(traj, 0.5, 1, math.inf, 2, partition2d)
        m = ms.mod_norm(f, ms.ModNormSpec(2, 1, 0.5), partition2d).value
        assert res.value == pytest.approx(2 * m, rel=1e-12)
        assert res.part_l2 == pytest.approx(m, rel=1e-12)

    def test_amplitude_homogeneity(self, grid2d, partition2d):
        rng = np.random.default_rng(9)
        f = band_limited_field(grid2d, 2, rng)
        times = np.linspace(0, 1, 5)
        env = 1.0 + 0.2 * np.cos(times)
        traj = _envelope_trajectory(grid2d, f, times, env)
        traj2 = _envelope_trajectory(grid2d, f, times, 2.0 * env)
        a = ms.x_norm(traj, 0.0, 1, 4, 6, partition2d).value
        b = ms.x_norm(traj2, 0.0, 1, 4, 6, partition2d).value
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_diff_matches_materialized_difference(self, grid2d, partition2d):
        rng = np.random.default_rng(10)
        f = band_limited_field(grid2d, 2, rng)
        g = band_limited_field(grid2d, 2, rng)
        times = np.linspace(0, 1, 5)
        tf = _envelope_trajectory(grid2d, f, times, np.ones(5))
        tg = _envelope_trajectory(grid2d, g, times, 1 + 0.1 * times)
        diff = sp.Trajectory(grid2d, times, tf.spectra - tg.spectra)
        a = ms.x_norm_diff(tf, tg, 0.0, 1, 4, 6, partition2d).value
        b = ms.x_norm(diff, 0.0, 1, 4, 6, partition2d).value
        assert a == pytest.approx(b, rel=1e-12)


class TestNormEquivalence:
    def test_two_partitions_bounded_ratio(self, grid2d, partition2d, partition2d_bump):
        rng = np.random.default_rng(11)
        spec = ms.ModNormSpec(2, 1, 0.5)
        ratios = []
        for _ in range(40):
            f = band_limited_field(grid2d, partition2d.k_max - 1, rng)
            a = ms.mod_norm(f, spec, partition2d).value
            b = ms.mod_norm(f, spec, partition2d_bump).value
            ratios.append(a / b)
        c_star = max(max(ratios), 1.0 / min(ratios))
        assert 1.0 <= c_star < 2.0  # finite, modest equivalence constant
        assert all(1.0 / c_star <= r <= c_star for r in ratios)


class TestEmbeddings:
    def test_minkowski_time_exchange(self, grid2d, partition2d):
        # q <= r: time-L^r of the modulation norm is dominated by the
        # Planchon norm (discrete Minkowski, exact at quadrature level)
        rng = np.random.default_rng(12)
        coeffs = dsp.EquationCoeffs(1.0, 0.0, 1.0)
        times = np.linspace(0, 2, 17)
        for q, r in ((1, 2), (2, 4), (1, math.inf)):
            f = band_limited_field(grid2d, 2, rng)
            traj = dsp.propagate_trajectory(coeffs, times, f)
            per_t = np.array([
                ms.mod_norm(traj.field(j), ms.ModNormSpec(4, q, 0.2), partition2d).value
                for j in range(traj.n_samples)
            ])
            lhs = sp.time_lp_norm(per_t, times, r)
            rhs = ms.planchon_norm(traj, ms.PlanchonNormSpec(0.2, q, r, 4),
                                   partition2d).value
            assert lhs <= rhs * (1 + 1e-11)

    def test_bernstein_ratio_finite(self, grid2d, partition2d):
        rng = np.random.default_rng(13)
        coeffs = dsp.EquationCoeffs(1.0, 0.0, 1.0)
        times = np.linspace(0, 2, 9)
        ratios = []
        for _ in range(20):
            f = band_limited_field(grid2d, 2, rng)
            traj = dsp.propagate_trajectory(coeffs, times, f)
            hi = ms.planchon_norm(traj, ms.PlanchonNormSpec(0.0, 1, 4, 6),
                                  partition2d).value
            lo = ms.planchon_norm(traj, ms.PlanchonNormSpec(0.0, 1, 4, 2),
                                  partition2d).value
            ratios.append(hi / lo)
        assert max(ratios) <= 10 * float(np.median(ratios))


P_VALUES = [2, 4, 6, 3, Fraction(9, 2), math.inf]


def _engine_grid(d):
    grid = sp.make_grid(d, 4 * math.pi, 64)
    return grid, ms.build_partition(ms.PartitionSpec("trigonometric-window", 2), grid)


def _random_stack(grid, T, rng, band_points):
    """T random spectra supported in |xi_index|_inf <= band_points."""
    c, w = grid.n // 2, band_points
    spectra = np.zeros((T,) + grid.shape, dtype=complex)
    shape = (T,) + (2 * w + 1,) * grid.d
    spectra[(slice(None),) + (slice(c - w, c + w + 1),) * grid.d] = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return spectra


def _assert_tables_close(fast, ref):
    scale = max(float(np.max(ref)), 1e-300)
    assert fast.shape == ref.shape
    assert np.max(np.abs(fast - ref)) <= 1e-12 * scale


class TestEngine:
    """The all-box fast path against the full-grid reference, box by box."""

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stack_and_pair_tables(self, d, p):
        grid, part = _engine_grid(d)
        rng = np.random.default_rng(20 + d)
        # d = 3 keeps the data near the origin so the reference stays cheap
        band = grid.M // 2 if d == 3 else 2 * grid.M
        a = _random_stack(grid, 2, rng, band)
        b = _random_stack(grid, 2, rng, band)
        for stacks in (a, (a, b)):
            fast = ms._BoxNormEngine(part, "fast").series(stacks, p)
            ref = ms._BoxNormEngine(part, "reference").series(stacks, p)
            assert fast.shape == (len(part.boxes), 2)
            _assert_tables_close(fast, ref)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_public_norms_match_reference(self, p):
        grid, part = _engine_grid(2)
        rng = np.random.default_rng(30)
        times = np.linspace(0.0, 1.0, 3)
        u = sp.Trajectory(grid, times, _random_stack(grid, 3, rng, 2 * grid.M))
        v = sp.Trajectory(grid, times, _random_stack(grid, 3, rng, 2 * grid.M))
        calls = [
            lambda m: ms.mod_norm(u.field(1), ms.ModNormSpec(p, 2, 0.5), part, m),
            lambda m: ms.planchon_norm(u, ms.PlanchonNormSpec(0.5, 1, 4, p), part, m),
            lambda m: ms.x_norm(u, 0.0, 1, 4, p, part, m),
            lambda m: ms.x_norm_diff(u, v, 0.3, 2, math.inf, p, part, m),
        ]
        for call in calls:
            fast, ref = call("fast"), call("reference")
            assert fast.value == pytest.approx(ref.value, rel=1e-12)
            assert fast.truncation_residual == pytest.approx(ref.truncation_residual,
                                                             rel=1e-12)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_edge_boxes(self, p):
        grid, part = _engine_grid(2)
        K, M, c = part.k_max, grid.M, grid.n // 2
        rng = np.random.default_rng(40)
        spectra = np.zeros((2,) + grid.shape, dtype=complex)
        # blocks inside the corner boxes k = (K, -K) and (-K, K) only
        for k1, k2 in ((K, -K), (-K, K)):
            sl = (slice(c + k1 * M - 2, c + k1 * M + 3), slice(c + k2 * M - 2, c + k2 * M + 3))
            spectra[(slice(None),) + sl] = rng.standard_normal((2, 5, 5)) + 1j
        fast = ms._BoxNormEngine(part, "fast").series(spectra, p)
        ref = ms._BoxNormEngine(part, "reference").series(spectra, p)
        _assert_tables_close(fast, ref)
        live = {part.boxes[i] for i in np.flatnonzero(fast.any(axis=1))}
        assert {(K, -K), (-K, K)} <= live

    @pytest.mark.parametrize("p", P_VALUES)
    def test_zero_and_partly_zero_stacks(self, p):
        grid, part = _engine_grid(2)
        rng = np.random.default_rng(50)
        zero = np.zeros((3,) + grid.shape, dtype=complex)
        fast = ms._BoxNormEngine(part, "fast").series(zero, p)
        assert fast.shape == (len(part.boxes), 3) and not fast.any()
        stack = _random_stack(grid, 3, rng, grid.M)
        stack[1] = 0.0
        other = stack.copy()
        other[2] += _random_stack(grid, 1, rng, grid.M)[0]
        for stacks in (stack, (stack, other)):
            fast = ms._BoxNormEngine(part, "fast").series(stacks, p)
            ref = ms._BoxNormEngine(part, "reference").series(stacks, p)
            _assert_tables_close(fast, ref)
        pair = ms._BoxNormEngine(part, "fast").series((stack, other), p)
        assert not pair[:, :2].any() and pair[:, 2].any()

    def test_even_p_beyond_the_grid_takes_the_full_grid(self):
        grid, part = _engine_grid(2)
        rng = np.random.default_rng(60)
        stack = _random_stack(grid, 1, rng, grid.M)
        p = grid.n // grid.M  # p * M = n: the reduced grid would not be smaller
        fast = ms._BoxNormEngine(part, "fast").series(stack, p)
        ref = ms._BoxNormEngine(part, "reference").series(stack, p)
        _assert_tables_close(fast, ref)

    def test_plancherel_pass_equals_box_operator(self, grid2d, partition2d):
        rng = np.random.default_rng(70)
        f = band_limited_field(grid2d, partition2d.k_max, rng)
        table = ms._BoxNormEngine(partition2d, "fast").series(f.spectrum[None], 2)
        per_box = [sp.lp_norm(ms.box(partition2d, k, f), 2) for k in partition2d.boxes]
        np.testing.assert_allclose(table[:, 0], per_box, rtol=1e-12, atol=0.0)


class TestModNormSeries:
    @pytest.mark.parametrize("spec", [ms.ModNormSpec(2, 1, 0.0), ms.ModNormSpec(6, 2, 0.5),
                                      ms.ModNormSpec(3, math.inf, 1.0)])
    def test_series_equals_per_sample_mod_norm(self, grid2d, partition2d, spec):
        rng = np.random.default_rng(80)
        coeffs = dsp.EquationCoeffs(1.0, 0.0, 1.0)
        f = band_limited_field(grid2d, 2, rng)
        traj = dsp.propagate_trajectory(coeffs, np.linspace(0, 1, 5), f)
        series = ms.mod_norm_series(traj, spec, partition2d)
        expected = [ms.mod_norm(traj.field(j), spec, partition2d).value
                    for j in range(traj.n_samples)]
        np.testing.assert_allclose(series, expected, rtol=1e-12, atol=0.0)

    def test_pair_with_broadcast_operand(self, grid2d, partition2d):
        rng = np.random.default_rng(81)
        stack = _random_stack(grid2d, 4, rng, grid2d.M)
        spec = ms.ModNormSpec(4, 1, 0.0)
        series = ms.mod_norm_series((np.broadcast_to(stack[-1], stack.shape), stack),
                                    spec, partition2d)
        expected = [ms.mod_norm(sp.SpectralField(grid2d, spectrum=stack[-1] - stack[j]),
                                spec, partition2d).value for j in range(4)]
        np.testing.assert_allclose(series, expected, rtol=1e-12, atol=0.0)
        assert series[-1] == 0.0
