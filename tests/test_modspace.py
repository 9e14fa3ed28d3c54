import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st

from modnls import dispersion as dsp, modspace as ms, spectral as sp

from conftest import band_limited_field, frequency_mesh, sigma_table, single_mode


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
        mesh = frequency_mesh(grid2d)
        dist = np.sqrt(sum(x * x for x in mesh))
        outside = dist > math.sqrt(grid2d.d)
        assert np.all(table[outside] == 0.0)

    def test_nyquist_overflow_rejected(self, grid1d, grid2d_small):
        with pytest.raises(ValueError):
            ms.build_partition(ms.PartitionSpec("trigonometric-window", 4), grid2d_small)
        # the boundary n >= 2M(2 k_max + 2): M = 16, n = 512 holds k_max = 7, not 8
        assert (grid1d.d, grid1d.M, grid1d.n) == (1, 16, 512)
        ms.build_partition(ms.PartitionSpec("trigonometric-window", 7), grid1d)
        with pytest.raises(ValueError, match="Nyquist overflow"):
            ms.build_partition(ms.PartitionSpec("trigonometric-window", 8), grid1d)


class TestBoxOperator:
    def test_disjoint_support_annihilates(self, grid1d, partition1d):
        f = single_mode(grid1d, (5 * grid1d.M,))  # xi0 = 5
        out = ms.box(partition1d, (0,), f)
        assert sp.lp_norm(out, math.inf) <= 1e-12

    def test_reconstruction_band_limited(self, grid2d, partition2d):
        rng = np.random.default_rng(0)
        f = band_limited_field(grid2d, partition2d.k_max - 1, rng)
        acc = sum(ms.box(partition2d, k, f).values for k in partition2d.boxes)
        rel = sp.lp_norm(sp.SpectralField(grid2d, values=acc - f.values), 2) / sp.lp_norm(f, 2)
        assert rel <= 1e-10

    def test_single_mode_multiplier_weight(self, grid1d, partition1d):
        # mode strictly inside Q_1 at xi0 = 1 + 3/16
        idx = grid1d.M + 3
        f = single_mode(grid1d, (idx,))
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
        zero = sp.SpectralField.zero(grid2d)
        res = ms.mod_norm(zero, ms.ModNormSpec(), partition2d)
        assert res.value == 0.0 and ms.truncation_residual(zero, partition2d) == 0.0

    def test_single_mode_partition_sum(self, grid2d, partition2d):
        # (p,q,s) = (2,1,0): sum_k sigma_k(xi0) ||e^{i x xi0}||_2 = ||f||_2
        f = single_mode(grid2d, (grid2d.M + 2, -3))
        res = ms.mod_norm(f, ms.ModNormSpec(2, 1, 0.0), partition2d)
        assert res.value == pytest.approx(sp.lp_norm(f, 2), rel=1e-12)

    def test_single_mode_box_weight(self, grid2d, partition2d):
        # a mode at the center of Q_k lies in no other box: the norm is <k>^s ||f||_2
        k = (2, -1)
        f = single_mode(grid2d, (k[0] * grid2d.M, k[1] * grid2d.M))
        res = ms.mod_norm(f, ms.ModNormSpec(2, 1, 1.5), partition2d)
        assert res.value == pytest.approx(6.0**0.75 * sp.lp_norm(f, 2), rel=1e-12)

    def test_homogeneity(self, grid2d, partition2d):
        rng = np.random.default_rng(2)
        f = band_limited_field(grid2d, 2, rng)
        spec = ms.ModNormSpec(4, 2, 0.7)
        a = ms.mod_norm(sp.SpectralField(grid2d, values=3j * f.values), spec, partition2d).value
        b = 3 * ms.mod_norm(f, spec, partition2d).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_truncation_residual_reported(self, grid2d, partition2d):
        f = single_mode(grid2d, ((partition2d.k_max + 2) * grid2d.M, 0))
        assert ms.truncation_residual(f, partition2d) == pytest.approx(sp.lp_norm(f, 2),
                                                                     rel=1e-12)

    def test_truncation_residual_of_stack_is_sample_max(self, grid2d, partition2d):
        # a sampled flow of a field reaching past the boxes, plus one zero sample
        rng = np.random.default_rng(12)
        f = band_limited_field(grid2d, partition2d.k_max + 1, rng)
        traj = dsp.propagate_trajectory(dsp.EquationCoeffs(1.0, 0.0, 1.0),
                                        np.linspace(0.0, 1.0, 5), f)
        traj.box[3] *= 3.0
        traj.box[1] = 0.0
        per_sample = [ms.truncation_residual(traj.field(j), partition2d) for j in range(5)]
        assert per_sample[1] == 0.0 and per_sample[3] > 0.0
        assert ms.truncation_residual(traj, partition2d) == max(per_sample)

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
            fast = ms._BoxNormEngine(part, "fast").series(stacks, p, grid.n // 2)
            ref = ms._BoxNormEngine(part, "reference").series(stacks, p, grid.n // 2)
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
        fast = ms._BoxNormEngine(part, "fast").series(spectra, p, grid.n // 2)
        ref = ms._BoxNormEngine(part, "reference").series(spectra, p, grid.n // 2)
        _assert_tables_close(fast, ref)
        live = {part.boxes[i] for i in np.flatnonzero(fast.any(axis=1))}
        assert {(K, -K), (-K, K)} <= live

    @pytest.mark.parametrize("p", P_VALUES)
    def test_zero_and_partly_zero_stacks(self, p):
        grid, part = _engine_grid(2)
        rng = np.random.default_rng(50)
        zero = np.zeros((3,) + grid.shape, dtype=complex)
        fast = ms._BoxNormEngine(part, "fast").series(zero, p, grid.n // 2)
        assert fast.shape == (len(part.boxes), 3) and not fast.any()
        stack = _random_stack(grid, 3, rng, grid.M)
        stack[1] = 0.0
        other = stack.copy()
        other[2] += _random_stack(grid, 1, rng, grid.M)[0]
        for stacks in (stack, (stack, other)):
            fast = ms._BoxNormEngine(part, "fast").series(stacks, p, grid.n // 2)
            ref = ms._BoxNormEngine(part, "reference").series(stacks, p, grid.n // 2)
            _assert_tables_close(fast, ref)
        pair = ms._BoxNormEngine(part, "fast").series((stack, other), p, grid.n // 2)
        assert not pair[:, :2].any() and pair[:, 2].any()

    def test_even_p_beyond_the_grid_takes_the_full_grid(self):
        """p * M = n: R = p*(M-1) + 1 points would not be fewer than n, so
        the pruned DFT synthesizes on R = n points, the defining n-point
        sum, and matches the reference."""
        grid, part = _engine_grid(2)
        rng = np.random.default_rng(60)
        stack = _random_stack(grid, 1, rng, grid.M)
        p = grid.n // grid.M  # p * M = n: the reduced grid would not be smaller
        fast = ms._BoxNormEngine(part, "fast").series(stack, p, grid.n // 2)
        ref = ms._BoxNormEngine(part, "reference").series(stack, p, grid.n // 2)
        _assert_tables_close(fast, ref)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fast_method_makes_no_full_grid_pass(self, d, monkeypatch):
        """method="fast" synthesizes every p but 2 in the pruned DFT: neither
        the box-by-box full grid nor the full-grid transform is reached."""
        grid, part = _engine_grid(d)
        stack = _random_stack(grid, 1, np.random.default_rng(90 + d), grid.M // 2)

        def refuse(*args, **kwargs):
            raise AssertionError("the fast method reached a full-grid pass")

        monkeypatch.setattr(ms._BoxNormEngine, "_full_grid", refuse)
        monkeypatch.setattr(sp, "_physical_chunks", refuse)
        monkeypatch.setattr(ms, "_physical_chunks", refuse)
        for p in (3, Fraction(9, 2), math.inf, grid.n // grid.M):
            table = ms._BoxNormEngine(part, "fast").series(stack, p, grid.n // 2)
            assert table.shape == (len(part.boxes), 1) and table.any()

    def test_n_point_synthesis_keeps_its_working_set_bounded(self):
        """d = 3, R = n = 64: one box of one sample is 4 MiB of synthesized
        points and a row of 25 boxes 100 MiB. Chunked box by box, one call on
        a sample that fills every box peaks below 16 MiB."""
        grid, part = _engine_grid(3)
        stack = _random_stack(grid, 1, np.random.default_rng(100), part.footprint)
        engine = ms._BoxNormEngine(part, "fast")
        tracemalloc.start()
        try:
            table = engine.series(stack, 3, grid.n // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.all()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("method", ["fast", "reference"])
    @pytest.mark.parametrize("x", [0, -2, Fraction(1, 2), math.nan])
    def test_exponents_outside_one_to_inf_rejected(self, x, method):
        grid, part = _engine_grid(1)
        stack = _random_stack(grid, 1, np.random.default_rng(110), grid.M)
        with pytest.raises(ValueError, match=r"^p must be in \[1, inf\], got "):
            ms._BoxNormEngine(part, method).series(stack, x, grid.n // 2)
        f = sp.SpectralField(grid, spectrum=stack[0])
        with pytest.raises(ValueError, match=r"^q must be in \[1, inf\], got "):
            ms.mod_norm(f, ms.ModNormSpec(2, x, 0.0), part, method)

    @settings(max_examples=25, deadline=None)
    @given(d=st.sampled_from([1, 2]), k_max=st.sampled_from([2, 3]),
           samples=st.integers(1, 3), p=st.sampled_from([2, 3, 6, math.inf]),
           method=st.sampled_from(["fast", "reference"]), seed=st.integers(0, 2**16))
    def test_footprint_crop_gives_the_same_tables(self, d, k_max, samples, p, method, seed):
        """The tables read nothing beyond Partition.footprint: a random stack
        filling the grid and its crop to the footprint, box-stored as
        scattering keeps its prefix, give the same tables bit for bit."""
        grid = sp.make_grid(d, 4 * math.pi, 64)
        part = ms.build_partition(ms.PartitionSpec("trigonometric-window", k_max), grid)
        rng = np.random.default_rng(seed)
        shape = (samples,) + grid.shape
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        crop = sp._rebox(stack, d, 2 * part.footprint + 1)
        engine = ms._BoxNormEngine(part, method)
        assert np.array_equal(engine.series(crop, p, part.footprint),
                              engine.series(stack, p, grid.n // 2))

    def test_plancherel_pass_equals_box_operator(self, grid2d, partition2d):
        rng = np.random.default_rng(70)
        f = band_limited_field(grid2d, partition2d.k_max, rng)
        table = ms._BoxNormEngine(partition2d, "fast").series(f.spectrum[None], 2, grid2d.n // 2)
        per_box = [sp.lp_norm(ms.box(partition2d, k, f), 2) for k in partition2d.boxes]
        np.testing.assert_allclose(table[:, 0], per_box, rtol=1e-12, atol=0.0)


class TestBoxWindows:
    """The strided view of the box windows reads what the sliding-window view
    stepped by M reads, bit for bit, wherever the input's strides point."""

    @pytest.mark.parametrize("layout", ["contiguous", "cropped", "stepped", "reversed"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_stepped_sliding_window_view(self, d, layout):
        M = 3
        rng = np.random.default_rng(d)
        # 5M + 1 points hold 4 boxes; 5M + 2 and 5M leave a point over or short
        points = (5 * M + 1, 5 * M + 2, 5 * M)[:d]
        big = rng.standard_normal((2,) + tuple(2 * P + 3 for P in points)) \
            + 1j * rng.standard_normal((2,) + tuple(2 * P + 3 for P in points))
        x = {
            "contiguous": np.ascontiguousarray(big[(slice(None),) + tuple(
                slice(0, P) for P in points)]),
            "cropped": big[(slice(None),) + tuple(slice(2, 2 + P) for P in points)],
            "stepped": big[(slice(None),) + tuple(slice(1, 1 + 2 * P, 2) for P in points)],
            "reversed": big[(slice(None),) + tuple(slice(P - 1, None, -1) for P in points)],
        }[layout]
        assert x.shape == (2,) + points
        for axis in range(1, d + 1):
            got = ms._box_windows(x, M, axis)
            want = sliding_window_view(x, 2 * M + 1, axis=axis)[
                (slice(None),) * axis + (slice(None, None, M),)]
            assert got.shape == want.shape and np.array_equal(got, want)
            assert np.shares_memory(got, x) and not got.flags.writeable


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

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_fast_matches_reference(self, grid2d, partition2d, p):
        rng = np.random.default_rng(82)
        stack = _random_stack(grid2d, 3, rng, 2 * grid2d.M)
        other = _random_stack(grid2d, 3, rng, 2 * grid2d.M)
        spec = ms.ModNormSpec(p, 1, 0.5)
        for stacks in (stack, (stack, other)):
            fast = ms.mod_norm_series(stacks, spec, partition2d)
            ref = ms.mod_norm_series(stacks, spec, partition2d, method="reference")
            np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=0.0)

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
