"""The support bound a Trajectory carries, and the box it stores.

Every producer emits exact zeros beyond the support W it declares, and
every consumer given W matches its result without it: bitwise where the
arithmetic is unchanged (the pass to physical space, the even-p sums, the
Duhamel prefix sum, the pruned DFT), to 1e-13 relative where a Plancherel
sum runs on the support box only. A stack stored as its box |k|_inf <= W
gives every consumer the result of the same stack stored on the full grid.
The split-step oracle, blocked over rows, matches the unblocked reference.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modnls import dispersion as dsp, harness as hn, modspace as ms, nonlinear as nl
from modnls import solver as sv, spectral as sp

from conftest import (assert_rel_close, reference_pointwise_map, reference_split_step,
                      support_stack)

COEFFS = dsp.EquationCoeffs(alpha=1.0, beta=0.0, gamma=1.0)

_CASES = dict(
    d=st.sampled_from([1, 2, 3]),
    log_n=st.integers(6, 12),
    w=st.integers(0, 12),  # support half-width in lattice steps
    seed=st.integers(0, 2**16),
    degree=st.sampled_from([2, 3, 4]),
)


def _case(d, log_n, w, seed, count=3):
    """A stack filled exactly on |k|_inf <= w (so its support is w), its
    grid (L = 4 pi, M = 4) and sample times."""
    n = 2 ** min(log_n, {1: 12, 2: 7, 3: 6}[d])
    w = min(w, n // 2 - 1)
    grid, stack = support_stack(d, n, w, seed, count)
    return grid, w, stack, np.linspace(0.0, 1.0, count)


def _power(degree):
    return nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "conj")[:degree],
                         coeff=-1.0 + 0.5j)


def assert_vanishes_beyond(traj, W=None):
    """The trajectory's declared support (or W) holds: exact zeros beyond it."""
    W = traj.support if W is None else W
    assert W is not None and 0 <= W <= traj.grid.n // 2
    outside = traj.spectra.copy()
    sp._rebox(outside, traj.grid.d, sp._box_width(traj.grid, W))[...] = 0.0
    assert not outside.any()


def bare(traj):
    """The same stack stored on the whole grid, with the support n/2."""
    return sp.Trajectory(traj.grid, traj.times, traj.spectra, traj.grid.n // 2)


class TestProducers:
    @settings(max_examples=40, deadline=None)
    @given(**_CASES)
    def test_declared_support_holds(self, d, log_n, w, seed, degree):
        grid, w, stack, times = _case(d, log_n, w, seed)
        u0 = sp.SpectralField(grid, spectrum=stack[0])
        flow = dsp.propagate_trajectory(COEFFS, times, u0)
        assert flow.support == w
        assert_vanishes_beyond(flow)

        fu = nl.apply_to_trajectory(_power(degree), flow)
        assert fu.support in (degree * w, grid.n // 2)
        assert_vanishes_beyond(fu)

        v = sp.Trajectory(grid, times, stack, support=w)
        diff = sp._pointwise_map(lambda a, b: a * b - b * b, flow, v, degree=2)
        assert diff.support in (2 * w, grid.n // 2)
        assert_vanishes_beyond(diff)

        integral = hn.duhamel_integral(COEFFS, times, v)
        assert integral.support == w
        assert_vanishes_beyond(integral)

        cfg = sv.SolveConfig(coeffs=COEFFS, nonlin=_power(degree), grid=grid, t_min=0.0,
                             t_max=1.0, nt=times.size, delta=1.0)
        applied = sv.duhamel_apply(cfg, flow, u0)
        assert applied.support == max(fu.support, w)
        assert_vanishes_beyond(applied)
        # a source narrower than the datum: the datum's support must count
        centre = np.zeros(grid.shape, dtype=np.complex128)
        centre[(grid.n // 2,) * d] = 0.5
        narrow = dsp.propagate_trajectory(COEFFS, times, sp.SpectralField(grid, spectrum=centre))
        applied = sv.duhamel_apply(cfg, narrow, u0)
        assert applied.support == w
        assert_vanishes_beyond(applied)

    @settings(max_examples=20, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), band=st.integers(1, 3), index=st.integers(0, 50))
    def test_sample_trajectory_support(self, d, band, index):
        grid = sp.make_grid(d, 4 * math.pi, {1: 256, 2: 64, 3: 32}[d])
        ens = hn.EnsembleSpec(count=1, seed=3, band=band)
        traj = hn.sample_trajectory(grid, COEFFS, ens, index, np.linspace(0.0, 2.0, 5))
        assert traj.support == band * grid.M
        assert_vanishes_beyond(traj)

    @settings(max_examples=30, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), band=st.integers(1, 3), index=st.integers(0, 50),
           law=st.sampled_from(hn.FIELD_LAWS))
    def test_sample_field_support_is_the_full_grid_scan(self, d, band, index, law):
        """sample_field scans its band box only; that is the whole-grid value."""
        grid = sp.make_grid(d, 4 * math.pi, {1: 256, 2: 64, 3: 32}[d])
        f = hn.sample_field(grid, hn.EnsembleSpec(count=1, seed=5, band=band, law=law), index)
        assert f.support == sp._scan_support(grid, f.spectrum[None])

    @settings(max_examples=40, deadline=None)
    @given(**_CASES)
    def test_prefix_is_zero_beyond_the_support(self, d, log_n, w, seed, degree):
        grid, w, stack, times = _case(d, log_n, w, seed)
        out, prefix = stack.copy(), stack.copy()
        dsp.duhamel_sum(COEFFS, grid, times, out, base=stack[0], coef=1j, support=w)
        dsp.duhamel_sum(COEFFS, grid, times, prefix, prefix=True, support=w)
        assert_vanishes_beyond(sp.Trajectory(grid, times, out), w)
        assert_vanishes_beyond(sp.Trajectory(grid, times, prefix), w)


class TestOneOwner:
    """The support is scanned once, where the data is made, and then read."""

    def test_picard_solve_scans_only_its_datum(self, monkeypatch):
        grid = sp.make_grid(2, 4 * math.pi, 64)
        _, stack = support_stack(2, 64, 5, seed=1, count=1)
        u0 = sp.SpectralField(grid, spectrum=stack[0] * 0.3)
        cfg = sv.SolveConfig(coeffs=COEFFS, nonlin=_power(4), grid=grid, t_min=0.0,
                             t_max=1.0, nt=5, delta=1.0, k_max=2)
        scanned = []
        scan = sp._scan_support
        monkeypatch.setattr(sp, "_scan_support",
                            lambda grid, stack: scanned.append(stack) or scan(grid, stack))
        sv.picard_solve(cfg, u0)
        assert len(scanned) == 1 and np.shares_memory(scanned[0], u0.spectrum)
        sv.picard_solve(cfg, u0)
        assert len(scanned) == 1

    @settings(max_examples=40, deadline=None)
    @given(**_CASES, grow=st.integers(0, 8))
    def test_scanned_support_is_stored_as_its_box(self, d, log_n, w, seed, degree, grow):
        grid, w, stack, times = _case(d, log_n, w, seed)
        wider = _boxed(stack, grid, min(w + grow, grid.n // 2))
        for given_stack in (stack, wider):
            traj = sp.Trajectory(grid, times, given_stack)
            assert traj.support == w
            assert np.array_equal(traj.box, _boxed(stack, grid, w))

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("p", [2, 6])
    def test_field_tables_bitwise_with_the_support(self, n, p):
        grid = sp.make_grid(2, 4 * math.pi, n)
        K = (grid.n // (2 * grid.M) - 2) // 2
        engine = ms._BoxNormEngine(
            ms.build_partition(ms.PartitionSpec("trigonometric-window", K), grid))
        for law in hn.FIELD_LAWS:
            for band in (1, 2):
                for index in range(2):
                    f = hn.sample_field(grid, hn.EnsembleSpec(count=1, seed=9, band=band,
                                                              law=law), index)
                    spectra = f.spectrum[None]
                    assert np.array_equal(engine.series(spectra, p, f.support),
                                          engine.series(spectra, p, grid.n // 2))


class TestConsumers:
    @settings(max_examples=40, deadline=None)
    @given(**_CASES)
    def test_bitwise_where_the_arithmetic_is_unchanged(self, d, log_n, w, seed, degree):
        grid, w, stack, times = _case(d, log_n, w, seed)
        fn = _power(degree)
        got = sp._pointwise_map(lambda v: nl.evaluate(fn, v),
                                sp.Trajectory(grid, times, stack, support=w), degree=degree)
        ref, ref_reach = reference_pointwise_map(lambda v: nl.evaluate(fn, v), grid, stack,
                                                 degree=degree)
        assert got.support == ref_reach and np.array_equal(got.box, ref)
        scanned = sp._scan_support(grid, stack)
        for p in (4, 6, 3):
            assert np.array_equal(sp._lp_series(stack, grid, p, w),
                                  sp._lp_series(stack, grid, p, scanned))

        outs, prefixes = [], []
        for support in (w, grid.n // 2):
            out, prefix = stack.copy(), stack.copy()
            dsp.duhamel_sum(COEFFS, grid, times, out, support, base=stack[1], coef=1j)
            dsp.duhamel_sum(COEFFS, grid, times, prefix, prefix=True, support=support)
            outs.append(out)
            prefixes.append(prefix)
        assert np.array_equal(*outs) and np.array_equal(*prefixes)

    @settings(max_examples=40, deadline=None)
    @given(**_CASES)
    def test_plancherel_on_the_box_within_roundoff(self, d, log_n, w, seed, degree):
        grid, w, stack, times = _case(d, log_n, w, seed)
        u = sp.Trajectory(grid, times, stack, support=w)
        v = sp.Trajectory(grid, times, stack[::-1] * 0.5, support=w)
        assert_rel_close(sp._lp_series(stack, grid, 2, w),
                         sp._lp_series(stack, grid, 2, grid.n // 2), 1e-13)
        assert_rel_close(sv.mass_series(u), sv.mass_series(bare(u)), 1e-13)
        assert_rel_close(np.array(sv.oracle_deviation(u, v)),
                         np.array(sv.oracle_deviation(bare(u), bare(v))), 1e-13)

        K = (grid.n // (2 * grid.M) - 2) // 2  # the largest k_max the grid holds
        part = ms.build_partition(ms.PartitionSpec("trigonometric-window", min(K, 4)), grid)
        for p in (2, 6):  # Plancherel, and the pruned DFT it feeds
            spec = ms.PlanchonNormSpec(s=1.0, q=2, r=4, p=p)
            assert_rel_close(np.array(ms.planchon_norm(u, spec, part).value),
                             np.array(ms.planchon_norm(bare(u), spec, part).value), 1e-13)
        assert_rel_close(ms.mod_norm_series(u, ms.ModNormSpec(p=4, q=1, s=0.5), part),
                         ms.mod_norm_series(bare(u), ms.ModNormSpec(p=4, q=1, s=0.5), part),
                         1e-13)
        got = ms.x_norm_diff(u, v, 0.0, 1, 4, 6, part)
        ref = ms.x_norm_diff(bare(u), bare(v), 0.0, 1, 4, 6, part)
        assert_rel_close(np.array([got.part_l2, got.part_lp]),
                         np.array([ref.part_l2, ref.part_lp]), 1e-13)
        assert_rel_close(np.array(ms.truncation_residual(u, part)),
                         np.array(ms.truncation_residual(bare(u), part)), 1e-13)

    @settings(max_examples=15, deadline=None)
    @given(**_CASES)
    def test_lipschitz_witness(self, d, log_n, w, seed, degree):
        grid, w, stack, times = _case(d, log_n, w, seed)
        u = sp.Trajectory(grid, times, stack, support=w)
        v = sp.Trajectory(grid, times, stack[::-1] * 0.5, support=w)
        K = (grid.n // (2 * grid.M) - 2) // 2
        part = ms.build_partition(ms.PartitionSpec("trigonometric-window", min(K, 4)), grid)
        exps = nl.LipschitzExponents(s=0.0, q=1, r_tilde=1, p_tilde=2, l=degree - 1,
                                     m=degree - 1)
        got = nl.power_lipschitz_witness(u, v, _power(degree), exps, part)
        ref = nl.power_lipschitz_witness(bare(u), bare(v), _power(degree), exps, part)
        assert_rel_close(np.array(got), np.array(ref), 1e-13)


class TestResidualMemory:
    """The truncation and aliasing residuals of a box-supported field build
    their complement weight on the support box, not on the n^d grid."""

    def test_peak_stays_box_sized(self):
        grid, stack = support_stack(2, 1024, 4, seed=0, count=1)
        f = sp.SpectralField(grid, spectrum=stack[0])
        assert f.support == 4  # scanned before tracing starts
        part = ms.build_partition(ms.PartitionSpec("trigonometric-window", 4), grid)
        cubic = nl.NonlinSpec.cubic(-1.0)
        tracemalloc.start()
        try:
            for residual in (lambda: ms.truncation_residual(f, part),
                             lambda: nl.aliasing_residual(cubic, f)):
                tracemalloc.reset_peak()
                assert math.isfinite(residual())
                # an n^d float64 weight alone is 8 MiB
                assert tracemalloc.get_traced_memory()[1] < 2 << 20
        finally:
            tracemalloc.stop()


def _boxed(stack, grid, w):
    """The stack as a Trajectory stores it for support w: its box, contiguous."""
    return np.ascontiguousarray(sp._rebox(stack, grid.d, sp._box_width(grid, w)))


class TestBoxStorage:
    @settings(max_examples=40, deadline=None)
    @given(**_CASES, grow=st.integers(1, 8))
    def test_rebox_round_trips(self, d, log_n, w, seed, degree, grow):
        grid, w, stack, times = _case(d, log_n, w, seed)
        box = _boxed(stack, grid, w)
        assert box.shape == (3,) + (2 * w + 1,) * d
        assert np.array_equal(sp._rebox(box, d, grid.n), stack)  # zero-padded back
        wider = sp._box_width(grid, w + grow)
        assert np.array_equal(sp._rebox(sp._rebox(box, d, wider), d, 2 * w + 1), box)
        assert np.shares_memory(sp._rebox(stack, d, 2 * w + 1), stack)  # a crop is a view

    @settings(max_examples=40, deadline=None)
    @given(**_CASES)
    def test_spectra_materializes_zeros_outside_the_box(self, d, log_n, w, seed, degree):
        grid, w, stack, times = _case(d, log_n, w, seed)
        box = _boxed(stack, grid, w)
        traj = sp.Trajectory(grid, times, box, support=w)
        assert traj.box is box
        full = traj.spectra
        assert full.shape == stack.shape and np.array_equal(full, stack)
        assert not full.flags.writeable
        assert np.array_equal(traj.field(1).spectrum, stack[1])
        assert np.array_equal(traj.values(2), sp.Trajectory(grid, times, stack).values(2))
        # a full stack handed in with its support is stored as its box
        cropped = sp.Trajectory(grid, times, stack, support=w)
        assert cropped.box.shape == box.shape and np.array_equal(cropped.box, box)

    @settings(max_examples=40, deadline=None)
    @given(**_CASES, narrower=st.integers(0, 12))
    def test_consumers_match_full_storage(self, d, log_n, w, seed, degree, narrower):
        grid, w, stack, times = _case(d, log_n, w, seed)
        w2 = min(narrower, w)
        other = support_stack(d, grid.n, w2, seed + 1)[1]
        box, box2 = _boxed(stack, grid, w), _boxed(other, grid, w2)
        fn = _power(degree)

        # the pass, and the L^p series that run it: bitwise
        got = sp._pointwise_map(lambda v: nl.evaluate(fn, v),
                                sp.Trajectory(grid, times, box, support=w), degree=degree)
        ref, ref_reach = reference_pointwise_map(lambda v: nl.evaluate(fn, v), grid, stack,
                                                 degree=degree)
        assert got.support == ref_reach and np.array_equal(got.box, ref)
        scanned = sp._scan_support(grid, stack)
        for p in (4, 6, 3):
            assert np.array_equal(sp._lp_series(box, grid, p, w),
                                  sp._lp_series(stack, grid, p, scanned))

        # the prefix sum, over a box-sized and a full-grid stack: bitwise
        out, prefix = box.copy(), box.copy()
        dsp.duhamel_sum(COEFFS, grid, times, out, base=stack[1], coef=1j, support=w)
        dsp.duhamel_sum(COEFFS, grid, times, prefix, prefix=True, support=w)
        ref_out, ref_prefix = stack.copy(), stack.copy()
        dsp.duhamel_sum(COEFFS, grid, times, ref_out, base=stack[1], coef=1j, support=w)
        dsp.duhamel_sum(COEFFS, grid, times, ref_prefix, prefix=True, support=w)
        assert np.array_equal(sp._rebox(out, d, grid.n), ref_out)
        assert np.array_equal(sp._rebox(prefix, d, grid.n), ref_prefix)

        K = (grid.n // (2 * grid.M) - 2) // 2
        part = ms.build_partition(ms.PartitionSpec("trigonometric-window", min(K, 4)), grid)
        engine = ms._BoxNormEngine(part)
        for stacks, full, W in (((box), stack, w), ((box, box2), (stack, other), w)):
            l2 = engine.series(full, 2, grid.n // 2)
            # the Plancherel sums on the box: within roundoff
            assert_rel_close(engine.series(stacks, 2, W), l2, 1e-13)
            assert_rel_close(sp._plancherel(stacks, grid, W),
                             sp._plancherel(full, grid, grid.n // 2), 1e-13)
            # the pruned DFT fed the same table: bitwise
            assert np.array_equal(engine.series(stacks, 6, W, l2),
                                  engine.series(full, 6, grid.n // 2, l2))

        u = sp.Trajectory(grid, times, box, support=w)
        v = sp.Trajectory(grid, times, box2, support=w2)
        full_u, full_v = bare(u), bare(v)
        assert_rel_close(sv.mass_series(u), sv.mass_series(full_u), 1e-13)
        assert_rel_close(np.array(sv.oracle_deviation(u, v)),
                         np.array(sv.oracle_deviation(full_u, full_v)), 1e-13)
        # a full stack with its support scanned: the same box, and the same pass
        scanned_u = sp.Trajectory(grid, times, stack)
        assert scanned_u.support == w and np.array_equal(scanned_u.box, box)
        assert np.array_equal(nl.apply_to_trajectory(fn, u).spectra,
                              nl.apply_to_trajectory(fn, scanned_u).spectra)


    @pytest.mark.parametrize("d, n", [(1, 128), (2, 128), (3, 64)])
    def test_one_sided_live_boxes(self, d, n):
        """Data strictly inside the box k = (2, 0, ..): the live boxes all
        have k_1 > 0, so the bounding box of live boxes that the pruned DFT
        reads, 1 <= k_1 <= 3, is off center and must be read at the right
        points; the boxes at k_1 <= 0 come out exactly 0."""
        grid = sp.make_grid(d, 4 * math.pi, n)
        M, c, W = grid.M, n // 2, 3 * grid.M - 1
        part = ms.build_partition(ms.PartitionSpec("trigonometric-window", 4 if d < 3 else 3),
                                  grid)
        rng = np.random.default_rng(d)
        stack = np.zeros((2,) + grid.shape, dtype=np.complex128)
        inside = (slice(None), slice(c + M + 1, c + 3 * M)) + (slice(c - M + 1, c + M),) * (d - 1)
        stack[inside] = rng.standard_normal(stack[inside].shape) \
            + 1j * rng.standard_normal(stack[inside].shape)
        box = _boxed(stack, grid, W)
        engine = ms._BoxNormEngine(part)
        l2 = engine.series(box, 2, W)
        k1 = np.array([k[0] for k in part.boxes])
        assert l2[k1 > 0].any() and not l2[k1 <= 0].any()
        for p in (4, 6):
            table = engine.series(box, p, W, l2)
            assert not table[k1 <= 0].any()
            assert np.array_equal(table, engine.series(stack, p, n // 2, l2))
            ref = ms._BoxNormEngine(part, "reference").series(stack, p, n // 2)
            assert_rel_close(table, ref, 1e-13)


class TestBlockedOracle:
    @pytest.mark.parametrize("d, n", [(1, 65536), (2, 256), (3, 64)])
    @pytest.mark.parametrize("nonlin", [
        nl.NonlinSpec.cubic(-1.0),
        nl.NonlinSpec(kind="exponential", lam=-1.0, rho=0.5),
        nl.NonlinSpec(kind="power", pattern=("u", "conj", "u"), coeff=1j),
    ], ids=["rotation", "exponential-rotation", "rk4"])
    def test_matches_unblocked_reference_bitwise(self, d, n, nonlin):
        """The substep runs over several blocks of rows on these grids."""
        assert solver_rows(d, n) < n
        grid, stack = support_stack(d, n, 4, seed=d)
        cfg = sv.SolveConfig(coeffs=COEFFS, nonlin=nonlin, grid=grid, t_min=0.0, t_max=0.5,
                             nt=3, delta=1.0, oracle_substeps=2, override_hypotheses=True)
        u0 = sp.SpectralField(grid, spectrum=stack[0] * (2 * 4 + 1) ** d)
        traj = sv.split_step_oracle(cfg, u0)
        assert np.array_equal(traj.spectra, reference_split_step(cfg, u0))


def solver_rows(d, n):
    """Rows of samples per block of the oracle's nonlinear substep."""
    return max(1, sv._BLOCK_BYTES // (16 * n ** (d - 1)))
