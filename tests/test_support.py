"""The support bound a Trajectory carries.

Every producer emits exact zeros beyond the support W it declares, and
every consumer given W matches its result without it: bitwise where the
arithmetic is unchanged (the pass to physical space, the even-p sums, the
Duhamel prefix sum), to 1e-13 relative where a Plancherel sum runs on the
support box only.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from modnls import dispersion as dsp, harness as hn, modspace as ms, nonlinear as nl
from modnls import solver as sv, spectral as sp

from conftest import assert_rel_close, support_stack

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
    outside[sp._box(traj.grid, W)] = 0.0
    assert not outside.any()


def bare(traj):
    """The same stack with its support unknown."""
    return sp.Trajectory(traj.grid, traj.times, traj.spectra)


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
        diff, reach = sp._pointwise_map(lambda a, b: a * b - b, grid, flow.spectra, v.spectra,
                                        degree=2, support=w)
        assert reach in (2 * w, grid.n // 2)
        assert_vanishes_beyond(sp.Trajectory(grid, times, diff), reach)

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

    @settings(max_examples=40, deadline=None)
    @given(**_CASES)
    def test_prefix_is_zero_beyond_the_support(self, d, log_n, w, seed, degree):
        grid, w, stack, times = _case(d, log_n, w, seed)
        out = stack.copy()
        prefix = np.full_like(stack, np.nan)  # garbage everywhere on entry
        dsp.duhamel_sum(COEFFS, grid, times, out, base=stack[0], coef=1j,
                        prefix=prefix, support=w)
        assert_vanishes_beyond(sp.Trajectory(grid, times, out), w)
        assert_vanishes_beyond(sp.Trajectory(grid, times, prefix), w)


class TestConsumers:
    @settings(max_examples=40, deadline=None)
    @given(**_CASES)
    def test_bitwise_where_the_arithmetic_is_unchanged(self, d, log_n, w, seed, degree):
        grid, w, stack, times = _case(d, log_n, w, seed)
        fn = _power(degree)
        got, reach = sp._pointwise_map(lambda v: nl.evaluate(fn, v), grid, stack,
                                       degree=degree, support=w)
        ref, ref_reach = sp._pointwise_map(lambda v: nl.evaluate(fn, v), grid, stack,
                                           degree=degree)
        assert reach == ref_reach and np.array_equal(got, ref)
        for p in (4, 6, 3):
            assert np.array_equal(sp._lp_series(stack, grid, p, w), sp._lp_series(stack, grid, p))

        outs, prefixes = [], []
        for support in (w, None):
            out, prefix = stack.copy(), np.empty_like(stack)
            dsp.duhamel_sum(COEFFS, grid, times, out, base=stack[1], coef=1j,
                            prefix=prefix, support=support)
            outs.append(out)
            prefixes.append(prefix)
        assert np.array_equal(*outs) and np.array_equal(*prefixes)

    @settings(max_examples=40, deadline=None)
    @given(**_CASES)
    def test_plancherel_on_the_box_within_roundoff(self, d, log_n, w, seed, degree):
        grid, w, stack, times = _case(d, log_n, w, seed)
        u = sp.Trajectory(grid, times, stack, support=w)
        v = sp.Trajectory(grid, times, stack[::-1] * 0.5, support=w)
        assert_rel_close(sp._lp_series(stack, grid, 2, w), sp._lp_series(stack, grid, 2), 1e-13)
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
