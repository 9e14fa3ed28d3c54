import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modnls import modspace as ms, nonlinear as nl, spectral as sp
from modnls.errors import GridMismatchError

from conftest import (assert_support_sized, band_limited_field, centered_fft, centered_ifft,
                      field_metadata,
                      reference_apply_to_trajectory, reference_pointwise_map,
                      reference_write_trajectory, single_mode, support_stack, write_abs_csv)

QUARTIC = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"), coeff=-1.0 + 0.5j)

# (fn, degree, input stacks) of every map the package runs through the pass:
# the solver's powers and exponential, the Hölder products, the witness
# difference f(u) - f(v)
PASS_MAPS = {
    "cubic": (lambda v: nl.evaluate(nl.NonlinSpec.cubic(-1.0 + 0.5j), v), 3, 1),
    "quartic": (lambda v: nl.evaluate(QUARTIC, v), 4, 1),
    "quintic": (lambda v: nl.evaluate(nl.NonlinSpec.odd_power(2, -1.0), v), 5, 1),
    "exponential": (lambda v: nl.evaluate(nl.NonlinSpec(kind="exponential", lam=-1.0,
                                                        rho=0.5), v), None, 1),
    "hoelder2": (lambda a, b: a * b, 2, 2),
    "hoelder3": (lambda a, b, c: a * b * c, 3, 3),
    "witness": (lambda a, b: nl.evaluate(QUARTIC, a) - nl.evaluate(QUARTIC, b), 4, 2),
}


class TestMakeGrid:
    def test_frequency_spacing(self):
        # dxi = pi/L evaluated by hand: L = 16 pi -> 1/16, 16 points per unit box
        g = sp.make_grid(1, 16 * math.pi, 512)
        assert g.dxi == pytest.approx(1.0 / 16.0, rel=1e-15)
        assert g.M == 16

    def test_2d_constructor_echo(self):
        g = sp.make_grid(2, 16 * math.pi, 256)
        assert g.d == 2 and g.n == 256 and g.size == 256**2

    def test_rejects_non_pi_multiple(self):
        with pytest.raises(ValueError):
            sp.make_grid(1, 10.0, 64)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            sp.make_grid(1, 16 * math.pi, 500)

    def test_rejects_small_M(self):
        with pytest.raises(ValueError):
            sp.make_grid(1, 2 * math.pi, 64)

    def test_k_max_headroom(self):
        # the headroom n >= 2M(2 k_max + 2) is the partition's rule, not the
        # grid's: make_grid takes no k_max, and M = 16, n = 512 holds k_max = 7
        with pytest.raises(TypeError):
            sp.make_grid(1, 16 * math.pi, 512, k_max=8)
        g = sp.make_grid(1, 16 * math.pi, 512)
        ms.build_partition(ms.PartitionSpec("trigonometric-window", 7), g)
        with pytest.raises(ValueError, match="Nyquist overflow"):
            ms.build_partition(ms.PartitionSpec("trigonometric-window", 8), g)


class TestTransforms:
    def test_round_trip(self, grid1d):
        rng = np.random.default_rng(0)
        f = sp.SpectralField(grid1d, values=rng.standard_normal(512)
                             + 1j * rng.standard_normal(512))
        back = sp.SpectralField(grid1d, spectrum=f.spectrum)
        err = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        assert err < 1e-12

    def test_plancherel(self, grid2d_small):
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = sp.SpectralField(
                grid2d_small,
                values=rng.standard_normal(grid2d_small.shape)
                + 1j * rng.standard_normal(grid2d_small.shape),
            )
            space = sp.lp_norm(f, 2)
            freq = math.sqrt(
                (grid2d_small.dxi / (2 * math.pi)) ** 2 * np.sum(np.abs(f.spectrum) ** 2)
            )
            assert abs(space - freq) / space < 1e-12

    @pytest.mark.parametrize("d, n", [(1, 2), (2, 2), (3, 2), (1, 4), (1, 256), (2, 4),
                                      (2, 64), (3, 8), (3, 16)])
    def test_centered_pair_is_the_shifted_pair(self, d, n):
        """The shift-free centered pair equals fftshift(T(ifftshift(x))) bit
        for bit on a stack of samples, n = 2 in odd d and an inf included."""
        g = sp.make_grid(d, 4 * math.pi, n)
        rng = np.random.default_rng(n + d)
        x = rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape)
        x[(1,) + (n // 2,) * d] = math.inf
        with np.errstate(invalid="ignore"):
            for fast, ref in ((sp._centered_ifft, centered_ifft), (sp._centered_fft, centered_fft)):
                assert fast(x, g).tobytes() == ref(x, g).tobytes()

    def test_single_mode_spectrum_is_one_spike(self, grid1d):
        f = single_mode(grid1d, (5,))
        spec = np.abs(f.spectrum)
        peak = np.argmax(spec)
        assert peak == grid1d.n // 2 + 5
        spec_rest = spec.copy()
        spec_rest[peak] = 0.0
        assert spec_rest.max() < 1e-9 * spec[peak]


class TestLpNorm:
    def test_zero_field(self, grid1d):
        assert sp.lp_norm(sp.SpectralField.zero(grid1d), 2) == 0.0

    def test_constant_field_l2(self):
        # closed-form integral of the constant: ||1||_2 = sqrt(2L) = sqrt(8 pi)
        g = sp.make_grid(1, 4 * math.pi, 64)
        one = sp.SpectralField(g, values=np.ones(64, dtype=complex))
        assert sp.lp_norm(one, 2) == pytest.approx(math.sqrt(8 * math.pi), rel=1e-13)

    def test_single_mode_sup_norm(self, grid1d):
        f = single_mode(grid1d, (3,))
        assert sp.lp_norm(f, math.inf) == pytest.approx(1.0, rel=1e-13)

    def test_nan_rejected(self, grid1d):
        vals = np.zeros(512, dtype=complex)
        vals[0] = np.nan
        with pytest.raises(ValueError):
            sp.lp_norm(sp.SpectralField(grid1d, values=vals), 2)

    def test_homogeneity(self, grid1d):
        rng = np.random.default_rng(2)
        f = band_limited_field(grid1d, 3, rng)
        for p in (1, 2, 3.5, math.inf):
            a = sp.lp_norm(sp.SpectralField(grid1d, values=2.5j * f.values), p)
            b = 2.5 * sp.lp_norm(f, p)
            assert abs(a - b) <= 1e-12 * b

    def test_grid_hoelder(self, grid1d):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = band_limited_field(grid1d, 3, rng)
            g = band_limited_field(grid1d, 3, rng)
            lhs = sp.lp_norm(sp.SpectralField(grid1d, values=f.values * g.values), 2)
            rhs = sp.lp_norm(f, 4) * sp.lp_norm(g, 4)
            assert lhs <= rhs * (1 + 1e-12)


class TestStackedLp:
    @pytest.mark.parametrize("p", [1, 2, 6, Fraction(9, 2), math.inf])
    def test_series_matches_per_sample_lp_norm(self, grid2d_small, p):
        # 11 samples: two chunks of the pass at n = 64, one sample all zero
        rng = np.random.default_rng(11)
        stack = np.stack([band_limited_field(grid2d_small, 2, rng).spectrum
                          for _ in range(11)])
        stack[4] = 0.0
        series = sp._lp_series(stack, grid2d_small, p, sp._scan_support(grid2d_small, stack))
        expected = [sp.lp_norm(sp.SpectralField(grid2d_small, spectrum=s), p) for s in stack]
        np.testing.assert_allclose(series, expected, rtol=1e-13, atol=0.0)
        assert series[4] == 0.0

    # a NaN sample raises on each path: Plancherel (p = 2), the support-sized
    # grid (band 1 at n = 64 has W = 4, so p = 6 sums on 32 points) and the
    # full grid
    @pytest.mark.parametrize("p", [2, 6, 3, math.inf],
                             ids=["plancherel", "reduced", "odd", "sup"])
    def test_nan_sample_rejected(self, grid2d_small, p):
        rng = np.random.default_rng(12)
        stack = np.stack([band_limited_field(grid2d_small, 1, rng).spectrum for _ in range(3)])
        stack[1, 32, 30] = np.nan
        with pytest.raises(ValueError, match="NaN values in field"):
            sp._lp_series(stack, grid2d_small, p, sp._scan_support(grid2d_small, stack))


def _reduced_size(bound):
    """The smallest power of two n' > bound (at least 2)."""
    return max(2, 1 << bound.bit_length())


_SUPPORT_CASES = dict(
    d=st.sampled_from([1, 2, 3]),
    log_n=st.integers(4, 12),
    w=st.integers(0, 12),  # support half-width in lattice steps (band * M for band boxes)
    seed=st.integers(0, 2**16),
)


class TestSupportSizedPass:
    """The pass runs on n' = 2^j points, n' > 2 degree W for products and
    n' > p W for even L^p sums, whenever that is below n: the result then
    matches the full-grid references to roundoff. A product is alias-free
    wherever 2 degree W < n, on n' or on the full grid, and its output is
    then exactly zero beyond degree W."""

    @settings(max_examples=60, deadline=None)
    @given(**_SUPPORT_CASES, degree=st.sampled_from([2, 3, 4]))
    def test_products_match_full_grid(self, d, log_n, w, seed, degree):
        n = 2 ** min(log_n, {1: 12, 2: 7, 3: 6}[d])
        w = min(w, n // 2 - 1)
        grid, stack = support_stack(d, n, w, seed)
        spec = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "conj")[:degree],
                             coeff=-1.0 + 0.5j)
        traj = sp.Trajectory(grid, np.arange(3.0), stack)
        out = nl.apply_to_trajectory(spec, traj).spectra
        ref = reference_apply_to_trajectory(spec, traj)
        if 2 * degree * w < n:  # alias-free, on the reduced or the full grid
            assert_support_sized(out, ref, degree * w)
        else:
            assert np.array_equal(out, ref)

    @settings(max_examples=60, deadline=None)
    @given(**_SUPPORT_CASES, p=st.sampled_from([4, 6, 8]))
    def test_even_lp_sums_match_full_grid(self, d, log_n, w, seed, p):
        n = 2 ** min(log_n, {1: 12, 2: 7, 3: 6}[d])
        w = min(w, n // 2 - 1)
        grid, stack = support_stack(d, n, w, seed)
        series = sp._lp_series(stack, grid, p, sp._scan_support(grid, stack))
        ref = np.array([sp.lp_norm(sp.SpectralField(grid, spectrum=s), p) for s in stack])
        assert np.max(np.abs(series - ref)) <= 1e-13 * np.max(ref)
        if _reduced_size(p * w) >= n:
            full = np.concatenate([sp._lp(vals, grid, p)
                                   for _, (vals,) in sp._physical_chunks(grid, stack)])
            assert np.array_equal(series, full)


def trajectories(grid, stacks, support):
    """Each stack as a Trajectory of `support`, stored as its box."""
    return [sp.Trajectory(grid, np.arange(float(s.shape[0])), s, support=support)
            for s in stacks]


class TestRollFreePass:
    """The pass transforms in place and applies the half-period shift as the
    exact sign (-1)^(x_1 + .. + x_d): bit for bit the shifted pass, on the
    reduced and the full grid, for box-stored and full-grid inputs."""

    @pytest.mark.parametrize("chunk_bytes", [sp._CHUNK_BYTES, 1 << 14],
                             ids=["one_chunk", "many_chunks"])
    @pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "full"])
    @pytest.mark.parametrize("d, n", [(1, 256), (2, 64), (3, 32)])
    @pytest.mark.parametrize("kind", sorted(PASS_MAPS))
    def test_bitwise_equal_to_the_shifted_pass(self, monkeypatch, kind, d, n, reduced,
                                               chunk_bytes):
        monkeypatch.setattr(sp, "_CHUNK_BYTES", chunk_bytes)
        fn, degree, count = PASS_MAPS[kind]
        w = 1 if reduced else n // 4  # 2 degree W >= n: the full grid
        grid = sp.make_grid(d, 4 * math.pi, n)
        stacks = [support_stack(d, n, w, seed, count=5)[1] for seed in range(count)]
        # the first input stored as its box; on the full grid the others are
        # stored whole (support n/2, which reaches the grid there as w does)
        trajs = trajectories(grid, stacks, w)
        if not reduced:
            trajs[1:] = trajectories(grid, stacks[1:], n // 2)
        assert trajs[0].box.shape[-1] == 2 * w + 1
        got = sp._pointwise_map(fn, *trajs, degree=degree)
        ref, ref_reach = reference_pointwise_map(fn, grid, *stacks, degree=degree)
        assert got.support == ref_reach and np.array_equal(got.box, ref)
        assert (got.support < n // 2) == (reduced and degree is not None)

    def test_calls_no_roll_or_shift(self, monkeypatch):
        def banned(*args, **kwargs):
            raise AssertionError("the pass rolled or shifted")

        for owner, name in ((np, "roll"), (np.fft, "fftshift"), (np.fft, "ifftshift")):
            monkeypatch.setattr(owner, name, banned)
        grid, stack = support_stack(2, 64, 12, 0)
        W = sp._scan_support(grid, stack)
        sp._pointwise_map(lambda v: nl.evaluate(QUARTIC, v), *trajectories(grid, [stack], W),
                          degree=4)
        for p in (6, 3):  # the reduced and the full grid
            sp._lp_series(stack, grid, p, W)

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
    def test_inf_gains_no_nan(self, d, n):
        """f(u) holding inf + 1j at an odd-parity point: negation gives it the
        sign exactly, where a complex multiply by -1 would make its imaginary
        part inf * 0 + 1 * -1 = NaN, and the transform would spread it."""
        grid = sp.make_grid(d, 4 * math.pi, n)
        stack = support_stack(d, n, 1, 0, count=2)[1]
        odd = (Ellipsis,) + (0,) * (d - 1) + (1,)

        def with_inf(v):
            g = v.copy()
            g[odd] = complex(math.inf, 1.0)
            return g

        with np.errstate(invalid="ignore"):
            got = sp._pointwise_map(with_inf, *trajectories(grid, [stack], grid.n // 2)).box
            ref = reference_pointwise_map(with_inf, grid, stack)[0]
        got, ref = got.view(np.float64), ref.view(np.float64)  # (re, im) pairs
        assert 0 < np.isnan(got).sum() == np.isnan(ref).sum() < got.size
        assert np.array_equal(got, ref, equal_nan=True)


def flip_both_pass(fn, grid, *stacks, support, degree):
    """The pass as it was before it read the parity of fn: the sign of
    _flip_odd on every input and on fn's output, whatever the degree."""
    sub, reach = sp._pass_grid(grid, support, degree)
    width = sp._box_width(grid, reach)
    axes = tuple(range(-grid.d, 0))
    out = np.empty((stacks[0].shape[0],) + (width,) * grid.d, dtype=np.complex128)
    for rows, vals in sp._physical_chunks(sub, *stacks):
        for v in vals:
            sp._flip_odd(v, grid.d)
        g = np.asarray(fn(*vals), dtype=np.complex128)
        sp._flip_odd(g, grid.d)
        np.fft.fftn(g, axes=axes, out=g)
        out[rows] = sp._rebox(g, grid.d, width) * sub.h**grid.d
    return out, reach


CUBIC = nl.NonlinSpec.cubic(-1.0 + 0.5j)
PARITY_MAPS = dict(PASS_MAPS, witness_cubic=(
    lambda a, b: nl.evaluate(CUBIC, a) - nl.evaluate(CUBIC, b), 3, 2))


class TestParityPass:
    """A map of degree D has fn(s v) = s^D fn(v) exactly, as negation
    commutes with IEEE products and conj: the pass flips no input and
    flips the output only for even D, bit for bit the pass that flips both."""

    @pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "full"])
    @pytest.mark.parametrize("d, n", [(1, 256), (2, 64), (3, 32)])
    @pytest.mark.parametrize("kind", sorted(PARITY_MAPS))
    def test_bitwise_equal_to_the_flip_both_pass(self, kind, d, n, reduced):
        fn, degree, count = PARITY_MAPS[kind]
        w = 1 if reduced else n // 4
        grid = sp.make_grid(d, 4 * math.pi, n)
        stacks = [support_stack(d, n, w, seed, count=5)[1] for seed in range(count)]
        got = sp._pointwise_map(fn, *trajectories(grid, stacks, w), degree=degree)
        ref, ref_reach = flip_both_pass(fn, grid, *stacks, support=w, degree=degree)
        assert got.support == ref_reach
        assert np.array_equal(got.box.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("kind, flips", [("cubic", 0), ("quintic", 0), ("hoelder3", 0),
                                             ("witness_cubic", 0), ("quartic", 1),
                                             ("hoelder2", 1), ("witness", 1),
                                             ("exponential", 2)])
    def test_flips_only_what_the_parity_needs(self, monkeypatch, kind, flips):
        """Per chunk: no flip for odd D, the output's for even D, and every
        input's and the output's without a degree."""
        fn, degree, count = PARITY_MAPS[kind]
        grid, stack = support_stack(2, 64, 1, 0, count=3)
        flipped, flip = [], sp._flip_odd
        monkeypatch.setattr(sp, "_flip_odd", lambda x, d: (flipped.append(d), flip(x, d)))
        sp._pointwise_map(fn, *trajectories(grid, [stack] * count, 1), degree=degree)
        assert len(flipped) == flips  # one chunk


class TestArithmetic:
    def test_grid_mismatch(self, grid1d):
        other = sp.make_grid(1, 16 * math.pi, 256)
        f = sp.SpectralField.zero(grid1d)
        g = sp.SpectralField.zero(other)
        with pytest.raises(GridMismatchError):
            sp.Trajectory.from_fields([0.0, 1.0], [f, g])

    def test_fields_read_only(self, grid1d):
        f = sp.SpectralField.zero(grid1d)
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestTimeNorm:
    def test_constant_rectangle(self):
        times = np.linspace(0.0, 3.0, 7)
        assert sp.time_lp_norm(np.full(7, 2.0), times, 1) == pytest.approx(6.0, rel=1e-13)

    def test_constant_sup(self):
        times = np.linspace(0.0, 3.0, 7)
        assert sp.time_lp_norm(np.full(7, 2.0), times, math.inf) == 2.0

    def test_linear_ramp_l2(self):
        # oracle: int_0^1 t^2 dt = 1/3 in closed form
        times = np.linspace(0.0, 1.0, 1001)
        val = sp.time_lp_norm(times, times, 2)
        assert val == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sp.time_lp_norm(np.array([]), np.array([]), 2)

    @pytest.mark.parametrize("r", [0, 0.5, -1, math.nan])
    def test_exponent_outside_one_to_inf_rejected(self, r):
        times = np.linspace(0.0, 3.0, 7)
        with pytest.raises(ValueError, match=r"^r must be in \[1, inf\], got "):
            sp.time_lp_norm(np.full(7, 2.0), times, r)


class TestSerialization:
    def test_field_round_trip(self, tmp_path, grid1d):
        rng = np.random.default_rng(7)
        f = band_limited_field(grid1d, 3, rng)
        path = tmp_path / "f.bin"
        sp.write_field(path, f)
        g = sp.read_field(path)
        assert g.grid == f.grid
        assert np.array_equal(g.values, f.values)

    def test_trajectory_round_trip(self, tmp_path, grid2d_small):
        rng = np.random.default_rng(8)
        times = np.linspace(0.0, 1.0, 4)
        fields = [band_limited_field(grid2d_small, 2, rng) for _ in times]
        traj = sp.Trajectory.from_fields(times, fields)
        path = tmp_path / "traj.bin"
        sp.write_trajectory(path, traj)
        back = sp.read_trajectory(path)
        assert np.array_equal(back.times, traj.times)
        # canonical storage is spectral, so the round trip costs one extra
        # fft/ifft pair: agreement to roundoff, not bitwise
        for j in range(traj.n_samples):
            scale = np.max(np.abs(traj.values(j)))
            assert np.max(np.abs(back.values(j) - traj.values(j))) < 1e-13 * scale
        scale = np.max(np.abs(traj.spectra))
        assert np.max(np.abs(back.spectra - traj.spectra)) < 1e-12 * scale

    @pytest.mark.parametrize("d,n,nt", [(2, 128, 65), (1, 512, 7), (3, 32, 5)])
    def test_chunked_writer_matches_per_sample_writer(self, tmp_path, d, n, nt):
        # the chunked pass transforms several samples per call: the file
        # must stay byte-identical to one transform per sample
        rng = np.random.default_rng(10)
        grid = sp.make_grid(d, 4 * math.pi, n)
        fields = [band_limited_field(grid, 2, rng) for _ in range(nt)]
        traj = sp.Trajectory.from_fields(np.linspace(0.0, 1.0, nt), fields)
        sp.write_trajectory(tmp_path / "chunked.bin", traj)
        reference_write_trajectory(tmp_path / "per_sample.bin", traj)
        assert (tmp_path / "chunked.bin").read_bytes() == (tmp_path / "per_sample.bin").read_bytes()

    def test_metadata_and_csv(self, tmp_path, grid2d_small):
        rng = np.random.default_rng(9)
        f = band_limited_field(grid2d_small, 1, rng)
        meta = field_metadata(f)
        assert meta["n"] == grid2d_small.n and meta["l2_norm"] > 0
        csv = tmp_path / "abs.csv"
        write_abs_csv(csv, f)
        lines = csv.read_text().splitlines()
        assert lines[0] == "x1,x2,abs"
        assert len(lines) == 1 + grid2d_small.size
