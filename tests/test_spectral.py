import math

import numpy as np
import pytest

from modnls import spectral as sp
from modnls.errors import GridMismatchError

from conftest import band_limited_field, field_metadata, write_abs_csv


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
        sp.make_grid(1, 16 * math.pi, 512, k_max=7)
        with pytest.raises(ValueError):
            sp.make_grid(1, 16 * math.pi, 512, k_max=8)


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

    def test_single_mode_spectrum_is_one_spike(self, grid1d):
        f = sp.SpectralField.single_mode(grid1d, (5,))
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
        f = sp.SpectralField.single_mode(grid1d, (3,))
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
            a = sp.lp_norm(2.5j * f, p)
            b = 2.5 * sp.lp_norm(f, p)
            assert abs(a - b) <= 1e-12 * b

    def test_grid_hoelder(self, grid1d):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = band_limited_field(grid1d, 3, rng)
            g = band_limited_field(grid1d, 3, rng)
            lhs = sp.lp_norm(sp.pointwise_mul(f, g), 2)
            rhs = sp.lp_norm(f, 4) * sp.lp_norm(g, 4)
            assert lhs <= rhs * (1 + 1e-12)


class TestArithmetic:
    def test_conj_involution(self, grid1d):
        rng = np.random.default_rng(4)
        f = band_limited_field(grid1d, 2, rng)
        assert np.allclose(sp.conj(sp.conj(f)).values, f.values, rtol=0, atol=0)

    def test_mul_by_zero(self, grid1d):
        rng = np.random.default_rng(5)
        f = band_limited_field(grid1d, 2, rng)
        z = sp.pointwise_mul(f, sp.SpectralField.zero(grid1d))
        assert sp.lp_norm(z, math.inf) == 0.0

    def test_axpy_linearity(self, grid1d):
        rng = np.random.default_rng(6)
        f = band_limited_field(grid1d, 2, rng)
        g = sp.axpy(2.0, f, f)  # 2f + f = 3f
        for p in (1, 2, math.inf):
            assert sp.lp_norm(g, p) == pytest.approx(3 * sp.lp_norm(f, p), rel=1e-13)

    def test_grid_mismatch(self, grid1d):
        other = sp.make_grid(1, 16 * math.pi, 256)
        f = sp.SpectralField.zero(grid1d)
        g = sp.SpectralField.zero(other)
        with pytest.raises(GridMismatchError):
            sp.axpy(1.0, f, g)

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
