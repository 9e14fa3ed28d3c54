import math
import struct

import numpy as np
import pytest

from modnls import dispersion as dsp, modspace, nonlinear, solver, spectral


def frequency_mesh(grid):
    """The d frequency coordinate arrays of the grid, math order."""
    ax = grid.axis_frequencies()
    return np.meshgrid(*([ax] * grid.d), indexing="ij")


def point_mesh(grid):
    """The d point coordinate arrays of the grid, x ascending from -L."""
    ax = grid.axis_points()
    return np.meshgrid(*([ax] * grid.d), indexing="ij")


def single_mode(grid, k_index):
    """exp(i x . xi0) with xi0 = k_index * dxi (k_index integer lattice)."""
    k = np.asarray(k_index, dtype=np.int64).reshape(grid.d)
    if np.any(np.abs(k) > grid.n // 2 - 1):
        raise ValueError(f"mode index {k.tolist()} outside the lattice")
    xi0 = k * grid.dxi
    phase = sum(x * x0 for x, x0 in zip(point_mesh(grid), xi0))
    return spectral.SpectralField(grid, values=np.exp(1j * phase))


def sigma_table(partition, k):
    """sigma_k sampled on the full frequency lattice (math order)."""
    partition._check_k(k)
    table = np.zeros(partition.grid.shape)
    table[partition.box_slices(k)] = partition.window_nd()
    return table


def field_metadata(f):
    return {
        "d": f.grid.d,
        "L": f.grid.L,
        "L_over_pi": f.grid.M,
        "n": f.grid.n,
        "l2_norm": spectral.lp_norm(f, 2),
        "linf_norm": spectral.lp_norm(f, math.inf),
    }


def write_abs_csv(path, f):
    """Dump |f| samples with their grid coordinates as CSV."""
    mesh = point_mesh(f.grid)
    a = np.abs(f.values)
    with open(path, "w") as fh:
        cols = ",".join(f"x{i + 1}" for i in range(f.grid.d))
        fh.write(f"{cols},abs\n")
        flat = [m.ravel() for m in mesh]
        for idx in range(a.size):
            coords = ",".join(repr(float(c[idx])) for c in flat)
            fh.write(f"{coords},{float(a.ravel()[idx])!r}\n")


def band_limited_field(grid, band, rng, amplitude=None):
    """Random field with spectrum supported in |xi|_inf <= band (box units)."""
    w = band * grid.M
    c = grid.n // 2
    spec = np.zeros(grid.shape, dtype=np.complex128)
    shape = (2 * w + 1,) * grid.d
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec[tuple(slice(c - w, c + w + 1) for _ in range(grid.d))] = block
    f = spectral.SpectralField(grid, spectrum=spec)
    if amplitude is not None:
        f = spectral.SpectralField(grid, spectrum=spec * (amplitude / spectral.lp_norm(f, 2)))
    return f


def support_stack(d, n, w, seed, count=3):
    """`count` random spectra on the d-dim n-point grid, L = 4 pi, filled
    exactly on |k|_inf <= w (lattice steps)."""
    grid = spectral.make_grid(d, 4 * math.pi, n)
    rng = np.random.default_rng(seed)
    shape = (count,) + (2 * w + 1,) * d
    stack = np.zeros((count,) + grid.shape, dtype=np.complex128)
    stack[(slice(None),) + (slice(n // 2 - w, n // 2 + w + 1),) * d] = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / (2 * w + 1) ** d
    return grid, stack


def reference_duhamel(coeffs, grid, times, source, base=None, coef=1.0):
    """The per-sample Duhamel loop the kernel replaced: one full-grid exp of
    the phase table each way per sample. Returns (out, prefix) stacks with
    out[j] = W(t_j)(base + coef acc_j)."""
    phase = dsp.phase_table(coeffs, grid)
    out = np.empty_like(source)
    prefix = np.empty_like(source)
    acc = np.zeros(grid.shape, dtype=np.complex128)
    g_prev = None
    for j, t in enumerate(times):
        g = np.exp(-1j * t * phase) * source[j]
        if j > 0:
            acc = acc + (times[j] - times[j - 1]) * 0.5 * (g_prev + g)
        g_prev = g
        prefix[j] = acc
        out[j] = np.exp(1j * t * phase) * ((0.0 if base is None else base) + coef * acc)
    return out, prefix


def centered_ifft(spectrum, grid):
    """The centered inverse transform with both shifts, over the trailing d
    axes: math-ordered spectra -> samples at x ascending from -L."""
    axes = tuple(range(-grid.d, 0))
    vals = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(spectrum, axes), axes=axes), axes)
    vals /= grid.h**grid.d
    return vals


def centered_fft(values, grid):
    """Inverse of centered_ifft, with both shifts."""
    axes = tuple(range(-grid.d, 0))
    spec = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(values, axes), axes=axes), axes)
    spec *= grid.h**grid.d
    return spec


def reference_apply_to_trajectory(spec, u):
    """f(u) over the stack with the centered pair, spatial shifts included,
    in the same chunks of samples as the shared pass."""
    out = np.empty_like(u.spectra)
    size = spectral._CHUNK_BYTES // (16 * u.grid.size)
    for t0, t1 in spectral._chunks(u.n_samples, size):
        vals = nonlinear.evaluate(spec, centered_ifft(u.spectra[t0:t1], u.grid))
        out[t0:t1] = centered_fft(vals, u.grid)
    return out


def reference_scatter(cfg, u, u0_minus):
    """What scattering reports after the Picard loop, from two full-grid
    stacks: f(u) (reference_apply_to_trajectory), its integrand norms, and
    the Duhamel prefix summed in place over it. The prefix is the kernel's,
    not reference_duhamel's, whose full-grid phase exp rounds differently
    from the separable phasor. Returns u0_plus and the report's fields."""
    spec, partition = cfg.mod_spec(), cfg.partition()
    source = reference_apply_to_trajectory(cfg.nonlin, u)
    g_norms = modspace.mod_norm_series(source, spec, partition)
    dsp.duhamel_sum(cfg.coeffs, cfg.grid, u.times, source, cfg.grid.n // 2, prefix=True)
    last = np.broadcast_to(source[-1], source.shape)
    return {"u0_plus": u0_minus.spectrum + 1j * source[-1],
            "tail_minus": modspace.mod_norm_series(source, spec, partition).tolist(),
            "tail_plus": modspace.mod_norm_series((last, source), spec, partition).tolist(),
            "quad_tol": solver._quad_tolerance(u.times, g_norms),
            "tail_rate_start": float(g_norms[0]), "tail_rate_end": float(g_norms[-1])}


def reference_pointwise_map(fn, grid, *stacks, degree=None):
    """spectral._pointwise_map as it was with the shifted pair: a roll of the
    spectra before the inverse transform and after the forward one, and
    fresh arrays for every chunk, for the joint support it scans. Returns
    (stack, reach) like the pass."""
    W = max(spectral._scan_support(grid, s) for s in stacks)
    sub = spectral._support_grid(grid, 2 * degree, W) if degree else grid
    reach = degree * W if sub.n < grid.n else grid.n // 2
    width = spectral._box_width(grid, reach)
    axes = tuple(range(-grid.d, 0))
    out = np.empty((stacks[0].shape[0],) + (width,) * grid.d, dtype=np.complex128)
    for t0, t1 in spectral._chunks(out.shape[0], spectral._CHUNK_BYTES // (16 * sub.size)):
        vals = []
        for s in stacks:
            v = np.fft.ifftn(np.fft.ifftshift(spectral._rebox(s[t0:t1], grid.d, sub.n), axes),
                             axes=axes)
            v /= sub.h**grid.d
            vals.append(v)
        spec = np.fft.fftshift(np.fft.fftn(fn(*vals), axes=axes), axes)
        spec *= sub.h**grid.d
        out[t0:t1] = spectral._rebox(spec, grid.d, width)
    return out, reach


def reference_write_trajectory(path, traj):
    """The per-sample trajectory writer: one centered inverse transform, and
    one field block, per sample."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<q", traj.n_samples))
        fh.write(traj.times.astype("<f8").tobytes())
        for j in range(traj.n_samples):
            spectral._write_field_block(fh, traj.field(j))


def reference_split_step(cfg, u0):
    """split_step_oracle with the centered pair around each nonlinear
    substep; returns the spectra stack."""
    times, grid = cfg.times(), cfg.grid
    sub = max(1, int(cfg.oracle_substeps))
    stack = np.empty((times.size,) + grid.shape, dtype=np.complex128)
    spec = u0.spectrum.copy()
    stack[0] = spec
    for j in range(1, times.size):
        dt = (times[j] - times[j - 1]) / sub
        half = dsp.phasor(cfg.coeffs, grid, 0.5 * dt)
        for _ in range(sub):
            vals = solver._nonlinear_substep(cfg.nonlin, centered_ifft(spec * half, grid), dt)
            spec = centered_fft(vals, grid) * half
        stack[j] = spec
    return stack


def assert_support_sized(got, ref, reach):
    """A pass that ran on the support-sized grid: within 1e-13 max |ref| of
    the full-grid reference, and exactly zero outside |k|_inf <= reach."""
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    c = got.shape[-1] // 2
    outside = got.copy()
    outside[(Ellipsis,) + (slice(c - reach, c + reach + 1),) * (got.ndim - 1)] = 0.0
    assert not outside.any()


def assert_rel_close(got, expected, rel):
    """max |got - expected| <= rel * max |expected| (exact when expected is 0)."""
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= rel * np.max(np.abs(expected))


@pytest.fixture(scope="session")
def grid1d():
    return spectral.make_grid(1, 16 * math.pi, 512)


@pytest.fixture(scope="session")
def grid2d():
    return spectral.make_grid(2, 4 * math.pi, 128)


@pytest.fixture(scope="session")
def grid2d_small():
    return spectral.make_grid(2, 4 * math.pi, 64)


@pytest.fixture(scope="session")
def partition1d(grid1d):
    return modspace.build_partition(modspace.PartitionSpec("trigonometric-window", 7), grid1d)


@pytest.fixture(scope="session")
def partition2d(grid2d):
    return modspace.build_partition(modspace.PartitionSpec("trigonometric-window", 5), grid2d)


@pytest.fixture(scope="session")
def partition2d_bump(grid2d):
    return modspace.build_partition(modspace.PartitionSpec("piecewise-smooth-bump", 5), grid2d)
