import math

import numpy as np
import pytest

from modnls import modspace, spectral


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
    mesh = f.grid.point_mesh()
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
