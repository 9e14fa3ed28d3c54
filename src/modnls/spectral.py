"""Periodic-grid fields with exact centered Fourier transforms.

The continuum domain is approximated by the torus [-L, L)^d with L an
integer multiple of pi. That choice makes the frequency lattice spacing
1/M (M = L/pi), so every unit frequency box holds exactly M lattice
frequencies per axis and box multipliers are exact on the grid.

Conventions
-----------
Spatial samples live on x_j = -L + j*h, h = 2L/n. Spectra are stored in
"math order" (frequencies ascending, -n/2 .. n/2-1 times dxi = pi/L) and
are continuum-normalized:

    fhat(xi) = h^d * sum_x f(x) exp(-i x.xi)
    f(x)     = (dxi/(2 pi))^d * sum_xi fhat(xi) exp(i x.xi)

With these factors the discrete Plancherel identity reads
||f||_{L^2}^2 = h^d sum |f|^2 = (dxi/(2 pi))^d sum |fhat|^2.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "GridSpec",
    "SpectralField",
    "Trajectory",
    "make_grid",
    "lp_norm",
    "axpy",
    "pointwise_mul",
    "conj",
    "time_lp_norm",
    "trapezoid_weights",
    "write_field",
    "read_field",
    "write_trajectory",
    "read_trajectory",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L)^d.

    d : spatial dimension
    L : half-period, always pi * M for integer M >= 4
    n : points per axis, a power of two
    M : L / pi (stored so frequency bookkeeping stays integer-exact)
    """

    d: int
    L: float
    n: int
    M: int

    @property
    def h(self) -> float:
        """Spatial step 2L/n."""
        return 2.0 * self.L / self.n

    @property
    def dxi(self) -> float:
        """Frequency lattice spacing pi/L = 1/M."""
        return math.pi / self.L

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    def axis_points(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.n)

    def axis_frequencies(self) -> np.ndarray:
        """Frequencies in math order: (-n/2 .. n/2-1) * dxi."""
        return (np.arange(self.n) - self.n // 2) * self.dxi

    def frequency_mesh(self) -> tuple[np.ndarray, ...]:
        ax = self.axis_frequencies()
        return np.meshgrid(*([ax] * self.d), indexing="ij")

    def point_mesh(self) -> tuple[np.ndarray, ...]:
        ax = self.axis_points()
        return np.meshgrid(*([ax] * self.d), indexing="ij")


def make_grid(d: int, L: float, n: int, k_max: int | None = None) -> GridSpec:
    """Validate and build a GridSpec.

    L must be an integer multiple of pi (M >= 4) so unit boxes align with
    the lattice; n must be a power of two. If k_max is given, additionally
    require n >= 2M(2 k_max + 2) so that all boxes up to |k| <= k_max fit
    below the Nyquist frequency with room for the multiplier supports.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two, got {n}")
    M = L / math.pi
    M_int = round(M)
    if M_int < 4 or abs(M - M_int) > 1e-9 * max(1.0, abs(M)):
        raise ValueError(
            f"L must be pi*M for integer M >= 4, got L = {L} (L/pi = {M})"
        )
    if k_max is not None:
        need = 2 * M_int * (2 * k_max + 2)
        if n < need:
            raise ValueError(
                f"n = {n} too small for k_max = {k_max}: need n >= {need}"
            )
    return GridSpec(d=d, L=math.pi * M_int, n=n, M=M_int)


def _centered_fft(values: np.ndarray, h: float, d: int) -> np.ndarray:
    # math-ordered input (x ascending from -L) -> math-ordered spectrum
    work = np.fft.ifftshift(values)
    spec = np.fft.fftn(work)
    return np.fft.fftshift(spec) * (h**d)


def _centered_ifft(spectrum: np.ndarray, h: float, d: int) -> np.ndarray:
    work = np.fft.ifftshift(spectrum)
    vals = np.fft.ifftn(work)
    return np.fft.fftshift(vals) / (h**d)


class SpectralField:
    """Immutable complex field on a GridSpec with a cached spectrum.

    Either view (spatial values / frequency coefficients) may be supplied;
    the other is computed lazily. Arrays are marked read-only.
    """

    __slots__ = ("grid", "_values", "_spectrum")

    def __init__(self, grid: GridSpec, values=None, spectrum=None):
        if values is None and spectrum is None:
            raise ValueError("need values or spectrum")
        self.grid = grid
        self._values = self._own(grid, values)
        self._spectrum = self._own(grid, spectrum)

    @staticmethod
    def _own(grid: GridSpec, arr):
        if arr is None:
            return None
        a = np.asarray(arr, dtype=np.complex128)
        if a.shape != grid.shape:
            raise ValueError(f"array shape {a.shape} != grid shape {grid.shape}")
        a = a.copy()
        a.flags.writeable = False
        return a

    @classmethod
    def zero(cls, grid: GridSpec) -> "SpectralField":
        return cls(grid, values=np.zeros(grid.shape, dtype=np.complex128))

    @classmethod
    def single_mode(cls, grid: GridSpec, k_index) -> "SpectralField":
        """exp(i x . xi0) with xi0 = k_index * dxi (k_index integer lattice)."""
        k = np.asarray(k_index, dtype=np.int64).reshape(grid.d)
        if np.any(np.abs(k) > grid.n // 2 - 1):
            raise ValueError(f"mode index {k.tolist()} outside the lattice")
        xi0 = k * grid.dxi
        mesh = grid.point_mesh()
        phase = sum(x * x0 for x, x0 in zip(mesh, xi0))
        return cls(grid, values=np.exp(1j * phase))

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            vals = _centered_ifft(self._spectrum, self.grid.h, self.grid.d)
            vals.flags.writeable = False
            self._set("_values", vals)
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            spec = _centered_fft(self._values, self.grid.h, self.grid.d)
            spec.flags.writeable = False
            self._set("_spectrum", spec)
        return self._spectrum

    def _set(self, name, value):
        # __slots__ classes still allow normal attribute assignment
        object.__setattr__(self, name, value)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return axpy(1.0, self, other)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return axpy(-1.0, other, self)

    def __mul__(self, c) -> "SpectralField":
        if isinstance(c, SpectralField):
            return pointwise_mul(self, c)
        return SpectralField(self.grid, values=self.values * complex(c))

    __rmul__ = __mul__


def _require_same_grid(*fields: SpectralField) -> GridSpec:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError(f"grids differ: {f.grid} vs {grid}")
    return grid


def lp_norm(f: SpectralField, p) -> float:
    """Discrete L^p([-L,L)^d) norm: (sum |f|^p h^d)^(1/p); p = inf -> max |f|."""
    a = np.abs(f.values)
    if np.any(np.isnan(a)):
        raise ValueError("NaN values in field")
    if p == math.inf:
        return float(a.max())
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be in [1, inf], got {p}")
    h = f.grid.h
    if p == 2.0:
        return float(np.sqrt(np.sum(a * a)) * h ** (f.grid.d / 2.0))
    if p == 1.0:
        return float(np.sum(a) * h**f.grid.d)
    return float(np.sum(a**p) ** (1.0 / p) * h ** (f.grid.d / p))


def axpy(a, x: SpectralField, y: SpectralField) -> SpectralField:
    """a*x + y, computed in whichever view both operands have cached."""
    _require_same_grid(x, y)
    a = complex(a)
    # spectra are linear in the field, so reuse them when both are present
    if x._spectrum is not None and y._spectrum is not None:
        return SpectralField(x.grid, spectrum=a * x.spectrum + y.spectrum)
    return SpectralField(x.grid, values=a * x.values + y.values)


def pointwise_mul(f: SpectralField, g: SpectralField) -> SpectralField:
    _require_same_grid(f, g)
    return SpectralField(f.grid, values=f.values * g.values)


def conj(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, values=np.conj(f.values))


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for samples at `times`."""
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if t.size == 1:
        return np.array([0.0])
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError("times must be strictly increasing")
    w = np.zeros_like(t)
    w[:-1] += dt / 2.0
    w[1:] += dt / 2.0
    return w


def time_lp_norm(values, times, r) -> float:
    """Trapezoid L^r norm in time of per-sample nonnegative values."""
    v = np.asarray(values, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty trajectory")
    if v.shape[-1] != t.size:
        raise ValueError("values not aligned with times")
    if r == math.inf:
        return float(np.max(v, axis=-1)) if v.ndim == 1 else np.max(v, axis=-1)
    r = float(r)
    if r < 1.0:
        raise ValueError(f"r must be in [1, inf], got {r}")
    w = trapezoid_weights(t)
    acc = np.sum(w * v**r, axis=-1) ** (1.0 / r)
    return float(acc) if np.ndim(acc) == 0 else acc


class Trajectory:
    """Time-sampled fields sharing one grid, stored as a spectral stack.

    The canonical storage is the (N_t, n, ..., n) array of math-ordered
    spectra: every operation in the toolkit (propagation, Duhamel sums,
    box norms) acts on spectra, so spatial samples are materialized only
    on demand. Quadrature in time is the trapezoid rule.
    """

    quadrature = "trapezoid"

    def __init__(self, grid: GridSpec, times, spectra: np.ndarray):
        t = np.asarray(times, dtype=np.float64)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("times must be a non-empty 1-d array")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if spectra.shape != (t.size,) + grid.shape:
            raise ValueError(
                f"spectra shape {spectra.shape} != {(t.size,) + grid.shape}"
            )
        self.grid = grid
        self.times = t
        self.spectra = np.asarray(spectra, dtype=np.complex128)

    @classmethod
    def from_fields(cls, times, fields) -> "Trajectory":
        fields = list(fields)
        if not fields:
            raise ValueError("empty trajectory")
        grid = _require_same_grid(*fields)
        stack = np.stack([f.spectrum for f in fields])
        return cls(grid, times, stack)

    @property
    def n_samples(self) -> int:
        return self.times.size

    def field(self, j: int) -> SpectralField:
        return SpectralField(self.grid, spectrum=self.spectra[j])

    def values(self, j: int) -> np.ndarray:
        return _centered_ifft(self.spectra[j], self.grid.h, self.grid.d)


# ---------------------------------------------------------------------------
# serialization
#
# Field file layout (little endian): int64 d, float64 L, int64 n, then n^d
# complex128 spatial samples in row-major order. A trajectory file prepends
# int64 N_t and the float64 sample times, then stores one field block per
# sample (all on the same grid, header repeated per block for robustness).
# ---------------------------------------------------------------------------

_FIELD_HEADER = struct.Struct("<qdq")


def write_field(path, f: SpectralField) -> None:
    with open(path, "wb") as fh:
        _write_field_block(fh, f)


def _write_field_block(fh, f: SpectralField) -> None:
    fh.write(_FIELD_HEADER.pack(f.grid.d, f.grid.L, f.grid.n))
    data = np.ascontiguousarray(f.values, dtype="<c16")
    fh.write(data.tobytes())


def read_field(path_or_fh) -> SpectralField:
    if hasattr(path_or_fh, "read"):
        return _read_field_block(path_or_fh)
    with open(path_or_fh, "rb") as fh:
        return _read_field_block(fh)


def _read_field_block(fh) -> SpectralField:
    raw = fh.read(_FIELD_HEADER.size)
    if len(raw) != _FIELD_HEADER.size:
        raise ValueError("truncated field header")
    d, L, n = _FIELD_HEADER.unpack(raw)
    grid = make_grid(int(d), float(L), int(n))
    count = grid.size
    buf = fh.read(16 * count)
    if len(buf) != 16 * count:
        raise ValueError("truncated field data")
    values = np.frombuffer(buf, dtype="<c16").reshape(grid.shape)
    return SpectralField(grid, values=values)


def write_trajectory(path, traj: Trajectory) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<q", traj.n_samples))
        fh.write(traj.times.astype("<f8").tobytes())
        for j in range(traj.n_samples):
            _write_field_block(fh, traj.field(j))


def read_trajectory(path) -> Trajectory:
    with open(path, "rb") as fh:
        (nt,) = struct.unpack("<q", fh.read(8))
        times = np.frombuffer(fh.read(8 * nt), dtype="<f8").copy()
        fields = [_read_field_block(fh) for _ in range(nt)]
    return Trajectory.from_fields(times, fields)

