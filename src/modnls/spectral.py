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

import io
import math
import struct
from dataclasses import dataclass
from functools import partial, reduce
from itertools import product

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "GridSpec",
    "SpectralField",
    "Trajectory",
    "make_grid",
    "lp_norm",
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

    def axis_frequencies(self) -> np.ndarray:
        """Frequencies in math order: (-n/2 .. n/2-1) * dxi."""
        return (np.arange(self.n) - self.n // 2) * self.dxi


def make_grid(d: int, L: float, n: int) -> GridSpec:
    """Validate and build a GridSpec.

    L must be an integer multiple of pi (M >= 4) so unit boxes align with
    the lattice; n must be a power of two. Whether the boxes up to a k_max
    fit below the Nyquist frequency is the partition's check
    (modspace.Partition).
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
    return GridSpec(d=d, L=math.pi * M_int, n=n, M=M_int)


_CHUNK_BYTES = 1 << 19  # working set of one chunk of a pass over a stack


def _chunks(total: int, size: int) -> list[tuple[int, int]]:
    """Near-equal [lo, hi) ranges of at most max(size, 1) covering total."""
    step = -(-total // -(-total // max(1, size)))
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _n_samples(stacks) -> int:
    return (stacks[0] if isinstance(stacks, tuple) else stacks).shape[0]


def _stack_rows(stacks, rows: slice, d: int, width: int) -> np.ndarray:
    """Samples `rows` of a spectral stack, or of A - B for a pair (A, B), on
    the centered box of `width` points per axis (see _rebox); a pair is cut
    before it is subtracted."""
    if isinstance(stacks, tuple):
        return _rebox(stacks[0][rows], d, width) - _rebox(stacks[1][rows], d, width)
    return _rebox(stacks[rows], d, width)


def _abs2(x: np.ndarray) -> np.ndarray:
    out = np.square(x.real)
    out += np.square(x.imag)  # in place: one temporary fewer
    return out


def _centered(transform, scale, x: np.ndarray, grid: GridSpec) -> np.ndarray:
    """A copy of x transformed by T (np.fft.ifftn or fftn) over its trailing
    d axes and scaled by h^d (np.divide or np.multiply), with the half-period
    shifts of the centered pair but no shift made: for the sign s of
    _flip_odd, fftshift(T(ifftshift(x))) = (-1)^(d n/2) s T(s x) bit for bit,
    and the factor (-1)^(d n/2) is -1 only for n = 2 points in odd d."""
    out = np.array(x, dtype=np.complex128)
    _flip_odd(out, grid.d)
    transform(out, axes=tuple(range(-grid.d, 0)), out=out)
    _flip_odd(out, grid.d)
    if grid.n == 2 and grid.d % 2:
        np.negative(out, out=out)
    return scale(out, grid.h**grid.d, out=out)


# math-ordered spectra -> math-ordered samples (x ascending from -L), and back
_centered_ifft = partial(_centered, np.fft.ifftn, np.divide)
_centered_fft = partial(_centered, np.fft.fftn, np.multiply)


def _flip_odd(x: np.ndarray, d: int) -> None:
    """Multiply x in place by s = (-1)^(j_1 + .. + j_d) over its trailing d
    axes, by exact negation of the odd-parity points (a complex multiply by
    -1 would turn an inf component into NaN). For even n this is the
    half-period shift of the other side of a transform:
    ifftn(ifftshift(F)) = s ifftn(F) and fftshift(fftn(g)) = fftn(s g),
    both bit for bit on the power-of-two grids of pocketfft."""
    for starts in product((0, 1), repeat=d):
        if sum(starts) % 2:
            view = x[(Ellipsis,) + tuple(slice(j, None, 2) for j in starts)]
            np.negative(view, out=view)


def _physical_chunks(grid: GridSpec, *stacks: np.ndarray):
    """The one pass of spectral stacks to physical space, in lockstep: yields
    (rows, [samples `rows` of each stack]) for chunks of about _CHUNK_BYTES
    of samples. The samples are ifftn of the math-ordered spectra: in FFT
    order (x = 0 first) and times the sign s of _flip_odd, which neither a
    sum of |v|^p nor a max sees. A stack holding a box narrower or wider
    than the grid is padded or cropped to it. Each stack has one chunk
    buffer, transformed in place and overwritten by the next chunk."""
    chunks = _chunks(stacks[0].shape[0], _CHUNK_BYTES // (16 * grid.size))
    axes = tuple(range(-grid.d, 0))
    bufs = [np.empty((chunks[0][1],) + grid.shape, dtype=np.complex128) for _ in stacks]
    for t0, t1 in chunks:
        vals = [buf[:t1 - t0] for buf in bufs]
        for s, v in zip(stacks, vals):
            rows = s[t0:t1]
            if rows.shape[-1] < grid.n:
                v.fill(0.0)
                _rebox(v, grid.d, rows.shape[-1])[...] = rows
            else:
                v[...] = _rebox(rows, grid.d, grid.n)
            np.fft.ifftn(v, axes=axes, out=v)
            v /= grid.h**grid.d
        yield slice(t0, t1), vals


def _box_width(grid: GridSpec, W: int) -> int:
    """Points per axis of the box |k|_inf <= W of the grid: 2W + 1, or n for
    the whole grid (W >= n/2)."""
    return grid.n if 2 * W >= grid.n else 2 * W + 1


def _rebox(stack: np.ndarray, d: int, width: int) -> np.ndarray:
    """A spectrum or stack whose trailing d axes hold a centered lattice box
    (math order, k = 0 at index width // 2; the whole grid is the box of n
    points) re-centred to `width` points per axis: a view of the middle when
    it shrinks, a zero-padded copy when it grows."""
    have = stack.shape[-1]
    if width <= have:
        lo = have // 2 - width // 2
        return stack[(Ellipsis,) + (slice(lo, lo + width),) * d]
    out = np.zeros(stack.shape[:-d] + (width,) * d, dtype=stack.dtype)
    lo = width // 2 - have // 2
    out[(Ellipsis,) + (slice(lo, lo + have),) * d] = stack
    return out


def _scan_support(grid: GridSpec, stack: np.ndarray) -> int:
    """The support of a spectral stack (full-grid or box-stored, see _rebox):
    the largest |k|_inf, in lattice steps from the center, of any exactly
    nonzero coefficient (NaN counts as nonzero), 0 for a zero stack. The
    scan reads a chunk of samples at a time; a full-grid stack that fills
    the grid (a split-step solution) already shows it on the k_1 = -n/2
    face of its last sample, and the scan ends there."""
    if stack.shape[-1] == grid.n and np.any(stack[-1, 0]):
        return grid.n // 2
    d, c, W = grid.d, stack.shape[-1] // 2, 0
    for t0, t1 in _chunks(stack.shape[0], _CHUNK_BYTES // stack[0].size):
        live = np.any(stack[t0:t1] != 0, axis=0)
        for axis in range(d):
            idx = np.flatnonzero(live.any(axis=tuple(a for a in range(d) if a != axis)))
            if idx.size:
                W = max(W, c - int(idx[0]), int(idx[-1]) - c)
    return W


def _support_grid(grid: GridSpec, factor: int, W: int) -> GridSpec:
    """GridSpec(d, L, n', M) for the smallest power of two n' > factor * W,
    or the grid itself unless n' < n.

    On n' points a product of D factors of support W is alias-free for
    factor = 2 D, and the Riemann sum of |f|^p (even p) is its exact
    integral for factor = p, so either pass gives the full-grid result there.
    """
    n = 2
    while n <= factor * W:
        n *= 2
    return GridSpec(grid.d, grid.L, n, grid.M) if n < grid.n else grid


def _pass_grid(grid: GridSpec, support: int, degree: int | None) -> tuple[GridSpec, int]:
    """(the grid n' of the pass of _pointwise_chunks, the reach of its output:
    D W wherever the pass is alias-free, 2 D W < n', else n/2)."""
    sub = _support_grid(grid, 2 * degree, support) if degree else grid
    return sub, (degree * support if degree and 2 * degree * support < sub.n else grid.n // 2)


def _pointwise_chunks(fn, grid: GridSpec, *stacks: np.ndarray, support: int,
                      degree: int | None = None, out: np.ndarray | None = None):
    """The pass to physical space and back, a chunk of samples at a time,
    for fn pointwise in x on inputs of joint `support` W: yields (rows, F),
    F the spectra of fn(*samples) at `rows` on the box of the reach, in
    out[rows] if `out` is given, else in fn's output. A fn of `degree` D is
    a sum of products of D factors, each an input or its conjugate, times
    constants: it runs on the support-sized grid n' (_support_grid), and
    where 2 D W < n' it is alias-free with reach |k| <= D W as its support;
    an aliased pass, or a fn without a degree, reaches the grid, n/2.
    The sign s of _flip_odd on the inputs and on fn's output stands in for
    the half-period shifts of the centered pair, bit for bit. Negation
    commutes exactly with IEEE products and conj, so fn(s v) = s^D fn(v):
    a fn of degree D takes its inputs as they come, and its output is
    negated only for even D."""
    sub, reach = _pass_grid(grid, support, degree)
    width = _box_width(grid, reach)
    axes = tuple(range(-grid.d, 0))
    for rows, vals in _physical_chunks(sub, *stacks):
        if degree is None:
            for v in vals:
                _flip_odd(v, grid.d)
        g = np.asarray(fn(*vals), dtype=np.complex128)
        if degree is None or degree % 2 == 0:
            _flip_odd(g, grid.d)
        np.fft.fftn(g, axes=axes, out=g)
        g = _rebox(g, grid.d, width)
        dest = np.multiply(g, sub.h**grid.d, out=g if out is None else out[rows])
        # with `out`, free fn's output before fn makes the next chunk's, so that
        # malloc reuses the block instead of trimming it and faulting in new pages
        del g
        yield rows, dest


def _pointwise_map(fn, *trajs: Trajectory, degree: int | None = None,
                   out: np.ndarray | None = None) -> Trajectory:
    """fn over the samples of Trajectories on one grid and times, by the pass
    of _pointwise_chunks: a Trajectory whose support is the reach, its stack
    written into `out`, a stack nothing else reads, when that has the shape."""
    grid, support = trajs[0].grid, max(tr.support for tr in trajs)
    reach = _pass_grid(grid, support, degree)[1]
    shape = (trajs[0].n_samples,) + (_box_width(grid, reach),) * grid.d
    if out is None or out.shape != shape:
        out = np.empty(shape, dtype=np.complex128)
    for _ in _pointwise_chunks(fn, grid, *(tr.box for tr in trajs), support=support,
                               degree=degree, out=out):
        pass
    return Trajectory(grid, trajs[0].times, out, support=reach)


def _lp_series(stack: np.ndarray, grid: GridSpec, p, support: int) -> np.ndarray:
    """lp_norm of every sample of a spectral stack of `support` W, as a (T,)
    array: by Plancherel for p = 2, on the support-sized grid for other even
    p, on the full grid otherwise. Raises, like lp_norm, when a sample
    holds NaN."""
    if p == 2:
        out = np.sqrt(_plancherel(stack, grid, support))
    else:
        even = 2 < p < math.inf and float(p) % 2 == 0
        sub = _support_grid(grid, int(p), support) if even else grid
        out = np.empty(stack.shape[0])
        for rows, (vals,) in _physical_chunks(sub, stack):
            out[rows] = _lp(vals, sub, p)
    if np.isnan(out).any():
        raise ValueError("NaN values in field")
    return out


def _plancherel(stacks, grid: GridSpec, support: int,
                keep: np.ndarray | None = None) -> np.ndarray:
    """Squared L^2 norm of every sample of a spectral stack, or of A - B for
    a pair (A, B), with no transform: (dxi/(2 pi))^d sum |w F|^2, summed over
    the box |k|_inf <= W of the stacks' `support` W only. The spectral weight
    w is 1, or 1 - keep (x) .. (x) keep for a per-axis (n,) vector `keep` in
    math order, built on that box only."""
    width = _box_width(grid, support)
    if keep is not None:
        weight = 1.0 - reduce(np.multiply.outer, [_rebox(keep, 1, width)] * grid.d)
    T = _n_samples(stacks)
    out = np.empty(T)
    for t0, t1 in _chunks(T, _CHUNK_BYTES // (16 * width**grid.d)):
        x = _stack_rows(stacks, slice(t0, t1), grid.d, width)
        if keep is not None:
            x = x * weight
        out[t0:t1] = _abs2(x).reshape(t1 - t0, -1).sum(axis=1)
    return out * (grid.dxi / (2.0 * math.pi)) ** grid.d


class SpectralField:
    """Immutable complex field on a GridSpec with a cached spectrum.

    Either view (spatial values / frequency coefficients) may be supplied;
    the other is computed lazily. Arrays are marked read-only. `support`
    (see Trajectory) is scanned on first use unless the maker passed it.
    """

    __slots__ = ("grid", "_values", "_spectrum", "_support")

    def __init__(self, grid: GridSpec, values=None, spectrum=None):
        if values is None and spectrum is None:
            raise ValueError("need values or spectrum")
        self.grid = grid
        self._values = self._own(grid, values)
        self._spectrum = self._own(grid, spectrum)
        self._support = None

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
    def _adopt(cls, grid: GridSpec, spectrum: np.ndarray, support: int) -> "SpectralField":
        """The field of a complex128 spectrum of the grid's shape and known
        support. An array that owns its data is one the caller just made and
        drops: it is marked read-only and kept; a view is copied. (A fresh
        copy of 1 MiB costs more in page faults than in copying.)"""
        if spectrum.base is not None:
            spectrum = spectrum.copy()
        f = cls.__new__(cls)
        spectrum.flags.writeable = False
        f.grid, f._values, f._spectrum, f._support = grid, None, spectrum, support
        return f

    @classmethod
    def zero(cls, grid: GridSpec) -> "SpectralField":
        return cls(grid, values=np.zeros(grid.shape, dtype=np.complex128))

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            vals = _centered_ifft(self._spectrum, self.grid)
            vals.flags.writeable = False
            self._values = vals
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            spec = _centered_fft(self._values, self.grid)
            spec.flags.writeable = False
            self._spectrum = spec
        return self._spectrum

    @property
    def support(self) -> int:
        if self._support is None:
            self._support = _scan_support(self.grid, self.spectrum[None])
        return self._support


def _exponent(name: str, x) -> float:
    """A norm exponent as a float in [1, inf]; anything else, NaN included,
    raises."""
    x = float(x)
    if not 1.0 <= x <= math.inf:
        raise ValueError(f"{name} must be in [1, inf], got {x}")
    return x


def _lp(values: np.ndarray, grid: GridSpec, p):
    """(sum |f|^p h^d)^(1/p) over the trailing d axes; p = inf -> max |f|."""
    p = _exponent("p", p)
    a = np.abs(values)
    axes = tuple(range(-grid.d, 0))
    if p == math.inf:
        return a.max(axis=axes)
    h = grid.h
    if p == 2.0:
        return np.sqrt(np.sum(a * a, axis=axes)) * h ** (grid.d / 2.0)
    if p == 1.0:
        return np.sum(a, axis=axes) * h**grid.d
    return np.sum(a**p, axis=axes) ** (1.0 / p) * h ** (grid.d / p)


def lp_norm(f: SpectralField, p) -> float:
    """Discrete L^p([-L,L)^d) norm: (sum |f|^p h^d)^(1/p); p = inf -> max |f|."""
    value = float(_lp(f.values, f.grid, p))
    if math.isnan(value):
        raise ValueError("NaN values in field")
    return value


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
    r = _exponent("r", r)
    if r == math.inf:
        return float(np.max(v, axis=-1)) if v.ndim == 1 else np.max(v, axis=-1)
    w = trapezoid_weights(t)
    acc = np.sum(w * v**r, axis=-1) ** (1.0 / r)
    return float(acc) if np.ndim(acc) == 0 else acc


class Trajectory:
    """Time-sampled fields sharing one grid, stored as a spectral stack.

    Every operation in the toolkit (propagation, Duhamel sums, box norms)
    acts on math-ordered spectra, so spatial samples are materialized only
    on demand. Quadrature in time is the trapezoid rule.

    `support` is a bound W on the spectral support: every coefficient with
    |k|_inf > W is exactly zero (W = n/2 is the whole grid), scanned from
    `spectra` unless given. The producers give it (the free flow, the Duhamel
    sums, the pointwise maps). The stored stack `box` is the centered crop
    |k|_inf <= W, of shape (N_t, 2W + 1, ..); with W >= n/2 it is the whole
    (N_t, n, .., n) stack. The consumers read `box` (see _rebox); `spectra`,
    the full-grid stack, is materialized read-only on access. `spectra`
    passed in may be the full stack or a box: it is re-centred (see _rebox).
    """

    def __init__(self, grid: GridSpec, times, spectra: np.ndarray,
                 support: int | None = None):
        t = np.asarray(times, dtype=np.float64)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("times must be a non-empty 1-d array")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        have = spectra.shape[-1]
        if spectra.shape != (t.size,) + (_box_width(grid, have // 2),) * grid.d:
            raise ValueError(
                f"spectra shape {spectra.shape} != {(t.size,) + grid.shape}"
            )
        if support is None:
            support = _scan_support(grid, spectra)
        width = _box_width(grid, support)
        self.grid = grid
        self.times = t
        self.box = np.asarray(spectra if have == width else _rebox(spectra, grid.d, width),
                              dtype=np.complex128)
        self.support = support

    @classmethod
    def from_fields(cls, times, fields) -> "Trajectory":
        fields = list(fields)
        if not fields:
            raise ValueError("empty trajectory")
        grid = fields[0].grid
        for f in fields[1:]:
            if f.grid != grid:
                raise GridMismatchError(f"grids differ: {f.grid} vs {grid}")
        stack = np.stack([f.spectrum for f in fields])
        return cls(grid, times, stack)

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def spectra(self) -> np.ndarray:
        """The full-grid (N_t, n, .., n) stack, read-only."""
        full = _rebox(self.box, self.grid.d, self.grid.n)
        full.flags.writeable = False
        return full

    def field(self, j: int) -> SpectralField:
        return SpectralField._adopt(self.grid, _rebox(self.box[j], self.grid.d, self.grid.n),
                                    self.support)

    def values(self, j: int) -> np.ndarray:
        return _centered_ifft(_rebox(self.box[j], self.grid.d, self.grid.n), self.grid)


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


def _read_exact(fh, nbytes: int, what: str) -> bytes:
    """The next nbytes of fh. A header may claim more than the file holds,
    so the bytes left are counted (seek to the end and back) before the read."""
    pos = fh.tell()
    if nbytes > fh.seek(0, io.SEEK_END) - pos:
        raise ValueError(f"truncated {what}")
    fh.seek(pos)
    return fh.read(nbytes)


def _read_field_block(fh) -> SpectralField:
    d, L, n = _FIELD_HEADER.unpack(_read_exact(fh, _FIELD_HEADER.size, "field header"))
    grid = make_grid(int(d), float(L), int(n))
    # n^d >= 2^d, so no file holds d >= 64: the claim is not formed from such a d
    buf = _read_exact(fh, 16 * grid.size if grid.d < 64 else math.inf, "field data")
    return SpectralField(grid, values=np.frombuffer(buf, dtype="<c16").reshape(grid.shape))


def write_trajectory(path, traj: Trajectory) -> None:
    grid = traj.grid
    header = _FIELD_HEADER.pack(grid.d, grid.L, grid.n)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<q", traj.n_samples))
        fh.write(traj.times.astype("<f8").tobytes())
        for t0, t1 in _chunks(traj.n_samples, _CHUNK_BYTES // (16 * grid.size)):
            for values in _centered_ifft(_rebox(traj.box[t0:t1], grid.d, grid.n), grid):
                fh.write(header)
                fh.write(np.ascontiguousarray(values, dtype="<c16").tobytes())


def read_trajectory(path) -> Trajectory:
    with open(path, "rb") as fh:
        (nt,) = struct.unpack("<q", _read_exact(fh, 8, "trajectory header"))
        if nt < 0:
            raise ValueError(f"trajectory header claims N_t = {nt} < 0")
        times = np.frombuffer(_read_exact(fh, 8 * nt, f"trajectory times (N_t = {nt})"),
                              dtype="<f8").copy()
        fields = [_read_field_block(fh) for _ in range(nt)]
    return Trajectory.from_fields(times, fields)

