"""Frequency-uniform decomposition and the modulation / Planchon norms.

A partition of unity (sigma_k) adapted to the unit boxes Q_k is realized
as a tensor product of one-dimensional windows w with supp w = [-1, 1],
w >= 1/2 on [-1/2, 1/2] and sum_j w(xi - j) = 1. Two window families are
shipped (a normalized polynomial bump and a cos^2 window) so that the
equivalence of the resulting norms can be measured instead of assumed.

Norm evaluation is exact but avoids full-grid inverse transforms where
possible, and handles all boxes and samples of a stack in one call: a box
piece is band-limited to a (2M+1)-wide frequency window, so the L^2 norms
of all boxes are one Plancherel pass (|F|^2 contracted with the squared
window along each axis), and for even p the L^p quadrature is evaluated on
a reduced grid of R = p*M + 1 points per axis, where the Riemann sum of the
trigonometric polynomial |g|^p is already the exact integral (hence equal
to the full-grid sum). Odd, fractional and infinite p fall back to the
full grid. The `reference` method forces the full-grid path everywhere;
it exists to validate and benchmark the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import (
    GridSpec,
    SpectralField,
    Trajectory,
    time_lp_norm,
)

__all__ = [
    "PartitionSpec",
    "Partition",
    "ModNormSpec",
    "PlanchonNormSpec",
    "NormResult",
    "XNormResult",
    "build_partition",
    "box",
    "mod_norm",
    "mod_norm_series",
    "planchon_norm",
    "x_norm",
    "x_norm_diff",
    "japanese_bracket",
]

PARTITION_KINDS = ("piecewise-smooth-bump", "trigonometric-window")


@dataclass(frozen=True)
class PartitionSpec:
    kind: str = "trigonometric-window"
    k_max: int = 2

    def __post_init__(self):
        if self.kind not in PARTITION_KINDS:
            raise ValueError(f"unknown partition kind {self.kind!r}")
        if self.k_max < 2:
            raise ValueError(f"k_max must be >= 2, got {self.k_max}")


def _window_trig(offsets: np.ndarray) -> np.ndarray:
    """cos^2(pi xi / 2) on [-1, 1]; adjacent translates sum to one."""
    w = np.where(np.abs(offsets) < 1.0, np.cos(np.pi * offsets / 2.0) ** 2, 0.0)
    return w


def _window_bump(offsets: np.ndarray) -> np.ndarray:
    """(1 - xi^2)^4 bump normalized by the sum over integer translates."""

    def b(x):
        return np.where(np.abs(x) < 1.0, (1.0 - x**2) ** 4, 0.0)

    num = b(offsets)
    den = num + b(offsets - 1.0) + b(offsets + 1.0)
    out = np.zeros_like(num)
    inside = num > 0.0
    out[inside] = num[inside] / den[inside]
    return out


_WINDOWS = {
    "trigonometric-window": _window_trig,
    "piecewise-smooth-bump": _window_bump,
}


def japanese_bracket(k) -> float:
    k = np.asarray(k, dtype=np.float64)
    return float(np.sqrt(1.0 + np.sum(k * k)))


class Partition:
    """A partition of unity realized on one grid.

    Stores the single 1-d window sample vector (identical for every box up
    to translation, which is what makes the windowed norm path cheap) and
    the per-axis coverage sum used for truncation residuals.
    """

    def __init__(self, spec: PartitionSpec, grid: GridSpec):
        M, n, K = grid.M, grid.n, spec.k_max
        if n < 2 * M * (2 * K + 2):
            raise ValueError(
                f"Nyquist overflow: k_max = {K} needs n >= {2 * M * (2 * K + 2)}, got {n}"
            )
        self.spec = spec
        self.grid = grid
        self.k_max = K
        offsets = (np.arange(2 * M + 1) - M) / M  # (-1 .. 1) at lattice spacing
        self.window_1d = _WINDOWS[spec.kind](offsets)
        # window must vanish at the ends so supp sigma_k stays inside B_sqrt(d)(k)
        if self.window_1d[0] != 0.0 or self.window_1d[-1] != 0.0:
            raise ValueError("window does not vanish at |offset| = 1")
        self._validate_partition_of_unity()
        # achieved lower bound of sigma_k on Q_k (attained at box corners)
        half = slice(M // 2, 3 * M // 2 + 1)  # offsets in [-1/2, 1/2]
        self.achieved_C = float(np.min(self.window_1d[half])) ** grid.d
        # per-axis coverage: sum of retained translates at every lattice frequency
        cov = np.zeros(n)
        for j in range(-K, K + 1):
            lo = n // 2 + (j - 1) * M
            cov[lo : lo + 2 * M + 1] += self.window_1d
        self.coverage_1d = cov
        self.boxes = [k for k in product(range(-K, K + 1), repeat=grid.d)]
        self.brackets = np.array([japanese_bracket(k) for k in self.boxes])
        # lattice rows of one axis covered by the boxes k = -K .. K
        self.inner_slice = slice(n // 2 - (K + 1) * M, n // 2 + (K + 1) * M + 1)
        self._synthesis: dict[int, np.ndarray] = {}
        self._residual = 1.0 - reduce(np.multiply.outer, [cov] * grid.d)

    def _validate_partition_of_unity(self):
        # 1-d translates must sum to one on the covered lattice range; the
        # tensor structure then gives the d-dimensional identity.
        M = self.grid.M
        K = self.k_max
        n_inner = (2 * (K - 1)) * M + 1
        total = np.zeros(n_inner)
        base = (np.arange(n_inner) - (n_inner - 1) / 2) / M  # xi in [-(K-1), K-1]
        for j in range(-K, K + 1):
            total += _WINDOWS[self.spec.kind](base - j)
        residual = float(np.max(np.abs(total - 1.0)))
        if residual > 1e-12:
            raise ValueError(f"partition-of-unity residual {residual:.3e} > 1e-12")
        self.pou_residual = residual

    # -- per-box geometry ---------------------------------------------------

    def box_slices(self, k) -> tuple[slice, ...]:
        c, M = self.grid.n // 2, self.grid.M
        return tuple(slice(c + (int(ki) - 1) * M, c + (int(ki) + 1) * M + 1) for ki in k)

    def window_nd(self) -> np.ndarray:
        return reduce(np.multiply.outer, [self.window_1d] * self.grid.d)

    def _check_k(self, k):
        if len(k) != self.grid.d:
            raise ValueError(f"box index {k} has wrong length for d = {self.grid.d}")
        if max(abs(int(ki)) for ki in k) > self.k_max:
            raise ValueError(f"box index {k} outside |k| <= {self.k_max}")

    def residual_multiplier(self) -> np.ndarray:
        """1 - sum_k sigma_k on the lattice (tensor product of coverages)."""
        return self._residual

    def weights(self, s) -> np.ndarray:
        """<k>^s for every box, in `boxes` order."""
        return self.brackets ** float(s)

    def synthesis_matrix(self, R: int) -> np.ndarray:
        """(2M+1, R) matrix taking one axis of a box window to R equispaced
        points: window_1d[m] (dxi / 2 pi) exp(2 pi i j m / R). The box offset
        only adds a unimodular phase, which no |.|^p norm sees."""
        mat = self._synthesis.get(R)
        if mat is None:
            m = np.arange(2 * self.grid.M + 1)
            phase = np.exp(2j * np.pi * (np.outer(m, np.arange(R)) % R) / R)
            mat = (self.grid.dxi / (2.0 * math.pi)) * self.window_1d[:, None] * phase
            self._synthesis[R] = mat
        return mat


def build_partition(spec: PartitionSpec, grid: GridSpec) -> Partition:
    return Partition(spec, grid)


def box(partition: Partition, k, f: SpectralField) -> SpectralField:
    """Box operator: inverse transform of sigma_k times the spectrum."""
    partition._check_k(k)
    if f.grid != partition.grid:
        raise ValueError("field grid does not match partition grid")
    spec = np.zeros(partition.grid.shape, dtype=np.complex128)
    sl = partition.box_slices(k)
    spec[sl] = f.spectrum[sl] * partition.window_nd()
    return SpectralField(partition.grid, spectrum=spec)


# ---------------------------------------------------------------------------
# norm specifications and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModNormSpec:
    p: object = 2
    q: object = 1
    s: float = 0.0


@dataclass(frozen=True)
class PlanchonNormSpec:
    s: float = 0.0
    q: object = 1
    r: object = math.inf
    p: object = 2


@dataclass(frozen=True)
class NormResult:
    value: float
    truncation_residual: float

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class XNormResult:
    value: float
    part_l2: float  # l^{s,q}(L^inf_t L^2_x) component
    part_lp: float  # l^{s,q}(L^r_t L^p_x) component
    truncation_residual: float

    def __float__(self):
        return self.value


def _lq_aggregate(values: np.ndarray, q, axis=None):
    """l^q over boxes: of a (n_boxes,) vector, or along `axis` of a table."""
    if q == math.inf:
        out = values.max(axis=axis, initial=0.0)
    elif float(q) == 1.0:
        out = values.sum(axis=axis)
    else:
        out = np.sum(values ** float(q), axis=axis) ** (1.0 / float(q))
    return out if axis is not None else float(out)


def _box_windows(x: np.ndarray, M: int, axis: int) -> np.ndarray:
    """Strided view of the (2M+1)-wide box windows along `axis`, one per box.

    Boxes start M lattice points apart, so stepping the sliding-window view
    by M is a basic slice: nothing is copied. The window becomes the last
    axis; `axis` enumerates the boxes.
    """
    view = sliding_window_view(x, 2 * M + 1, axis=axis)
    return view[(slice(None),) * axis + (slice(None, None, M),)]


def _abs2(x: np.ndarray) -> np.ndarray:
    return np.square(x.real) + np.square(x.imag)


def _n_samples(stacks) -> int:
    return (stacks[0] if isinstance(stacks, tuple) else stacks).shape[0]


def _chunks(total: int, size: int) -> list[tuple[int, int]]:
    """Near-equal [lo, hi) ranges of at most max(size, 1) covering total."""
    step = -(-total // -(-total // max(1, size)))
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


_CHUNK_BYTES = 1 << 19  # working set of one chunk of the all-box passes


class _BoxNormEngine:
    """Per-box L^p norms of (stacks of) spectra for one partition.

    `series` returns the (n_boxes, T) table of norms for every box and
    sample in one call. method "fast" takes the Plancherel pass for p = 2,
    the pruned DFT for even p and the full grid otherwise; "reference"
    takes the full grid for every p. Both agree to roundoff.

    `stacks` is a spectra array (T, n, ..) or a pair (A, B) whose
    difference is measured; the difference is formed chunk by chunk, so
    the full difference stack is never materialized.
    """

    def __init__(self, partition: Partition, method: str = "fast"):
        if method not in ("fast", "reference"):
            raise ValueError(f"unknown method {method!r}")
        self.partition = partition
        self.method = method
        grid = partition.grid
        self._l2_factor = (grid.dxi / (2.0 * math.pi)) ** grid.d

    @staticmethod
    def _region(stacks, rows: slice, sl: tuple) -> np.ndarray:
        """Samples `rows` of the stack (or of A - B) restricted to `sl`."""
        if isinstance(stacks, tuple):
            return stacks[0][rows][sl] - stacks[1][rows][sl]
        return stacks[rows][sl]

    @staticmethod
    def _by_box(table: np.ndarray) -> np.ndarray:
        """(T, nb, .., nb) -> (n_boxes, T), boxes in partition order."""
        return np.ascontiguousarray(table.reshape(table.shape[0], -1).T)

    def series(self, stacks, p, l2: np.ndarray | None = None) -> np.ndarray:
        """(n_boxes, T) table of per-box L^p norms; `l2` may pass the p = 2
        table when the caller already has it."""
        p = math.inf if p == math.inf else float(p)  # exact exponents end here
        grid = self.partition.grid
        # |g|^p = (g conj(g))^(p/2) for a window-limited g has index bandwidth
        # p*M per axis, so R = p*M + 1 points integrate it exactly; beyond n
        # points the n-point sum is the defining quadrature, so keep it
        reduced = p != math.inf and p % 2 == 0 and p * grid.M < grid.n
        if self.method == "reference" or not (p == 2.0 or reduced):
            return self._full_grid(stacks, p)
        if l2 is None:
            l2 = self._plancherel(stacks)
        return l2 if p == 2.0 else self._pruned_dft(stacks, int(p), l2)

    def _plancherel(self, stacks) -> np.ndarray:
        """All box L^2 norms at once: |F|^2 on the region covering every box,
        contracted with window_1d**2 along each axis."""
        part = self.partition
        d, M = part.grid.d, part.grid.M
        inner = (slice(None),) + (part.inner_slice,) * d
        w2 = part.window_1d**2
        T = _n_samples(stacks)
        out = np.empty((T,) + (2 * part.k_max + 1,) * d)
        width = part.inner_slice.stop - part.inner_slice.start
        for t0, t1 in _chunks(T, _CHUNK_BYTES // (16 * width**d)):
            sq = _abs2(self._region(stacks, slice(t0, t1), inner))
            for axis in range(1, d + 1):
                sq = _box_windows(sq, M, axis) @ w2
            out[t0:t1] = sq
        return np.sqrt(self._l2_factor * self._by_box(out))

    def _pruned_dft(self, stacks, p: int, l2: np.ndarray) -> np.ndarray:
        """Even p: synthesize each box piece on R = p*M + 1 points per axis.

        One (2M+1, R) synthesis matrix serves every box (the box offset only
        adds a unimodular phase), so each axis of the box windows is one
        matrix product. Only the boxes inside the bounding box of the
        nonzero L^2 series are synthesized; the others are exactly zero.
        """
        part = self.partition
        grid = part.grid
        d, M, nb, T = grid.d, grid.M, 2 * part.k_max + 1, l2.shape[1]
        out = np.zeros((T,) + (nb,) * d)
        live = l2.reshape((nb,) * d + (T,)).any(axis=-1)
        if not live.any():
            return self._by_box(out)
        R = p * M + 1
        synth = part.synthesis_matrix(R)
        lows, counts = [], []
        for axis in range(d):
            alive = np.flatnonzero(live.any(axis=tuple(set(range(d)) - {axis})))
            lows.append(int(alive[0]))
            counts.append(int(alive[-1]) + 1 - lows[-1])
        start = part.inner_slice.start
        rest = tuple(slice(start + lo * M, start + (lo + c + 1) * M + 1)
                     for lo, c in zip(lows[1:], counts[1:]))
        # chunks of (samples, boxes along axis 1) of about _CHUNK_BYTES each
        row_bytes = 16 * R**d * math.prod(counts[1:])
        k_step = _CHUNK_BYTES // row_bytes
        sums = np.empty((T,) + tuple(counts))
        for t0, t1 in _chunks(T, k_step // counts[0]):
            for k0, k1 in _chunks(counts[0], k_step):
                lo = start + (lows[0] + k0) * M
                x = self._region(stacks, slice(t0, t1),
                                 (slice(None), slice(lo, lo + (k1 - k0 + 1) * M + 1)) + rest)
                for axis in range(1, d + 1):  # one gemm on a compact copy of the windows
                    win = np.ascontiguousarray(_box_windows(x, M, axis))
                    x = (win.reshape(-1, 2 * M + 1) @ synth).reshape(win.shape[:-1] + (R,))
                # sum over the reduced grid of |v|^p = (re^2 + im^2)^(p/2)
                a = _abs2(x.reshape(-1, R**d))
                sums[t0:t1, k0:k1] = np.einsum(*[a, [0, 1]] * (p // 2), [0]).reshape(
                    x.shape[:-d])
        live_boxes = tuple(slice(lo, lo + c) for lo, c in zip(lows, counts))
        out[(slice(None),) + live_boxes] = sums ** (1.0 / p) * (2.0 * grid.L / R) ** (d / p)
        return self._by_box(out)

    def _full_grid(self, stacks, p: float) -> np.ndarray:
        """Box by box and sample by sample on the full n^d grid."""
        part = self.partition
        grid = part.grid
        wnd = part.window_nd()
        out = np.zeros((len(part.boxes), _n_samples(stacks)))
        full = np.zeros(grid.shape, dtype=np.complex128)
        for i, k in enumerate(part.boxes):
            sl = part.box_slices(k)
            block = self._region(stacks, slice(None), (slice(None),) + sl)
            if not np.any(block):
                continue
            for j, piece in enumerate(block * wnd):
                full[sl] = piece
                vals = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(full)))
                vals *= grid.size * self._l2_factor
                a = np.abs(vals)
                out[i, j] = a.max() if p == math.inf else (
                    np.sum(a**p) ** (1.0 / p) * grid.h ** (grid.d / p))
            full[sl] = 0.0
        return out

    def truncation_residual(self, stacks) -> float:
        """max_t L^2 norm of the part of the spectrum outside all boxes."""
        mult = self.partition.residual_multiplier()
        worst = 0.0
        for t0, t1 in _chunks(_n_samples(stacks), _CHUNK_BYTES // (16 * mult.size)):
            sq = _abs2(self._region(stacks, slice(t0, t1), ()) * mult)
            worst = max(worst, float(sq.reshape(t1 - t0, -1).sum(axis=1).max()))
        return float(np.sqrt(self._l2_factor * worst))


def _as_stack(obj):
    if isinstance(obj, SpectralField):
        return obj.spectrum[None, ...]
    if isinstance(obj, Trajectory):
        return obj.spectra
    if isinstance(obj, (np.ndarray, tuple)):
        return obj
    raise TypeError(f"expected SpectralField, Trajectory, array or pair, got {type(obj)}")


def mod_norm(f: SpectralField, spec: ModNormSpec, partition: Partition,
             method: str = "fast") -> NormResult:
    """Weighted l^q over boxes of per-box L^p norms of a single field."""
    engine = _BoxNormEngine(partition, method)
    stack = _as_stack(f)
    per_box = engine.series(stack, spec.p)[:, 0]
    value = _lq_aggregate(partition.weights(spec.s) * per_box, spec.q)
    return NormResult(value, engine.truncation_residual(stack))


def mod_norm_series(stack, spec: ModNormSpec, partition: Partition,
                    method: str = "fast") -> np.ndarray:
    """mod_norm of every sample, as a (T,) array.

    `stack` is a (T, n, ..) spectra array, a Trajectory, or a pair (A, B)
    of spectra arrays whose difference is measured (B may be a broadcast
    view). The truncation residual is not computed.
    """
    table = _BoxNormEngine(partition, method).series(_as_stack(stack), spec.p)
    return _lq_aggregate(partition.weights(spec.s)[:, None] * table, spec.q, axis=0)


def planchon_norm(u: Trajectory, spec: PlanchonNormSpec, partition: Partition,
                  method: str = "fast") -> NormResult:
    """l^{s,q} over boxes of (L^r in time of (L^p in space)) of a trajectory."""
    engine = _BoxNormEngine(partition, method)
    stack = _as_stack(u)
    per_box = time_lp_norm(engine.series(stack, spec.p), u.times, spec.r)
    value = _lq_aggregate(partition.weights(spec.s) * per_box, spec.q)
    return NormResult(value, engine.truncation_residual(stack))


def _x_norm_impl(stacks, times, s, q, r, p, partition, method) -> XNormResult:
    engine = _BoxNormEngine(partition, method)
    series2 = engine.series(stacks, 2)
    per_box_l2 = series2.max(axis=1)
    if p == 2 and r == math.inf:
        per_box_lp = per_box_l2
    else:
        series_p = series2 if p == 2 else engine.series(stacks, p, series2)
        per_box_lp = time_lp_norm(series_p, times, r)
    weights = partition.weights(s)
    part_l2 = _lq_aggregate(weights * per_box_l2, q)
    part_lp = _lq_aggregate(weights * per_box_lp, q)
    return XNormResult(
        value=part_l2 + part_lp,
        part_l2=part_l2,
        part_lp=part_lp,
        truncation_residual=engine.truncation_residual(stacks),
    )


def x_norm(u: Trajectory, s, q, r, p, partition: Partition,
           method: str = "fast") -> XNormResult:
    """Solution-space norm: l^{s,q}(L^inf L^2) part plus l^{s,q}(L^r L^p) part."""
    return _x_norm_impl(u.spectra, u.times, s, q, r, p, partition, method)


def x_norm_diff(u: Trajectory, v: Trajectory, s, q, r, p, partition: Partition,
                method: str = "fast") -> XNormResult:
    """X norm of u - v without materializing the difference trajectory."""
    if u.grid != v.grid or u.n_samples != v.n_samples:
        raise ValueError("trajectories not aligned")
    return _x_norm_impl((u.spectra, v.spectra), u.times, s, q, r, p,
                        partition, method)
