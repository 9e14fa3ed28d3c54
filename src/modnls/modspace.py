"""Frequency-uniform decomposition and the modulation / Planchon norms.

A partition of unity (sigma_k) adapted to the unit boxes Q_k is realized
as a tensor product of one-dimensional windows w with supp w = [-1, 1],
w >= 1/2 on [-1/2, 1/2] and sum_j w(xi - j) = 1. Two window families are
shipped (a normalized polynomial bump and a cos^2 window) so that the
equivalence of the resulting norms can be measured instead of assumed.

Norm evaluation is exact but makes no full-grid inverse transform, and
handles all boxes and samples of a stack in one call: a box piece is
band-limited to a (2M+1)-wide frequency window, so the L^2 norms of all
boxes are one Plancherel pass (|F|^2 contracted with the squared window
along each axis), and any other p synthesizes each box piece on R points
per axis: R = p*(M-1) + 1 for even p with p*M < n, where the Riemann sum
of the trigonometric polynomial |g|^p is already the exact integral (hence
equal to the full-grid sum), and otherwise R = n, the defining n-point sum
(p = inf takes its maximum). The `reference` method takes the full grid,
box by box, for every p; it exists to validate and benchmark the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .spectral import (
    _CHUNK_BYTES,
    GridSpec,
    SpectralField,
    Trajectory,
    _abs2,
    _chunks,
    _exponent,
    _lp,
    _n_samples,
    _physical_chunks,
    _plancherel,
    _stack_rows,
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
    "truncation_residual",
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
    to translation, which is what makes the windowed norm path cheap).
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
        self.footprint = (K + 1) * M  # |k|_inf <= footprint holds all that a box norm reads
        offsets = (np.arange(2 * M + 1) - M) / M  # (-1 .. 1) at lattice spacing
        self.window_1d = _WINDOWS[spec.kind](offsets)
        # window must vanish at the ends so supp sigma_k stays inside B_sqrt(d)(k)
        if self.window_1d[0] != 0.0 or self.window_1d[-1] != 0.0:
            raise ValueError("window does not vanish at |offset| = 1")
        self._validate_partition_of_unity()
        # achieved lower bound of sigma_k on Q_k (attained at box corners)
        half = slice(M // 2, 3 * M // 2 + 1)  # offsets in [-1/2, 1/2]
        self.achieved_C = float(np.min(self.window_1d[half])) ** grid.d
        self.boxes = [k for k in product(range(-K, K + 1), repeat=grid.d)]
        self.brackets = np.array([japanese_bracket(k) for k in self.boxes])
        self._synthesis: dict[int, np.ndarray] = {}

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

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class XNormResult:
    value: float
    part_l2: float  # l^{s,q}(L^inf_t L^2_x) component
    part_lp: float  # l^{s,q}(L^r_t L^p_x) component

    def __float__(self):
        return self.value


def _lq_aggregate(values: np.ndarray, q, axis=None):
    """l^q over boxes: of a (n_boxes,) vector, or along `axis` of a table."""
    q = _exponent("q", q)
    if q == math.inf:
        out = values.max(axis=axis, initial=0.0)
    elif q == 1.0:
        out = values.sum(axis=axis)
    else:
        out = np.sum(values ** q, axis=axis) ** (1.0 / q)
    return out if axis is not None else float(out)


def _box_windows(x: np.ndarray, M: int, axis: int) -> np.ndarray:
    """The (2M+1)-wide box windows along `axis` of x, one per box, as one
    strided view: `axis` steps from box to box, M points apart, and a new
    last axis runs through the points of a window. Nothing is copied."""
    step = x.strides[axis]
    shape = x.shape[:axis] + ((x.shape[axis] - 1) // M - 1,) + x.shape[axis + 1:]
    strides = x.strides[:axis] + (M * step,) + x.strides[axis + 1:]
    return as_strided(x, shape + (2 * M + 1,), strides + (step,), writeable=False)


class _BoxNormEngine:
    """Per-box L^p norms of (stacks of) spectra for one partition.

    `series` returns the (n_boxes, T) table of norms for every box and
    sample in one call. method "fast" takes the Plancherel pass for p = 2
    and the pruned DFT for every other p; "reference" takes the full grid,
    box by box, for every p. Both agree to roundoff.

    `stacks` is a spectra array, full-grid (T, n, ..) or box-stored (T,
    2W + 1, ..) as a Trajectory keeps it, or a pair (A, B) of them whose
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
    def _by_box(table: np.ndarray) -> np.ndarray:
        """(T, nb, .., nb) -> (n_boxes, T), boxes in partition order."""
        return np.ascontiguousarray(table.reshape(table.shape[0], -1).T)

    def _region(self, lo, hi) -> tuple[int, tuple, tuple]:
        """The boxes lo_i <= k_i <= hi_i: the width 2(reach+1)M + 1 of the
        centered stack rows that hold them (reach their largest |k_i|), their
        points in those rows, (hi_i - lo_i + 2)M + 1 along axis i, and their
        place in a (T, nb, .., nb) table."""
        K, M = self.partition.k_max, self.partition.grid.M
        reach = int(max(max(-a, b) for a, b in zip(lo, hi)))
        points = tuple(slice((a + reach) * M, (b + reach + 2) * M + 1) for a, b in zip(lo, hi))
        rows = tuple(slice(K + a, K + b + 1) for a, b in zip(lo, hi))
        return 2 * (reach + 1) * M + 1, (slice(None),) + points, (slice(None),) + rows

    def series(self, stacks, p, support: int, l2: np.ndarray | None = None) -> np.ndarray:
        """(n_boxes, T) table of per-box L^p norms of stacks of `support` W
        (see Trajectory.support), to which the Plancherel pass keeps; `l2`
        may pass the fast method the p = 2 table when the caller has it."""
        p = _exponent("p", p)  # exact exponents end here
        if self.method == "reference":
            return self._full_grid(stacks, p)
        if l2 is None:
            l2 = self._plancherel(stacks, support)
        return l2 if p == 2.0 else self._pruned_dft(stacks, p, l2)

    def _plancherel(self, stacks, support: int) -> np.ndarray:
        """All box L^2 norms at once: |F|^2 on the region covering every box
        that reaches the support, contracted with window_1d**2 along each
        axis. Box k spans (k -+ 1) M, where its window vanishes, so only
        |k|_inf <= ceil(W / M) see the support W; the others are exactly 0."""
        part = self.partition
        d, M, K = part.grid.d, part.grid.M, part.k_max
        live = min(K, -(-support // M))
        width, points, boxes = self._region((-live,) * d, (live,) * d)
        w2 = part.window_1d**2
        T = _n_samples(stacks)
        out = np.zeros((T,) + (2 * K + 1,) * d)
        for t0, t1 in _chunks(T, _CHUNK_BYTES // (16 * width**d)):
            sq = _abs2(_stack_rows(stacks, slice(t0, t1), d, width)[points])
            for axis in range(1, d + 1):
                sq = _box_windows(sq, M, axis) @ w2
            out[t0:t1][boxes] = sq
        return np.sqrt(self._l2_factor * self._by_box(out))

    def _pruned_dft(self, stacks, p: float, l2: np.ndarray) -> np.ndarray:
        """Sum |v|^p (max for p = inf) of each box piece synthesized on R
        points per axis. Both window ends vanish (Partition enforces it), so
        along each axis a box piece has 2M-1 nonzero coefficients; for even
        p, |g|^p = (g conj(g))^(p/2) has index bandwidth p*(M-1), and while
        p*M < n, R = p*(M-1) + 1 points integrate it exactly: the n-point sum.
        Every other p takes R = n, the n-point sum itself. One synthesis
        matrix serves every box (the box offset only adds a unimodular
        phase): each axis is one matrix product on the strided box windows,
        less the two vanishing ends. Read are the bounding box of the boxes
        with a nonzero L^2 series (see _region) and the samples from the
        first to the last nonzero L^2 row; the rest is exactly zero. The
        boxes come from the table, not the support: a gemm rounds by its
        shape, and a box-stored stack must match its full-grid copy bit for
        bit."""
        part, grid = self.partition, self.partition.grid
        d, M, K = grid.d, grid.M, part.k_max
        samples = np.flatnonzero(l2.any(axis=0))
        if samples.size == 0:
            return np.zeros_like(l2)
        s0, s1 = int(samples[0]), int(samples[-1]) + 1
        ks = np.argwhere(l2.any(axis=1).reshape((2 * K + 1,) * d)) - K  # the live boxes
        width, points, boxes = self._region(ks.min(axis=0), ks.max(axis=0))
        counts = [s1 - s0] + [b.stop - b.start for b in boxes[1:]]
        even = p < math.inf and p % 2 == 0
        R = int(p) * (M - 1) + 1 if even and p * M < grid.n else grid.n
        synth = part.synthesis_matrix(R)[1:-1]
        # chunks of (samples, boxes along each axis) of about _CHUNK_BYTES of
        # synthesized points, and of one box of one sample at least
        per_chunk = _CHUNK_BYTES // (16 * R**d)
        ranges = [_chunks(c, per_chunk // math.prod(counts[i + 1:])) for i, c in enumerate(counts)]
        sums = np.empty(counts)
        for t0, t1 in ranges[0]:
            region = _stack_rows(stacks, slice(s0 + t0, s0 + t1), d, width)[points]
            for chunk in product(*ranges[1:]):
                x = region[(slice(None),) + tuple(slice(k0 * M, (k1 + 1) * M + 1)
                                                  for k0, k1 in chunk)]
                for axis, size in enumerate(x.shape[1:], 1):
                    if axis > 1:  # a product: its points past `axis` are the rows of one matrix
                        x = x.reshape(x.shape[:axis] + (size, -1))
                    win = _box_windows(x, M, axis)[..., 1:-1]
                    # along the last axis (d = 1) the windows overlap, which no
                    # gemm takes as they stand: one gemm on a (boxes, 2M-1) copy
                    flat = win.reshape(-1, 2 * M - 1) if axis == x.ndim - 1 else win
                    x = (flat @ synth).reshape(win.shape[:-1] + (R,))
                # |v|^2 = re^2 + im^2 on the R^d points of each box
                a = _abs2(x.reshape(-1, R**d))
                a = (np.einsum(*[a, [0, 1]] * int(p // 2), [0]) if even else
                     a.max(axis=1) if p == math.inf else np.power(a, p / 2, out=a).sum(axis=1))
                sums[(slice(t0, t1),) + tuple(slice(*k) for k in chunk)] = a.reshape(
                    x.shape[:d + 1])
        out = np.zeros((l2.shape[1],) + (2 * K + 1,) * d)
        out[s0:s1][boxes] = (np.sqrt(sums) if p == math.inf
                             else sums ** (1.0 / p) * (2.0 * grid.L / R) ** (d / p))
        return self._by_box(out)

    def _full_grid(self, stacks, p: float) -> np.ndarray:
        """Box by box on the full n^d grid, through the shared pass to
        physical space, a chunk of samples at a time."""
        part = self.partition
        grid = part.grid
        wnd = part.window_nd()
        T = _n_samples(stacks)
        out = np.zeros((len(part.boxes), T))
        for t0, t1 in _chunks(T, _CHUNK_BYTES // (16 * grid.size)):
            rows = _stack_rows(stacks, slice(t0, t1), grid.d, grid.n)
            full = np.zeros((t1 - t0,) + grid.shape, dtype=np.complex128)
            for i, k in enumerate(part.boxes):
                sl = (slice(None),) + part.box_slices(k)
                block = rows[sl]
                if np.any(block):
                    full[sl] = block * wnd
                    for sub, (vals,) in _physical_chunks(grid, full):
                        out[i, t0:t1][sub] = _lp(vals, grid, p)
                    full[sl] = 0.0
        return out


def _as_stack(obj, grid: GridSpec) -> tuple:
    """(spectra stack or pair, its support: n/2 for raw arrays)."""
    if isinstance(obj, SpectralField):
        return obj.spectrum[None, ...], obj.support
    if isinstance(obj, Trajectory):
        return obj.box, obj.support
    if isinstance(obj, (np.ndarray, tuple)):
        return obj, grid.n // 2
    raise TypeError(f"expected SpectralField, Trajectory, array or pair, got {type(obj)}")


def mod_norm(f: SpectralField, spec: ModNormSpec, partition: Partition,
             method: str = "fast") -> NormResult:
    """Weighted l^q over boxes of per-box L^p norms of a single field."""
    stacks, support = _as_stack(f, partition.grid)
    per_box = _BoxNormEngine(partition, method).series(stacks, spec.p, support)[:, 0]
    return NormResult(_lq_aggregate(partition.weights(spec.s) * per_box, spec.q))


def mod_norm_series(stack, spec: ModNormSpec, partition: Partition,
                    method: str = "fast") -> np.ndarray:
    """mod_norm of every sample, as a (T,) array.

    `stack` is a (T, n, ..) spectra array, a Trajectory, or a pair (A, B)
    of spectra arrays whose difference is measured (B may be a broadcast
    view).
    """
    stacks, support = _as_stack(stack, partition.grid)
    table = _BoxNormEngine(partition, method).series(stacks, spec.p, support)
    return _series_norm(table, spec, partition)


def _series_norm(table: np.ndarray, spec: ModNormSpec, partition: Partition) -> np.ndarray:
    """Weighted l^q over the boxes of an (n_boxes, T) table, per sample."""
    return _lq_aggregate(partition.weights(spec.s)[:, None] * table, spec.q, axis=0)


def planchon_norm(u: Trajectory, spec: PlanchonNormSpec, partition: Partition,
                  method: str = "fast") -> NormResult:
    """l^{s,q} over boxes of (L^r in time of (L^p in space)) of a trajectory."""
    series = _BoxNormEngine(partition, method).series(u.box, spec.p, u.support)
    per_box = time_lp_norm(series, u.times, spec.r)
    return NormResult(_lq_aggregate(partition.weights(spec.s) * per_box, spec.q))


def _x_norm_impl(stacks, support, times, s, q, r, p, partition, method) -> XNormResult:
    engine = _BoxNormEngine(partition, method)
    series2 = engine.series(stacks, 2, support)
    per_box_l2 = series2.max(axis=1)
    per_box_lp = time_lp_norm(engine.series(stacks, p, support, series2), times, r)
    weights = partition.weights(s)
    part_l2 = _lq_aggregate(weights * per_box_l2, q)
    part_lp = _lq_aggregate(weights * per_box_lp, q)
    return XNormResult(
        value=part_l2 + part_lp,
        part_l2=part_l2,
        part_lp=part_lp,
    )


def x_norm(u: Trajectory, s, q, r, p, partition: Partition,
           method: str = "fast") -> XNormResult:
    """Solution-space norm: l^{s,q}(L^inf L^2) part plus l^{s,q}(L^r L^p) part."""
    return _x_norm_impl(u.box, u.support, u.times, s, q, r, p, partition, method)


def x_norm_diff(u: Trajectory, v: Trajectory, s, q, r, p, partition: Partition,
                method: str = "fast") -> XNormResult:
    """X norm of u - v without materializing the difference trajectory."""
    if u.grid != v.grid or u.n_samples != v.n_samples:
        raise ValueError("trajectories not aligned")
    return _x_norm_impl((u.box, v.box), max(u.support, v.support),
                        u.times, s, q, r, p, partition, method)


def truncation_residual(obj, partition: Partition) -> float:
    """max over samples of the L^2 norm of the part of the spectrum outside
    every box, (1 - sum_k sigma_k) fhat, for a SpectralField, a Trajectory
    or a spectra stack."""
    grid = partition.grid
    cov = np.zeros(grid.n)  # per axis: sum of the retained translates
    for j in range(-partition.k_max, partition.k_max + 1):
        cov[partition.box_slices((j,))[0]] += partition.window_1d
    stacks, support = _as_stack(obj, grid)
    return math.sqrt(float(_plancherel(stacks, grid, support, cov).max()))
