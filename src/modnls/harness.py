"""Monte-Carlo verification of the Strichartz, Hölder, Lipschitz and
embedding inequalities, with empirical constant estimation.

An inequality lhs <= C rhs with an unquantified constant is tested as a
ratio statistic over a seeded ensemble: every sample contributes
lhs/rhs, and the check is considered healthy when the max ratio stays
within ratio_bound (10x) of the median. Hypothesis-violating "probe"
runs are allowed through all gates and never flag; they only emit trend
data. Identical seeds produce bit-identical reports: each sample draws
from its own rng stream derived from (seed, index).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from . import dispersion as disp
from . import modspace, nonlinear
from .errors import HypothesisError
from .spectral import (GridSpec, SpectralField, Trajectory, _box_width, _lp_series,
                       _pointwise_map, _rebox, _scan_support, time_lp_norm)
from .spectral import lp_norm  # noqa: F401  (the benchmark tracer patches this binding)

__all__ = [
    "EnsembleSpec",
    "RatioReport",
    "sample_field",
    "sample_trajectory",
    "check_homogeneous_strichartz",
    "check_inhomogeneous_strichartz",
    "check_hoelder_like",
    "check_power_lipschitz",
    "check_embeddings",
    "scalar_lipschitz_ratio",
    "probe_hoelder_growth",
]

RATIO_BOUND = 10.0  # max/median beyond this flags the ensemble

FIELD_LAWS = ("gaussian-spectrum", "single-box", "multi-box-sparse")


@dataclass(frozen=True)
class EnsembleSpec:
    count: int = 100
    seed: int = 0
    law: str = "gaussian-spectrum"
    decay: float = 2.0  # spectral decay exponent of the gaussian law
    amplitude: float = 1.0  # L^2 size of each sample
    band: int = 2  # largest |xi|_inf (in box units) populated by the law

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.law not in FIELD_LAWS:
            raise ValueError(f"unknown field law {self.law!r}")
        if self.decay <= 0:
            raise ValueError("decay exponent must be positive")


@dataclass
class RatioReport:
    """Per-sample (lhs, rhs, ratio) with the summary statistics."""

    lhs: list = field(default_factory=list)
    rhs: list = field(default_factory=list)
    ratio: list = field(default_factory=list)
    excluded: int = 0  # samples with lhs = rhs = 0
    failures: int = 0  # rhs = 0 while lhs > 0
    probe: bool = False

    @classmethod
    def from_pairs(cls, pairs, probe: bool = False) -> "RatioReport":
        rep = cls(probe=probe)
        for lhs, rhs in pairs:
            if rhs == 0.0:
                if lhs == 0.0:
                    rep.excluded += 1
                else:
                    rep.failures += 1
                continue
            rep.lhs.append(lhs)
            rep.rhs.append(rhs)
            rep.ratio.append(lhs / rhs)
        return rep

    @property
    def max_ratio(self) -> float:
        return max(self.ratio) if self.ratio else 0.0

    @property
    def median_ratio(self) -> float:
        return float(np.median(self.ratio)) if self.ratio else 0.0

    @property
    def flagged(self) -> bool:
        if self.probe:
            return False
        if self.failures:
            return True
        if not self.ratio:
            return False
        return self.max_ratio > RATIO_BOUND * self.median_ratio

    def to_json(self) -> dict:
        return {
            "n": len(self.ratio),
            "max_ratio": self.max_ratio,
            "median_ratio": self.median_ratio,
            "excluded": self.excluded,
            "failures": self.failures,
            "flagged": self.flagged,
            "probe": self.probe,
        }

    def csv_rows(self):
        for i, (a, b, c) in enumerate(zip(self.lhs, self.rhs, self.ratio)):
            yield (i, a, b, c)


def _rng(ens: EnsembleSpec, index: int) -> np.random.Generator:
    return np.random.default_rng([ens.seed, index])


def _draw(grid: GridSpec, ens: EnsembleSpec, index: int) -> np.ndarray:
    """The spectral coefficients of sample `index` before normalization, on
    the box |k|_inf <= band M that holds them (see spectral._rebox)."""
    rng = _rng(ens, index)
    M, d = grid.M, grid.d
    w = ens.band * M
    shape = (2 * w + 1,) * d
    if ens.law == "gaussian-spectrum":
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ax = (np.arange(2 * w + 1) - w) / M
        mesh = np.meshgrid(*([ax] * d), indexing="ij")
        bracket = np.sqrt(1.0 + sum(x * x for x in mesh))
        return coeffs * bracket ** (-ens.decay)
    box = np.zeros(shape, dtype=np.complex128)
    n_boxes = 1 if ens.law == "single-box" else 3
    half = max(1, M // 2 - 1)  # stay strictly inside the unit box
    for _ in range(n_boxes):
        k = rng.integers(-ens.band + 1, ens.band, size=d)
        sub = rng.standard_normal((2 * half + 1,) * d) \
            + 1j * rng.standard_normal((2 * half + 1,) * d)
        sl = tuple(slice(w + int(ki) * M - half, w + int(ki) * M + half + 1) for ki in k)
        box[sl] += sub
    return box


def sample_field(grid: GridSpec, ens: EnsembleSpec, index: int) -> SpectralField:
    """Draw one random band-limited field.

    The spectral coefficients are drawn on the sub-lattice |xi|_inf <=
    band, whose size depends on (band, M) but not on n, so the same seed
    produces the same continuum field after grid doubling. The L^2
    normalization sums that box only, and only that box is scanned for the
    field's support: the value a scan of the whole grid finds, for every law.
    """
    w = ens.band * grid.M
    box = _draw(grid, ens, index)
    box *= ens.amplitude / _l2(box, grid, w)
    support = _scan_support(grid, _rebox(box, grid.d, _box_width(grid, w))[None])
    return SpectralField._adopt(grid, _rebox(box, grid.d, grid.n), support)


def sample_trajectory(grid: GridSpec, coeffs: disp.EquationCoeffs,
                      ens: EnsembleSpec, index: int, times) -> Trajectory:
    """Free flow of a random field with a random smooth time envelope."""
    rng = _rng(ens, index * 7919 + 1)
    omega = float(rng.integers(1, 4))
    phase0 = float(rng.uniform(0, 2 * math.pi))
    times = np.asarray(times, dtype=np.float64)
    env = 1.0 + 0.3 * np.sin(omega * times + phase0)
    traj = disp.propagate_trajectory(coeffs, times, sample_field(grid, ens, index))
    traj.box *= env[(slice(None),) + (None,) * grid.d]
    return traj


def _map_indices(fn, count: int, threads: int = 1) -> list:
    if threads <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def _reports(results: list, probe: bool, *names: str) -> dict:
    """One RatioReport per name, from per-sample tuples of (lhs, rhs) pairs."""
    return {name: RatioReport.from_pairs([rr[k] for rr in results], probe)
            for k, name in enumerate(names)}


def duhamel_integral(coeffs: disp.EquationCoeffs, times,
                     source: Trajectory) -> Trajectory:
    """int_0^t W(t - s) F(s) ds via the spectral trapezoid prefix sum, on
    the support box of F."""
    times = np.asarray(times, dtype=np.float64)
    out = source.box.copy()
    disp.duhamel_sum(coeffs, source.grid, times, out, source.support)
    return Trajectory(source.grid, times, out, support=source.support)


def _l2(spectrum: np.ndarray, grid: GridSpec, support: int) -> float:
    """L^2 norm of one field, by Plancherel on the box of its `support`
    (its spectrum full-grid or box-stored)."""
    return float(_lp_series(spectrum[None], grid, 2, support)[0])


def _lebesgue_space_time(traj: Trajectory, p, r) -> float:
    return time_lp_norm(_lp_series(traj.box, traj.grid, p, traj.support),
                        traj.times, r)


def _require_admissible(d: int, c_gamma: int, p, r, probe: bool, what: str):
    defect = disp.admissible_defect(d, c_gamma, p, r)
    if defect != 0 and not probe:
        raise HypothesisError(f"{what} pair ({p}, {r}) not admissible (defect {defect})")


def check_homogeneous_strichartz(grid: GridSpec, coeffs: disp.EquationCoeffs,
                                 ens: EnsembleSpec, p, r, q, s, times,
                                 partition: modspace.Partition,
                                 probe: bool = False,
                                 threads: int = 1) -> dict:
    """||W(t)u0|| vs ||u0||_{L^2} (Lebesgue) and its modulation-space lift."""
    _require_admissible(grid.d, coeffs.c_gamma, p, r, probe, "homogeneous")
    pl_spec = modspace.PlanchonNormSpec(s=s, q=q, r=r, p=p)
    mod_spec = modspace.ModNormSpec(p=2, q=q, s=s)

    def one(i):
        u0 = sample_field(grid, ens, i)
        traj = disp.propagate_trajectory(coeffs, times, u0)
        leb = (_lebesgue_space_time(traj, p, r), _l2(u0.spectrum, grid, u0.support))
        lift = (
            modspace.planchon_norm(traj, pl_spec, partition).value,
            modspace.mod_norm(u0, mod_spec, partition).value,
        )
        return leb, lift

    return _reports(_map_indices(one, ens.count, threads), probe, "lebesgue", "lifted")


def check_inhomogeneous_strichartz(grid: GridSpec, coeffs: disp.EquationCoeffs,
                                   ens: EnsembleSpec, p, r, p_dual, r_dual,
                                   q, s, times, partition: modspace.Partition,
                                   probe: bool = False,
                                   threads: int = 1) -> dict:
    """Duhamel of a random forcing vs the forcing in the dual exponents.

    (p, r) must be admissible and so must the conjugates of (p_dual, r_dual).
    """
    _require_admissible(grid.d, coeffs.c_gamma, p, r, probe, "homogeneous")
    if not probe:
        pc = disp.conjugate_exponent(p_dual)
        rc = disp.conjugate_exponent(r_dual)
        _require_admissible(grid.d, coeffs.c_gamma, pc, rc, probe, "dual")
    pl_spec = modspace.PlanchonNormSpec(s=s, q=q, r=r, p=p)
    pl_dual = modspace.PlanchonNormSpec(s=s, q=q, r=r_dual, p=p_dual)

    def one(i):
        forcing = sample_trajectory(grid, coeffs, ens, i, times)
        integral = duhamel_integral(coeffs, times, forcing)
        leb = (
            _lebesgue_space_time(integral, p, r),
            _lebesgue_space_time(forcing, p_dual, r_dual),
        )
        lift = (
            modspace.planchon_norm(integral, pl_spec, partition).value,
            modspace.planchon_norm(forcing, pl_dual, partition).value,
        )
        return leb, lift

    return _reports(_map_indices(one, ens.count, threads), probe, "lebesgue", "lifted")


def _check_split(target, factors, what: str):
    total = sum((disp.inv_exponent(x) for x in factors), Fraction(0))
    if disp.inv_exponent(target) != total:
        raise ValueError(
            f"{what} split mismatch: 1/{target} != sum of reciprocals {factors}"
        )


def _check_hoelder_weight(d: int, q, s, probe: bool):
    ok, rule = disp.weight_rule(d, q, s)
    if not (ok or probe):
        raise HypothesisError(f"q = {q} requires {rule}, got s = {s}")


def check_hoelder_like(grid: GridSpec, coeffs: disp.EquationCoeffs,
                       ens: EnsembleSpec, q, s, p_target, p_factors,
                       r_target=None, r_factors=None, times=None,
                       partition: modspace.Partition = None,
                       mode: str = "modulation", probe: bool = False,
                       threads: int = 1) -> RatioReport:
    """Product estimate: the norm of a pointwise product of 2 or 3 factors
    against the product of the factor norms (modulation or Planchon mode)."""
    if len(p_factors) not in (2, 3):
        raise ValueError("2 or 3 factors are wired")
    _check_split(p_target, p_factors, "space")
    _check_hoelder_weight(grid.d, q, s, probe)
    if mode == "planchon":
        _check_split(r_target, r_factors, "time")

    def product(*trajs):
        """The pointwise product of the factor trajectories, with its support."""
        return _pointwise_map(lambda *vals: reduce(np.multiply, vals), *trajs,
                              degree=len(trajs))

    def one(i):
        if mode == "modulation":
            fields = [sample_field(grid, ens, i * len(p_factors) + j)
                      for j in range(len(p_factors))]
            prod = product(*(Trajectory(grid, [0.0], f.spectrum[None], f.support)
                             for f in fields))
            lhs = modspace.mod_norm(
                prod.field(0),
                modspace.ModNormSpec(p=p_target, q=q, s=s), partition).value
            rhs = 1.0
            for f, pj in zip(fields, p_factors):
                rhs *= modspace.mod_norm(
                    f, modspace.ModNormSpec(p=pj, q=q, s=s), partition).value
            return lhs, rhs
        trajs = [sample_trajectory(grid, coeffs, ens, i * len(p_factors) + j, times)
                 for j in range(len(p_factors))]
        lhs = modspace.planchon_norm(
            product(*trajs), modspace.PlanchonNormSpec(s=s, q=q, r=r_target, p=p_target),
            partition).value
        rhs = 1.0
        for tr, pj, rj in zip(trajs, p_factors, r_factors):
            rhs *= modspace.planchon_norm(
                tr, modspace.PlanchonNormSpec(s=s, q=q, r=rj, p=pj), partition).value
        return lhs, rhs

    return RatioReport.from_pairs(_map_indices(one, ens.count, threads), probe)


def check_power_lipschitz(grid: GridSpec, coeffs: disp.EquationCoeffs,
                          ens: EnsembleSpec, spec: nonlinear.NonlinSpec,
                          exps: nonlinear.LipschitzExponents, times,
                          partition: modspace.Partition,
                          probe: bool = False, threads: int = 1) -> RatioReport:
    """Ratios for the product difference estimate over random (u, v) pairs."""
    _check_hoelder_weight(grid.d, exps.q, exps.s, probe)

    def one(i):
        u = sample_trajectory(grid, coeffs, ens, 2 * i, times)
        v = sample_trajectory(grid, coeffs, ens, 2 * i + 1, times)
        return nonlinear.power_lipschitz_witness(u, v, spec, exps, partition)

    return RatioReport.from_pairs(_map_indices(one, ens.count, threads), probe)


def scalar_lipschitz_ratio(m: int, mesh_size: int = 24, radius: float = 2.0) -> float:
    """Brute-force check of |a^{m+1} - b^{m+1}| <= C |a-b| (|a|^m + |b|^m)
    over a complex mesh; returns the max ratio (analytically <= m + 1)."""
    re = np.linspace(-radius, radius, mesh_size)
    pts = (re[:, None] + 1j * re[None, :]).ravel()
    a = pts[:, None]
    b = pts[None, :]
    lhs = np.abs(a ** (m + 1) - b ** (m + 1))
    rhs = np.abs(a - b) * (np.abs(a) ** m + np.abs(b) ** m)
    mask = rhs > 0
    return float(np.max(lhs[mask] / rhs[mask]))


def check_embeddings(grid: GridSpec, coeffs: disp.EquationCoeffs,
                     ens: EnsembleSpec, q, s, r, p1, p2, times,
                     partition: modspace.Partition,
                     probe: bool = False, threads: int = 1) -> dict:
    """Minkowski (time norm of the modulation norm vs the Planchon norm,
    q <= r) and Bernstein (inner exponent monotonicity, p1 <= p2)."""
    if not probe:
        if float(q) > float(r):
            raise HypothesisError("Minkowski embedding needs q <= r")
        if float(p1) > float(p2):
            raise HypothesisError("Bernstein embedding needs p1 <= p2")
    mod1 = modspace.ModNormSpec(p=p1, q=q, s=s)
    pl1 = modspace.PlanchonNormSpec(s=s, q=q, r=r, p=p1)
    pl2 = modspace.PlanchonNormSpec(s=s, q=q, r=r, p=p2)

    def one(i):
        u = sample_trajectory(grid, coeffs, ens, i, times)
        per_t = modspace.mod_norm_series(u, mod1, partition)
        n1 = modspace.planchon_norm(u, pl1, partition).value
        mink = (time_lp_norm(per_t, u.times, r), n1)
        bern = (modspace.planchon_norm(u, pl2, partition).value, n1)
        return mink, bern

    return _reports(_map_indices(one, ens.count, threads), probe, "minkowski", "bernstein")


def probe_hoelder_growth(grid: GridSpec, coeffs: disp.EquationCoeffs,
                         q, s, box_counts, seed: int = 0,
                         partition: modspace.Partition = None,
                         count: int = 8) -> list:
    """Hypothesis-violation probe: with s below the Hölder threshold the
    product constant should grow as more boxes are populated. Returns
    (box_count, max_ratio) trend data; never asserts."""
    trend = []
    for bc in box_counts:
        ens = EnsembleSpec(count=count, seed=seed + bc, law="gaussian-spectrum",
                           band=min(bc, partition.k_max - 1), amplitude=1.0)
        rep = check_hoelder_like(grid, coeffs, ens, q, s, p_target=2,
                                 p_factors=(4, 4), partition=partition,
                                 mode="modulation", probe=True)
        trend.append((bc, rep.max_ratio))
    return trend
