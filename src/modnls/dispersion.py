"""Linear propagator and the exact-rational exponent algebra.

The linear flow is diagonal in frequency with the real phase

    phi(xi) = alpha |xi|^2 + beta xi_1^3 + gamma xi_1^4,

so W(t) is applied exactly on the grid (no time-stepping error). All the
exponent bookkeeping (admissibility defects, minimal degree m0, the 1/r
and 1/p intervals, the effective degree l, dual pairs) is done in exact
rational arithmetic with infinity as a distinguished exponent (1/inf = 0):
interval endpoints like 1/8 vs 1/6 must never be blurred by floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import HypothesisError
from .spectral import GridSpec, SpectralField, Trajectory

__all__ = [
    "EquationCoeffs",
    "ParamLedger",
    "symbol",
    "phase_table",
    "propagate",
    "propagate_trajectory",
    "inv_exponent",
    "exponent_from_inv",
    "conjugate_exponent",
    "c_gamma_of",
    "admissible_defect",
    "subadmissible_defect",
    "compute_m0",
    "interval_I",
    "effective_l",
    "interval_J",
    "p_admissible",
    "dual_pair",
    "build_param_ledger",
]

INF = math.inf


@dataclass(frozen=True)
class EquationCoeffs:
    """Coefficients (alpha, beta, gamma) of the linear part.

    alpha must be nonzero and (beta, gamma) must not both vanish; the
    fourth-order term (gamma != 0) selects c_gamma = 2, otherwise 3.
    """

    alpha: float
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.alpha == 0.0:
            raise ValueError("alpha must be nonzero")
        if self.beta == 0.0 and self.gamma == 0.0:
            raise ValueError("(beta, gamma) must not both be zero")

    @property
    def c_gamma(self) -> int:
        return 2 if self.gamma != 0.0 else 3


def symbol(coeffs: EquationCoeffs, xi) -> np.ndarray | float:
    """Dispersion phase alpha|xi|^2 + beta xi1^3 + gamma xi1^4 (real)."""
    xi = np.asarray(xi, dtype=np.float64)
    if xi.ndim == 1:
        xi1 = xi[0]
        sq = float(np.dot(xi, xi))
        return float(coeffs.alpha * sq + coeffs.beta * xi1**3 + coeffs.gamma * xi1**4)
    # stacked components: leading axis enumerates coordinates
    xi1 = xi[0]
    sq = np.sum(xi * xi, axis=0)
    return coeffs.alpha * sq + coeffs.beta * xi1**3 + coeffs.gamma * xi1**4


def phase_table(coeffs: EquationCoeffs, grid: GridSpec) -> np.ndarray:
    """phi(xi) sampled on the grid's frequency lattice (math order)."""
    mesh = grid.frequency_mesh()
    return symbol(coeffs, np.stack(mesh))


def propagate(coeffs: EquationCoeffs, t: float, f: SpectralField,
              phase: np.ndarray | None = None) -> SpectralField:
    """Apply W(t): multiply the spectrum by exp(i phi(xi) t)."""
    if phase is None:
        phase = phase_table(coeffs, f.grid)
    return SpectralField(f.grid, spectrum=f.spectrum * np.exp(1j * t * phase))


def propagate_trajectory(coeffs: EquationCoeffs, times, u0: SpectralField) -> Trajectory:
    """Free flow t -> W(t) u0 sampled at `times`."""
    times = np.asarray(times, dtype=np.float64)
    phase = phase_table(coeffs, u0.grid)
    spec0 = u0.spectrum
    stack = np.empty((times.size,) + u0.grid.shape, dtype=np.complex128)
    for j, t in enumerate(times):
        stack[j] = spec0 * np.exp(1j * t * phase)
    return Trajectory(u0.grid, times, stack)


# ---------------------------------------------------------------------------
# exact rational exponent algebra
# ---------------------------------------------------------------------------

Exponent = object  # int | Fraction | math.inf


def _as_exponent(x):
    if x == INF:
        return INF
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if x.is_integer():
            return Fraction(int(x))
        raise ValueError(
            f"non-integral float exponent {x!r}: pass a Fraction to stay exact"
        )
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exponent")


def inv_exponent(x) -> Fraction:
    """1/x as an exact Fraction, with 1/inf = 0."""
    x = _as_exponent(x)
    if x == INF:
        return Fraction(0)
    if x <= 0:
        raise ValueError(f"exponent must be positive or inf, got {x}")
    return Fraction(1) / x


def exponent_from_inv(inv: Fraction):
    """Inverse of inv_exponent: 0 -> inf."""
    if inv == 0:
        return INF
    return Fraction(1) / inv


def conjugate_exponent(p):
    """Hölder conjugate p' with 1/p + 1/p' = 1 (p in [1, inf])."""
    ip = inv_exponent(p)
    if ip > 1:
        raise ValueError(f"exponent {p} < 1 has no conjugate in [1, inf]")
    return exponent_from_inv(1 - ip)


def c_gamma_of(gamma: float) -> int:
    return 2 if gamma != 0.0 else 3


def _weight(d: int, c_gamma: int) -> Fraction:
    # the scaling weight d - 1/c_gamma multiplying 1/p in the admissibility relation
    if c_gamma not in (2, 3):
        raise ValueError(f"c_gamma must be 2 or 3, got {c_gamma}")
    return Fraction(d) - Fraction(1, c_gamma)


def admissible_defect(d: int, c_gamma: int, p, r) -> Fraction:
    """2/r + (d - 1/c)/p - (d - 1/c)/2; zero iff (p, r) is admissible."""
    w = _weight(d, c_gamma)
    return 2 * inv_exponent(r) + w * inv_exponent(p) - w / 2


def subadmissible_defect(d: int, c_gamma: int, sigma, rho) -> Fraction:
    """Same left-minus-right quantity for the relaxed (<=) condition."""
    return admissible_defect(d, c_gamma, sigma, rho)


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor_fraction(x: Fraction) -> int:
    return x.numerator // x.denominator


def compute_m0(d: int, gamma: float) -> int:
    """Minimal nonlinearity degree m0 = ceil(4 / (d - 1/c_gamma)), d >= 2."""
    if d < 2:
        raise HypothesisError(f"theory requires d >= 2, got d = {d}")
    return _ceil_fraction(4 / _weight(d, c_gamma_of(gamma)))


def interval_I(m: int, d: int, gamma: float) -> tuple[Fraction, Fraction]:
    """Admitted range [1/(2(m+1)), 1/(m0+1)] for 1/r."""
    m0 = compute_m0(d, gamma)
    if m < m0:
        raise HypothesisError(f"m = {m} below minimal degree m0 = {m0}")
    return (Fraction(1, 2 * (m + 1)), Fraction(1, m0 + 1))


def effective_l(r, m: int, m0: int) -> int:
    """Effective degree l = min(floor(r) - 1, m).

    Cross-checked against the equivalent characterization as the largest
    k in {m0, ..., m} whose window [1/(2(k+1)), 1/(k+1)] contains 1/r;
    a mismatch signals a hypothesis violation or a bug, so it raises.
    """
    r = _as_exponent(r)
    if r == INF:
        raise ValueError("r must be finite here (1/r lies in a closed interval)")
    l_floor = min(_floor_fraction(r) - 1, m)
    inv_r = Fraction(1) / r
    candidates = [
        k for k in range(m0, m + 1)
        if Fraction(1, 2 * (k + 1)) <= inv_r <= Fraction(1, k + 1)
    ]
    if not candidates:
        raise HypothesisError(f"1/r = {inv_r} outside every degree window")
    l_max = max(candidates)
    if l_max != l_floor:
        raise AssertionError(
            f"effective-degree formulas disagree: min-form {l_floor}, max-form {l_max}"
        )
    return l_floor


def interval_J(r, d: int, gamma: float, l: int) -> tuple[Fraction, Fraction]:
    """Admitted range for 1/p at time exponent r and effective degree l."""
    w = _weight(d, c_gamma_of(gamma))
    upper = Fraction(1, 2) - 2 * inv_exponent(r) / w
    lower = upper - Fraction(1, 2 * (l + 1)) * (l - 4 / w)
    if lower > upper:
        raise HypothesisError(
            f"empty space-exponent interval at r = {r}, l = {l} (d = {d})"
        )
    return (lower, upper)


def p_admissible(r, d: int, gamma: float):
    """The p making (p, r) admissible: 1/p = 1/2 - 2/(r (d - 1/c))."""
    w = _weight(d, c_gamma_of(gamma))
    return exponent_from_inv(Fraction(1, 2) - 2 * inv_exponent(r) / w)


@dataclass(frozen=True)
class DualPair:
    p_tilde: Fraction
    r_tilde: Fraction
    range_valid: bool  # conjugates land in [2, inf] (fails on a d=2 edge sliver)


def dual_pair(r, l: int, d: int, gamma: float) -> DualPair:
    """(p~, r~) with r~ = r/(l+1) and (p~', r~') on the admissibility line.

    The defect of the conjugate pair vanishes identically by construction;
    a nonzero defect raises HypothesisError. Whether the conjugates actually
    lie in [2, inf] (equivalently p~ >= 1) is reported via range_valid: for small
    d - 1/c_gamma the left edge of the 1/r interval produces p~ < 1.
    """
    r = _as_exponent(r)
    r_tilde = r / (l + 1)
    if not (1 <= r_tilde <= 2):
        raise HypothesisError(f"r/(l+1) = {r_tilde} outside [1, 2]")
    w = _weight(d, c_gamma_of(gamma))
    inv_p_tilde = Fraction(1, 2) + 2 * (1 - Fraction(1) / r_tilde) / w
    # conjugate-side defect, evaluated symbolically: must cancel exactly
    inv_p_conj = 1 - inv_p_tilde
    inv_r_conj = 1 - Fraction(1) / r_tilde
    defect = 2 * inv_r_conj + w * inv_p_conj - w / 2
    if defect != 0:
        raise HypothesisError(f"dual-pair construction broken: defect {defect}")
    return DualPair(
        p_tilde=Fraction(1) / inv_p_tilde,
        r_tilde=r_tilde,
        range_valid=inv_p_tilde <= 1,
    )


@dataclass
class ParamLedger:
    """Every derived exponent quantity for one (d, m, gamma[, r[, p]])."""

    d: int
    m: int
    gamma_nonzero: bool
    c_gamma: int
    m0: int
    I: tuple[Fraction, Fraction]
    r: Fraction | None = None
    inv_r: Fraction | None = None
    l: int | None = None
    J: tuple[Fraction, Fraction] | None = None
    p_a: Fraction | None = None
    p_tilde: Fraction | None = None
    r_tilde: Fraction | None = None
    dual_range_valid: bool | None = None
    p: Fraction | None = None
    checks: dict = field(default_factory=dict)


def build_param_ledger(d: int, m: int, gamma_nonzero: bool,
                       r=None, p=None) -> ParamLedger:
    """Assemble the full exponent ledger, verifying hypotheses on the way."""
    gamma = 1.0 if gamma_nonzero else 0.0
    c = c_gamma_of(gamma)
    m0 = compute_m0(d, gamma)
    I = interval_I(m, d, gamma)
    led = ParamLedger(d=d, m=m, gamma_nonzero=gamma_nonzero,
                      c_gamma=c, m0=m0, I=I)
    if r is None:
        return led
    r = _as_exponent(r)
    inv_r = inv_exponent(r)
    if not (I[0] <= inv_r <= I[1]):
        raise HypothesisError(f"1/r = {inv_r} outside I = [{I[0]}, {I[1]}]")
    led.r = r
    led.inv_r = inv_r
    led.l = effective_l(r, m, m0)
    led.J = interval_J(r, d, gamma, led.l)
    led.p_a = p_admissible(r, d, gamma)
    dp = dual_pair(r, led.l, d, gamma)
    led.p_tilde = dp.p_tilde
    led.r_tilde = dp.r_tilde
    led.dual_range_valid = dp.range_valid
    led.checks["p_a_admissible"] = admissible_defect(d, c, led.p_a, r) == 0
    led.checks["dual_defect_zero"] = True  # dual_pair raises otherwise
    led.checks["dual_range_valid"] = dp.range_valid
    if p is not None:
        p = _as_exponent(p)
        inv_p = inv_exponent(p)
        if not (led.J[0] <= inv_p <= led.J[1]):
            raise HypothesisError(
                f"1/p = {inv_p} outside J = [{led.J[0]}, {led.J[1]}]"
            )
        led.p = p
        led.checks["p_ge_p_a"] = inv_p <= inv_exponent(led.p_a)
        led.checks["holder_chain"] = (led.l + 1) * dp.p_tilde >= p
    return led
