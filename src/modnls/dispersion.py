"""Linear propagator and the exact-rational exponent algebra.

The linear flow is diagonal in frequency with the real phase

    phi(xi) = alpha |xi|^2 + beta xi_1^3 + gamma xi_1^4,

so W(t) is applied exactly on the grid (no time-stepping error). phi is a
sum of one-variable terms, so its phasor exp(i t phi) is an outer product
of d per-axis factors; propagation and the Duhamel prefix sum (shared by
the solver and the harness) are built on it.

All the exponent bookkeeping (admissibility defects, minimal degree m0,
the 1/r and 1/p intervals, the effective degree l, dual pairs) is done in
exact rational arithmetic with infinity as a distinguished exponent
(1/inf = 0): interval endpoints like 1/8 vs 1/6 must never be blurred by
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import HypothesisError
from .spectral import GridSpec, SpectralField, Trajectory, _box_width, _rebox

__all__ = [
    "EquationCoeffs",
    "ParamLedger",
    "symbol",
    "phase_table",
    "phasor",
    "propagate",
    "propagate_trajectory",
    "duhamel_sum",
    "as_exponent",
    "inv_exponent",
    "exponent_from_inv",
    "conjugate_exponent",
    "c_gamma_of",
    "admissible_defect",
    "compute_m0",
    "interval_I",
    "effective_l",
    "interval_J",
    "p_admissible",
    "dual_pair",
    "build_param_ledger",
    "weight_rule",
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
        return c_gamma_of(self.gamma)


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


def _axis_terms(coeffs: EquationCoeffs, grid: GridSpec) -> list[np.ndarray]:
    """phi as a sum of one-variable terms phi_k(xi_k) on the lattice axis:
    alpha xi^2 on every axis, plus beta xi_1^3 + gamma xi_1^4 on the first."""
    xi = grid.axis_frequencies()
    quad = coeffs.alpha * xi**2
    return [quad + coeffs.beta * xi**3 + coeffs.gamma * xi**4] + [quad] * (grid.d - 1)


def phase_table(coeffs: EquationCoeffs, grid: GridSpec) -> np.ndarray:
    """phi(xi) sampled on the grid's frequency lattice (math order)."""
    return reduce(np.add.outer, _axis_terms(coeffs, grid))


def phasor(coeffs: EquationCoeffs, grid: GridSpec, t: float) -> np.ndarray:
    """exp(i t phi(xi)) on the lattice (math order).

    phi is separable, so the phasor is the outer product of the per-axis
    factors exp(i t phi_k(xi_k)): d exps of length n (two distinct ones)
    and d - 1 broadcast products instead of one complex exp over n^d points.
    """
    return _outer_phasor(_axis_terms(coeffs, grid), t)


def _outer_phasor(terms: list[np.ndarray], t: float) -> np.ndarray:
    factors = [np.exp(1j * t * terms[0])]
    if len(terms) > 1:  # the remaining axes share one term
        factors += [np.exp(1j * t * terms[1])] * (len(terms) - 1)
    return reduce(np.multiply.outer, factors)


def propagate(coeffs: EquationCoeffs, t: float, f: SpectralField) -> SpectralField:
    """Apply W(t): multiply the spectrum by exp(i phi(xi) t)."""
    return SpectralField(f.grid, spectrum=f.spectrum * phasor(coeffs, f.grid, t))


def propagate_trajectory(coeffs: EquationCoeffs, times, u0: SpectralField) -> Trajectory:
    """Free flow t -> W(t) u0 sampled at `times`. W(t) is a Fourier
    multiplier, so the flow keeps the support of u0: the trajectory carries
    it and stores only that box."""
    times = np.asarray(times, dtype=np.float64)
    grid, W = u0.grid, u0.support
    width = _box_width(grid, W)
    terms = [_rebox(term, 1, width) for term in _axis_terms(coeffs, grid)]
    spec0 = _rebox(u0.spectrum, grid.d, width)
    stack = np.empty((times.size,) + (width,) * grid.d, dtype=np.complex128)
    for j, t in enumerate(times):
        np.multiply(spec0, _outer_phasor(terms, t), out=stack[j])
    return Trajectory(grid, times, stack, support=W)


def _prefix_steps(coeffs: EquationCoeffs, grid: GridSpec, times, width: int, sources):
    """The steps of the Duhamel prefix sum over source samples F_j, boxes of
    `width` points per axis (see _rebox): each reads F_j, then yields the
    phasor E_j = phasor(t_j) and acc_j (duhamel_sum), updated in place."""
    terms = [_rebox(term, 1, width) for term in _axis_terms(coeffs, grid)]
    acc = np.zeros((width,) * grid.d, dtype=np.complex128)
    g, g_prev, tmp = (np.empty_like(acc) for _ in range(3))
    for j, (t, source) in enumerate(zip(times, sources)):
        e = _outer_phasor(terms, t)
        np.multiply(np.conjugate(e, out=tmp), source, out=g)
        if j > 0:
            g_prev += g
            g_prev *= (times[j] - times[j - 1]) * 0.5
            acc += g_prev
        g, g_prev = g_prev, g
        yield e, acc


def duhamel_sum(coeffs: EquationCoeffs, grid: GridSpec, times, stack: np.ndarray,
                support: int, base: np.ndarray | None = None, coef: complex = 1.0,
                prefix: bool = False) -> None:
    """The Duhamel prefix sum, in place over the source stack.

    On entry stack[j] holds the source spectrum F(t_j); on return it holds
    W(t_j) (base + coef acc_j), where acc_j is the trapezoid integral of
    W(-s) F(s) over [t_0, t_j] (_prefix_steps): stack[j] is read before it
    is overwritten, so a few samples of work space are all it takes. With
    `prefix` it holds acc_j itself instead (`base` and `coef` are not read).

    Every source sample and `base` must vanish outside the box |k|_inf <= W
    of the `support` W (n/2: the whole grid); the sum runs on that box only,
    and the result vanishes outside it too. `stack` holds at least that box
    (the whole grid, or the box as a Trajectory stores it, see _rebox);
    `base` is a full-grid spectrum.
    """
    width = _box_width(grid, support)
    view = _rebox(stack, grid.d, width)
    if base is not None:
        base = _rebox(base, grid.d, width)
    tmp = np.empty(view.shape[1:], dtype=np.complex128)
    for j, (e, acc) in enumerate(_prefix_steps(coeffs, grid, times, width, view)):
        if prefix:
            view[j] = acc
            continue
        np.multiply(acc, coef, out=tmp)
        if base is not None:
            tmp += base
        np.multiply(e, tmp, out=view[j])


# ---------------------------------------------------------------------------
# exact rational exponent algebra
# ---------------------------------------------------------------------------

Exponent = object  # int | Fraction | math.inf


def as_exponent(x):
    """An exponent kept exact, as a Fraction or INF: an int, a Fraction, a
    float read as the decimal it prints (4.5 is 9/2), a fraction string
    ("16/3") or "inf". A bool is none: JSON true is no exponent."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, (float, str)):
        text = str(x)
        return INF if text in ("inf", "Inf", "infinity") else Fraction(text)
    raise TypeError(f"cannot interpret {x!r} as an exponent")


def inv_exponent(x) -> Fraction:
    """1/x as an exact Fraction, with 1/inf = 0."""
    x = as_exponent(x)
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


def compute_m0(d: int, gamma: float) -> int:
    """Minimal nonlinearity degree m0 = ceil(4 / (d - 1/c_gamma)), d >= 2."""
    if d < 2:
        raise HypothesisError(f"theory requires d >= 2, got d = {d}")
    return math.ceil(4 / _weight(d, c_gamma_of(gamma)))


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
    r = as_exponent(r)
    if r == INF:
        raise ValueError("r must be finite here (1/r lies in a closed interval)")
    l_floor = min(math.floor(r) - 1, m)
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
    r = as_exponent(r)
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
    m0: int | None = None
    I: tuple[Fraction, Fraction] | None = None
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

    def to_json(self) -> dict:
        """The ledger as far as it got, JSON-ready: exact exponents and
        interval ends as strings, and the checks once r is in I."""
        out = {}
        for key in ("d", "m", "gamma_nonzero", "c_gamma", "m0", "I", "r", "l", "J",
                    "p_a", "p_tilde", "r_tilde", "p"):
            val = getattr(self, key)
            if isinstance(val, tuple):
                out[key] = [str(x) for x in val]
            elif val is not None:
                out[key] = val if isinstance(val, int) else str(val)
        if self.r is not None:
            out["checks"] = dict(self.checks)
        return out


def build_param_ledger(d: int, m: int, gamma_nonzero: bool,
                       r=None, p=None) -> ParamLedger:
    """Assemble the full exponent ledger, verifying hypotheses on the way.

    A violation raises HypothesisError carrying the ledger as far as it
    got (ParamLedger.to_json): d, m and gamma always, then m0 when m < m0,
    m0 and I when 1/r is outside I, and m0, I, l and J when 1/p is outside J.
    """
    gamma = 1.0 if gamma_nonzero else 0.0
    c = c_gamma_of(gamma)
    led = ParamLedger(d=d, m=m, gamma_nonzero=gamma_nonzero, c_gamma=c)
    try:
        m0 = led.m0 = compute_m0(d, gamma)
        I = led.I = interval_I(m, d, gamma)
        if r is None:
            return led
        r = as_exponent(r)
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
            p = as_exponent(p)
            inv_p = inv_exponent(p)
            if not (led.J[0] <= inv_p <= led.J[1]):
                raise HypothesisError(
                    f"1/p = {inv_p} outside J = [{led.J[0]}, {led.J[1]}]"
                )
            led.p = p
            led.checks["p_ge_p_a"] = inv_p <= inv_exponent(led.p_a)
            led.checks["holder_chain"] = (led.l + 1) * dp.p_tilde >= p
    except HypothesisError as exc:
        exc.ledger = led.to_json()
        raise
    return led


def weight_rule(d: int, q, s: float) -> tuple[bool, str]:
    """The condition on the modulation weight: s >= 0 when q = 1, and
    s > d/q' = d (1 - 1/q) when q is in (1, inf]. Returns whether s meets
    it and the rule as stated, with its threshold."""
    if float(q) == 1.0:
        return s >= 0.0, "s >= 0"
    thresh = d * (1.0 - 1.0 / float(q))
    return s > thresh, f"s > d/q' = {thresh}"
