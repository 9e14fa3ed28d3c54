"""Power-like products and the exponential nonlinearity.

A power nonlinearity is an arbitrary complex multiple of a pointwise
product of m+1 factors, each either the field or its conjugate, e.g.
pattern (u, conj, u) with coefficient -1 is -|u|^2 u. The exponential
nonlinearity lambda (exp(rho |u|^2) - 1) u is evaluated in closed form;
its truncated power series is kept as an independent cross-check whose
deviation must stay below the analytic tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modspace import Partition, PlanchonNormSpec, planchon_norm
from .spectral import (SpectralField, Trajectory, _box_width, _pass_grid, _plancherel,
                       _pointwise_chunks, _pointwise_map, _stack_rows)

__all__ = [
    "NonlinSpec",
    "exponential_series",
    "exponential_tail_bound",
    "apply_to_trajectory",
    "aliasing_residual",
    "power_lipschitz_witness",
    "LipschitzExponents",
]

PLAIN = "u"
CONJ = "conj"

# |u|^2 exceeding this in rho|u|^2 would overflow exp(); such amplitudes are
# far outside the small-data regime anyway, so reject instead of returning inf
_EXP_OVERFLOW = 700.0


@dataclass(frozen=True)
class NonlinSpec:
    """Either a power product or the exponential nonlinearity.

    kind "power": `pattern` is a tuple over {"u", "conj"} of length m+1 and
    `coeff` an arbitrary complex coefficient.
    kind "exponential": lambda (exp(rho |u|^2) - 1) u with rho > 0.
    """

    kind: str
    pattern: tuple[str, ...] = ()
    coeff: complex = 1.0
    lam: complex = 1.0
    rho: float = 1.0

    def __post_init__(self):
        if self.kind == "power":
            if len(self.pattern) < 1:
                raise ValueError("power pattern must have at least one factor")
            bad = set(self.pattern) - {PLAIN, CONJ}
            if bad:
                raise ValueError(f"unknown pattern tokens {sorted(bad)}")
        elif self.kind == "exponential":
            if self.rho <= 0:
                raise ValueError(f"rho must be positive, got {self.rho}")
        elif self.kind != "zero":
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")

    @property
    def degree(self) -> int:
        """Total number of factors m+1 (power kind only)."""
        if self.kind != "power":
            raise ValueError("degree is defined for the power kind")
        return len(self.pattern)

    @property
    def m(self) -> int:
        return self.degree - 1

    def is_phase_invariant_power(self) -> bool:
        """True for c |u|^{2m} u with real c: the pointwise ODE du/dt = i f(u)
        is then an exact phase rotation (|u| is conserved)."""
        if self.kind != "power":
            return False
        n_plain = sum(1 for t in self.pattern if t == PLAIN)
        n_conj = len(self.pattern) - n_plain
        return n_plain == n_conj + 1 and complex(self.coeff).imag == 0.0

    @classmethod
    def cubic(cls, coeff=-1.0) -> "NonlinSpec":
        return cls(kind="power", pattern=(PLAIN, CONJ, PLAIN), coeff=coeff)

    @classmethod
    def odd_power(cls, m_half: int, coeff=-1.0) -> "NonlinSpec":
        """|u|^{2 m_half} u with the given coefficient."""
        pattern = (PLAIN, CONJ) * m_half + (PLAIN,)
        return cls(kind="power", pattern=pattern, coeff=coeff)


def _power_values(spec: NonlinSpec, u: np.ndarray) -> np.ndarray:
    uc = np.conj(u) if CONJ in spec.pattern else None
    factors = [u if tok == PLAIN else uc for tok in spec.pattern]
    out = factors[0] * complex(spec.coeff)
    for f in factors[1:]:
        out *= f
    return out


def _exponential_values(spec: NonlinSpec, u: np.ndarray) -> np.ndarray:
    asq = np.abs(u) ** 2
    peak = spec.rho * float(asq.max()) if asq.size else 0.0
    if peak > _EXP_OVERFLOW:
        raise ValueError(
            f"rho * max|u|^2 = {peak:.3g} too large (overflow; outside small-data regime)"
        )
    return complex(spec.lam) * np.expm1(spec.rho * asq) * u


def evaluate(spec: NonlinSpec, u: np.ndarray) -> np.ndarray:
    """f(u) on raw sample arrays (used by the solver's pointwise substeps)."""
    if spec.kind == "zero":
        return np.zeros_like(u)
    if spec.kind == "power":
        return _power_values(spec, u)
    return _exponential_values(spec, u)


def exponential_series(spec: NonlinSpec, u: SpectralField, cutoff: int) -> SpectralField:
    """Truncated series lambda sum_{m=1}^{M} rho^m/m! |u|^{2m} u, M = cutoff."""
    if spec.kind != "exponential":
        raise ValueError(f"expected exponential kind, got {spec.kind!r}")
    asq = np.abs(u.values) ** 2
    acc = np.zeros_like(asq)
    term = np.ones_like(asq)
    for m in range(1, cutoff + 1):
        term = term * (spec.rho / m) * asq
        acc = acc + term
    return SpectralField(u.grid, values=complex(spec.lam) * acc * u.values)


def exponential_tail_bound(spec: NonlinSpec, u: SpectralField, cutoff: int) -> float:
    """Sup-norm bound on the series remainder after M = cutoff terms.

    With x = rho ||u||_inf^2 the remainder of exp at order M is at most
    x^(M+1)/(M+1)! * e^x, so the pointwise deviation is bounded by
    |lambda| ||u||_inf times that.
    """
    sup = float(np.abs(u.values).max())
    x = spec.rho * sup**2
    return (abs(complex(spec.lam)) * sup * x ** (cutoff + 1) / math.factorial(cutoff + 1)
            * math.exp(x))


def aliasing_residual(spec: NonlinSpec, u: SpectralField) -> float:
    """Relative spectral mass of f(u) in the outer third of the lattice.

    Pointwise products spread frequency support; inputs are expected to be
    band-limited enough that the spread stays below Nyquist. This measures
    the L^2 fraction of f(u) beyond the classical 2/3 dealiasing boundary,
    |k|_inf > n // 3 (order one when the evaluation is aliased, exactly zero
    when the pass is alias-free with reach D W <= n // 3): two Plancherel
    sums on apply_to_trajectory's pass over the one-sample stack of u.
    """
    grid = u.grid
    fu = apply_to_trajectory(spec, Trajectory(grid, [0.0], u.spectrum[None], support=u.support))
    total = float(_plancherel(fu.box, grid, fu.support)[0])
    if total == 0.0:
        return 0.0
    inner = np.abs(np.arange(grid.n) - grid.n // 2) <= grid.n // 3  # per axis
    return math.sqrt(float(_plancherel(fu.box, grid, fu.support, inner)[0]) / total)


def apply_to_trajectory(spec: NonlinSpec, u: Trajectory,
                        out: np.ndarray | None = None) -> Trajectory:
    """f(u) at every sample, as a spectral stack: one `evaluate` per chunk
    of the shared pass to physical space and back, which a power product
    runs on the smallest grid its degree and the support of u allow; the
    result carries its support. It is written into `out`, a stack nothing
    else reads, when that has its shape."""
    degree = spec.degree if spec.kind == "power" else None
    return _pointwise_map(lambda vals: evaluate(spec, vals), u, degree=degree, out=out)


def _f_chunks(spec: NonlinSpec, u: Trajectory):
    """(the support of f(u), apply_to_trajectory's pass as the chunks
    (rows, f(u) at samples rows) of _pointwise_chunks)."""
    degree = spec.degree if spec.kind == "power" else None
    return _pass_grid(u.grid, u.support, degree)[1], _pointwise_chunks(
        lambda vals: evaluate(spec, vals), u.grid, u.box, support=u.support, degree=degree)


@dataclass(frozen=True)
class LipschitzExponents:
    """Exponent bundle for the product difference estimate."""

    s: float
    q: object
    r_tilde: object
    p_tilde: object
    l: int
    m: int


def power_lipschitz_witness(u: Trajectory, v: Trajectory, spec: NonlinSpec,
                            exps: LipschitzExponents,
                            partition: Partition) -> tuple[float, float]:
    """Both sides of the product difference estimate; the harness takes ratios.

    lhs: Planchon norm of f(u) - f(v) with inner exponents (r~, p~).
    rhs: ||u - v|| in the (l+1)-scaled space times the bracket of u- and
    v-factors, each ||.||^l in the scaled space and ||.||^{m-l} in L^inf L^2.
    """
    if spec.kind != "power" or spec.m != exps.m:
        raise ValueError("nonlinearity spec does not match the exponent bundle")
    # f(u) - f(v) in one pass: one forward transform per chunk, no second stack
    diff = _pointwise_map(lambda a, b: evaluate(spec, a) - evaluate(spec, b), u, v,
                          degree=spec.degree)
    inner = PlanchonNormSpec(s=exps.s, q=exps.q, r=exps.r_tilde, p=exps.p_tilde)
    lhs = planchon_norm(diff, inner, partition).value

    lp1 = exps.l + 1

    def scale(e):
        return math.inf if e == math.inf else lp1 * e

    scaled = PlanchonNormSpec(s=exps.s, q=exps.q,
                              r=scale(exps.r_tilde), p=scale(exps.p_tilde))
    sup2 = PlanchonNormSpec(s=exps.s, q=exps.q, r=math.inf, p=2)
    W = max(u.support, v.support)
    dvu = _stack_rows((u.box, v.box), slice(None), u.grid.d, _box_width(u.grid, W))
    dvu = Trajectory(u.grid, u.times, dvu, support=W)
    du = planchon_norm(dvu, scaled, partition).value
    nu_s = planchon_norm(u, scaled, partition).value
    nv_s = planchon_norm(v, scaled, partition).value
    nu_2 = planchon_norm(u, sup2, partition).value
    nv_2 = planchon_norm(v, sup2, partition).value
    rhs = du * (nu_s**exps.l * nu_2 ** (exps.m - exps.l)
                + nv_s**exps.l * nv_2 ** (exps.m - exps.l))
    return lhs, rhs
