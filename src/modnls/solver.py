"""Duhamel fixed-point solver, split-step oracle, and scattering maps.

Sign convention: the equation is used in the form

    du/dt = i phi(D) u + i f(u),

where phi is the real dispersion phase implemented in `dispersion`. The
mild formulation is then u(t) = W(t) u0 + i * int_0^t W(t-s) f(u(s)) ds;
the i in front of the source is fixed here and validated against the
independent split-step oracle rather than assumed.

All Duhamel integrals are evaluated spectrally: W(t-s) is diagonal, so
the integral is a trapezoid prefix sum of exp(-i phi s) fhat(u(s)),
multiplied by exp(i phi t) afterwards. This makes one operator
application O(N_t) transforms instead of O(N_t^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
import numpy as np

from . import dispersion as disp
from . import modspace, nonlinear
from .errors import HypothesisError, NumericsError
from .spectral import GridSpec, SpectralField, Trajectory, lp_norm

__all__ = [
    "SolveConfig",
    "SolveReport",
    "duhamel_apply",
    "picard_solve",
    "split_step_oracle",
    "mass",
    "scatter_minus",
    "wave_operator_plus",
    "scattering_map",
    "delta_bisection",
    "verify_hypotheses",
]


@dataclass
class SolveConfig:
    """Everything one solve needs; hypothesis checks run before any solve."""

    coeffs: disp.EquationCoeffs
    nonlin: nonlinear.NonlinSpec
    grid: GridSpec
    t_min: float
    t_max: float
    nt: int  # number of samples including both endpoints
    delta: float
    s: float = 0.0
    q: object = 1
    r: object = 4
    p: object = 6
    partition_kind: str = "trigonometric-window"
    k_max: int = 4
    max_iters: int = 25
    eps_fix: float = 1e-10
    oracle_substeps: int = 1
    override_hypotheses: bool = False
    exp_s_rule: str = "s>=0"  # or "s>=p": both readings of the exponential case
    tail_tol: float | None = None  # hard bound on the window-edge integrand, if set

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("need t_min < t_max")
        if self.nt < 2:
            raise ValueError("need at least two time samples")
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.nt)

    def partition(self) -> modspace.Partition:
        spec = modspace.PartitionSpec(kind=self.partition_kind, k_max=self.k_max)
        return modspace.build_partition(spec, self.grid)

    def mod_spec(self) -> modspace.ModNormSpec:
        return modspace.ModNormSpec(p=2, q=self.q, s=self.s)

    @property
    def degree_m(self) -> int:
        """Degree m entering the theorem hypotheses.

        For a power nonlinearity this is the actual product degree minus
        one; the exponential theorem runs its checks with m = 3 (its series
        is controlled through the cubic-and-higher terms).
        """
        if self.nonlin.kind == "power":
            return self.nonlin.m
        return 3


@dataclass
class SolveReport:
    iterations: int = 0
    diff_norms: list = field(default_factory=list)
    theta_hat: float | None = None
    converged: bool = False
    final_x_norm: float | None = None
    final_x_parts: tuple | None = None
    truncation_residual: float | None = None
    fixed_point_residual: float | None = None
    mass_drift: float | None = None
    aliasing_residual: float | None = None
    oracle_deviation: float | None = None
    quad_tol: float | None = None
    tail_rate_start: float | None = None
    tail_rate_end: float | None = None
    tail_minus: list | None = None
    tail_plus: list | None = None
    warnings: list = field(default_factory=list)
    hypothesis_ledger: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {}
        for key, val in self.__dict__.items():
            if isinstance(val, np.ndarray):
                val = val.tolist()
            out[key] = val
        return out


def verify_hypotheses(cfg: SolveConfig, scattering: bool = False) -> dict:
    """Check the theorem hypotheses; raise HypothesisError unless overridden.

    Returns the ledger of checks either way (the report records it).
    """
    ledger: dict = {}
    problems: list[str] = []
    d = cfg.grid.d
    gamma = cfg.coeffs.gamma
    if cfg.nonlin.kind == "zero":
        ledger["linear_problem"] = True
        return ledger
    m = cfg.degree_m
    try:
        m0 = disp.compute_m0(d, gamma)
        ledger["m0"] = m0
        if m < m0:
            problems.append(f"m = {m} below minimal degree m0 = {m0}")
        else:
            interval = disp.interval_I(m, d, gamma)
            inv_r = disp.inv_exponent(cfg.r)
            ledger["I"] = [str(interval[0]), str(interval[1])]
            if not (interval[0] <= inv_r <= interval[1]):
                problems.append(f"1/r = {inv_r} outside I = {ledger['I']}")
            else:
                r_exact = disp.exponent_from_inv(inv_r)
                l = disp.effective_l(r_exact, m, m0)
                ledger["l"] = l
                J = disp.interval_J(r_exact, d, gamma, l)
                ledger["J"] = [str(J[0]), str(J[1])]
                inv_p = disp.inv_exponent(cfg.p)
                if not (J[0] <= inv_p <= J[1]):
                    problems.append(f"1/p = {inv_p} outside J = {ledger['J']}")
    except HypothesisError as exc:
        problems.append(str(exc))

    q = cfg.q
    if q == 1:
        if cfg.nonlin.kind == "exponential" and cfg.exp_s_rule == "s>=p":
            ok = cfg.s >= float(cfg.p)
            ledger["s_rule"] = f"s >= p (strict reading): {ok}"
        else:
            ok = cfg.s >= 0.0
            ledger["s_rule"] = f"s >= 0: {ok}"
        if not ok:
            problems.append("weight s violates the q = 1 condition")
    else:
        thresh = d * (1.0 - 1.0 / float(q))
        ok = cfg.s > thresh
        ledger["s_rule"] = f"s > d/q' = {thresh}: {ok}"
        if not ok:
            problems.append(f"need s > d/q' = {thresh}, got s = {cfg.s}")

    if scattering:
        ok = float(q) <= m + 1
        ledger["q_le_m_plus_1"] = ok
        if not ok:
            problems.append(f"scattering needs q <= m + 1 = {m + 1}, got q = {q}")

    ledger["problems"] = problems
    if problems and not cfg.override_hypotheses:
        raise HypothesisError("; ".join(problems))
    return ledger


def _nonlin_spectrum(cfg: SolveConfig, u: Trajectory, j: int) -> np.ndarray:
    vals = nonlinear.evaluate(cfg.nonlin, u.values(j))
    return SpectralField(u.grid, values=vals).spectrum


def duhamel_apply(cfg: SolveConfig, u: Trajectory, u0: SpectralField,
                  lower_limit: str = "zero",
                  return_prefix: bool = False):
    """One application of the Duhamel operator to the trajectory u.

    lower_limit "zero" integrates from t = 0 (times[0] must be 0);
    "minus_inf" integrates from the window start T_min, the discrete
    stand-in for the integral from -infinity (the neglected part is a
    recorded small-data assumption, see `scatter_minus`).
    """
    times = u.times
    if lower_limit == "zero":
        if times[0] != 0.0:
            raise ValueError("lower_limit 'zero' requires the window to start at t = 0")
    elif lower_limit != "minus_inf":
        raise ValueError(f"unknown lower_limit {lower_limit!r}")
    if u.grid != u0.grid:
        raise ValueError("initial datum grid does not match trajectory grid")
    if u.n_samples != cfg.nt or abs(times[0] - cfg.t_min) > 1e-12:
        raise ValueError("trajectory is not on the configured time grid")

    phase = disp.phase_table(cfg.coeffs, cfg.grid)
    spec0 = u0.spectrum
    out = np.empty_like(u.spectra)
    prefix_stack = np.empty_like(u.spectra) if return_prefix else None

    zero_nonlin = cfg.nonlin.kind == "zero"
    acc = np.zeros(cfg.grid.shape, dtype=np.complex128)
    g_prev = None
    for j, t in enumerate(times):
        if not zero_nonlin:
            g = np.exp(-1j * t * phase) * _nonlin_spectrum(cfg, u, j)
            if j > 0:
                acc += (times[j] - times[j - 1]) * 0.5 * (g_prev + g)
            g_prev = g
        if prefix_stack is not None:
            prefix_stack[j] = acc
        out[j] = np.exp(1j * t * phase) * (spec0 + 1j * acc)
    result = Trajectory(cfg.grid, times, out)
    if return_prefix:
        return result, prefix_stack
    return result


def _x_diff(cfg: SolveConfig, partition, a: Trajectory, b: Trajectory) -> float:
    return modspace.x_norm_diff(a, b, cfg.s, cfg.q, cfg.r, cfg.p, partition).value


_FLOOR_REL = 1e-13  # below this (relative to the first difference) ratios are noise


def _run_fixed_point(cfg: SolveConfig, u0: SpectralField, lower_limit: str,
                     ledger: dict, partition: modspace.Partition
                     ) -> tuple[Trajectory, SolveReport, np.ndarray | None]:
    times = cfg.times()
    u = disp.propagate_trajectory(cfg.coeffs, times, u0)
    report = SolveReport(hypothesis_ledger=ledger)

    norm0 = modspace.mod_norm(u0, cfg.mod_spec(), partition).value
    if norm0 > cfg.delta / 2.0 * (1.0 + 1e-12):
        msg = (f"||u0|| = {norm0:.3e} exceeds delta/2 = {cfg.delta / 2:.3e}")
        if not cfg.override_hypotheses:
            raise HypothesisError(msg)
        report.warnings.append(msg)

    want_prefix = lower_limit == "minus_inf"
    prefix = None
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iters + 1):
            stepped = duhamel_apply(cfg, u, u0, lower_limit, return_prefix=want_prefix)
            u_new, prefix = stepped if want_prefix else (stepped, None)
            diff = _x_diff(cfg, partition, u_new, u)
            report.diff_norms.append(diff)
            report.iterations = it
            u = u_new
            if not math.isfinite(diff):
                report.theta_hat = math.inf
                raise NumericsError(
                    f"divergence: non-finite difference at iteration {it}", report)
            floor = max(cfg.eps_fix, _FLOOR_REL * (report.diff_norms[0] or 1.0))
            if diff <= floor:
                converged = True
                break

    ratios = [
        b / a
        for a, b in zip(report.diff_norms, report.diff_norms[1:])
        if a > max(cfg.eps_fix, _FLOOR_REL * (report.diff_norms[0] or 1.0))
    ]
    report.theta_hat = max(ratios) if ratios else 0.0
    report.converged = converged

    xres = modspace.x_norm(u, cfg.s, cfg.q, cfg.r, cfg.p, partition)
    report.final_x_norm = xres.value
    report.final_x_parts = (xres.part_l2, xres.part_lp)
    report.truncation_residual = xres.truncation_residual
    if report.diff_norms:
        report.fixed_point_residual = report.diff_norms[-1]

    if not converged:
        raise NumericsError(
            f"no convergence in {cfg.max_iters} iterations "
            f"(last diff {report.diff_norms[-1]:.3e})", report)
    if report.theta_hat is not None and report.theta_hat >= 1.0:
        raise NumericsError(
            f"non-contraction: observed theta = {report.theta_hat:.3f} >= 1", report)

    masses = [mass(u.field(j)) for j in range(0, u.n_samples, max(1, u.n_samples // 64))]
    m0v = masses[0]
    if m0v > 0:
        report.mass_drift = max(abs(mv - m0v) for mv in masses) / m0v
    if cfg.nonlin.kind != "zero":
        report.aliasing_residual = nonlinear.aliasing_residual(
            cfg.nonlin, u.field(u.n_samples - 1))
    return u, report, prefix


def picard_solve(cfg: SolveConfig, u0: SpectralField,
                 partition: modspace.Partition | None = None
                 ) -> tuple[Trajectory, SolveReport]:
    """Iterate the Duhamel operator from the free flow until the X-norm of
    successive differences drops below eps_fix; fails loudly otherwise.
    `partition` defaults to cfg.partition()."""
    ledger = verify_hypotheses(cfg)
    u, report, _ = _run_fixed_point(cfg, u0, "zero", ledger,
                                    partition or cfg.partition())
    return u, report


def mass(f: SpectralField) -> float:
    """Squared L^2 norm, the conserved quantity of the real-symbol flow."""
    return lp_norm(f, 2) ** 2


# ---------------------------------------------------------------------------
# split-step (Strang) oracle
# ---------------------------------------------------------------------------


def _nonlinear_substep(spec: nonlinear.NonlinSpec, vals: np.ndarray,
                       dt: float) -> np.ndarray:
    """Exact or RK4 solution of du/dt = i f(u) over one substep."""
    if spec.kind == "zero":
        return vals
    if spec.kind == "power" and spec.is_phase_invariant_power():
        c = complex(spec.coeff).real
        amp = np.abs(vals) ** spec.m  # |u|^m with m even for these patterns
        return vals * np.exp(1j * c * dt * amp)
    if spec.kind == "exponential" and complex(spec.lam).imag == 0.0:
        lam = complex(spec.lam).real
        rot = lam * np.expm1(spec.rho * np.abs(vals) ** 2)
        return vals * np.exp(1j * dt * rot)

    def rhs(w):
        return 1j * nonlinear.evaluate(spec, w)

    k1 = rhs(vals)
    k2 = rhs(vals + 0.5 * dt * k1)
    k3 = rhs(vals + 0.5 * dt * k2)
    k4 = rhs(vals + dt * k3)
    return vals + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def split_step_oracle(cfg: SolveConfig, u0: SpectralField) -> Trajectory:
    """Strang splitting: exact linear half-steps around a pointwise
    nonlinear step; second-order, verified by step halving in the tests."""
    times = cfg.times()
    phase = disp.phase_table(cfg.coeffs, cfg.grid)
    sub = max(1, int(cfg.oracle_substeps))
    grid = cfg.grid
    h = grid.h

    stack = np.empty((times.size,) + grid.shape, dtype=np.complex128)
    spec = u0.spectrum.copy()
    stack[0] = spec
    for j in range(1, times.size):
        dt = (times[j] - times[j - 1]) / sub
        half = np.exp(0.5j * dt * phase)
        for _ in range(sub):
            spec = spec * half
            vals = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(spec))) / (h**grid.d)
            vals = _nonlinear_substep(cfg.nonlin, vals, dt)
            spec = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(vals))) * (h**grid.d)
            spec = spec * half
        stack[j] = spec
    return Trajectory(grid, times, stack)


def oracle_deviation(a: Trajectory, b: Trajectory) -> float:
    """sup over samples of the L^2 distance (Plancherel, no transforms)."""
    if a.grid != b.grid or a.n_samples != b.n_samples:
        raise ValueError("trajectories not aligned")
    factor = (a.grid.dxi / (2.0 * math.pi)) ** a.grid.d
    worst = 0.0
    for j in range(a.n_samples):
        sq = float(np.sum(np.abs(a.spectra[j] - b.spectra[j]) ** 2))
        worst = max(worst, math.sqrt(factor * sq))
    return worst


# ---------------------------------------------------------------------------
# scattering
# ---------------------------------------------------------------------------


def _quad_tolerance(times, g_norms) -> float:
    """Trapezoid error estimate (dt^2/12) int ||d^2 g/dt^2|| via second
    differences of the integrand norms (a concrete, reported proxy)."""
    if times.size < 3:
        return 0.0
    dt = times[1] - times[0]
    d2 = np.abs(np.diff(g_norms, n=2)) / dt**2
    return float(dt**2 / 12.0 * np.sum(d2) * dt)


def scatter_minus(cfg: SolveConfig, u0_minus: SpectralField,
                  partition: modspace.Partition | None = None):
    """Fixed point of the Duhamel operator with lower limit -infinity,
    approximated on the window from T_min; reports the tail sequence
    ||u(t) - W(t) u0minus|| near the left end (it must shrink to zero)."""
    ledger = verify_hypotheses(cfg)
    partition = partition or cfg.partition()
    u, report, prefix = _run_fixed_point(cfg, u0_minus, "minus_inf", ledger, partition)

    mspec = cfg.mod_spec()
    g_norms = modspace.mod_norm_series(
        nonlinear.apply_to_trajectory(cfg.nonlin, u), mspec, partition)
    # integrand magnitude at the window edges: the recorded decay assumption
    report.tail_rate_start, report.tail_rate_end = float(g_norms[0]), float(g_norms[-1])
    report.warnings.append(
        "integral below T_min neglected; window-edge integrand norms recorded"
    )
    if cfg.tail_tol is not None:
        worst = max(report.tail_rate_start, report.tail_rate_end)
        if worst > cfg.tail_tol:
            raise NumericsError(
                f"tail not negligible: edge integrand norm {worst:.3e} > "
                f"tail_tol {cfg.tail_tol:.3e}", report)

    report.quad_tol = _quad_tolerance(u.times, g_norms)
    report.tail_minus = modspace.mod_norm_series(prefix, mspec, partition).tolist()
    return u, report, prefix


def wave_operator_plus(cfg: SolveConfig, u: Trajectory, u0_minus: SpectralField,
                       prefix: np.ndarray | None = None,
                       partition: modspace.Partition | None = None):
    """u0plus = u0minus + i * integral over the whole window of W(-s) f(u(s)).

    Also returns the outgoing tail sequence ||W(-t)u(t) - u0plus|| in the
    modulation norm, which must shrink toward the right end of the window.
    """
    if prefix is None:
        _, prefix = duhamel_apply(cfg, u, u0_minus, "minus_inf", return_prefix=True)
    full = prefix[-1]
    u0_plus = SpectralField(cfg.grid, spectrum=u0_minus.spectrum + 1j * full)
    tail_plus = modspace.mod_norm_series(
        (np.broadcast_to(full, prefix.shape), prefix), cfg.mod_spec(),
        partition or cfg.partition())
    return u0_plus, tail_plus.tolist()


def scattering_map(cfg: SolveConfig, u0_minus: SpectralField,
                   partition: modspace.Partition | None = None):
    """Compose scatter_minus and wave_operator_plus: u0minus -> u0plus.
    `partition` defaults to cfg.partition(); either way it is built once."""
    verify_hypotheses(cfg, scattering=True)
    partition = partition or cfg.partition()
    u, report, prefix = scatter_minus(cfg, u0_minus, partition)
    u0_plus, tail_plus = wave_operator_plus(cfg, u, u0_minus, prefix, partition)
    report.tail_plus = tail_plus
    out_norm = modspace.mod_norm(u0_plus, cfg.mod_spec(), partition).value
    if not math.isfinite(out_norm):
        raise NumericsError("scattered datum has non-finite modulation norm", report)
    report.hypothesis_ledger["scattered_mod_norm"] = out_norm
    return u0_plus, u, report


def delta_bisection(cfg: SolveConfig, profile: SpectralField,
                    theta_max: float = 0.9, delta_init: float = 0.05,
                    growth: float = 2.0, bisect_steps: int = 5,
                    delta_cap: float = 16.0,
                    partition: modspace.Partition | None = None):
    """Largest tested delta whose Picard run contracts with theta < theta_max.

    The profile is rescaled so that ||u0|| = delta/2 for each trial. Grows
    delta geometrically until a trial fails, then bisects. Returns a dict
    with the accepted delta, its report, and the full trial history. If
    the first trial already fails, the NumericsError carries its report.
    """
    partition = partition or cfg.partition()
    base = modspace.mod_norm(profile, cfg.mod_spec(), partition).value
    if base <= 0:
        raise ValueError("profile must be nonzero")

    def trial(delta: float):
        scaled = SpectralField(cfg.grid,
                               spectrum=profile.spectrum * (delta / 2.0 / base))
        trial_cfg = replace(cfg, delta=delta)
        try:
            _, rep = picard_solve(trial_cfg, scaled, partition)
        except NumericsError as exc:
            return False, exc.report
        ok = rep.converged and rep.theta_hat is not None and rep.theta_hat < theta_max
        return ok, rep

    history = []
    delta = delta_init
    best = None
    while delta <= delta_cap:
        ok, rep = trial(delta)
        history.append({"delta": delta, "accepted": ok,
                        "theta_hat": rep.theta_hat if rep else None})
        if not ok:
            break
        best = (delta, rep)
        delta *= growth
    if best is None:
        raise NumericsError("no delta accepted at the initial scale", rep)
    if delta > delta_cap:
        return {"delta": best[0], "report": best[1], "history": history}

    lo, hi = best[0], delta
    for _ in range(bisect_steps):
        mid = 0.5 * (lo + hi)
        ok, rep = trial(mid)
        history.append({"delta": mid, "accepted": ok,
                        "theta_hat": rep.theta_hat if rep else None})
        if ok:
            best = (mid, rep)
            lo = mid
        else:
            hi = mid
    return {"delta": best[0], "report": best[1], "history": history}
