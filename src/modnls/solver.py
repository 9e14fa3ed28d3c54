"""Duhamel fixed-point solver, split-step oracle, and scattering maps.

Sign convention: the equation is used in the form

    du/dt = i phi(D) u + i f(u),

where phi is the real dispersion phase implemented in `dispersion`. The
mild formulation is then u(t) = W(t) u0 + i * int_0^t W(t-s) f(u(s)) ds;
the i in front of the source is fixed here and validated against the
independent split-step oracle rather than assumed.

All Duhamel integrals are evaluated spectrally: W(t-s) is diagonal, so
the integral is a trapezoid prefix sum of exp(-i phi s) fhat(u(s)),
multiplied by exp(i phi t) afterwards. One operator application is one
pass of the nonlinearity over the stack (`nonlinear.apply_to_trajectory`,
a transform pair per chunk of samples) followed by the prefix sum
`dispersion.duhamel_sum`, which works in place on that stack with
separable phasors: O(N_t) transforms instead of O(N_t^2), and no second
stack. `delta_bisection` stops a trial as soon as an observed contraction
ratio reaches its theta_max, and for a power its trials share their first
iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
import numpy as np

from . import dispersion as disp
from . import modspace, nonlinear
from .errors import HypothesisError, NumericsError
from .spectral import (
    GridSpec,
    SpectralField,
    Trajectory,
    _box_width,
    _plancherel,
    _rebox,
    lp_norm,
)

__all__ = [
    "SolveConfig",
    "SolveReport",
    "duhamel_apply",
    "picard_solve",
    "split_step_oracle",
    "oracle_deviation",
    "mass",
    "mass_series",
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
        # chained comparisons, so that NaN and an infinite end fail them too
        if not -math.inf < self.t_min < self.t_max < math.inf:
            raise ValueError(f"need finite t_min < t_max, got {self.t_min}, {self.t_max}")
        if self.nt < 2:
            raise ValueError("need at least two time samples")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.max_iters < 1:
            raise ValueError(f"solver.max_iters must be >= 1, got {self.max_iters}")
        if self.exp_s_rule not in ("s>=0", "s>=p"):
            raise ValueError(f"exp_s_rule must be 's>=0' or 's>=p', got {self.exp_s_rule!r}")

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
    scattered_mod_norm: float | None = None
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

    The ledger is the one `modnls params` prints (ParamLedger.to_json, as
    far as the chain got) plus what a solve adds: the (q, s) condition of
    `dispersion.weight_rule`, q <= m + 1 for scattering, and `problems`,
    the violated rules. Returns it (the report records it); a
    HypothesisError carries it.
    """
    if cfg.nonlin.kind == "zero":
        return {"linear_problem": True, "problems": []}
    problems: list[str] = []
    m = cfg.degree_m
    try:
        ledger = disp.build_param_ledger(cfg.grid.d, m, cfg.coeffs.gamma != 0.0,
                                        r=cfg.r, p=cfg.p).to_json()
    except HypothesisError as exc:
        ledger = exc.ledger
        problems.append(str(exc))

    ok, rule = disp.weight_rule(cfg.grid.d, cfg.q, cfg.s)
    if (float(cfg.q) == 1.0 and cfg.nonlin.kind == "exponential"
            and cfg.exp_s_rule == "s>=p"):
        ok, rule = cfg.s >= float(cfg.p), "s >= p (strict reading)"
    ledger["s_rule"] = f"{rule}: {ok}"
    if not ok:
        problems.append(f"q = {cfg.q} requires {rule}, got s = {cfg.s}")

    if scattering:
        ok = float(cfg.q) <= m + 1
        ledger["q_le_m_plus_1"] = ok
        if not ok:
            problems.append(f"scattering needs q <= m + 1 = {m + 1}, got q = {cfg.q}")

    ledger["problems"] = problems
    if problems and not cfg.override_hypotheses:
        raise HypothesisError("; ".join(problems), ledger)
    return ledger


def duhamel_apply(cfg: SolveConfig, u: Trajectory, u0: SpectralField,
                  out: np.ndarray | None = None) -> Trajectory:
    """One application of the Duhamel operator to the trajectory u.

    The integral runs from the window start times[0]: t = 0 for
    `picard_solve`, and T_min for `scatter_minus`, the discrete stand-in
    for the integral from -infinity (the neglected part is a recorded
    small-data assumption). The result carries the joint support of f(u)
    and u0. `out`, a stack nothing else reads (the Picard loop's spent
    iterate), takes the result when it has the shape of f(u).
    """
    if u.grid != u0.grid:
        raise ValueError("initial datum grid does not match trajectory grid")
    if u.n_samples != cfg.nt or abs(u.times[0] - cfg.t_min) > 1e-12:
        raise ValueError("trajectory is not on the configured time grid")

    f = nonlinear.apply_to_trajectory(cfg.nonlin, u, out=out)
    W = max(f.support, u0.support)
    stack = _rebox(f.box, cfg.grid.d, _box_width(cfg.grid, W))
    disp.duhamel_sum(cfg.coeffs, cfg.grid, u.times, stack, W, base=u0.spectrum, coef=1j)
    return Trajectory(cfg.grid, u.times, stack, support=W)


_FLOOR_REL = 1e-13  # below this (relative to the first difference) ratios are noise


def _run_fixed_point(cfg: SolveConfig, u0: SpectralField, ledger: dict,
                     partition: modspace.Partition,
                     theta_max: float | None = None,
                     first: tuple[Trajectory, float] | None = None
                     ) -> tuple[Trajectory, SolveReport]:
    """Picard iteration from the free flow. With `theta_max`, a ratio of
    successive differences reaching it (denominator above the noise floor)
    raises NumericsError at once: theta_hat, the maximum of those ratios,
    can then only end at or above theta_max. With `first` = (D, ||D||_X),
    the Duhamel term D = u1 - W(t) u0 of the first iterate and its X norm,
    u1 is W(t) u0 + D, summed into D's stack, and the first difference is
    that norm: the Duhamel applications start at iteration 2.

    An iteration no longer reads `spent`, the iterate before last, so its
    pass writes into spent's stack when that has the pass's shape (see
    duhamel_apply), and frees it otherwise. The last `spent` is kept until
    the solve returns. The checks after the loop then cannot leave blocks
    in the memory it frees, which comes back whole for the caller's next
    stack of that size (the split-step oracle's, say) instead of making
    that stack map fresh pages beside it: peak RSS no longer depends on
    where malloc put those blocks."""
    grid = cfg.grid
    times = cfg.times()
    u = disp.propagate_trajectory(cfg.coeffs, times, u0)
    report = SolveReport(hypothesis_ledger=ledger)

    norm0 = modspace.mod_norm(u0, cfg.mod_spec(), partition).value
    if norm0 > cfg.delta / 2.0 * (1.0 + 1e-12):
        msg = f"||u0|| = {norm0:.3e} exceeds delta/2 = {cfg.delta / 2:.3e}"
        ledger["problems"].append(msg)
        if not cfg.override_hypotheses:
            raise HypothesisError(msg, ledger)
        report.warnings.append(msg)

    converged = False
    ratios = []  # successive-difference ratios whose denominator is above the floor
    spent = None
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iters + 1):
            if it == 1 and first is not None:
                term, diff = first
                W = max(term.support, u.support)
                stack = _rebox(term.box, grid.d, _box_width(grid, W))
                flow = _rebox(stack, grid.d, u.box.shape[-1])  # a view of the middle
                flow += u.box
                u_new = Trajectory(grid, times, stack, support=W)
            else:
                # supports only grow, and stop growing once two iterates share
                # one: spent's stack then has the shape of the next pass's output
                out = spent.box if spent is not None and spent.box.shape == u.box.shape else None
                spent = None  # free the iterate before last unless its stack is reused
                u_new = duhamel_apply(cfg, u, u0, out=out)
                diff = modspace.x_norm_diff(u_new, u, cfg.s, cfg.q, cfg.r, cfg.p,
                                            partition).value
            report.diff_norms.append(diff)
            report.iterations = it
            spent, u = u, u_new
            if not math.isfinite(diff):
                report.theta_hat = math.inf
                raise NumericsError(
                    f"divergence: non-finite difference at iteration {it}", report)
            floor = max(cfg.eps_fix, _FLOOR_REL * (report.diff_norms[0] or 1.0))
            if it > 1 and report.diff_norms[-2] > floor:
                ratios.append(diff / report.diff_norms[-2])
                if theta_max is not None and ratios[-1] >= theta_max:
                    report.theta_hat = max(ratios)
                    raise NumericsError(
                        f"ratio {ratios[-1]:.3f} >= theta_max = {theta_max} "
                        f"at iteration {it}", report)
            if diff <= floor:
                converged = True
                break

    report.theta_hat = max(ratios) if ratios else 0.0
    report.converged = converged

    xres = modspace.x_norm(u, cfg.s, cfg.q, cfg.r, cfg.p, partition)
    report.final_x_norm = xres.value
    report.final_x_parts = (xres.part_l2, xres.part_lp)
    report.truncation_residual = modspace.truncation_residual(u, partition)
    if report.diff_norms:
        report.fixed_point_residual = report.diff_norms[-1]

    if not converged:
        raise NumericsError(
            f"no convergence in {cfg.max_iters} iterations "
            f"(last diff {report.diff_norms[-1]:.3e})", report)
    if report.theta_hat is not None and report.theta_hat >= 1.0:
        raise NumericsError(
            f"non-contraction: observed theta = {report.theta_hat:.3f} >= 1", report)

    masses = mass_series(u)
    if masses[0] > 0:
        report.mass_drift = float(np.max(np.abs(masses - masses[0])) / masses[0])
    if cfg.nonlin.kind != "zero":
        report.aliasing_residual = nonlinear.aliasing_residual(
            cfg.nonlin, u.field(u.n_samples - 1))
    return u, report


def picard_solve(cfg: SolveConfig, u0: SpectralField,
                 partition: modspace.Partition | None = None, *,
                 theta_max: float | None = None,
                 first: tuple[Trajectory, float] | None = None
                 ) -> tuple[Trajectory, SolveReport]:
    """Iterate the Duhamel operator from the free flow until the X-norm of
    successive differences drops below eps_fix; fails loudly otherwise.
    `partition` defaults to cfg.partition(). With `theta_max` the solve
    also fails as soon as an observed contraction ratio reaches it.
    `first` = (D, ||D||_X) hands in the Duhamel term of the first iterate
    and its X norm when the caller has them (see _run_fixed_point); the
    solve takes over D's stack."""
    if cfg.t_min != 0.0:
        raise ValueError("picard_solve integrates from t = 0: the window must start there")
    ledger = verify_hypotheses(cfg)
    return _run_fixed_point(cfg, u0, ledger, partition or cfg.partition(), theta_max,
                            first)


def mass(f: SpectralField) -> float:
    """Squared L^2 norm, the conserved quantity of the real-symbol flow."""
    return lp_norm(f, 2) ** 2


def mass_series(u: Trajectory) -> np.ndarray:
    """mass of every sample, by Plancherel on the stored spectra."""
    return _plancherel(u.box, u.grid, u.support)


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


# Rows of samples per block of the oracle's nonlinear substep. numpy computes
# `a * f(b)` in place in the temporary f(b) from 256 KiB on, and that rounds
# differently in the complex product; blocks of exactly 256 KiB (a power-of-
# two grid below it is one block) keep the rounding of the whole array.
_BLOCK_BYTES = 1 << 18


def split_step_oracle(cfg: SolveConfig, u0: SpectralField) -> Trajectory:
    """Strang splitting: exact linear half-steps around a pointwise
    nonlinear step; second-order, verified by step halving in the tests.

    The state stays in FFT order (k = 0 first, the per-axis phasor terms
    shifted to match), so a step is an in-place transform pair with no
    shifts; a stored sample is shifted to math order once. The pointwise
    substep runs over blocks of rows of _BLOCK_BYTES, which it does not see."""
    times = cfg.times()
    grid = cfg.grid
    stack = np.empty((times.size,) + grid.shape, dtype=np.complex128)  # before the tables
    sub = max(1, int(cfg.oracle_substeps))
    axes = tuple(range(-grid.d, 0))
    scale = grid.h**grid.d
    terms = [np.fft.ifftshift(term) for term in disp._axis_terms(cfg.coeffs, grid)]
    rows = max(1, _BLOCK_BYTES // (16 * grid.size // grid.n))

    stack[0] = u0.spectrum
    state = np.fft.ifftshift(u0.spectrum)
    for j in range(1, times.size):
        dt = (times[j] - times[j - 1]) / sub
        half = disp._outer_phasor(terms, 0.5 * dt)
        for _ in range(sub):
            state *= half
            np.fft.ifftn(state, axes=axes, out=state)
            state /= scale
            for r0 in range(0, grid.n, rows):
                state[r0:r0 + rows] = _nonlinear_substep(cfg.nonlin, state[r0:r0 + rows], dt)
            np.fft.fftn(state, axes=axes, out=state)
            state *= scale
            state *= half
        stack[j] = np.fft.fftshift(state)
    return Trajectory(grid, times, stack)


def oracle_deviation(a: Trajectory, b: Trajectory) -> float:
    """sup over samples of the L^2 distance (Plancherel, no transforms)."""
    if a.grid != b.grid or a.n_samples != b.n_samples:
        raise ValueError("trajectories not aligned")
    W = max(a.support, b.support)
    return math.sqrt(float(_plancherel((a.box, b.box), a.grid, W).max()))


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


def _integrand_sweep(cfg: SolveConfig, u: Trajectory, footprint: int):
    """(the integral of W(-s) f(u(s)) over the window, f(u) on the box
    |k|_inf <= footprint) in one pass over u: the integral is summed as the
    chunks of f(u) go by, so no full-grid f(u) stack is made."""
    grid, d = cfg.grid, cfg.grid.d
    reach, chunks = nonlinear._f_chunks(cfg.nonlin, u)
    support = min(reach, footprint)
    crops = np.empty((u.n_samples,) + (_box_width(grid, support),) * d, dtype=np.complex128)

    def sources():
        for rows, f in chunks:
            crops[rows] = _rebox(f, d, crops.shape[-1])
            yield from f

    for _, acc in disp._prefix_steps(cfg.coeffs, grid, u.times, _box_width(grid, reach),
                                     sources()):
        pass
    return (SpectralField._adopt(grid, _rebox(acc, d, grid.n), reach),
            Trajectory(grid, u.times, crops, support=support))


def scatter_minus(cfg: SolveConfig, u0_minus: SpectralField,
                  partition: modspace.Partition | None = None):
    """Fixed point of the Duhamel operator with lower limit -infinity,
    approximated on the window from T_min; reports the tail sequence
    ||u(t) - W(t) u0minus|| near the left end (it must shrink to zero).
    Checks the hypotheses once, scattering's q <= m + 1 included.

    Returns (u, report, total, prefix): `total` is the integral of
    W(-s) f(u(s)) over the window, and `prefix` the integrals from T_min to
    every sample on the partition's footprint, all that a modulation norm
    reads. One pass over u sums `total` and keeps f(u) on the footprint,
    which gives the integrand norms and is then summed in place into the
    prefix: after the Picard loop, u is the only full-grid stack."""
    ledger = verify_hypotheses(cfg, scattering=True)
    partition = partition or cfg.partition()
    u, report = _run_fixed_point(cfg, u0_minus, ledger, partition)

    mspec = cfg.mod_spec()
    total, f = _integrand_sweep(cfg, u, partition.footprint)
    g_norms = modspace.mod_norm_series(f, mspec, partition)
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
    disp.duhamel_sum(cfg.coeffs, cfg.grid, u.times, f.box, f.support, prefix=True)
    report.tail_minus = modspace.mod_norm_series(f, mspec, partition).tolist()
    return u, report, total, f


def wave_operator_plus(cfg: SolveConfig, u0_minus: SpectralField, total: SpectralField,
                       prefix: Trajectory, partition: modspace.Partition | None = None):
    """u0plus = u0minus + i * total, from the integral over the whole window
    and the prefix integrals that `scatter_minus` returns.

    Also returns the outgoing tail sequence ||W(-t)u(t) - u0plus|| in the
    modulation norm, which must shrink toward the right end of the window.
    """
    u0_plus = SpectralField._adopt(cfg.grid, u0_minus.spectrum + 1j * total.spectrum,
                                   max(u0_minus.support, total.support))
    tail_plus = modspace.mod_norm_series(
        (np.broadcast_to(prefix.box[-1], prefix.box.shape), prefix.box), cfg.mod_spec(),
        partition or cfg.partition())
    return u0_plus, tail_plus.tolist()


def scattering_map(cfg: SolveConfig, u0_minus: SpectralField,
                   partition: modspace.Partition | None = None):
    """Compose scatter_minus and wave_operator_plus: u0minus -> u0plus.
    `partition` defaults to cfg.partition(); either way it is built once."""
    partition = partition or cfg.partition()
    u, report, total, prefix = scatter_minus(cfg, u0_minus, partition)
    u0_plus, tail_plus = wave_operator_plus(cfg, u0_minus, total, prefix, partition)
    report.tail_plus = tail_plus
    out_norm = modspace.mod_norm(u0_plus, cfg.mod_spec(), partition).value
    if not math.isfinite(out_norm):
        raise NumericsError("scattered datum has non-finite modulation norm", report)
    report.scattered_mod_norm = out_norm
    return u0_plus, u, report


_GROWTH = 2.0  # delta_bisection's factor between trials until the first failure


def delta_bisection(cfg: SolveConfig, profile: SpectralField,
                    theta_max: float = 0.9, delta_init: float = 0.05,
                    bisect_steps: int = 5, delta_cap: float = 16.0,
                    partition: modspace.Partition | None = None):
    """Largest tested delta whose Picard run contracts with theta < theta_max.

    The profile is rescaled so that ||u0|| = delta/2 for each trial. Doubles
    delta until a trial fails, then bisects. A trial stops as soon as a
    contraction ratio reaches theta_max, so a rejected trial's theta_hat
    describes the truncated run. Returns a dict with the accepted
    delta, its report, and the full trial history. If the first trial
    already fails, the NumericsError carries its report.

    A power of degree D has f(c v) = c^D f(v) for real c > 0, so the trials
    share their first iterate: D1, the Duhamel term of the free flow of the
    profile scaled to norm 1, and its X norm are taken once, and a trial
    at delta starts from W(t) u0 + (delta/2)^D D1 (picard_solve's `first`).
    The other kinds run every iteration.
    """
    grid = cfg.grid
    partition = partition or cfg.partition()
    base = modspace.mod_norm(profile, cfg.mod_spec(), partition).value
    if base <= 0:
        raise ValueError("profile must be nonzero")
    shared = None
    if cfg.nonlin.kind == "power":
        unit = SpectralField._adopt(grid, profile.spectrum / base, profile.support)
        zero = SpectralField._adopt(grid, np.zeros(grid.shape, dtype=np.complex128), 0)
        D1 = duhamel_apply(cfg, disp.propagate_trajectory(cfg.coeffs, cfg.times(), unit), zero)
        shared = D1, modspace.x_norm(D1, cfg.s, cfg.q, cfg.r, cfg.p, partition).value

    def trial(delta: float):
        scaled = SpectralField._adopt(grid, profile.spectrum * (delta / 2.0 / base),
                                      profile.support)
        trial_cfg = replace(cfg, delta=delta)
        first = None
        if shared is not None:
            D1, n1 = shared
            k = (delta / 2.0) ** cfg.nonlin.degree
            first = Trajectory(grid, D1.times, D1.box * k, support=D1.support), k * n1
        try:
            _, rep = picard_solve(trial_cfg, scaled, partition, theta_max=theta_max,
                                  first=first)
        except NumericsError as exc:
            return False, exc.report
        ok = rep.converged and rep.theta_hat is not None and rep.theta_hat < theta_max
        return ok, rep

    history = []
    delta = delta_init
    best = None
    while delta <= delta_cap:
        ok, rep = trial(delta)
        history.append({"delta": delta, "accepted": ok, "theta_hat": rep.theta_hat})
        if not ok:
            break
        best = (delta, rep)
        delta *= _GROWTH
    if best is None:
        raise NumericsError("no delta accepted at the initial scale", rep)
    if delta > delta_cap:
        return {"delta": best[0], "report": best[1], "history": history}

    lo, hi = best[0], delta
    for _ in range(bisect_steps):
        mid = 0.5 * (lo + hi)
        ok, rep = trial(mid)
        history.append({"delta": mid, "accepted": ok, "theta_hat": rep.theta_hat})
        if ok:
            best = (mid, rep)
            lo = mid
        else:
            hi = mid
    return {"delta": best[0], "report": best[1], "history": history}
