import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modnls import dispersion as dsp, harness as hn, modspace, nonlinear as nl
from modnls import solver as sv, spectral as sp
from modnls.errors import HypothesisError

from conftest import band_limited_field

F = Fraction
INF = math.inf


class TestCoeffs:
    def test_alpha_nonzero(self):
        with pytest.raises(ValueError):
            dsp.EquationCoeffs(alpha=0.0, beta=1.0)

    def test_beta_gamma_not_both_zero(self):
        with pytest.raises(ValueError):
            dsp.EquationCoeffs(alpha=1.0, beta=0.0, gamma=0.0)

    def test_c_gamma(self):
        assert dsp.EquationCoeffs(1.0, 0.0, 1.0).c_gamma == 2
        assert dsp.EquationCoeffs(1.0, 1.0, 0.0).c_gamma == 3


class TestSymbol:
    def test_zero_frequency(self):
        c = dsp.EquationCoeffs(1.0, 1.0, 1.0)
        assert dsp.symbol(c, np.zeros(2)) == 0.0

    def test_hand_value(self):
        # alpha |xi|^2 + gamma xi1^4 at xi = (2, 0): 4 + 16 = 20
        c = dsp.EquationCoeffs(1.0, 0.0, 1.0)
        assert dsp.symbol(c, np.array([2.0, 0.0])) == pytest.approx(20.0)

    def test_beta_term_odd(self):
        c = dsp.EquationCoeffs(1.0, 1.0, 0.0)
        assert dsp.symbol(c, np.array([-1.0, 0.0])) == pytest.approx(0.0)
        assert dsp.symbol(c, np.array([1.0, 0.0])) == pytest.approx(2.0)


class TestPropagate:
    def test_identity_at_zero_time(self, grid2d_small):
        rng = np.random.default_rng(0)
        f = band_limited_field(grid2d_small, 2, rng)
        c = dsp.EquationCoeffs(1.0, 0.5, 1.0)
        g = dsp.propagate(c, 0.0, f)
        assert np.max(np.abs(g.values - f.values)) < 1e-14 * np.max(np.abs(f.values))

    def test_single_mode_phase(self, grid1d):
        f = sp.SpectralField.single_mode(grid1d, (8,))  # xi0 = 1/2
        c = dsp.EquationCoeffs(2.0, 1.0, -1.0)
        t = 0.7
        xi0 = 8 * grid1d.dxi
        expected = np.exp(1j * dsp.symbol(c, np.array([xi0])) * t) * f.values
        got = dsp.propagate(c, t, f).values
        assert np.max(np.abs(got - expected)) < 1e-13

    def test_unitarity(self, grid2d_small):
        rng = np.random.default_rng(1)
        c = dsp.EquationCoeffs(1.0, -0.3, 2.0)
        for _ in range(5):
            f = band_limited_field(grid2d_small, 2, rng)
            t = float(rng.uniform(-5, 5))
            assert sp.lp_norm(dsp.propagate(c, t, f), 2) == pytest.approx(
                sp.lp_norm(f, 2), rel=1e-12)

    def test_group_law(self, grid2d_small):
        rng = np.random.default_rng(2)
        c = dsp.EquationCoeffs(1.0, 1.0, 1.0)
        f = band_limited_field(grid2d_small, 2, rng)
        a = dsp.propagate(c, 0.4, dsp.propagate(c, 0.9, f))
        b = dsp.propagate(c, 1.3, f)
        num = np.max(np.abs(a.values - b.values))
        assert num < 1e-12 * np.max(np.abs(f.values))

    def test_commutes_with_box(self, grid2d_small):
        rng = np.random.default_rng(3)
        part = modspace.build_partition(modspace.PartitionSpec("trigonometric-window", 2),
                                        grid2d_small)
        c = dsp.EquationCoeffs(1.0, 0.2, 1.0)
        f = band_limited_field(grid2d_small, 1, rng)
        a = modspace.box(part, (1, 0), dsp.propagate(c, 0.8, f))
        b = dsp.propagate(c, 0.8, modspace.box(part, (1, 0), f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(a.values - b.values)) < 1e-12 * scale


def _phase_scale(c, grid):
    """|alpha| |xi|^2 + |beta| |xi_1|^3 + |gamma| xi_1^4 on the lattice."""
    mesh = grid.frequency_mesh()
    sq = sum(x * x for x in mesh)
    xi1 = np.abs(mesh[0])
    return abs(c.alpha) * sq + abs(c.beta) * xi1**3 + abs(c.gamma) * xi1**4


EPS = np.finfo(float).eps
PHASOR_GRIDS = {1: sp.make_grid(1, 4 * math.pi, 64), 2: sp.make_grid(2, 4 * math.pi, 64),
                3: sp.make_grid(3, 4 * math.pi, 16)}


class TestPhasor:
    @pytest.mark.parametrize("beta,gamma", [(0.0, 1.0), (1.0, 0.0), (0.5, 2.0)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_exp_of_phase_table(self, d, beta, gamma):
        grid = PHASOR_GRIDS[d]
        c = dsp.EquationCoeffs(-0.7, beta, gamma)
        scale = _phase_scale(c, grid)
        for t in (-8.0, -1.3, 0.0, 0.37, 2.5, 8.0):
            got = dsp.phasor(c, grid, t)
            expected = np.exp(1j * t * dsp.phase_table(c, grid))
            assert got.shape == grid.shape
            assert np.all(np.abs(got - expected) <= 4 * EPS * (1 + abs(t) * scale))

    def test_phase_table_is_the_symbol(self):
        grid = PHASOR_GRIDS[3]
        c = dsp.EquationCoeffs(1.0, 0.5, 2.0)
        expected = dsp.symbol(c, np.stack(grid.frequency_mesh()))
        np.testing.assert_allclose(dsp.phase_table(c, grid), expected,
                                   rtol=4 * EPS, atol=4 * EPS)

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(-8.0, 8.0), s=st.floats(-8.0, 8.0),
           alpha=st.floats(0.1, 2.0), beta=st.floats(-2.0, 2.0),
           gamma=st.floats(0.1, 2.0), flip=st.booleans(), d=st.sampled_from([1, 2]))
    def test_group_law(self, t, s, alpha, beta, gamma, flip, d):
        grid = PHASOR_GRIDS[d]
        c = dsp.EquationCoeffs(-alpha if flip else alpha, beta, gamma)
        lhs = dsp.phasor(c, grid, t) * dsp.phasor(c, grid, s)
        rhs = dsp.phasor(c, grid, t + s)
        bound = 8 * EPS * (1 + (abs(t) + abs(s)) * _phase_scale(c, grid))
        assert np.all(np.abs(lhs - rhs) <= bound)


class TestAdmissibility:
    def test_endpoint_pair(self):
        assert dsp.admissible_defect(2, 2, 2, INF) == 0

    def test_hand_pair(self):
        # d=2, gamma != 0: 2/4 + (3/2)/6 - 3/4 = 0
        assert dsp.admissible_defect(2, 2, 6, 4) == 0

    def test_non_admissible(self):
        assert dsp.admissible_defect(2, 2, 2, 2) == F(1)

    def test_subadmissible_hand_value(self):
        # (sigma, rho) = (2(m0+1), m0+1) at m0 = 3: 2/4 + (3/2)/8 - 3/4 = -1/16
        assert dsp.admissible_defect(2, 2, 8, 4) == F(-1, 16)

    def test_admissible_has_zero_subdefect(self):
        assert dsp.admissible_defect(2, 2, 6, 4) == 0

    def test_two_two_positive(self):
        assert dsp.admissible_defect(2, 2, 2, 2) > 0


class TestM0:
    def test_values(self):
        # rational evaluations: ceil(4/(3/2)) = 3, ceil(4/(5/3)) = 3, ceil(4/(8/3)) = 2
        assert dsp.compute_m0(2, 1.0) == 3
        assert dsp.compute_m0(2, 0.0) == 3
        assert dsp.compute_m0(3, 0.0) == 2
        assert dsp.compute_m0(3, 1.0) == 2

    def test_low_dimension_rejected(self):
        with pytest.raises(HypothesisError):
            dsp.compute_m0(1, 1.0)


class TestIntervals:
    def test_I_values(self):
        assert dsp.interval_I(3, 2, 1.0) == (F(1, 8), F(1, 4))
        assert dsp.interval_I(5, 2, 1.0) == (F(1, 12), F(1, 4))

    def test_I_below_m0_rejected(self):
        with pytest.raises(HypothesisError):
            dsp.interval_I(2, 2, 1.0)

    def test_I_nesting(self):
        for d, gamma in ((2, 1.0), (3, 1.0), (2, 0.0), (3, 0.0)):
            m0 = dsp.compute_m0(d, gamma)
            prev = dsp.interval_I(m0, d, gamma)
            for m in range(m0 + 1, m0 + 5):
                cur = dsp.interval_I(m, d, gamma)
                assert cur[0] <= prev[0] and cur[1] == prev[1]
                prev = cur

    def test_effective_l(self):
        assert dsp.effective_l(F(4), 5, 3) == 3
        assert dsp.effective_l(F(4), 3, 3) == 3
        # r = m + 1 exactly gives l = m
        assert dsp.effective_l(F(6), 5, 3) == 5

    def test_J_values(self):
        # hand evaluation: upper 1/2 - 1/3 = 1/6, lower 1/6 - 1/24 = 1/8
        assert dsp.interval_J(F(4), 2, 1.0, 3) == (F(1, 8), F(1, 6))

    def test_J_width_formula(self):
        # width = (l - 4/w) / (2(l+1)) with w = d - 1/c, and it vanishes
        # exactly when l equals 4/w (the degenerate zero-width case)
        for d, gamma, l, r in ((2, 1.0, 3, F(4)), (3, 1.0, 2, F(3)), (3, 0.0, 4, F(5))):
            w = F(d) - F(1, dsp.c_gamma_of(gamma))
            lo, hi = dsp.interval_J(r, d, gamma, l)
            assert hi - lo == (l - 4 / w) / (2 * (l + 1))
            assert hi - lo >= 0

    def test_p_a(self):
        assert dsp.p_admissible(F(4), 2, 1.0) == F(6)


class TestDualPair:
    def test_r4_hand_values(self):
        dp = dsp.dual_pair(F(4), 3, 2, 1.0)
        assert dp.r_tilde == F(1) and dp.p_tilde == F(2) and dp.range_valid

    def test_r8_hand_values(self):
        # 1/p~ = 1/2 + 2*(1/2)/(3/2) = 7/6, so p~ = 6/7 (conjugate leaves [2, inf])
        dp = dsp.dual_pair(F(8), 3, 2, 1.0)
        assert dp.r_tilde == F(2) and dp.p_tilde == F(6, 7)
        assert not dp.range_valid

    def test_r_tilde_out_of_range(self):
        with pytest.raises(HypothesisError):
            dsp.dual_pair(F(12), 2, 2, 1.0)  # r/(l+1) = 4

    def test_conjugates_in_range_when_valid(self):
        dp = dsp.dual_pair(F(4), 3, 2, 1.0)
        pc = dsp.conjugate_exponent(dp.p_tilde)
        rc = dsp.conjugate_exponent(dp.r_tilde)
        assert pc == F(2) and rc == INF
        assert dsp.admissible_defect(2, 2, pc, rc) == 0


def _rational_mesh(lo: Fraction, hi: Fraction, steps: int):
    span = hi - lo
    return [lo + span * F(i, steps) for i in range(steps + 1)]


class TestExponentMeshProperties:
    """Exact-rational sweep of Theorem-level exponent relations."""

    @pytest.mark.parametrize("d,gamma", [(2, 1.0), (3, 1.0), (2, 0.0), (3, 0.0)])
    def test_mesh(self, d, gamma):
        c = dsp.c_gamma_of(gamma)
        w = F(d) - F(1, c)
        m0 = dsp.compute_m0(d, gamma)
        for m in range(m0, m0 + 4):
            I = dsp.interval_I(m, d, gamma)
            for inv_r in _rational_mesh(I[0], I[1], 8):
                r = dsp.exponent_from_inv(inv_r)
                l = dsp.effective_l(r, m, m0)
                J = dsp.interval_J(r, d, gamma, l)
                p_a = dsp.p_admissible(r, d, gamma)
                assert dsp.admissible_defect(d, c, p_a, r) == 0
                dp = dsp.dual_pair(r, l, d, gamma)
                # range validity has the exact characterization r~ below the
                # critical value (1 - w/4)^(-1); for w >= 4 it always holds
                if w >= 4:
                    assert dp.range_valid
                else:
                    crit = 1 / (1 - w / 4)
                    assert dp.range_valid == (dp.r_tilde <= crit)
                for inv_p in _rational_mesh(J[0], J[1], 4):
                    p = dsp.exponent_from_inv(inv_p)
                    # p >= p_a and the Hölder chain (l+1) p~ >= p
                    assert inv_p <= dsp.inv_exponent(p_a)
                    assert (l + 1) * dp.p_tilde >= p


class TestLedger:
    def test_full_ledger(self):
        led = dsp.build_param_ledger(2, 3, True, r=F(4), p=F(6))
        assert led.m0 == 3 and led.l == 3
        assert led.I == (F(1, 8), F(1, 4))
        assert led.J == (F(1, 8), F(1, 6))
        assert led.p_a == F(6) and led.p_tilde == F(2) and led.r_tilde == F(1)
        assert all(led.checks.values())

    def test_r_outside_I_rejected(self):
        with pytest.raises(HypothesisError):
            dsp.build_param_ledger(2, 3, True, r=F(2))

    def test_rejection_carries_json_ledger(self):
        # d, m and gamma are recorded before compute_m0 refuses d < 2
        with pytest.raises(HypothesisError) as exc:
            dsp.build_param_ledger(1, 3, False)
        assert exc.value.ledger == {"d": 1, "m": 3, "gamma_nonzero": False, "c_gamma": 3}
        with pytest.raises(HypothesisError) as exc:
            dsp.build_param_ledger(2, 3, True, r=F(16, 3), p=F(6))
        assert exc.value.ledger == {
            "d": 2, "m": 3, "gamma_nonzero": True, "c_gamma": 2, "m0": 3,
            "I": ["1/8", "1/4"], "r": "16/3", "l": 3, "J": ["5/24", "1/4"], "p_a": "4",
            "p_tilde": "6/5", "r_tilde": "4/3",
            "checks": {"p_a_admissible": True, "dual_defect_zero": True,
                       "dual_range_valid": True}}


_LEDGER_INPUTS = dict(d=st.integers(2, 6), extra=st.integers(0, 4),
                      gamma_nonzero=st.booleans())


class TestLedgerProperties:
    """Random (d, m, gamma, r) through the exact-rational ledger."""

    @settings(max_examples=80, deadline=None)
    @given(**_LEDGER_INPUTS, u=st.fractions(0, 1))
    def test_p_a_has_zero_defect(self, d, extra, gamma_nonzero, u):
        gamma = 1.0 if gamma_nonzero else 0.0
        m = dsp.compute_m0(d, gamma) + extra
        lo, hi = dsp.interval_I(m, d, gamma)
        r = 1 / (lo + u * (hi - lo))  # 1/r anywhere in I
        led = dsp.build_param_ledger(d, m, gamma_nonzero, r=r)
        assert dsp.admissible_defect(d, led.c_gamma, led.p_a, r) == 0
        assert led.checks["p_a_admissible"]

    @settings(max_examples=80, deadline=None)
    @given(**_LEDGER_INPUTS, inv_r=st.fractions(F(1, 64), 1, max_denominator=64))
    def test_interval_J_ordered_or_rejected(self, d, extra, gamma_nonzero, inv_r):
        gamma = 1.0 if gamma_nonzero else 0.0
        m0 = dsp.compute_m0(d, gamma)
        try:
            l = dsp.effective_l(1 / inv_r, m0 + extra, m0)
            lower, upper = dsp.interval_J(1 / inv_r, d, gamma, l)
        except HypothesisError:
            return
        assert lower <= upper

    @settings(max_examples=80, deadline=None)
    @given(**_LEDGER_INPUTS, u=st.fractions(0, 1))
    def test_effective_l_characterizations_agree(self, d, extra, gamma_nonzero, u):
        gamma = 1.0 if gamma_nonzero else 0.0
        m0 = dsp.compute_m0(d, gamma)
        lo, hi = dsp.interval_I(m0 + extra, d, gamma)
        r = 1 / (lo + u * (hi - lo))  # 1/r anywhere in I
        # raises (AssertionError) when the min-form and the max-form disagree
        assert m0 <= dsp.effective_l(r, m0 + extra, m0) <= m0 + extra

    @settings(max_examples=80, deadline=None)
    @given(**_LEDGER_INPUTS, u=st.fractions(0, 1))
    def test_dual_conjugates_admissible_when_range_valid(self, d, extra, gamma_nonzero, u):
        gamma = 1.0 if gamma_nonzero else 0.0
        m0 = dsp.compute_m0(d, gamma)
        lo, hi = dsp.interval_I(m0 + extra, d, gamma)
        r = 1 / (lo + u * (hi - lo))
        dp = dsp.dual_pair(r, dsp.effective_l(r, m0 + extra, m0), d, gamma)
        if not dp.range_valid:
            return
        pc, rc = dsp.conjugate_exponent(dp.p_tilde), dsp.conjugate_exponent(dp.r_tilde)
        for e in (pc, rc):  # e in [2, inf]
            assert 0 <= dsp.inv_exponent(e) <= F(1, 2)
        assert dsp.admissible_defect(d, dsp.c_gamma_of(gamma), pc, rc) == 0


def _solve_config(d, m, gamma_nonzero, **kw):
    """A SolveConfig whose hypotheses depend only on the arguments; verify_hypotheses
    reads the grid's d and nothing else of it."""
    coeffs = dsp.EquationCoeffs(1.0, beta=0.0 if gamma_nonzero else 1.0,
                                gamma=1.0 if gamma_nonzero else 0.0)
    base = dict(coeffs=coeffs, grid=sp.make_grid(d, 4 * math.pi, 8), t_min=0.0,
                t_max=1.0, nt=2, delta=1.0,
                nonlin=nl.NonlinSpec(kind="power", pattern=("u",) * (m + 1)))
    base.update(kw)
    return sv.SolveConfig(**base)


class TestOneLedger:
    """The solve's hypothesis ledger is the exponent ledger of `modnls params`."""

    @settings(max_examples=120, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 7), gamma_nonzero=st.booleans(),
           inv_r=st.fractions(F(1, 32), F(1, 2), max_denominator=32),
           t=st.fractions(F(-1, 2), F(3, 2), max_denominator=8))
    def test_solve_reports_the_param_ledger(self, d, m, gamma_nonzero, inv_r, t):
        r = 1 / inv_r
        try:  # place 1/p around J (t in [0, 1] is inside) when J exists
            lo, hi = dsp.build_param_ledger(d, m, gamma_nonzero, r=r).J
            inv_p = max(lo + t * (hi - lo), F(0))
        except HypothesisError:
            inv_p = F(1, 6)
        p = dsp.exponent_from_inv(inv_p)
        cfg = _solve_config(d, m, gamma_nonzero, r=r, p=p, override_hypotheses=True)
        ledger = sv.verify_hypotheses(cfg)
        try:
            led = dsp.build_param_ledger(d, m, gamma_nonzero, r=r, p=p).to_json()
            problems = []
        except HypothesisError as exc:
            led, problems = exc.ledger, [str(exc)]
        # the whole chain, as far as it got (d = 1 included), plus what a solve
        # adds: s = 0, q = 1 meets the weight rule
        assert ledger == {**led, "s_rule": "s >= 0: True", "problems": problems}


# (q, s, whether the weight rule holds, the solve report's s_rule) at d = 2
WEIGHT_TABLE = [
    (1, 0.0, True, "s >= 0: True"),
    (1, -0.5, False, "s >= 0: False"),
    (2, 1.0, False, "s > d/q' = 1.0: False"),
    (2, 1.5, True, "s > d/q' = 1.0: True"),
    (INF, 2.0, False, "s > d/q' = 2.0: False"),
    (INF, 2.5, True, "s > d/q' = 2.0: True"),
]


@pytest.mark.parametrize("q,s,holds,s_rule", WEIGHT_TABLE)
def test_weight_rule_table(grid2d_small, q, s, holds, s_rule):
    assert dsp.weight_rule(2, q, s)[0] == holds
    # solve: the ledger records the rule; (d, m, r, p) = (2, 3, 4, 6) meets the rest
    cfg = _solve_config(2, 3, True, q=q, s=s, r=4, p=6, override_hypotheses=True)
    ledger = sv.verify_hypotheses(cfg)
    assert ledger["s_rule"] == s_rule and bool(ledger["problems"]) != holds
    # harness: the Hölder and Lipschitz checks reject the same (q, s)
    part = modspace.build_partition(modspace.PartitionSpec("trigonometric-window", 2),
                                    grid2d_small)
    ens = hn.EnsembleSpec(count=1, band=1)
    quartic = nl.NonlinSpec(kind="power", pattern=("u", "conj", "u", "u"))
    exps = nl.LipschitzExponents(s=s, q=q, r_tilde=1, p_tilde=2, l=3, m=3)
    checks = [
        lambda: hn.check_hoelder_like(grid2d_small, cfg.coeffs, ens, q, s, p_target=2,
                                      p_factors=(4, 4), partition=part),
        lambda: hn.check_power_lipschitz(grid2d_small, cfg.coeffs, ens, quartic, exps,
                                         np.linspace(0.0, 1.0, 3), part),
    ]
    for check in checks:
        if holds:
            check()
        else:
            with pytest.raises(HypothesisError):
                check()
