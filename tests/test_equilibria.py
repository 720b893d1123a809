import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

import nonlocalrd.equilibria as eqmod
from nonlocalrd.equilibria import (
    block_assignment,
    extremal_equilibria,
    minimal_nonnegative_equilibrium,
    minimal_positive_equilibrium,
    newton_refine,
    perturbed_assignment,
    piecewise_constant_family,
    residual_norm,
    solve_phi,
    uniqueness_experiment,
)
from nonlocalrd.evolve import IntegratorConfig, envelope_U, evolve_nonlinear
from nonlocalrd.kernel import NonlocalOperator, assemble_kernel, build_operator, compute_h0
from nonlocalrd.reaction import CallableReaction, LogisticReaction, monotone_shift, truncate
from nonlocalrd.space import build_graph, build_interval, merge_spaces
from nonlocalrd.verify import asymptotic_suite, sample_system

SQRT3 = math.sqrt(3.0)


def unit_op(n=48, h=None):
    s = build_interval(0, 1, n)
    k = assemble_kernel(s, "constant", c=1.0)
    return s, k, build_operator(k, np.zeros(n) if h is None else h)


def logistic(n, g=0.0, ncoef=2.0, m=1.0, rho=3.0):
    return LogisticReaction(g=g, n=ncoef, m=m, rho=rho, n_nodes=n)


def sampled_kernel(rng, kind, n):
    """Random interval, graph (often disconnected) or two-part union kernel."""
    if kind == "graph":
        edges = [[int(i), int(j), float(rng.uniform(0.5, 1.5))]
                 for i, j in rng.integers(0, n, size=(n, 2)) if i != j]
        s = build_graph(n, edges, rng.uniform(0.5, 1.5, size=n) / n)
        return assemble_kernel(s, "tophat", R=float(rng.uniform(1.0, 3.0)),
                               J0=float(rng.uniform(0.5, 2.0)))
    if kind == "union":
        s = merge_spaces(build_interval(0, 1, n // 2), build_interval(1.5, 2.5, n - n // 2))
        return assemble_kernel(s, "tophat", R=float(rng.uniform(0.05, 0.8)),
                               J0=float(rng.uniform(0.5, 2.0)))
    return assemble_kernel(build_interval(0, 1, n), "gaussian",
                           sigma=float(rng.uniform(0.05, 0.5)),
                           scale=float(rng.uniform(0.5, 2.0)))


def count_principal_value(monkeypatch):
    """Count principal_value calls through every package namespace that holds it."""
    import nonlocalrd.spectral as spectral

    calls = []
    real = spectral.principal_value

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("nonlocalrd") and getattr(mod, "principal_value", None) is real:
            monkeypatch.setattr(mod, "principal_value", counted)
    return calls


class TestSolvePhi:
    def test_constant_coefficients(self):
        s, k, _ = unit_op(32)
        np.testing.assert_allclose(solve_phi(k, -2.0, np.ones(32)), 1.0, atol=1e-12)

    def test_zero_inhomogeneity(self):
        s, k, _ = unit_op(32)
        np.testing.assert_allclose(solve_phi(k, -2.0, np.zeros(32)), 0.0, atol=1e-14)

    def test_matches_semigroup_integral_oracle(self):
        # Φ = ∫_0^∞ e^{(K+C)s} D ds, here by composite Simpson over [0, T]
        # with the tail bounded through the decay of the exponential
        rng = np.random.default_rng(8)
        s, k, _ = unit_op(24)
        c = -2.5 + 0.5 * np.sin(2 * np.pi * s.x)
        d = rng.uniform(0.0, 1.0, size=24)
        phi = solve_phi(k, c, d)
        amat = k.jmat * s.weights[None, :] + np.diag(c)
        T, m = 30.0, 7500
        dt = T / m
        e1 = expm(amat * dt)
        acc = np.zeros(24)
        cur = d.copy()
        for j in range(m + 1):
            wgt = 1.0 if j in (0, m) else (4.0 if j % 2 else 2.0)
            acc += wgt * cur
            cur = e1 @ cur
        oracle = acc * dt / 3.0
        np.testing.assert_allclose(phi, oracle, atol=1e-8)

    def test_spectral_precondition(self):
        s, k, _ = unit_op(16)
        with pytest.raises(ValueError, match="spectral precondition"):
            solve_phi(k, 0.5, np.ones(16))

    def test_rejects_negative_inhomogeneity(self):
        s, k, _ = unit_op(16)
        with pytest.raises(ValueError):
            solve_phi(k, -2.0, -np.ones(16))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_inhomogeneity(self, bad):
        s, k, _ = unit_op(16)
        with pytest.raises(ValueError, match="inhomogeneity D must be finite"):
            solve_phi(k, -2.0, np.r_[np.ones(15), bad])

    @pytest.mark.parametrize("n", [16, 64, 200])
    @pytest.mark.parametrize("law, params", [("constant", {"c": 1.0}),
                                             ("tophat", {"R": 0.25, "J0": 1.0}),
                                             ("gaussian", {"sigma": 0.1})])
    def test_threshold_potential_fails_the_precondition(self, law, params, n):
        # C = -h0 puts Λ(K+CI) at exactly 0: A is singular up to rounding
        k = assemble_kernel(build_interval(0, 1, n), law, **params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="spectral precondition"):
                solve_phi(k, -compute_h0(k), 1.0)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["interval", "graph", "union"]),
           st.integers(2, 40), st.floats(-1.0, 1.0))
    @settings(derandomize=True, deadline=None, max_examples=80)
    def test_certificate_agrees_with_the_dense_spectral_bound(self, seed, kind, n, shift):
        rng = np.random.default_rng(seed)
        k = sampled_kernel(rng, kind, n)
        c = shift - compute_h0(k) + rng.uniform(-0.5, 0.5, size=n)
        amat = build_operator(k, -c).amat
        lam = float(np.max(np.linalg.eigvals(amat).real))
        assume(abs(lam) > 1e-8 * max(1.0, float(np.linalg.norm(amat, 1))))
        d = rng.uniform(0.0, 1.0, size=n)
        if lam < 0:
            assert np.all(np.isfinite(solve_phi(k, c, d)))
        else:
            with pytest.raises(ValueError, match="spectral precondition"):
                solve_phi(k, c, d)


class TestOnePreconditionCheck:
    """solve_phi alone decides Λ(K+CI) < 0, without an eigensolve."""

    def test_solve_phi_and_envelope_make_no_eigensolve(self, monkeypatch):
        calls = count_principal_value(monkeypatch)
        s, k, _ = unit_op(32)
        solve_phi(k, -2.0, np.ones(32))
        envelope_U(build_operator(k, np.full(32, 2.0)), np.ones(32), np.zeros(32), [0.0, 1.0])
        with pytest.raises(ValueError, match="spectral precondition"):
            solve_phi(k, 0.5, np.ones(32))
        assert calls == []

    def test_asymptotic_suite_solves_once_per_trial(self, monkeypatch):
        calls = count_principal_value(monkeypatch)
        assert asymptotic_suite(3, 0).failures == 0
        assert len(calls) == 3


class TestMonotoneOrbit:
    def record(self, monkeypatch):
        import nonlocalrd.equilibria as eqmod

        configs = []
        evolve = eqmod.evolve_nonlinear

        def recording_evolve(op, f, u0, config):
            configs.append(config)
            return evolve(op, f, u0, config)

        monkeypatch.setattr(eqmod, "evolve_nonlinear", recording_evolve)
        return eqmod, configs

    def test_one_config_serves_every_block(self, monkeypatch):
        eqmod, configs = self.record(monkeypatch)
        _, _, op = unit_op(24)
        f = logistic(24)
        window = eqmod._block_config(op, f, 1.0, 4.0)
        assert window.beta == monotone_shift(truncate(f, 4.0), 4.0)
        u, blocks, _ = eqmod._monotone_orbit(op, f, np.full(24, 3.0), -1, 1e-10, window)
        np.testing.assert_allclose(u, SQRT3, atol=1e-8)
        assert len(configs) == blocks > 1
        assert all(cfg is configs[0] for cfg in configs)

    def test_config_rebuilt_only_when_the_block_doubles(self, monkeypatch):
        eqmod, configs = self.record(monkeypatch)
        _, _, op = unit_op(24)
        u0 = np.full(24, 3.0)
        u0[5] = 0.5  # rises first, so no block length sees a non-increasing orbit
        with pytest.raises(RuntimeError, match="ordering"):
            f = logistic(24)
            eqmod._monotone_orbit(op, f, u0, -1, 1e-10, eqmod._block_config(op, f, 1.0, 4.0))
        assert [cfg.t_end for cfg in configs] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        assert len({id(cfg) for cfg in configs}) == 7


    def test_one_shift_per_orbit_family(self, monkeypatch):
        import nonlocalrd.evolve as evmod  # the one owner of the orbit window's β

        windows = []
        shift = evmod.monotone_shift

        def recording_shift(f, k):
            windows.append(k)
            return shift(f, k)

        monkeypatch.setattr(evmod, "monotone_shift", recording_shift)
        _, _, op = unit_op(24)
        es = extremal_equilibria(op, logistic(24, g=0.3))  # three orbits
        assert es.phi_m_plus is not None and len(windows) == 1
        out = minimal_positive_equilibrium(op, logistic(24), np.full(24, 1.9), s0=0.3)
        np.testing.assert_allclose(out, SQRT3, atol=1e-6)  # four orbits
        assert len(windows) == 2

    def test_every_orbit_of_a_family_runs_on_the_window_config(self, monkeypatch):
        eqmod, configs = self.record(monkeypatch)
        _, _, op = unit_op(24)
        es = extremal_equilibria(op, logistic(24, g=0.3))  # three orbits, no block doubles
        assert es.phi_m_plus is not None
        assert len(configs) == sum(es.iterations.values()) >= 3
        assert configs[0].t_end == 1.0 and all(cfg is configs[0] for cfg in configs)
        configs.clear()
        out = minimal_positive_equilibrium(op, logistic(24), np.full(24, 1.9), s0=0.3)
        assert out is not None and len(configs) >= 4  # four orbits
        assert configs[0].t_end == 1.0 and all(cfg is configs[0] for cfg in configs)


class TestExtremal:
    def test_logistic_pair_of_roots(self):
        _, _, op = unit_op()
        es = extremal_equilibria(op, logistic(op.n))
        np.testing.assert_allclose(es.phi_M, SQRT3, atol=1e-6)
        np.testing.assert_allclose(es.phi_m, -SQRT3, atol=1e-6)
        assert all(r <= 1e-8 for r in es.residuals.values())
        assert np.all(es.phi_m <= es.phi_M + 1e-8)
        assert np.all(np.abs(es.phi_M) <= es.phi + 1e-8)

    def test_linear_decay_gives_trivial_equilibria(self):
        n = 32
        _, _, op = unit_op(n, h=np.full(n, 2.0))  # Λ = -1 < 0
        f = CallableReaction(lambda s: 0.1 * np.tanh(s) - 0.1 * s,
                             n_nodes=n, kind="globally_lipschitz", lip=0.2)
        es = extremal_equilibria(op, f)
        np.testing.assert_allclose(es.phi_M, 0.0, atol=1e-8)
        np.testing.assert_allclose(es.phi_m, 0.0, atol=1e-8)

    def test_affine_reaction_at_threshold_potential(self):
        n = 32
        s, k, _ = unit_op(n)
        op = build_operator(k, compute_h0(k))
        f = CallableReaction(lambda s_: 1.0 - s_, lambda s_: -np.ones_like(s_),
                             n_nodes=n, kind="globally_lipschitz", lip=1.0)
        es = extremal_equilibria(op, f)
        np.testing.assert_allclose(es.phi_M, 1.0, atol=1e-8)
        np.testing.assert_allclose(es.phi_m, 1.0, atol=1e-8)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
    def test_epsilon_must_be_positive_and_finite(self, eps):
        _, _, op = unit_op(16)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            extremal_equilibria(op, logistic(16), epsilon=eps)

    def test_stability_from_above_and_below(self):
        n = 48
        _, _, op = unit_op(n)
        f = logistic(n)
        es = extremal_equilibria(op, f)
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_end=30.0, store_every=3000)
        up = evolve_nonlinear(op, f, es.phi_M + 0.5, cfg).final()
        dn = evolve_nonlinear(op, f, es.phi_m - 0.5, cfg).final()
        np.testing.assert_allclose(up, es.phi_M, atol=1e-5)
        np.testing.assert_allclose(dn, es.phi_m, atol=1e-5)

    def test_every_newton_equilibrium_is_sandwiched(self):
        n = 48
        _, _, op = unit_op(n)
        f = logistic(n)
        es = extremal_equilibria(op, f)
        rng = np.random.default_rng(12)
        guesses = [np.full(n, -1.9), np.full(n, 0.0), np.full(n, 1.7),
                   rng.uniform(-1.5, 1.5, size=n)]
        for g in guesses:
            try:
                psi = newton_refine(op, f, g)
            except RuntimeError:
                continue
            assert np.all(psi >= es.phi_m - 1e-8)
            assert np.all(psi <= es.phi_M + 1e-8)
            assert np.all(np.abs(psi) <= es.phi + 1e-8)


class TestMinimalNonnegative:
    def test_zero_source_returns_zero(self):
        _, _, op = unit_op(32)
        out = minimal_nonnegative_equilibrium(op, logistic(32, g=0.0))
        np.testing.assert_array_equal(out, 0.0)

    def test_quadratic_source_root(self):
        # constant equilibrium solves c + 0.5 - c² = 0, c = (1+sqrt(3))/2
        n = 32
        _, _, op = unit_op(n)
        f = LogisticReaction(g=0.5, n=0.0, m=1.0, rho=2.0, n_nodes=n)
        out = minimal_nonnegative_equilibrium(op, f)
        np.testing.assert_allclose(out, (1.0 + SQRT3) / 2.0, atol=1e-8)

    def test_affine_source_at_threshold(self):
        n = 32
        s, k, _ = unit_op(n)
        op = build_operator(k, compute_h0(k))
        f = CallableReaction(lambda s_: 1.0 - s_, lambda s_: -np.ones_like(s_),
                             n_nodes=n, kind="globally_lipschitz", lip=1.0)
        np.testing.assert_allclose(minimal_nonnegative_equilibrium(op, f), 1.0, atol=1e-8)

    def test_rejects_negative_source(self):
        _, _, op = unit_op(16)
        with pytest.raises(ValueError):
            minimal_nonnegative_equilibrium(op, logistic(16, g=-0.5))


class TestMinimalPositive:
    def test_logistic_limit(self):
        n = 32
        _, _, op = unit_op(n)
        out = minimal_positive_equilibrium(op, logistic(n), np.full(n, 1.9), s0=0.3)
        np.testing.assert_allclose(out, SQRT3, atol=1e-6)

    def test_stable_zero_returns_none(self):
        n = 32
        _, _, op = unit_op(n, h=np.full(n, 2.0))
        f = logistic(n, ncoef=-1.0)
        # f(s) = -s - s³ >= -1.5 s on [0, 1/sqrt(2)]; K - h - 1.5 I has a
        # negative bound, so no positive equilibrium is claimed
        out = minimal_positive_equilibrium(op, f, np.full(n, -1.5), s0=0.5)
        assert out is None

    def test_quadratic_logistic_at_threshold(self):
        n = 32
        s, k, _ = unit_op(n)
        op = build_operator(k, compute_h0(k))
        f = LogisticReaction(g=0.0, n=1.0, m=1.0, rho=2.0, n_nodes=n)  # u(1-u) for u >= 0
        out = minimal_positive_equilibrium(op, f, np.full(n, 0.9), s0=0.1)
        np.testing.assert_allclose(out, 1.0, atol=1e-6)

    def test_rejects_bad_lower_bound(self):
        n = 16
        _, _, op = unit_op(n)
        with pytest.raises(ValueError, match="fails"):
            minimal_positive_equilibrium(op, logistic(n), np.full(n, 5.0), s0=1.0)


class TestNewton:
    def test_exact_guess_returns_immediately(self):
        n = 24
        _, _, op = unit_op(n)
        f = logistic(n)
        out = newton_refine(op, f, np.full(n, SQRT3))
        np.testing.assert_allclose(out, SQRT3, atol=1e-12)

    def test_converges_from_nearby_guess(self):
        n = 24
        _, _, op = unit_op(n)
        out = newton_refine(op, logistic(n), np.full(n, 1.7))
        np.testing.assert_allclose(out, SQRT3, atol=1e-12)
        assert residual_norm(op, logistic(n), out) <= 1e-12

    def test_jacobian_is_bitwise_the_dense_expression(self, monkeypatch):
        """On a nonsymmetric kernel, whose steps LU serves, the Jacobian is
        amat with ∂f/∂s added on the diagonal in place; its bytes are those
        of amat + diag(∂f/∂s), which differ only at -0.0 entries of amat
        that no built-in law produces.  The LU factorization takes Jᵀ, the
        Fortran-ordered view of J, so J is its transpose."""
        import scipy.linalg

        op, f = bench_system(40, skew=True)
        states, jacobians = [], []
        real_ds, real_factor = f.apply_ds, scipy.linalg.lu_factor
        monkeypatch.setattr(f, "apply_ds", lambda u: states.append(u.copy()) or real_ds(u))
        monkeypatch.setattr(scipy.linalg, "lu_factor", lambda a, **kw: (
            jacobians.append(a.T.copy()) or real_factor(a, **kw)))
        guess = 1.0 + 0.1 * np.random.default_rng(8).standard_normal(op.n)
        newton_refine(op, f, guess)
        assert len(jacobians) == len(states) >= 2
        for u, jac in zip(states, jacobians):
            assert jac.tobytes() == (op.amat + np.diag(real_ds(u))).tobytes()

    def test_zero_is_a_genuine_equilibrium(self):
        n = 24
        _, _, op = unit_op(n)
        out = newton_refine(op, logistic(n), np.zeros(n))
        np.testing.assert_array_equal(out, 0.0)

    def test_exactly_singular_jacobian_raises(self):
        # J = amat = ones/n has rank one: elimination leaves exact zero pivots
        n = 16
        _, _, op = unit_op(n)
        f = CallableReaction(np.ones_like, np.zeros_like, n_nodes=n)
        with pytest.raises(RuntimeError, match="singular jacobian in newton refinement"):
            newton_refine(op, f, np.zeros(n))


def bench_system(n, skew=False):
    """The benchmark's equilibria system at its nominal coefficients.  skew
    tilts its tophat to the nonsymmetric table (2 + y - x)·[|y - x| < 0.3],
    on which equilibria solves by LU instead of PCG."""
    s = build_interval(0, 1, n)
    if skew:
        d = s.x[None, :] - s.x[:, None]
        kernel = assemble_kernel(s, "table", jmat=(np.abs(d) < 0.3) * (2.0 + d))
        assert not kernel.symmetric
    else:
        kernel = assemble_kernel(s, "tophat", R=0.3, J0=2.0)
    op = build_operator(kernel, 1.0 + 0.5 * np.sin(2 * np.pi * s.x))
    return op, LogisticReaction(g=0.2, n=1.0, m=1.0, rho=3.0, n_nodes=n)


def sampled_logistic_systems(count):
    """The first `count` logistic systems of sample_system over seeds 0, 1, ..."""
    out, seed = [], 0
    while len(out) < count:
        sys_ = sample_system(np.random.default_rng(seed))
        if isinstance(sys_.reaction, LogisticReaction):
            out.append((sys_.op, sys_.reaction))
        seed += 1
    return out


def equilibrium_system(key):
    """("bench", n) or ("sampled", i): a bench system or the i-th sampled one."""
    kind, arg = key
    return bench_system(arg) if kind == "bench" else sampled_logistic_systems(arg + 1)[arg]


EQUILIBRIUM_SYSTEMS = [("bench", 256), ("bench", 512)] + [("sampled", i) for i in range(10)]


def _full_newton(op, f, guess, tol=eqmod.NEWTON_TOL, max_steps=50):
    """Exact Newton by a fresh LU of J at every step, with residuals through
    amat, frozen: the reference for newton_refine on a nonsymmetric kernel."""
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

    u = np.array(guess, dtype=float)
    amat = op.amat
    r = amat @ u + f.apply(u)
    rn = float(np.max(np.abs(r)))
    lu = None
    for _ in range(max_steps):
        if rn <= tol:
            return u, lu
        jac = amat.copy()
        jac.flat[::op.n + 1] += f.apply_ds(u)
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
            try:
                lu = lu_factor(jac.T, overwrite_a=True, check_finite=False)
            except LinAlgWarning as exc:
                raise RuntimeError("singular jacobian in newton refinement") from exc
        delta = lu_solve(lu, -r, trans=1, check_finite=False)
        lam = 1.0
        while True:
            u_try = u + lam * delta
            r_try = amat @ u_try + f.apply(u_try)
            rn_try = float(np.max(np.abs(r_try)))
            if rn_try < rn or lam <= 1.0 / 64.0:
                break
            lam /= 2.0
        if rn_try >= rn and rn > tol:
            raise RuntimeError("newton refinement diverged")
        u, r, rn = u_try, r_try, rn_try
    if rn <= tol:
        return u, lu
    raise RuntimeError(f"newton refinement stalled at residual {rn:.3e}")


def count_newton_factorizations(monkeypatch, f=None):
    """Per newton_refine call, the scipy.linalg.lu_factor calls made while it
    runs, and its steps: the f.apply_ds calls it makes, one per Jacobian
    (zeros when no reaction f is given)."""
    import scipy.linalg

    per_call, steps, running = [], [], []
    real_newton, real_factor = eqmod.newton_refine, scipy.linalg.lu_factor

    def newton(*args, **kwargs):
        per_call.append(0)
        steps.append(0)
        running.append(True)
        try:
            return real_newton(*args, **kwargs)
        finally:
            running.pop()

    def counted(tally, real):
        def call(*args, **kwargs):
            if running:
                tally[-1] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(eqmod, "newton_refine", newton)
    monkeypatch.setattr(scipy.linalg, "lu_factor", counted(per_call, real_factor))
    if f is not None:
        monkeypatch.setattr(f, "apply_ds", counted(steps, f.apply_ds))
    return per_call, steps


def factored_states(monkeypatch, f):
    """The iterates at which Newton forms a Jacobian, one per factorization."""
    import scipy.linalg

    states, factors = [], []
    real_ds, real_factor = f.apply_ds, scipy.linalg.lu_factor
    monkeypatch.setattr(f, "apply_ds", lambda u: states.append(u.copy()) or real_ds(u))
    monkeypatch.setattr(scipy.linalg, "lu_factor", lambda a, **kw: (
        factors.append(1) or real_factor(a, **kw)))
    return states, factors


def amat_reads(monkeypatch):
    """One list entry per read of NonlocalOperator.amat."""
    reads, real = [], NonlocalOperator.amat.fget
    monkeypatch.setattr(NonlocalOperator, "amat", property(lambda op: reads.append(1) or real(op)))
    return reads


def jacobian_solves(monkeypatch):
    """(q, b) of every right-hand side b that a _JacobianSolve of amat + diag q solves."""
    calls, real = [], eqmod._JacobianSolve

    class Spy(real):
        def __call__(self, b):
            calls.append((np.broadcast_to(self.q, (self.op.n,)).copy(), b.copy()))
            return super().__call__(b)

    monkeypatch.setattr(eqmod, "_JacobianSolve", Spy)
    return calls


def cubic_on_constants(n, a, c, b, skew=False):
    """unit_op with the reaction f(s) = s³ + as² + (c-1)s + b: on constant
    states R(s·1) = (s³ + as² + cs + b)·1, a scalar cubic, and Newton's
    direction from a constant state is constant.  skew swaps the constant
    kernel for the nonsymmetric 1 + sin(2π(y - x))/2, whose rows still sum
    to 1 on the midpoint grid, so that LU serves Newton."""
    s, _, op = unit_op(n)
    if skew:
        jmat = 1.0 + 0.5 * np.sin(2 * np.pi * (s.x[None, :] - s.x[:, None]))
        op = build_operator(assemble_kernel(s, "table", jmat=jmat), 0.0)
        assert not op.kernel.symmetric
    f = CallableReaction(lambda s: s ** 3 + a * s ** 2 + (c - 1.0) * s + b,
                         lambda s: 3.0 * s ** 2 + 2.0 * a * s + (c - 1.0), n_nodes=n)
    return op, f


class TestChordNewton:
    @pytest.mark.parametrize("system", EQUILIBRIUM_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
    def test_one_factorization_per_certified_orbit(self, system, monkeypatch):
        op, f = equilibrium_system(system)
        per_call = count_newton_factorizations(monkeypatch)[0]
        es = extremal_equilibria(op, f)
        plus = "certified" if np.all(f.g0 >= -1e-14) else None
        assert es.stopping_criteria == {"phi_M": "certified", "phi_m": "certified",
                                        "phi_m_plus": plus}
        orbits = 2 + (plus is not None and float(np.max(np.abs(f.g0))) > 0)
        assert len(per_call) == orbits
        assert all(count <= 1 for count in per_call), per_call

    def test_skewed_bench_op_factors_once_per_step(self, monkeypatch):
        """The bench op with its tophat skewed, so that LU serves Newton: every
        orbit is certified, and each Newton step factors its own J."""
        op, f = bench_system(512, skew=True)
        per_call, steps = count_newton_factorizations(monkeypatch, f)
        es = extremal_equilibria(op, f)
        assert set(es.stopping_criteria.values()) == {"certified"}
        assert max(es.residuals.values()) <= 1e-12
        assert len(per_call) == 3 and per_call == steps and min(steps) >= 1

    def test_symmetric_bench_op_factors_nothing(self, monkeypatch):
        """PCG serves every solve on the bench op, solve_phi's too: no LU
        is made and no amat is read."""
        import scipy.linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("a symmetric kernel's solve took LU or amat")

        per_call = count_newton_factorizations(monkeypatch)[0]
        monkeypatch.setattr(scipy.linalg, "lu_factor", forbidden)
        monkeypatch.setattr(NonlocalOperator, "amat", property(forbidden))
        es = extremal_equilibria(*bench_system(512))
        assert len(per_call) == 3 and max(es.residuals.values()) <= 1e-12
        assert set(es.stopping_criteria.values()) == {"certified"}

    @pytest.mark.parametrize("system, guess", [
        ("bench", 4.0), ("bench", None), ("cubic", -1.5)], ids=["bench4", "bench_noisy", "cubic"])
    def test_skewed_newton_is_full_newton(self, monkeypatch, system, guess):
        """On a nonsymmetric kernel newton_refine is _full_newton: the same
        root, one LU per step, and one amat read for all of them."""
        if system == "bench":
            op, f = bench_system(48, skew=True)
        else:
            op, f = cubic_on_constants(8, 2.6, 0.7, -0.2, skew=True)
        start = (np.full(op.n, guess) if guess is not None
                 else 1.0 + 0.1 * np.random.default_rng(8).standard_normal(op.n))
        ref_states, ref_factors = factored_states(monkeypatch, f)
        ref, _ = _full_newton(op, f, start)
        monkeypatch.undo()
        states, factors = factored_states(monkeypatch, f)
        reads = amat_reads(monkeypatch)
        root = newton_refine(op, f, start)
        assert len(factors) == len(states) == len(ref_factors) >= 2 and len(reads) == 1
        np.testing.assert_allclose(root, ref, rtol=0, atol=1e-12)
        assert residual_norm(op, f, root) <= eqmod.NEWTON_TOL

    def test_skewed_cubic_reaches_the_root_past_the_local_minimum(self, monkeypatch):
        """R(s) = s³ + 2.6s² + 0.7s - 0.2 from -1.5: the first step lands at
        0.25, past the local minimum of R, and Newton goes on from there, its
        J factored afresh, to the root 0.1705....  The kernel is skewed, so
        that LU serves Newton."""
        op, f = cubic_on_constants(8, 2.6, 0.7, -0.2, skew=True)
        guess = np.full(op.n, -1.5)
        states, factors = factored_states(monkeypatch, f)
        root = newton_refine(op, f, guess)
        assert len(factors) == len(states) >= 3
        np.testing.assert_allclose(states[1], 0.25, rtol=0, atol=1e-14)
        assert residual_norm(op, f, root) <= eqmod.NEWTON_TOL
        np.testing.assert_allclose(root, 0.17056623133835, rtol=0, atol=1e-12)

    def test_failed_fresh_step_raises(self):
        """R(s) = s³ - 3s + 3 has its local minimum 1 at s = 1; from 1.01 the
        Newton step overshoots and fails even at damping 1/64, as it did
        with a fresh LU at every step."""
        op, f = cubic_on_constants(8, 0.0, -3.0, 3.0)
        guess = np.full(op.n, 1.01)
        for newton in (newton_refine, _full_newton):
            with pytest.raises(RuntimeError, match="newton refinement diverged"):
                newton(op, f, guess)


def lu_solution(op, q, b):
    """(amat + diag q)x = b by dense LU, the reference for _pcg."""
    from scipy.linalg import lu_factor, lu_solve

    return lu_solve(lu_factor(op.amat + np.diag(q)), b)


def assert_pcg_matches_lu(op, q, b, rtol=1e-12):
    x = eqmod._pcg(op, q, b)
    ref = lu_solution(op, np.broadcast_to(q, (op.n,)), b)
    assert x is not None
    assert np.max(np.abs(x - ref)) <= rtol * np.max(np.abs(ref))


def pcg_products(monkeypatch):
    """Kernel products made inside _pcg, one list entry per call."""
    from nonlocalrd.kernel import Kernel

    counts, real_pcg, real_matvec = [], eqmod._pcg, Kernel.matvec

    def matvec(self, x):
        counts[-1] += 1
        return real_matvec(self, x)

    def pcg(*args):
        counts.append(0)
        with monkeypatch.context() as m:
            m.setattr(Kernel, "matvec", matvec)
            return real_pcg(*args)

    monkeypatch.setattr(eqmod, "_pcg", pcg)
    return counts


class TestPCG:
    """_pcg against the dense LU it replaces on symmetric kernels."""

    @pytest.mark.parametrize("system", EQUILIBRIUM_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
    def test_matches_lu_on_equilibrium_systems(self, system):
        """J at both extremal equilibria and the envelope matrix K + (C-h)I."""
        op, f = equilibrium_system(system)
        assert op.kernel.symmetric
        es = extremal_equilibria(op, f)
        rhs = [-np.ones(op.n), np.random.default_rng(op.n).uniform(-1.0, 1.0, op.n)]
        for u in (es.phi_M, es.phi_m):
            for b in rhs:
                assert_pcg_matches_lu(op, f.apply_ds(u), b)
        c_eff, d, _ = eqmod._envelope(op, f)
        for b in rhs + [-d]:
            assert_pcg_matches_lu(build_operator(op.kernel, -c_eff), np.zeros(op.n), b)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["interval", "graph", "union"]),
           st.integers(2, 40), st.floats(0.1, 2.0))
    @settings(derandomize=True, deadline=None, max_examples=80)
    def test_matches_lu_on_drawn_symmetric_systems(self, seed, kind, n, margin):
        """K - (h0 + margin + v)I, v >= 0, has Λ <= -margin: rows of K - h0I sum to 0."""
        rng = np.random.default_rng(seed)
        k = sampled_kernel(rng, kind, n)
        assert k.symmetric
        op = build_operator(k, compute_h0(k) + margin + rng.uniform(0.0, 0.5, size=k.space.n))
        assert_pcg_matches_lu(op, np.zeros(k.space.n), rng.uniform(-1.0, 1.0, size=k.space.n))

    def test_iteration_count_is_flat_in_n(self, monkeypatch):
        """The bench op's envelope matrix and its J at u = 1 take the same
        number of products from n = 64 to 1024 (Winther, 1980)."""
        counts = pcg_products(monkeypatch)
        per_n = []
        for n in (64, 128, 256, 512, 1024):
            op, f = bench_system(n)
            c_eff, d, _ = eqmod._envelope(op, f)
            counts.clear()
            assert eqmod._pcg(build_operator(op.kernel, -c_eff), 0.0, -d) is not None
            assert eqmod._pcg(op, f.apply_ds(np.ones(n)), -np.ones(n)) is not None
            per_n.append(tuple(counts))
        assert max(max(c) for c in per_n) <= 15
        assert all(max(abs(a - b) for a, b in zip(c, per_n[0])) <= 1 for c in per_n), per_n

    def test_gives_up_on_an_indefinite_or_slow_system(self, monkeypatch):
        """None on a nonpositive preconditioner entry, on a breakdown and at
        the cap.  With J = K + qI on the constant kernel (n = 16, w = 1/16)
        CG runs on P = -qI - 11ᵀ/16: q = 0.5 makes its diagonal negative,
        q = -0.43 leaves it positive but P indefinite, negative on the
        constant direction along which a constant b starts CG, and q = -1.43
        makes P positive definite."""
        _, _, op = unit_op(16)
        b = -np.ones(16)
        assert eqmod._pcg(op, np.full(16, 0.5), b) is None
        assert eqmod._pcg(op, np.full(16, -0.43), b) is None
        assert eqmod._pcg(op, np.full(16, -1.43), b) is not None
        bench, f = bench_system(64)
        monkeypatch.setattr(eqmod, "PCG_MAX_ITER", 2)
        assert eqmod._pcg(bench, f.apply_ds(np.ones(64)), -np.ones(64)) is None
        # solve_phi then takes LU and its refinement step, as it did before PCG
        c_eff, d, phi = eqmod._envelope(bench, f)
        monkeypatch.undo()
        np.testing.assert_allclose(phi, solve_phi(bench.kernel, c_eff, d), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("guess", [0.7, 0.9])
    def test_indefinite_jacobian_falls_back_to_lu(self, monkeypatch, guess):
        """Logistic 2s - s³ on the unit op: J is indefinite at the start, so
        LU takes the step, and the root is that of _full_newton, which
        factors J at every step (a nonconstant equilibrium from 0.7, zero
        from 0.9)."""
        op, f = unit_op(48)[2], logistic(48)
        start = np.full(48, guess) + 0.05 * np.sin(np.arange(48))
        factors = factored_states(monkeypatch, f)[1]
        got = newton_refine(op, f, start)
        assert factors
        np.testing.assert_allclose(got, _full_newton(op, f, start)[0], rtol=0, atol=1e-12)

    def test_indefinite_jacobian_diverges_as_lu_did(self, monkeypatch):
        """From about 0.5 on the bench op LU takes the steps, and Newton
        fails with _full_newton's error."""
        op, f = bench_system(48)
        start = np.full(48, 0.5) + 0.05 * np.sin(np.arange(48))
        factors = factored_states(monkeypatch, f)[1]
        with pytest.raises(RuntimeError, match="newton refinement diverged"):
            newton_refine(op, f, start)
        assert factors
        with pytest.raises(RuntimeError, match="newton refinement diverged"):
            _full_newton(op, f, start)

    def test_failing_precondition_falls_back_to_lu(self, monkeypatch):
        """C = 0.5 makes the diagonal of K + CI positive, so P's is negative:
        PCG gives up at once, LU solves, and the certificate fails with the
        message it gave before PCG."""
        import scipy.linalg

        factors, real = [], scipy.linalg.lu_factor
        monkeypatch.setattr(scipy.linalg, "lu_factor",
                            lambda a, **kw: factors.append(1) or real(a, **kw))
        s, k, _ = unit_op(16)
        with pytest.raises(ValueError, match="spectral precondition fails"):
            solve_phi(k, 0.5, np.ones(16))
        assert factors == [1]


class TestCertificate:
    def certificate_inputs(self, op, f):
        """φ_m as Newton's limit, the orbit's start and its slack."""
        es = extremal_equilibria(op, f)
        e = newton_refine(op, f, es.phi_m + 1e-3)
        np.testing.assert_allclose(e, es.phi_m, atol=1e-10)
        start = es.phi + es.epsilon
        return es, e, start, eqmod.ORDER_TOL * (1.0 + float(np.max(start)))

    def test_control_box_holding_two_equilibria_refuses(self):
        """e = φ_m with u just above φ_M: the box holds φ_M ≠ φ_m, so the
        certificate must refuse; the mirrored box below φ_m accepts.  ψ is
        solved at e: by PCG on the symmetric systems, by LU on the skewed one."""
        sampled = sampled_logistic_systems(10)
        assert {op.n for op, _ in sampled} == {32, 64, 128}
        controls = 0
        for op, f in [bench_system(256), bench_system(512), bench_system(256, skew=True)] + sampled:
            es, e, start, slack = self.certificate_inputs(op, f)
            assert eqmod._certifies(op, f, e, es.phi_m - 1e-3, -start, +1, slack)
            if np.max(es.phi_M - es.phi_m) > 1e-6:  # else φ_m is the only equilibrium
                controls += 1
                assert not eqmod._certifies(op, f, e, es.phi_M + 1e-3, start, -1, slack)
        assert controls >= 7

    def test_limit_on_the_wrong_side_of_the_start_refuses(self):
        for op, f in (bench_system(256), sampled_logistic_systems(1)[0]):
            es, e, start, slack = self.certificate_inputs(op, f)
            below = es.phi_m - 1e-3
            assert eqmod._certifies(op, f, e, below, -start, +1, slack)
            assert not eqmod._certifies(op, f, e, below, es.phi_m + 0.1, +1, slack)
            assert not eqmod._certifies(op, f, e, below, -start, -1, slack)

    @pytest.mark.parametrize("skew", [False, True], ids=["bench", "skew"])
    def test_psi_is_solved_at_the_limit(self, monkeypatch, skew):
        """_certifies solves one system, with J at e itself, for ψ with
        right-hand side -1."""
        op, f = bench_system(256, skew=skew)
        es, e, start, slack = self.certificate_inputs(op, f)
        solves = jacobian_solves(monkeypatch)
        assert eqmod._certifies(op, f, e, es.phi_m - 1e-3, -start, +1, slack)
        assert len(solves) == 1
        q, b = solves[0]
        assert q.tobytes() == f.apply_ds(e).tobytes()
        np.testing.assert_array_equal(b, -1.0)

    def test_reaction_without_exact_derivative_bound_takes_the_fallback(self):
        n = 48
        _, _, op = unit_op(n, h=np.full(n, 2.0))  # Λ(K - hI) = -1
        f = CallableReaction(lambda s: 0.3 + 0.5 * s - s ** 3, lambda s: 0.5 - 3.0 * s ** 2,
                             n_nodes=n)  # the logistic law below, without ds_sup
        assert f.ds_sup(np.zeros(n), np.ones(n)) is None
        es = extremal_equilibria(op, f)
        assert es.stopping_criteria == {"phi_M": "sup", "phi_m": "sup", "phi_m_plus": "sup"}
        assert es.stopping_criterion == "sup"
        ref = extremal_equilibria(op, logistic(n, g=0.3, ncoef=0.5))
        assert ref.stopping_criteria == {"phi_M": "certified", "phi_m": "certified",
                                         "phi_m_plus": "certified"}
        assert ref.stopping_criterion == "certified"
        for name in ("phi_M", "phi_m", "phi_m_plus"):
            np.testing.assert_allclose(getattr(es, name), getattr(ref, name), rtol=0, atol=1e-10)

    def test_refused_try_is_repeated_a_decade_later(self, monkeypatch):
        op, f = bench_system(256)
        plain = extremal_equilibria(op, f)
        certifies, tries = eqmod._certifies, []

        def refuse_first(op, f, e, u, *rest):
            tries.append(u)
            return len(tries) > 1 and certifies(op, f, e, u, *rest)

        monkeypatch.setattr(eqmod, "_certifies", refuse_first)
        es = extremal_equilibria(op, f)
        # φ_M's orbit runs first: refused at its first try, accepted at its second
        assert len(tries) == 4
        assert es.stopping_criteria == plain.stopping_criteria == {
            "phi_M": "certified", "phi_m": "certified", "phi_m_plus": "certified"}
        assert es.iterations["phi_M"] > plain.iterations["phi_M"]
        assert np.max(np.abs(tries[1] - es.phi_M)) < 0.1 * np.max(np.abs(tries[0] - es.phi_M))
        np.testing.assert_allclose(es.phi_M, plain.phi_M, rtol=0, atol=1e-12)

    def test_orbit_refused_early_is_certified_later(self):
        """A nonsymmetric table on which φ_m's first Newton try diverges: a
        single try per orbit left it "sup" after 338 blocks."""
        n = 256
        s = build_interval(0, 1, n)
        d = s.x[None, :] - s.x[:, None]
        kernel = assemble_kernel(s, "table", jmat=(np.abs(d) < 0.25) * (1.5 + np.sin(3 * d)))
        op = build_operator(kernel, 1.0 + 0.5 * np.sin(2 * np.pi * s.x))
        es = extremal_equilibria(op, LogisticReaction(g=0.2, n=1.0, m=1.0, rho=3.0, n_nodes=n))
        assert set(es.stopping_criteria.values()) == {"certified"}
        eqmod._check_equilibrium_set(es)

    @pytest.mark.parametrize("system", EQUILIBRIUM_SYSTEMS, ids=lambda k: f"{k[0]}{k[1]}")
    def test_certified_limits_match_the_fallback(self, system, monkeypatch):
        op, f = equilibrium_system(system)
        es = extremal_equilibria(op, f)
        eqmod._check_equilibrium_set(es)
        assert set(es.stopping_criteria.values()) - {None} == {"certified"}
        with monkeypatch.context() as m:
            m.setattr(eqmod, "_certifies", lambda *args: False)
            ref = extremal_equilibria(op, f)
        assert "certified" not in (ref.stopping_criteria["phi_M"], ref.stopping_criteria["phi_m"])
        assert es.iterations["phi_M"] <= ref.iterations["phi_M"]
        assert es.iterations["phi_m"] <= ref.iterations["phi_m"]
        np.testing.assert_allclose(es.phi_M, ref.phi_M, rtol=0, atol=1e-10)
        np.testing.assert_allclose(es.phi_m, ref.phi_m, rtol=0, atol=1e-10)
        assert (es.phi_m_plus is None) == (ref.phi_m_plus is None)
        if es.phi_m_plus is not None:
            np.testing.assert_allclose(es.phi_m_plus, ref.phi_m_plus, rtol=0, atol=1e-10)


class TestCheckEquilibriumSet:
    def equilibrium_set(self):
        _, _, op = unit_op(32)
        es = extremal_equilibria(op, logistic(32, g=0.3))
        assert es.phi_m_plus is not None
        eqmod._check_equilibrium_set(es)
        return es

    @pytest.mark.parametrize("corrupt, message", [
        (lambda es: es.phi_M + 0.1, "phi_m_plus leaves the extremal sandwich"),
        (lambda es: es.phi_m - 0.1, "phi_m_plus leaves the extremal sandwich"),
        (lambda es: np.where(np.arange(32) == 3, -1e-6, es.phi_m_plus), "phi_m_plus is negative"),
    ], ids=["above_phi_M", "below_phi_m", "negative"])
    def test_corrupted_minimal_nonnegative_equilibrium_is_named(self, corrupt, message):
        es = self.equilibrium_set()
        es.phi_m_plus = corrupt(es)
        with pytest.raises(RuntimeError, match=message):
            eqmod._check_equilibrium_set(es)

    def test_minimal_nonnegative_equilibrium_outside_the_envelope_is_named(self):
        # within tolerance of the sandwich and of φ_M's envelope check, not of its own
        es = self.equilibrium_set()
        es.phi_M[3] = es.phi[3] + 0.9e-8
        es.phi_m_plus[3] = es.phi[3] + 1.8e-8
        with pytest.raises(RuntimeError, match="phi_m_plus escapes the envelope"):
            eqmod._check_equilibrium_set(es)


class TestPiecewiseFamily:
    def setup_method(self):
        self.space = build_interval(0, 1, 200)

    def test_roots_of_the_balanced_cubic(self):
        assign = block_assignment(self.space, (0.4, 0.2, 0.4))
        pe = piecewise_constant_family(self.space, 4.0, 0.0, (0.4, 0.2, 0.4), assign)
        np.testing.assert_allclose(pe.values, [-SQRT3 / 2, 0.0, SQRT3 / 2], atol=1e-12)
        assert pe.residual <= 1e-12

    def test_second_measure_split_also_balances(self):
        assign = block_assignment(self.space, (0.25, 0.5, 0.25))
        pe = piecewise_constant_family(self.space, 4.0, 0.0, (0.25, 0.5, 0.25), assign)
        assert pe.residual <= 1e-12

    def test_unbalanced_measures_rejected(self):
        assign = block_assignment(self.space, (0.5, 0.2, 0.3))
        with pytest.raises(ValueError, match="measure constraint"):
            piecewise_constant_family(self.space, 4.0, 0.0, (0.5, 0.2, 0.3), assign)

    def test_perturbed_placement_is_still_an_equilibrium(self):
        measures = (0.4, 0.2, 0.4)
        base = block_assignment(self.space, measures)
        pert = perturbed_assignment(self.space, base, swaps=15, seed=3)
        pe1 = piecewise_constant_family(self.space, 4.0, 0.0, measures, base)
        pe2 = piecewise_constant_family(self.space, 4.0, 0.0, measures, pert)
        assert pe2.residual <= 1e-12
        w = self.space.weights
        l1 = float(np.sum(w * np.abs(pe1.state - pe2.state)))
        assert l1 > 0.0  # genuinely different equilibria
        overlap = float(np.sum(w[pe1.state == pe2.state]))
        assert overlap >= 0.3  # coinciding on a set of positive measure

    def test_mass_balance_identity(self):
        measures = (0.25, 0.5, 0.25)
        assign = block_assignment(self.space, measures)
        pe = piecewise_constant_family(self.space, 4.0, 0.0, measures, assign)
        mass = float(np.sum(self.space.weights * pe.state))
        assert mass == pytest.approx(0.0, abs=1e-12)


class TestUniqueness:
    def test_logistic_global_stability(self):
        n = 48
        _, _, op = unit_op(n)
        rep = uniqueness_experiment(op, logistic(n), [0.1, 1.0, 5.0], t_end=30.0)
        assert rep.all_agree
        assert all(d <= 1e-4 for d in rep.distances)

    def counted_runs(self, monkeypatch):
        import nonlocalrd.equilibria as eqmod

        runs, real = [], eqmod.evolve_nonlinear

        def counted(op, f, u0, cfg):
            runs.append((cfg.scheme, np.shape(u0)))
            return real(op, f, u0, cfg)

        monkeypatch.setattr(eqmod, "evolve_nonlinear", counted)
        return runs

    def test_one_run_for_all_data(self, monkeypatch):
        n = 24
        _, _, op = unit_op(n)
        runs = self.counted_runs(monkeypatch)
        rep = uniqueness_experiment(op, logistic(n), [0.1, np.full(n, 1.0), 5.0], t_end=10.0)
        # the monotone orbits of extremal_equilibria take euler_op
        assert [shape for scheme, shape in runs if scheme == "rk4"] == [(3, n)]
        assert len(rep.distances) == len(rep.trivial) == 3

    def test_negative_datum_rejected_before_any_run(self, monkeypatch):
        n = 24
        _, _, op = unit_op(n)
        runs = self.counted_runs(monkeypatch)
        with pytest.raises(ValueError, match="nonnegative"):
            uniqueness_experiment(op, logistic(n), [0.5, -1.0], t_end=1.0)
        assert runs == []

    def test_positive_source_at_two_resolutions(self):
        values = []
        for n in (128, 256):
            s = build_interval(0, 1, n)
            k = assemble_kernel(s, "constant", c=1.0)
            op = build_operator(k, np.zeros(n))
            f = LogisticReaction(g=0.2, n=1.0, m=1.0, rho=3.0, n_nodes=n)
            rep = uniqueness_experiment(op, f, [0.0, 0.5, 3.0], t_end=30.0)
            assert rep.all_agree
            values.append(float(np.max(rep.phi_M)))
        assert values[0] == pytest.approx(values[1], abs=1e-8)

    def test_hypothesis_violation_reported(self):
        n = 24
        _, _, op = unit_op(n)
        f = CallableReaction(lambda s_: 1.0 * s_, lambda s_: np.ones_like(s_),
                             n_nodes=n, kind="globally_lipschitz", lip=1.0)
        with pytest.raises(ValueError, match="not strictly decreasing"):
            uniqueness_experiment(op, f, [0.5], t_end=1.0)
