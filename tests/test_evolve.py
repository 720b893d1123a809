import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.linalg.blas
from scipy.linalg import expm

from nonlocalrd import evolve
from nonlocalrd.equilibria import solve_phi
from nonlocalrd.evolve import (
    IntegratorConfig,
    Stepper,
    _expm_phi1,
    _nsteps,
    _propagate,
    _prepare_monotone,
    bernoulli_blowup_time,
    envelope_U,
    evolve_nonlinear,
    fit_growth_constant,
    kaplan_witness,
    linear_semigroup_apply,
    lyapunov_E,
    make_stepper,
    monotone_config,
    monotone_stages,
    picard_solve,
    supersolution_ode,
)
from nonlocalrd.kernel import assemble_kernel, build_operator, compute_h0
from nonlocalrd.reaction import (
    CallableReaction,
    LogisticReaction,
    absorb_potential,
    add_bump,
    structure_bounds,
    truncate,
)
from nonlocalrd.space import build_interval
from nonlocalrd.spectral import cw_bounds
from nonlocalrd.verify import EXACT_TOL, sample_system


def unit_op(n=32, c=1.0, h=None):
    s = build_interval(0, 1, n)
    k = assemble_kernel(s, "constant", c=c)
    if h is None:
        h = np.zeros(n)
    return s, k, build_operator(k, h)


def logistic_flow_closed_form(t, c0, alpha):
    """Constant-in-space flow of ċ = αc - c³ via the v = c⁻² substitution."""
    v0 = c0 ** -2.0
    v = (v0 - 1.0 / alpha) * math.exp(-2.0 * alpha * t) + 1.0 / alpha
    return v ** -0.5


ZERO_REACTION = dict(kind="globally_lipschitz", lip=0.0)


def zero_reaction(n):
    return CallableReaction(lambda s: np.zeros_like(s), lambda s: np.zeros_like(s),
                            n_nodes=n, **ZERO_REACTION)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(scheme="heun")
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(store_every=0)

    @pytest.mark.parametrize("field, value", [
        ("beta", np.nan), ("beta", np.inf), ("beta", -np.inf), ("beta", "1.0"),
        ("trunc_k", np.nan), ("trunc_k", np.inf), ("trunc_k", 0.0), ("trunc_k", -1.0),
        ("blowup_threshold", np.nan), ("blowup_threshold", 0.0),
        ("blowup_threshold", -1.0), ("blowup_threshold", -np.inf),
    ])
    def test_rejects_bad_optional_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            IntegratorConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("beta", -2.5), ("beta", 0), ("trunc_k", 1e-300), ("blowup_threshold", np.inf),
        ("blowup_threshold", 5e-324), ("beta", np.float64(3.0)),
    ])
    def test_accepts_edge_values(self, field, value):
        assert getattr(IntegratorConfig(**{field: value}), field) == value

    def test_dt_must_divide_t_end(self):
        _, _, op = unit_op(8)
        cfg = IntegratorConfig(scheme="rk4", dt=0.3, t_end=1.0)
        with pytest.raises(ValueError, match="divide"):
            evolve_nonlinear(op, zero_reaction(8), np.ones(8), cfg)

    def test_euler_dt_bound_enforced(self):
        _, _, op = unit_op(8, h=np.full(8, 3.0))
        cfg = IntegratorConfig(scheme="euler_op", dt=0.5, t_end=1.0, beta=0.0)
        with pytest.raises(ValueError, match="euler_op step"):
            evolve_nonlinear(op, zero_reaction(8), np.ones(8), cfg)


class TestLinearSemigroup:
    def test_time_zero_is_identity(self):
        _, _, op = unit_op(16, h=np.linspace(0, 1, 16))
        u0 = np.sin(np.arange(16.0))
        np.testing.assert_allclose(linear_semigroup_apply(op, 0.0, u0), u0, atol=1e-15)

    def test_threshold_potential_preserves_constants(self):
        s, k, _ = unit_op(16)
        op = build_operator(k, compute_h0(k))
        for t in (0.5, 2.0, -1.0):
            np.testing.assert_allclose(linear_semigroup_apply(op, t, np.full(16, 2.5)),
                                       2.5, atol=1e-12)

    def test_decoupled_scalar_decay(self):
        _, _, op = unit_op(8, c=0.0, h=np.ones(8))
        out = linear_semigroup_apply(op, 1.0, np.ones(8))
        np.testing.assert_allclose(out, math.exp(-1.0), atol=1e-14)

    def test_group_property_backward_forward(self):
        _, _, op = unit_op(12, h=np.linspace(0.2, 1.0, 12))
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(12)
        back = linear_semigroup_apply(op, -0.7, u0)
        np.testing.assert_allclose(linear_semigroup_apply(op, 0.7, back), u0, atol=1e-10)

    def test_positivity_forward(self):
        s, k, op = unit_op(16, h=np.full(16, 0.5))
        rng = np.random.default_rng(1)
        u0 = np.abs(rng.standard_normal(16))
        for t in (0.1, 1.0, 3.0):
            assert np.min(linear_semigroup_apply(op, t, u0)) >= -1e-12

    def test_rejects_nonfinite_time(self):
        _, _, op = unit_op(4)
        with pytest.raises(ValueError):
            linear_semigroup_apply(op, np.inf, np.ones(4))


def augmented_reference(mat):
    """e^M and φ1(M) from one expm of [[M, I], [0, 0]]."""
    n = mat.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = mat
    aug[:n, n:] = np.eye(n)
    eaug = expm(aug)
    return eaug[:n, :n], eaug[:n, n:]


def table_op(n, seed):
    s = build_interval(0, 1, n)
    rng = np.random.default_rng(seed)
    k = assemble_kernel(s, "table", jmat=rng.uniform(0.0, 2.0, size=(n, n)))
    assert n == 1 or not k.symmetric
    return build_operator(k, rng.uniform(0.0, 1.0, size=n))


def _expm_phi1_with_eye(mat):
    """_expm_phi1 as it stood with a stored identity and a copied y, frozen."""
    n = mat.shape[0]
    eye = np.eye(n)
    norm = float(np.linalg.norm(mat, 1))
    s = max(0, math.ceil(math.log2(norm / evolve.PHI_THETA)))
    y = mat / 2.0 ** s
    ny = norm / 2.0 ** s
    d = 1
    while ny ** (d + 1) / math.factorial(d + 2) * math.exp(ny) > 2.0 ** -53:
        d += 1
    phi = eye / math.factorial(d + 1)
    for k in range(d - 1, -1, -1):
        phi = y @ phi
        phi.flat[::n + 1] += 1.0 / math.factorial(k + 1)
    emat = y @ phi
    emat.flat[::n + 1] += 1.0
    for _ in range(s):
        phi = 0.5 * (phi @ (emat + eye))
        emat = emat @ emat
    return emat, phi, {"taylor_degree": d, "squarings": s}


class TestExpmPhi1:
    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("scale", [1e-3, 0.4, 5.0, 20.0])
    def test_bitwise_the_form_with_a_stored_identity(self, n, scale):
        """-0.0 entries included, which e^Y + I must turn to +0.0."""
        mat = random_metzler(n, n) * scale
        mat[np.random.default_rng(n).random((n, n)) < 0.2] = -0.0
        got, ref = _expm_phi1(mat), _expm_phi1_with_eye(mat)
        assert got[2] == ref[2]
        assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_degree_one_is_bitwise_the_form_with_a_stored_identity(self, n):
        """At d = 1 the Horner loop is empty: φ1(Y) = Y/2 + I, and e^Y is
        still Y·φ1(Y) + I."""
        mat = random_metzler(n, n) * 1e-10
        mat[np.random.default_rng(n).random((n, n)) < 0.2] = -0.0
        got, ref = _expm_phi1(mat), _expm_phi1_with_eye(mat)
        assert got[2] == ref[2] == {"taylor_degree": 1, "squarings": 0}
        assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("scale, squarings, bound",
                             [(1e-3, 0, 2.1), (5.0, 5, 4.1), (300.0, 11, 4.1)])
    def test_work_besides_mat(self, scale, squarings, bound):
        """At most four n×n arrays besides mat (φ1, e^Y, e^Y + I and the
        next φ1) while doubling, however many doublings, two without a
        doubling; the form with a stored identity and a copied y peaked at
        six."""
        n = 256
        _, _, op = unit_op(n, h=np.linspace(0.5, 2.0, n))
        mat = op.amat * scale
        _expm_phi1(mat[:8, :8])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            plan = _expm_phi1(mat)[2]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert plan["squarings"] == squarings and peak <= bound * 8 * n * n

    @pytest.mark.parametrize("beta", [0.0, 0.5, 40.0])
    def test_vcf_stepper_forms_m_in_place_bitwise(self, beta, monkeypatch):
        """M = (amat - βI)·dt formed in amat's buffer gives the propagators
        of the out-of-place form bit for bit when β >= 0."""
        op, f, u0 = smooth_system(40)
        dt = 0.05
        seen = []
        monkeypatch.setattr(evolve, "_expm_phi1", lambda mat: seen.append(mat.copy())
                            or _expm_phi1(mat))
        cfg = IntegratorConfig(scheme="vcf_exact_linear", dt=dt, t_end=1.0, beta=beta)
        make_stepper(op, f, u0, cfg)
        old = (op.amat - beta * np.eye(op.n)) * dt
        assert len(seen) == 1 and seen[0].tobytes() == old.tobytes()
        emat, phi1, _ = _expm_phi1_with_eye(old)
        phi1 *= dt
        ref = (emat @ u0) + phi1 @ (f.apply(u0) + beta * u0)
        assert make_stepper(op, f, u0, cfg).step(u0).tobytes() == ref.tobytes()

    def check(self, mat):
        emat, phi1, plan = _expm_phi1(mat)
        ref_e, ref_phi = augmented_reference(mat)
        for got, ref in ((emat, ref_e), (phi1, ref_phi)):
            scale = max(1.0, float(np.linalg.norm(ref, 1)))
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale
        return plan

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_small_norm_needs_no_squaring(self, n):
        _, _, op = unit_op(n, h=np.linspace(0.0, 1.0, n))
        plan = self.check(op.amat * 1e-3)
        assert plan["squarings"] == 0 and plan["taylor_degree"] >= 1

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_large_norm_runs_the_squarings(self, n):
        _, _, op = unit_op(n, h=np.linspace(0.5, 2.0, n))
        plan = self.check(op.amat * 5.0)
        assert plan["squarings"] >= 3

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_shifted_operator(self, n):
        _, _, op = unit_op(n, h=np.linspace(0.0, 1.0, n))
        beta = 2.5
        for dt in (0.01, 0.5, 2.0):
            self.check((op.amat - beta * np.eye(n)) * dt)

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_nonsymmetric_table_kernel(self, n):
        op = table_op(n, seed=n)
        for dt in (1e-3, 0.3, 3.0):
            self.check(op.amat * dt)

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_zero_matrix_gives_identities(self, n):
        emat, phi1, plan = _expm_phi1(np.zeros((n, n)))
        assert np.array_equal(emat, np.eye(n)) and np.array_equal(phi1, np.eye(n))
        assert emat is not phi1
        assert plan == {"taylor_degree": 0, "squarings": 0}


def random_metzler(seed, n):
    """Nonnegative off-diagonal entries, diagonal of either sign."""
    rng = np.random.default_rng(seed)
    amat = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.7)
    amat[np.diag_indices(n)] = rng.uniform(-3.0, 1.0, size=n)
    return amat


def assert_close_to_expm(got, ref, rtol=1e-12):
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(got - ref)) <= rtol * scale


class TestOneExponential:
    """_expm_phi1 is the only matrix exponential in the package; scipy's
    expm is the reference it must match."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 24), st.floats(-3.0, 3.0))
    @example(seed=0, n=8, t=0.0)  # the zero-norm branch
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_expm_matches_scipy_on_metzler_matrices(self, seed, n, t):
        amat = random_metzler(seed, n)
        emat = _expm_phi1(amat * t)[0]
        assert_close_to_expm(emat, expm(amat * t))
        if t == 0.0:
            assert np.array_equal(emat, np.eye(n))

    def check_grid(self, amat, vecs, times, rtol=1e-12):
        out = _propagate(amat, vecs, times)
        assert out.shape == (len(times),) + vecs.shape
        for t, got in zip(times, out):
            assert_close_to_expm(got, expm(amat * t) @ vecs, rtol)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 16), st.integers(1, 3),
           st.floats(0.01, 0.5), st.integers(1, 12))
    @settings(derandomize=True, deadline=None, max_examples=30)
    def test_propagate_on_a_uniform_grid(self, seed, n, k, gap, stored):
        amat = random_metzler(seed, n)
        vecs = np.random.default_rng(seed).standard_normal((n, k))
        self.check_grid(amat, vecs, gap * np.arange(stored + 1))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 16),
           st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8))
    @example(seed=0, n=3, times=[1e-12])  # within the tolerance of e^0 = I
    @settings(derandomize=True, deadline=None, max_examples=30)
    def test_propagate_on_a_nonuniform_grid(self, seed, n, times):
        amat = random_metzler(seed, n)
        vecs = np.random.default_rng(seed).standard_normal(n)
        times = np.sort(times)
        # a gap within the reuse tolerance 1e-12·max(1, t_last) of the last
        # one exponentiated reuses it, which may cost that much times
        # ‖amat‖ per stored time
        slack = len(times) * np.linalg.norm(amat, 1) * max(1.0, times[-1])
        self.check_grid(amat, vecs, times, rtol=1e-12 * (1.0 + slack))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 16), st.integers(1, 10),
           st.integers(1, 39))
    @settings(derandomize=True, deadline=None, max_examples=30)
    def test_propagate_on_a_grid_cut_by_blowup(self, seed, n, stored, extra):
        # stored every 40 steps of dt = 5e-3, then the blow-up step
        amat = random_metzler(seed, n)
        vecs = np.random.default_rng(seed).standard_normal((n, 2))
        times = np.append(40 * 5e-3 * np.arange(stored + 1), (40 * stored + extra) * 5e-3)
        self.check_grid(amat, vecs, times)

    def test_one_exponential_per_distinct_gap(self, monkeypatch):
        amat = random_metzler(3, 8)
        calls = []
        monkeypatch.setattr(evolve, "_expm_phi1",
                            lambda mat: calls.append(mat) or _expm_phi1(mat))
        _propagate(amat, np.ones(8), 5e-3 * 40 * np.arange(11))
        assert len(calls) == 1
        calls.clear()
        _propagate(amat, np.ones(8), [0.0, 0.5, 1.0, 3.0])
        assert len(calls) == 2
        calls.clear()
        _propagate(amat, np.ones(8), [0.2, 0.4, 0.6, 0.61])
        assert len(calls) == 2


class TestExponentialEuler:
    def test_zero_reaction_is_the_linear_semigroup(self):
        _, _, op = unit_op(24, h=np.linspace(0.0, 1.0, 24))
        u0 = np.random.default_rng(5).standard_normal(24)
        cfg = IntegratorConfig(scheme="vcf_exact_linear", dt=0.01, t_end=1.0,
                               store_every=25)
        tr = evolve_nonlinear(op, zero_reaction(24), u0, cfg)
        np.testing.assert_allclose(tr.final(), linear_semigroup_apply(op, 1.0, u0),
                                   rtol=0, atol=1e-12)

    def test_constant_source_matches_closed_form(self):
        op = table_op(16, seed=7)
        rng = np.random.default_rng(8)
        u0 = rng.standard_normal(16)
        src = rng.uniform(-1.0, 1.0, size=16)
        f = LogisticReaction(g=src, n=0.0, m=0.0, rho=2.0, n_nodes=16)
        t_end = 0.6
        cfg = IntegratorConfig(scheme="vcf_exact_linear", dt=0.01, t_end=t_end,
                               store_every=10 ** 6)
        tr = evolve_nonlinear(op, f, u0, cfg)
        e_at, phi_at = augmented_reference(op.amat * t_end)
        np.testing.assert_allclose(tr.final(), e_at @ u0 + t_end * phi_at @ src,
                                   rtol=0, atol=1e-12)


class TestEvolveNonlinear:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_initial_state(self, bad):
        _, _, op = unit_op(8)
        u0 = np.ones(8)
        u0[3] = bad
        cfg = IntegratorConfig(scheme="rk4", dt=0.01, t_end=0.1)
        with pytest.raises(ValueError, match="finite"):
            evolve_nonlinear(op, zero_reaction(8), u0, cfg)

    def test_zero_reaction_reduces_to_linear(self):
        _, _, op = unit_op(24, h=np.linspace(0.0, 1.0, 24))
        rng = np.random.default_rng(2)
        u0 = rng.standard_normal(24)
        cfg = IntegratorConfig(scheme="rk4", dt=1e-3, t_end=1.0, store_every=250)
        tr = evolve_nonlinear(op, zero_reaction(24), u0, cfg)
        for t, u in zip(tr.times, tr.states):
            np.testing.assert_allclose(u, linear_semigroup_apply(op, t, u0), atol=1e-6)

    def test_logistic_reaches_stable_root(self):
        _, _, op = unit_op(32)
        f = LogisticReaction(g=0.0, n=2.0, m=1.0, rho=3.0, n_nodes=32)
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_end=20.0, store_every=2000)
        tr = evolve_nonlinear(op, f, np.full(32, 0.1), cfg)
        np.testing.assert_allclose(tr.final(), math.sqrt(3.0), atol=1e-4)
        # and the whole constant flow tracks the scalar closed form
        assert tr.final()[0] == pytest.approx(logistic_flow_closed_form(20.0, 0.1, 3.0),
                                              abs=1e-8)

    def test_cubic_blowup_is_flagged(self):
        _, _, op = unit_op(16)
        f = CallableReaction(lambda s: s ** 3, lambda s: 3 * s ** 2, n_nodes=16)
        cfg = IntegratorConfig(scheme="rk4", dt=1e-4, t_end=0.1)
        tr = evolve_nonlinear(op, f, np.full(16, 10.0), cfg)
        assert tr.blowup
        assert tr.metadata["blowup_time"] < 0.1
        assert np.all(np.isfinite(tr.states))

    def test_euler_op_requires_usable_truncation(self):
        _, _, op = unit_op(8)
        f = CallableReaction(lambda s: s ** 3, lambda s: 3 * s ** 2, n_nodes=8)
        cfg = IntegratorConfig(scheme="euler_op", dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError, match="truncation"):
            evolve_nonlinear(op, f, np.full(8, 10.0), cfg)

    def test_schemes_agree_on_smooth_run(self):
        s = build_interval(0, 1, 32)
        k = assemble_kernel(s, "gaussian", sigma=0.3)
        op = build_operator(k, 0.3 + 0.2 * np.sin(2 * np.pi * s.x))
        f = LogisticReaction(g=0.05, n=0.3, m=0.5, rho=3.0, n_nodes=32)
        u0 = 0.3 + 0.1 * np.sin(np.pi * s.x)
        finals = {}
        for scheme in ("euler_op", "rk4", "vcf_exact_linear"):
            cfg = IntegratorConfig(scheme=scheme, dt=1e-3, t_end=1.0, store_every=10 ** 6)
            finals[scheme] = evolve_nonlinear(op, f, u0, cfg).final()
        assert np.max(np.abs(finals["euler_op"] - finals["rk4"])) <= 1e-4
        assert np.max(np.abs(finals["vcf_exact_linear"] - finals["rk4"])) <= 1e-4
        # first-order schemes halve their deviation when dt halves
        cfg = IntegratorConfig(scheme="euler_op", dt=5e-4, t_end=1.0, store_every=10 ** 6)
        half = evolve_nonlinear(op, f, u0, cfg).final()
        ratio = np.max(np.abs(finals["euler_op"] - finals["rk4"])) \
            / np.max(np.abs(half - finals["rk4"]))
        assert ratio == pytest.approx(2.0, abs=0.2)

    def test_order_preservation_is_exact(self):
        s, _, op = unit_op(48, h=None)
        rng = np.random.default_rng(3)
        f1 = LogisticReaction(g=0.2, n=1.0, m=0.8, rho=3.0, n_nodes=48)
        from nonlocalrd.reaction import add_bump
        f0 = add_bump(f1, np.full(48, 0.3))
        u1 = rng.uniform(-1, 1, size=48)
        u0 = u1 + rng.uniform(0, 1, size=48)
        cfg = monotone_config(op, f0, np.full(48, 2.0), 1.0)
        tr0 = evolve_nonlinear(op, f0, u0, cfg)
        tr1 = evolve_nonlinear(op, f1, u1, cfg)
        assert np.min(tr0.states - tr1.states) >= -1e-12

    def test_positivity_is_exact(self):
        s, _, op = unit_op(48, h=None)
        rng = np.random.default_rng(4)
        f = LogisticReaction(g=0.1, n=1.0, m=0.8, rho=3.0, n_nodes=48)
        u0 = np.abs(rng.standard_normal(48))
        cfg = monotone_config(op, f, u0, 1.0)
        tr = evolve_nonlinear(op, f, u0, cfg)
        assert np.min(tr.states) >= -1e-12

    def test_strict_positivity_spreads_in_one_step(self):
        # positivity radius beyond the diameter: a single bump lights up
        # every node after one order-preserving step
        s = build_interval(0, 1, 40)
        k = assemble_kernel(s, "tophat", R=2.0, J0=1.0)
        op = build_operator(k, np.zeros(40))
        f = LogisticReaction(g=0.0, n=1.0, m=1.0, rho=3.0, n_nodes=40)
        u0 = np.zeros(40)
        u0[7] = 0.8
        cfg = monotone_config(op, f, np.ones(40), 0.5)
        tr = evolve_nonlinear(op, f, u0, cfg)
        assert np.min(tr.states[1:]) > 0.0

    def test_growth_bound_constant_is_modest_for_linear_flow(self):
        s, _, op = unit_op(32, h=None)
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_end=2.0, store_every=10)
        tr = evolve_nonlinear(op, zero_reaction(32), np.ones(32), cfg)
        m = fit_growth_constant(op, tr)
        assert m <= 1.0 + 1e-9  # started on the principal eigenfunction

    def test_growth_bound_fit_is_stable_in_time(self):
        # the fitted constant must not keep growing with the horizon
        s = build_interval(0, 1, 24)
        k = assemble_kernel(s, "tophat", R=0.4, J0=1.5)
        op = build_operator(k, 0.5 + 0.4 * (s.x > 0.5))
        rng = np.random.default_rng(6)
        u0 = rng.standard_normal(24)
        fits = []
        for t_end in (2.0, 4.0, 8.0):
            cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_end=t_end, store_every=10)
            fits.append(fit_growth_constant(op, evolve_nonlinear(
                op, zero_reaction(24), u0, cfg)))
        assert fits[2] <= fits[1] * (1 + 1e-9) + 1e-9
        assert all(np.isfinite(fits))

    def test_lower_subsolution_stays_below_linear_flow(self):
        s, k, op = unit_op(64, h=None)
        rng = np.random.default_rng(5)
        phi = rng.uniform(0.5, 1.5, size=64)
        lam_tilde = cw_bounds(op, phi).lower - 0.05
        for t in (0.5, 1.0, 2.0):
            flow = linear_semigroup_apply(op, t, phi)
            assert np.all(math.exp(lam_tilde * t) * phi <= flow + 1e-9)


def _reference_apply(f, v):
    return f.eval_grid(v[:, None])[:, 0]


def _reference_product(kernel, x):
    """jmat @ x on one state: BLAS dsymv on the Fortran-ordered view jmat.T
    for a symmetric kernel, gemv otherwise."""
    if kernel.symmetric:
        return scipy.linalg.blas.dsymv(1.0, kernel.jmat.T, x)
    return kernel.jmat @ x


def _reference_step(op, f, u0, config):
    """The one-step maps as evolve_nonlinear formed them before steppers;
    euler_op's forms dt·K v as jmat @ (dt·w·v), reading the kernel in place,
    and rk4 on a symmetric kernel steps L v = jmat @ (w·v) - h·v, both
    through _reference_product."""
    dt = config.dt
    meta = {"beta": None, "trunc_k": None, "propagator": None}
    if config.scheme == "euler_op":
        f_used, beta, k = _prepare_monotone(op, f, float(np.max(np.abs(u0))), config.t_end,
                                            config.trunc_k, config.beta)
        config.check_monotone_dt(op.h, beta)
        meta["beta"], meta["trunc_k"] = beta, k
        dtw = dt * op.space.weights
        decay = 1.0 - dt * (op.h + beta)

        def step(v):
            return (decay * v + _reference_product(op.kernel, dtw * v)
                    + dt * (_reference_apply(f_used, v) + beta * v))
    elif config.scheme == "rk4":
        def rhs(v):
            if op.kernel.symmetric:
                lv = _reference_product(op.kernel, op.space.weights * v) - op.h * v
            else:
                lv = op.amat @ v
            return lv + _reference_apply(f, v)

        def step(v):
            k1 = rhs(v)
            k2 = rhs(v + 0.5 * dt * k1)
            k3 = rhs(v + 0.5 * dt * k2)
            k4 = rhs(v + dt * k3)
            return v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    else:
        beta = float(config.beta) if config.beta is not None else 0.0
        meta["beta"] = beta
        emat, phi1, meta["propagator"] = _expm_phi1((op.amat - beta * np.eye(op.n)) * dt)
        phi1 *= dt

        def step(v):
            return emat @ v + phi1 @ (_reference_apply(f, v) + beta * v)
    return step, meta


def _reference_loop(step, u0, config, meta):
    """The stepping loop as it stood before the cheap blow-up guard."""
    u = np.array(u0, dtype=float)
    nsteps = _nsteps(config.dt, config.t_end)
    dt = config.dt
    meta = dict(meta, scheme=config.scheme, blowup=False, blowup_time=None)
    times, states, steps_idx = [0.0], [u.copy()], [0]
    for m in range(1, nsteps + 1):
        u = step(u)
        t = m * dt
        finite = bool(np.all(np.isfinite(u)))
        if not finite or np.max(np.abs(u)) > config.blowup_threshold:
            meta["blowup"] = True
            meta["blowup_time"] = t
            if finite:
                times.append(t)
                states.append(u.copy())
                steps_idx.append(m)
            break
        if m % config.store_every == 0 or m == nsteps:
            times.append(t)
            states.append(u.copy())
            steps_idx.append(m)
    meta["steps"] = np.asarray(steps_idx, dtype=int)
    return np.asarray(times), np.asarray(states), meta


def assert_same_run(tr, ref):
    times, states, meta = ref
    assert tr.times.tobytes() == times.tobytes()
    assert tr.states.shape == states.shape
    assert tr.states.tobytes() == states.tobytes()
    assert tr.metadata["steps"].tolist() == meta["steps"].tolist()
    for key in ("scheme", "blowup", "blowup_time", "beta", "trunc_k", "propagator"):
        assert tr.metadata[key] == meta[key], key


def smooth_system(n=20):
    s = build_interval(0, 1, n)
    k = assemble_kernel(s, "tophat", R=0.3, J0=2.0)
    op = build_operator(k, 1.0 + 0.5 * np.sin(2 * np.pi * s.x))
    f = LogisticReaction(g=0.2, n=1.0, m=1.0, rho=3.0, n_nodes=n)
    u0 = 0.5 + 0.4 * np.cos(2 * np.pi * s.x)
    return op, f, u0


class TestPreparedStepper:
    """evolve_nonlinear against the frozen pre-stepper loop, bit for bit."""

    @pytest.mark.parametrize("scheme", ["euler_op", "rk4", "vcf_exact_linear"])
    @pytest.mark.parametrize("store_every", [1, 7, 50])
    def test_matches_frozen_loop(self, scheme, store_every):
        op, f, u0 = smooth_system()
        f = add_bump(absorb_potential(f, 0.1 * np.ones(op.n)), np.full(op.n, 0.05))
        cfg = IntegratorConfig(scheme=scheme, dt=0.01, t_end=0.2, store_every=store_every,
                               beta=0.5 if scheme == "vcf_exact_linear" else None)
        step, meta = _reference_step(op, f, u0, cfg)
        assert_same_run(evolve_nonlinear(op, f, u0, cfg), _reference_loop(step, u0, cfg, meta))

    @pytest.mark.parametrize("scheme", ["euler_op", "rk4"])
    def test_a_nonsymmetric_table_matches_frozen_loop(self, scheme):
        """rk4 on a nonsymmetric kernel keeps stepping amat @ v."""
        op = table_op(20, seed=3)
        f = LogisticReaction(g=0.2, n=1.0, m=1.0, rho=3.0, n_nodes=20)
        u0 = np.linspace(0.2, 0.9, 20)
        cfg = IntegratorConfig(scheme=scheme, dt=0.01, t_end=0.2, store_every=3)
        step, meta = _reference_step(op, f, u0, cfg)
        assert_same_run(evolve_nonlinear(op, f, u0, cfg), _reference_loop(step, u0, cfg, meta))

    @pytest.mark.parametrize("scheme", ["euler_op", "rk4", "vcf_exact_linear"])
    def test_repeat_runs_are_bitwise_identical(self, scheme):
        op, f, u0 = smooth_system(150)
        cfg = IntegratorConfig(scheme=scheme, dt=0.01, t_end=0.2)
        first, second = (evolve_nonlinear(op, f, u0, cfg) for _ in range(2))
        assert first.states.tobytes() == second.states.tobytes()

    @pytest.mark.parametrize("rho", [2.0, 2.5, 3.0])
    def test_monotone_config_runs_match(self, rho):
        op, _, u0 = smooth_system(24)
        f = LogisticReaction(g=0.1, n=0.8, m=1.2, rho=rho, n_nodes=24)
        cfg = monotone_config(op, f, u0, 1.0, store_every=3)
        step, meta = _reference_step(op, f, u0, cfg)
        assert_same_run(evolve_nonlinear(op, f, u0, cfg), _reference_loop(step, u0, cfg, meta))

    @pytest.mark.parametrize("scheme", ["rk4", "vcf_exact_linear", "euler_op"])
    def test_blowup_on_the_last_step(self, scheme):
        _, _, op = unit_op(12)
        f = CallableReaction(lambda s: s ** 3, lambda s: 3 * s ** 2, n_nodes=12)
        u0 = np.full(12, 2.0)
        extra = {"trunc_k": 1e6, "beta": 1.0} if scheme == "euler_op" else {}
        long = IntegratorConfig(scheme=scheme, dt=1e-3, t_end=1.0, blowup_threshold=50.0,
                                store_every=4, **extra)
        hit = evolve_nonlinear(op, f, u0, long).metadata["blowup_time"]
        assert hit is not None
        cfg = IntegratorConfig(scheme=scheme, dt=1e-3, t_end=hit, blowup_threshold=50.0,
                               store_every=4, **extra)
        tr = evolve_nonlinear(op, f, u0, cfg)
        step, meta = _reference_step(op, f, u0, cfg)
        assert_same_run(tr, _reference_loop(step, u0, cfg, meta))
        assert tr.blowup and tr.metadata["steps"][-1] == _nsteps(cfg.dt, cfg.t_end)

    @pytest.mark.parametrize("scheme", ["euler_op", "rk4", "vcf_exact_linear"])
    def test_stepper_carries_the_run_metadata(self, scheme):
        op, f, u0 = smooth_system()
        cfg = IntegratorConfig(scheme=scheme, dt=0.01, t_end=0.1,
                               beta=0.5 if scheme == "vcf_exact_linear" else None)
        stepper = make_stepper(op, f, u0, cfg)
        assert isinstance(stepper, Stepper)
        step, meta = _reference_step(op, f, u0, cfg)
        assert stepper.step(u0).tobytes() == step(u0).tobytes()
        run = evolve_nonlinear(op, f, u0, cfg).metadata
        for key in ("beta", "trunc_k", "propagator"):
            assert getattr(stepper, key) == meta[key] == run[key], key


def law_system(law, n, seed=0, h_max=40.0):
    """A trapezoid-weighted interval, a potential h in [0, h_max] (strong by
    default, so amat's diagonal cancels heavily) and a tophat, gaussian or
    nonsymmetric table kernel with zero entries."""
    rng = np.random.default_rng(seed)
    s = build_interval(0, 1, n - 1, "trapezoid")  # n nodes
    params = {"tophat": dict(R=0.3, J0=2.0), "gaussian": dict(sigma=0.2, scale=1.5),
              "table": dict(jmat=rng.uniform(0.0, 2.0, (n, n))
                            * (rng.uniform(size=(n, n)) > 0.2))}[law]
    return build_operator(assemble_kernel(s, law, **params), rng.uniform(0.0, h_max, n))


def kw_form_step(op, f_used, beta, dt):
    """The euler_op step as formed before it read jmat in place: dt·(kw @ v)
    with kw = amat + diag(h), an n×n copy."""
    kw = op.amat.copy()
    kw.flat[::op.n + 1] += op.h
    decay = 1.0 - dt * (op.h + beta)
    return lambda v: decay * v + dt * (kw @ v.T).T + dt * (f_used.apply(v) + beta * v)


LAWS = ["tophat", "gaussian", "table"]


class TestInPlaceKernelStep:
    """euler_op forms dt·K v as jmat @ (dt·w·v), with no n×n copy."""

    N = 48

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("k", [None, 5])
    def test_agrees_with_the_kw_form_within_rounding(self, law, k):
        """Both forms share decay·v and dt·(f(v) + βv) bitwise and evaluate
        the same sum of n + 2 products; kw's diagonal fl(fl(J_ii w_i) - h_i)
        + h_i is off J_ii w_i by at most 3u(J_ii w_i + |h_i|).  By the
        rounding bound for sums of products (Higham 2002, §3.1) each form is
        within γ_{n+4}·T_i of the exact step, γ_m = mu/(1 - mu), u = 2⁻⁵³,
        T_i = |decay_i v_i| + dt Σ_j J_ij w_j |v_j| + dt (J_ii w_i + |h_i|) |v_i|
        + dt |f_i(v) + β v_i|, so they differ by at most 2γ_{n+4}·T_i."""
        n = self.N
        op = law_system(law, n, h_max=1.0)  # a large dt, so dt·K v carries weight
        f = batch_reaction("logistic", n)
        rng = np.random.default_rng(3)
        v = rng.uniform(-1.5, 1.5, (n,) if k is None else (k, n))
        cfg = IntegratorConfig(scheme="euler_op", dt=0.4, t_end=2.0, beta=1.0, trunc_k=2.0)
        new = make_stepper(op, f, v, cfg).step(v)
        f_used = truncate(f, cfg.trunc_k)
        old = kw_form_step(op, f_used, cfg.beta, cfg.dt)(v)
        assert np.any(new != old)  # the forms round differently here
        jw = op.kernel.jmat * op.space.weights
        av = np.abs(v)
        terms = (np.abs(1.0 - cfg.dt * (op.h + cfg.beta)) * av
                 + cfg.dt * (jw @ av.T).T + cfg.dt * (np.diag(jw) + np.abs(op.h)) * av
                 + cfg.dt * np.abs(f_used.apply(v) + cfg.beta * v))
        u = 2.0 ** -53
        gamma = (n + 4) * u / (1 - (n + 4) * u)
        assert np.all(np.abs(new - old) <= 2 * gamma * terms)

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("k", [None, 5])
    def test_order_is_preserved_exactly(self, law, k):
        """Zero reaction, so fl(f(v) + βv) is monotone: w equal to v in about
        half of the entries and one ulp above it in the rest gives
        step(v) <= step(w) in every entry, with no tolerance.  Gaps of one
        ulp are where a step that cancels, such as amat @ v + h·v, inverts."""
        n = self.N
        f = zero_reaction(n)
        shape = (n,) if k is None else (k, n)
        for seed in range(20):
            op = law_system(law, n, seed)
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(shape)
            w = np.where(rng.integers(0, 2, size=shape) == 1, np.nextafter(v, np.inf), v)
            cfg = IntegratorConfig(scheme="euler_op", dt=0.02, t_end=1.0)
            step = make_stepper(op, f, v, cfg).step
            assert np.all(step(v) <= step(w)), seed


def batch_reaction(kind, n, seed=0):
    """Per-node coefficients, so that a coefficient broadcast along the wrong
    axis of a square batch changes the result; "callable" reaches the
    generic Reaction.apply through the wrappers."""
    rng = np.random.default_rng(seed)
    if kind == "logistic":
        f = LogisticReaction(g=rng.uniform(0.0, 0.3, n), n=rng.uniform(0.5, 1.5, n),
                             m=rng.uniform(0.5, 1.5, n), rho=3.0)
    else:
        coef = rng.uniform(0.5, 1.5, (n, 1))
        f = CallableReaction(lambda s: coef * s - s ** 3, lambda s: coef - 3 * s ** 2,
                             n_nodes=n)
    return add_bump(absorb_potential(f, rng.uniform(0.0, 0.2, n)), rng.uniform(0.0, 0.1, n))


def batch_data(k, n, seed=1):
    return np.random.default_rng(seed).uniform(0.0, 1.5, size=(k, n))


def assert_rows_are_separate_runs(op, f, data, cfg, tol, stored=None):
    """Each row of the batch run against the 1-D run of its datum, on the
    first `stored` stored states (all by default)."""
    tr = evolve_nonlinear(op, f, data, cfg)
    assert tr.states.shape == (len(tr.times),) + data.shape
    for j, row in enumerate(data):
        one = evolve_nonlinear(op, f, row, cfg)
        last = len(tr.times) if stored is None else stored
        assert one.times[:last].tolist() == tr.times[:last].tolist()
        scale = max(1.0, float(np.max(np.abs(one.states))))
        np.testing.assert_allclose(tr.states[:last, j], one.states[:last], rtol=0,
                                   atol=tol * scale)
    return tr


class TestBatch:
    """A (k, n) batch is one run whose rows are the runs of its data."""

    N = 20

    @pytest.mark.parametrize("scheme", ["rk4", "vcf_exact_linear"])
    @pytest.mark.parametrize("kind", ["logistic", "callable"])
    @pytest.mark.parametrize("k", [1, 3, N])  # k = n: the square batch
    def test_rows_equal_separate_runs(self, scheme, kind, k):
        op, _, _ = smooth_system(self.N)
        cfg = IntegratorConfig(scheme=scheme, dt=0.01, t_end=0.5, store_every=7,
                               beta=0.5 if scheme == "vcf_exact_linear" else None)
        tr = assert_rows_are_separate_runs(op, batch_reaction(kind, self.N),
                                           batch_data(k, self.N), cfg, 1e-13)
        assert tr.metadata["steps"].tolist() == [0, 7, 14, 21, 28, 35, 42, 49, 50]

    @pytest.mark.parametrize("kind", ["logistic", "callable"])
    @pytest.mark.parametrize("k", [1, 3, N])
    def test_euler_op_rows_keep_order_and_sign(self, kind, k):
        op, _, _ = smooth_system(self.N)
        f = batch_reaction(kind, self.N)
        # ordered nonnegative rows; f(x, 0) >= 0 for both reactions
        data = np.sort(batch_data(k, self.N), axis=0)
        cfg = monotone_config(op, f, data, 0.5, store_every=3)  # β and trunc_k shared
        tr = assert_rows_are_separate_runs(op, f, data, cfg, EXACT_TOL)
        assert tr.metadata["trunc_k"] == cfg.trunc_k and tr.metadata["beta"] == cfg.beta
        assert np.min(tr.states) >= 0.0
        assert np.all(np.diff(tr.states, axis=1) >= -EXACT_TOL)

    def test_truncation_level_comes_from_the_whole_batch(self):
        op, _, _ = smooth_system(self.N)
        f = batch_reaction("logistic", self.N)
        data = batch_data(2, self.N) * np.array([[1.0], [4.0]])
        cfg = IntegratorConfig(scheme="euler_op", dt=1e-3, t_end=0.5)
        both = make_stepper(op, f, data, cfg)
        assert both.trunc_k == make_stepper(op, f, data[1], cfg).trunc_k
        assert both.trunc_k > make_stepper(op, f, data[0], cfg).trunc_k

    @pytest.mark.parametrize("scheme", ["rk4", "vcf_exact_linear", "euler_op"])
    def test_run_stops_when_one_row_blows_up(self, scheme):
        _, _, op = unit_op(12)
        f = CallableReaction(lambda s: s ** 3, lambda s: 3 * s ** 2, n_nodes=12)
        data = np.stack([np.full(12, 0.1), np.full(12, 2.0), np.linspace(0.0, 0.2, 12)])
        extra = {"trunc_k": 1e6, "beta": 1.0} if scheme == "euler_op" else {}
        cfg = IntegratorConfig(scheme=scheme, dt=1e-3, t_end=1.0, blowup_threshold=50.0,
                               store_every=4, **extra)
        alone = evolve_nonlinear(op, f, data[1], cfg)
        assert alone.blowup and not evolve_nonlinear(op, f, data[0], cfg).blowup
        tol = EXACT_TOL if scheme == "euler_op" else 1e-13
        tr = assert_rows_are_separate_runs(op, f, data, cfg, tol, stored=len(alone.times) - 1)
        assert tr.blowup and tr.metadata["blowup_time"] == alone.metadata["blowup_time"]
        assert tr.times.tolist() == alone.times.tolist()
        assert tr.metadata["steps"].tolist() == alone.metadata["steps"].tolist()
        # the blow-up state: rounding differences grow with the solution
        assert np.max(tr.states[-1, 1]) > cfg.blowup_threshold
        np.testing.assert_allclose(tr.states[-1, 1], alone.states[-1], rtol=1e-10)

    @pytest.mark.parametrize("shape", [(0, 12), (2, 11), (1, 2, 12), ()])
    def test_rejects_misshapen_data(self, shape):
        _, _, op = unit_op(12)
        cfg = IntegratorConfig(scheme="rk4", dt=0.01, t_end=0.1)
        with pytest.raises(ValueError, match="shape"):
            evolve_nonlinear(op, zero_reaction(12), np.ones(shape), cfg)

    def test_single_datum_consumers_reject_a_batch(self):
        s, k, op = unit_op(16)
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_end=0.1)
        tr = evolve_nonlinear(op, zero_reaction(16), np.ones((2, 16)), cfg)
        with pytest.raises(ValueError, match=r"\(11, 2, 16\)"):
            kaplan_witness(k, np.zeros(16), 3.0, tr)
        with pytest.raises(ValueError, match=r"\(11, 2, 16\)"):
            fit_growth_constant(op, tr)


def stack_system(n, rho, seed):
    """A random operator (a nonsymmetric table kernel among the laws) and a
    logistic reaction with per-node coefficients, of one size n and ρ."""
    rng = np.random.default_rng(seed)
    space = build_interval(0.0, float(rng.choice([1.0, 1.5])), n)
    law = int(rng.integers(0, 4))
    if law == 0:
        kern = assemble_kernel(space, "constant", c=rng.uniform(0.5, 2.0))
    elif law == 1:
        kern = assemble_kernel(space, "tophat", R=0.4, J0=rng.uniform(0.5, 2.0))
    elif law == 2:
        kern = assemble_kernel(space, "gaussian", sigma=rng.uniform(0.2, 0.5))
    else:
        kern = assemble_kernel(space, "table", jmat=rng.uniform(0.0, 2.0, (n, n)))
    op = build_operator(kern, rng.uniform(-0.5, 1.0, n))
    f = LogisticReaction(g=rng.uniform(0.1, 0.6, n), n=-rng.uniform(1.0, 3.0),
                         m=rng.uniform(0.3, 1.0, n), rho=rho)
    return op, f


def op_stack(ops):
    return evolve.OperatorStack(np.stack([op.amat for op in ops]))


def stacked(reactions, n):
    """One LogisticReaction whose (G, 1, n) coefficients stack the given ones."""
    coef = [np.stack([getattr(f, c) for f in reactions])[:, None] for c in ("g", "ncoef", "m")]
    return LogisticReaction(*coef, rho=reactions[0].rho, n_nodes=n)


class TestStack:
    """An rk4 run of a (G, k, n) stack whose slices are the systems' own runs."""

    CFG = dict(scheme="rk4", dt=5e-3, t_end=0.5, store_every=10)

    @pytest.mark.parametrize("rho", [2.0, 3.0])
    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("g", [1, 2, 7])
    def test_slices_equal_separate_runs(self, g, n, rho, record_property):
        systems = [stack_system(n, rho, 100 * g + j) for j in range(g)]
        ops, fs = zip(*systems)
        data = np.random.default_rng(g).uniform(-1.5, 1.5, (g, 2, n))
        cfg = IntegratorConfig(**self.CFG)
        tr = evolve_nonlinear(op_stack(ops), stacked(fs, n), data, cfg)
        assert tr.states.shape == (len(tr.times), g, 2, n) and not tr.blowup
        bitwise = True
        for j, (op, f) in enumerate(systems):
            one = evolve_nonlinear(op, f, data[j], cfg)
            assert one.times.tolist() == tr.times.tolist()
            assert one.metadata["steps"].tolist() == tr.metadata["steps"].tolist()
            bitwise &= np.array_equal(tr.states[:, j], one.states)
            scale = float(np.max(np.abs(one.states)))
            np.testing.assert_allclose(tr.states[:, j], one.states, rtol=0,
                                       atol=8 * np.finfo(float).eps * scale)
        record_property("bitwise", bitwise)  # OpenBLAS here: bitwise

    def test_blowup_of_one_system_stops_the_stack(self):
        systems = [stack_system(32, 3.0, j) for j in range(3)]
        ops, fs = zip(*systems)
        data = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 2, 32))
        data[1, 0] *= 1e4  # rk4 at dt = 5e-3 is unstable for |s|² ~ 1e8
        cfg = IntegratorConfig(**self.CFG)
        tr = evolve_nonlinear(op_stack(ops), stacked(fs, 32), data, cfg)
        alone = evolve_nonlinear(ops[1], fs[1], data[1], cfg)
        assert tr.blowup and alone.blowup
        assert tr.metadata["blowup_time"] == alone.metadata["blowup_time"]
        assert not evolve_nonlinear(ops[0], fs[0], data[0], cfg).blowup

    @pytest.mark.parametrize("scheme", ["euler_op", "vcf_exact_linear"])
    def test_other_schemes_reject_a_stack(self, scheme):
        op, f = stack_system(16, 3.0, 0)
        cfg = IntegratorConfig(scheme=scheme, dt=1e-3, t_end=0.01, beta=1.0, trunc_k=10.0)
        data = np.zeros((2, 1, 16))
        with pytest.raises(ValueError, match=scheme):
            make_stepper(op, f, data, cfg)
        with pytest.raises(ValueError, match=scheme):
            evolve_nonlinear(op_stack([op, op]), stacked([f, f], 16), data, cfg)

    @pytest.mark.parametrize("shape", [(2, 16), (16,), (3, 2, 16), (2, 1, 2, 16), (2, 0, 16)])
    def test_stack_rejects_misshapen_data(self, shape):
        op, f = stack_system(16, 3.0, 0)
        cfg = IntegratorConfig(**self.CFG)
        with pytest.raises(ValueError, match=r"shape .*\(G, k >= 1, n\)"):
            evolve_nonlinear(op_stack([op, op]), stacked([f, f], 16),
                             np.zeros(shape), cfg)

    def test_an_operator_rejects_a_stack_or_more_axes(self):
        op, f = stack_system(16, 3.0, 0)
        cfg = IntegratorConfig(**self.CFG)
        for shape in [(2, 1, 16), (1, 1, 1, 16)]:
            with pytest.raises(ValueError, match="shape"):
                evolve_nonlinear(op, f, np.zeros(shape), cfg)


def _scripted_stepper(script):
    """A stepper whose m-th step returns script[m-1]."""
    it = iter(script)
    return Stepper(step=lambda v: next(it).copy(), beta=None, trunc_k=None, propagator=None)


class TestBlowupGuard:
    """The cheap u·u guard decides exactly as the old sup-norm test."""

    THR = 4.0

    def run_both(self, monkeypatch, last, thr=THR, n=6):
        import nonlocalrd.evolve as evmod

        _, _, op = unit_op(n)
        f = zero_reaction(n)
        cfg = IntegratorConfig(scheme="rk4", dt=0.25, t_end=1.0, store_every=2)
        # set after construction, which rejects 0, -1 and NaN: the loop still
        # has to decide on them as the old one did
        cfg.blowup_threshold = thr
        scale = thr / 4 if 0 <= thr < 1 else 1.0  # keep the early states within thr
        script = [np.full(n, c * scale) for c in (0.1, 0.2, 0.3)] + [np.asarray(last, float)]
        monkeypatch.setattr(evmod, "make_stepper",
                            lambda *args: _scripted_stepper(script))
        tr = evolve_nonlinear(op, f, np.zeros(n), cfg)
        ref = _reference_loop(_scripted_stepper(script).step, np.zeros(n), cfg,
                              {"beta": None, "trunc_k": None, "propagator": None})
        assert_same_run(tr, ref)
        return tr

    def test_sup_equal_to_threshold_is_not_blowup(self, monkeypatch):
        assert not self.run_both(monkeypatch, [self.THR, 0, 0, 0, 0, -self.THR]).blowup

    def test_just_above_threshold_is_blowup(self, monkeypatch):
        tr = self.run_both(monkeypatch, [0, 0, np.nextafter(self.THR, np.inf), 0, 0, 0])
        assert tr.blowup and tr.metadata["blowup_time"] == 1.0
        assert tr.states[-1][2] == np.nextafter(self.THR, np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_blowup(self, monkeypatch, bad):
        tr = self.run_both(monkeypatch, [0, bad, 0, 0, 0, 0])
        assert tr.blowup and tr.metadata["blowup_time"] == 1.0
        assert tr.metadata["steps"].tolist() == [0, 2]

    def test_large_norm_within_threshold_is_not_blowup(self, monkeypatch):
        # u·u = 6·(0.9 thr)² exceeds (thr/2)² while max|u| stays below thr
        tr = self.run_both(monkeypatch, np.full(6, 0.9 * self.THR))
        assert not tr.blowup and tr.metadata["steps"].tolist() == [0, 2, 4]

    @pytest.mark.parametrize("last", [np.full(6, 1e200), [0, 0, 1.7e308, 0, 0, -1.7e308],
                                      [0, np.nan, np.inf, 0, 0, 1e300]])
    def test_overflowing_sum_raises_no_floating_point_error(self, monkeypatch, last):
        # u·u overflows on these blow-up steps; the old test raised nothing
        with np.errstate(all="raise"):
            tr = self.run_both(monkeypatch, last)
        assert tr.blowup and tr.metadata["blowup_time"] == 1.0

    @pytest.mark.parametrize("thr, last", [
        (np.inf, [0, np.inf, 0, 0, 0, 0]),
        (np.inf, [0, 0, -np.inf, 0, 0, 0]),
        (np.inf, [1.7e308, 1e300, 0, 0, 0, 0]),
        (1e150, [1e150, 0, 0, 0, 0, -1e150]),
        (1e150, [0, 0, np.nextafter(1e150, np.inf), 0, 0, 0]),
        (1e155, [0, 0, np.inf, 0, 0, 0]),
        (1e-165, [0, 0, 2e-165, 0, 0, 0]),
        (1e-150, [0, 1e-150, 0, 0, 0, 0]),
        (1e-150, [0, 0, 0, 0, 2e-150, 0]),
        (1e200, [0, 0, 1e201, 0, 0, 0]),
        (1e200, [1e199, 1e199, 1e199, 0, 0, 0]),
        (1e-200, [0, 0, 0, 1e-170, 0, 0]),
        (0.0, [0, 0, 0, 0, 0, 0]),
        (0.0, [0, 0, 0, 0, 0, 5e-324]),
        (-1.0, [0, 0, 0, 0, 0, 0]),
        (np.nan, [1e300, 0, 0, 0, 0, 0]),
        (np.nan, [np.nan, 0, 0, 0, 0, 0]),
    ])
    def test_thresholds_at_and_outside_the_guard_range(self, monkeypatch, thr, last):
        tr = self.run_both(monkeypatch, last, thr=thr)
        # the last state decides, except that any state exceeds a negative threshold
        assert tr.metadata["steps"][-1] >= 2 or thr < 0


class TestPicard:
    def test_zero_reaction_converges_immediately(self):
        _, _, op = unit_op(16, h=np.full(16, 0.5))
        res = picard_solve(op, zero_reaction(16), np.ones(16), tau=0.2)
        assert res.contraction_factor < 1.0
        assert res.distances[0] > 0  # first correction away from the constant guess
        assert res.distances[-1] <= 1e-12

    def test_constant_source_matches_closed_form(self):
        n = 16
        _, _, op = unit_op(n, h=np.full(n, 0.5))
        dvec = np.full(n, 0.7)
        f = CallableReaction(lambda s: np.broadcast_to(dvec[:, None], s.shape).copy(),
                             lambda s: np.zeros_like(s), n_nodes=n,
                             kind="globally_lipschitz", lip=0.0)
        tau = 0.3
        res = picard_solve(op, f, np.ones(n), tau=tau, n_sub=64)
        aug = np.zeros((2 * n, 2 * n))
        aug[:n, :n] = op.amat * tau
        aug[:n, n:] = np.eye(n) * tau
        big = expm(aug)
        closed = big[:n, :n] @ np.ones(n) + big[:n, n:] @ dvec
        np.testing.assert_allclose(res.states[-1], closed, atol=1e-8)

    def test_truncated_logistic_contracts_geometrically(self):
        n = 24
        _, _, op = unit_op(n)
        f = truncate(LogisticReaction(g=0.0, n=2.0, m=1.0, rho=3.0, n_nodes=n), 3.0)
        res = picard_solve(op, f, np.full(n, 0.5), tau=0.01)
        q = res.contraction_factor
        assert q < 1.0
        d = [x for x in res.distances if x > 1e-13]
        for a, b in zip(d, d[1:]):
            assert b <= q * a + 1e-13

    def test_matches_rk4_on_the_window(self):
        n = 24
        _, _, op = unit_op(n)
        f = truncate(LogisticReaction(g=0.1, n=1.0, m=1.0, rho=3.0, n_nodes=n), 3.0)
        tau = 0.01
        res = picard_solve(op, f, np.full(n, 0.5), tau=tau, n_sub=50)
        cfg = IntegratorConfig(scheme="rk4", dt=tau / 50, t_end=tau, store_every=50)
        tr = evolve_nonlinear(op, f, np.full(n, 0.5), cfg)
        np.testing.assert_allclose(res.states[-1], tr.final(), atol=1e-6)

    def test_rejects_large_tau(self):
        _, _, op = unit_op(16)
        f = truncate(LogisticReaction(g=0.0, n=2.0, m=1.0, rho=3.0, n_nodes=16), 3.0)
        with pytest.raises(ValueError, match="contraction"):
            picard_solve(op, f, np.full(16, 0.5), tau=5.0)

    def test_rejects_locally_lipschitz_reaction(self):
        _, _, op = unit_op(8)
        f = LogisticReaction(g=0.0, n=1.0, m=1.0, rho=3.0, n_nodes=8)
        with pytest.raises(ValueError):
            picard_solve(op, f, np.ones(8), tau=0.1)


class TestSupersolutionOde:
    def test_growing_closed_form(self):
        z = supersolution_ode(1.0, 1.0, 1.0, 2.0)
        for t in (0.0, 0.5, 1.7):
            assert z(t) == pytest.approx(2.0 * math.exp(t) - 1.0, rel=1e-14)
        assert z.level == pytest.approx(z(2.0))

    def test_linear_case(self):
        z = supersolution_ode(0.0, 2.0, 0.0, 3.0)
        assert z(1.5) == pytest.approx(3.0)
        assert z.level == pytest.approx(6.0)

    def test_decaying_case_keeps_initial_level(self):
        z = supersolution_ode(-1.0, 1.0, 5.0, 4.0)
        assert z(1.0) == pytest.approx(4.0 * math.exp(-1.0) + 1.0, rel=1e-14)
        assert z.level == pytest.approx(5.0)  # sup over [0, 4] sits at t = 0

    def test_trunc_level_is_the_three_old_formulas(self):
        # evolve, equilibria and verify each wrote out the rate and the padding
        rng = np.random.default_rng(14)
        guarded = decreasing = 0
        for trial in range(3000):
            if trial % 100 == 0:
                n = int(rng.integers(2, 9))
                # h = h0 = 1 leaves the rate at max c, so some bounds decrease
                h = np.ones(n) if trial % 200 else rng.uniform(-1.0, 1.0, size=n)
                _, _, op = unit_op(n, h=h)
            c, d = rng.uniform(-4.0, 2.0, size=n), rng.uniform(0.0, 2.0, size=n)
            m0, t_end = float(rng.uniform(0.0, 5.0)), float(rng.choice([0.25, 1.0, 2.0]))
            z = evolve._comparison_bound(op, c, d, m0, t_end)
            old = supersolution_ode(float(np.max(c)) + float(np.max(np.abs(op.h0 - op.h))),
                                    float(np.max(d)), m0, t_end)
            assert z == old
            old_evolve = old.level * (1.0 + 1e-9) + 1e-9
            old_equilibria = max(m0, old.level) * (1 + 1e-9) + 1e-9
            old_verify = old.level * (1 + 1e-9) + 1e-9
            assert z.trunc_level == old_equilibria
            if old.level >= m0:
                assert z.trunc_level == old_evolve == old_verify
            else:  # a decreasing bound whose z(0) rounded below m0
                guarded += 1
                assert 0 < z.trunc_level - old_evolve <= 4 * np.spacing(old_evolve)
            decreasing += old.c < 0
        assert guarded > 0 and decreasing > 200

    def test_derived_level_is_the_old_auto_structure_formula(self):
        rng = np.random.default_rng(15)
        for trial in range(40):
            n = 8
            _, _, op = unit_op(n, h=rng.uniform(-1.0, 1.0, size=n))
            m = float(rng.uniform(0.3, 1.0)) if trial % 2 else 0.0
            f = LogisticReaction(g=rng.uniform(-0.5, 0.5, size=n), n=float(rng.uniform(-1.0, 2.0)),
                                 m=m, rho=3.0, n_nodes=n)
            m0 = float(rng.uniform(0.0, 3.0))
            corr = float(np.max(np.abs(op.h0 - op.h)))
            if m > 0:
                a = max(0.0, float(np.max(f.ncoef))) + corr + 1.0
                sb = structure_bounds(f, "young_shift", a=a)
            else:
                sb = structure_bounds(f, "plain")
            level = supersolution_ode(float(np.max(sb.c)) + corr, float(np.max(sb.d)),
                                      m0, 1.0).level
            assert _prepare_monotone(op, f, m0, 1.0)[2] == max(level, m0) * (1.0 + 1e-9) + 1e-9


def random_bounds(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = 0.0 if rng.uniform() < 0.25 else float(rng.uniform(0.0, 6.0))
        yield supersolution_ode(c, float(rng.uniform(0.0, 3.0)), float(rng.uniform(1e-3, 3.0)),
                                float(rng.choice([0.25, 1.0, 2.0])))


class TestStagedTruncation:
    def test_stage_ends_increase_to_t_end_where_z_doubles(self):
        staged = 0
        for z in random_bounds(16, 400):
            ends = z.stage_ends()
            assert all(a < b for a, b in zip(ends, ends[1:]))
            assert ends[-1] == z.t_end
            for j, t in enumerate(ends[:-1], 1):
                assert z(t) == pytest.approx(2.0 ** j * z.m0, rel=1e-12)
            assert z(z.t_end) <= 2.0 ** len(ends) * z.m0 * (1 + 1e-12)
            staged += len(ends) > 1
        assert staged > 200

    def test_each_stage_truncates_at_the_bound_up_to_its_end(self):
        staged = 0
        for trial in range(30):
            rng = np.random.default_rng([16, trial])
            sys_ = sample_system(rng)
            op, f = sys_.op, sys_.reaction
            sb = structure_bounds(f, "plain")
            z = evolve._comparison_bound(op, sb.c, sb.d, float(rng.uniform(0.2, 1.0)), 1.0)
            z = supersolution_ode(max(z.c, 0.1), z.d, z.m0, z.t_end)
            stages = monotone_stages(op, f, z)
            ends = z.stage_ends()
            assert [start for start, _ in stages] == [0.0] + ends[:-1]
            for (start, cfg), end in zip(stages, ends):
                assert cfg.trunc_k == supersolution_ode(z.c, z.d, z.m0, end).trunc_level
                assert cfg.trunc_k >= z(end)
                assert cfg.scheme == "euler_op" and cfg.t_end == end - start
                cfg.check_monotone_dt(op.h, cfg.beta)
                _nsteps(cfg.dt, cfg.t_end)
            staged += len(stages) > 1
        assert staged >= 3

    @pytest.mark.parametrize("c, d, m0", [
        (1.0, 1.0, 0.0),     # z(0) = 0
        (0.5, 0.1, 1.0),     # z(1) ≈ 1.78 < 2·z(0)
        (0.0, 1.0, 1.0),     # z(1) = 2·z(0) exactly
        (-1.0, 0.5, 1.0),    # decaying
        (-0.1, 1.0, 0.1),    # c < 0 growing to z(1) ≈ 10·z(0): Euler would lead z
    ])
    def test_one_stage_is_the_single_level_configuration(self, c, d, m0):
        _, _, op = unit_op(16)
        f = LogisticReaction(g=0.2, n=1.0, m=0.5, rho=3.0, n_nodes=16)
        z = supersolution_ode(c, d, m0, 1.0)
        assert z.stage_ends() == [1.0]
        single = monotone_config(op, f, np.full(16, m0), 1.0, trunc_k=z.trunc_level)
        assert monotone_stages(op, f, z) == [(0.0, single)]

    def test_linear_bound_inverse_is_its_closed_form(self):
        z = supersolution_ode(0.0, 2.0, 0.5, 3.0)  # z(t) = 0.5 + 2t, z(3) = 13·z(0)
        assert z.stage_ends() == [(2.0 ** j - 1.0) * 0.5 / 2.0 for j in (1, 2, 3)] + [3.0]
        for v in np.linspace(0.5, 6.5, 13):
            assert z.time_at(v) == (v - 0.5) / 2.0


class TestEnvelope:
    def test_fixed_point_initial_datum(self):
        s, k, _ = unit_op(32)
        op_c = build_operator(k, np.full(32, 2.0))  # K - 2I, i.e. C = -2
        times = [0.0, 0.5, 1.0, 3.0]
        out = envelope_U(op_c, np.ones(32), np.ones(32), times)
        np.testing.assert_allclose(out, 1.0, atol=1e-10)

    def test_decay_to_phi_and_oracle(self):
        s, k, _ = unit_op(32)
        op_c = build_operator(k, np.full(32, 2.0))
        times = np.linspace(0, 4, 9)
        out = envelope_U(op_c, np.ones(32), np.full(32, 3.0), times)
        np.testing.assert_allclose(out[0], 3.0, atol=1e-12)
        assert np.max(np.abs(out[-1] - 1.0)) <= 2.0 * math.exp(-4.0) + 1e-9  # gap decays like e^{-t}
        # independent oracle: fine rk4 on U' = (K + C)U + D
        u = np.full(32, 3.0)
        dt = 1e-4
        dvec = np.ones(32)
        for step in range(int(round(0.5 / dt))):
            k1 = op_c.amat @ u + dvec
            k2 = op_c.amat @ (u + 0.5 * dt * k1) + dvec
            k3 = op_c.amat @ (u + 0.5 * dt * k2) + dvec
            k4 = op_c.amat @ (u + dt * k3) + dvec
            u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        np.testing.assert_allclose(out[1], u, atol=1e-6)

    def test_zero_datum_stays_nonnegative(self):
        s, k, _ = unit_op(32)
        op_c = build_operator(k, np.full(32, 2.0))
        out = envelope_U(op_c, np.ones(32), np.zeros(32), np.linspace(0, 5, 11))
        assert np.min(out) >= -1e-10
        np.testing.assert_allclose(out[-1], solve_phi(k, -2.0, np.ones(32)), atol=1e-2)

    def test_spectral_precondition_enforced(self):
        s, k, _ = unit_op(16)
        op_c = build_operator(k, np.zeros(16))  # K alone has positive bound
        with pytest.raises(ValueError, match="negative spectral bound"):
            envelope_U(op_c, np.ones(16), np.ones(16), [0.0, 1.0])


class TestLyapunov:
    def test_equilibrium_continuum_has_constant_energy(self):
        # with J≡1 on [0,1] and f(u) = -u every constant is an equilibrium,
        # so the energy must not distinguish them
        s, k, _ = unit_op(32)
        f = CallableReaction(lambda s_: -s_, lambda s_: -np.ones_like(s_),
                             n_nodes=32, kind="globally_lipschitz", lip=1.0)
        for c in (0.0, 0.7, 2.0):
            assert lyapunov_E(k, f, np.full(32, c)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_state_zero_energy(self):
        s, k, _ = unit_op(16)
        f = LogisticReaction(g=0.3, n=1.0, m=1.0, rho=3.0, n_nodes=16)
        assert lyapunov_E(k, f, np.zeros(16)) == pytest.approx(0.0, abs=1e-14)

    def test_descent_along_rk4_trajectories(self):
        s, k, op = unit_op(32)
        f = LogisticReaction(g=0.0, n=2.0, m=1.0, rho=3.0, n_nodes=32)
        for c0 in (0.1, 1.0, 5.0, 1.9):
            cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_end=6.0, store_every=5)
            tr = evolve_nonlinear(op, f, np.full(32, c0), cfg)
            energies = [lyapunov_E(k, f, u) for u in tr.states]
            assert max(np.diff(energies)) <= 1e-8

    def test_rejects_asymmetric_kernel(self):
        s = build_interval(0, 1, 4)
        jmat = np.triu(np.ones((4, 4)))
        k = assemble_kernel(s, "table", jmat=jmat)
        f = LogisticReaction(g=0.0, n=1.0, m=1.0, rho=2.0, n_nodes=4)
        for u in (np.ones(4), np.ones((3, 4))):
            with pytest.raises(ValueError, match="symmetric kernel"):
                lyapunov_E(k, f, u)

    @pytest.mark.parametrize("kind", ["logistic", "truncated", "callable"])
    def test_a_stack_of_states_gives_the_energy_of_each(self, kind):
        """One call on a (T, n) stack, one product, equals the per-state
        calls within 1e-14 relative; the Simpson primitive of a callable
        reaction refines each row on its own."""
        n = 48
        s = build_interval(0, 1, n)
        k = assemble_kernel(s, "gaussian", sigma=0.2)
        base = LogisticReaction(g=0.3, n=1.0, m=1.0, rho=3.0, n_nodes=n)
        f = {"logistic": base, "truncated": truncate(base, 1.5),
             "callable": CallableReaction(lambda s_: np.sin(s_) - s_ ** 3, n_nodes=n)}[kind]
        states = np.random.default_rng(5).uniform(-2.0, 2.0, size=(7, n))
        got = lyapunov_E(k, f, states)
        ref = np.array([lyapunov_E(k, f, u) for u in states])
        assert got.shape == (7,) and isinstance(lyapunov_E(k, f, states[0]), float)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
        with pytest.raises(ValueError, match="length mismatch"):
            lyapunov_E(k, f, np.ones((7, n + 1)))


class TestKaplan:
    def test_zero_trajectory_projects_to_zero(self):
        s, k, op = unit_op(16)
        cfg = IntegratorConfig(scheme="rk4", dt=1e-2, t_end=0.5)
        tr = evolve_nonlinear(op, zero_reaction(16), np.zeros(16), cfg)
        wit = kaplan_witness(k, np.zeros(16), 3.0, tr)
        np.testing.assert_allclose(wit.z, 0.0, atol=1e-15)

    def test_linear_flow_projection_grows_at_lambda(self):
        s, k, op = unit_op(16)
        cfg = IntegratorConfig(scheme="rk4", dt=1e-3, t_end=1.0, store_every=1000)
        tr = evolve_nonlinear(op, zero_reaction(16), np.ones(16), cfg)
        wit = kaplan_witness(k, np.zeros(16), 3.0, tr)
        assert wit.lam == pytest.approx(1.0, abs=1e-10)
        assert wit.z[-1] == pytest.approx(math.e * wit.z[0], abs=1e-6)

    def test_blowup_dominates_scalar_ode(self):
        s, k, op = unit_op(16)
        f = CallableReaction(lambda s_: s_ ** 3, lambda s_: 3 * s_ ** 2, n_nodes=16)
        cfg = IntegratorConfig(scheme="rk4", dt=1e-4, t_end=0.1)
        tr = evolve_nonlinear(op, f, np.full(16, 10.0), cfg)
        wit = kaplan_witness(k, np.zeros(16), 3.0, tr)
        assert wit.dominated
        assert wit.blowup_time_estimate == pytest.approx(math.log(1.01) / 2.0, rel=1e-12)


def test_bernoulli_blowup_time_cases():
    # a = 0: t* = z0^{1-ρ}/(ρ-1)
    assert bernoulli_blowup_time(0.0, 3.0, 10.0) == pytest.approx(0.005, rel=1e-12)
    # decaying linear part with small datum: no blow-up
    assert bernoulli_blowup_time(-10.0, 3.0, 0.5) is None
    # decaying linear part with large datum still explodes
    assert bernoulli_blowup_time(-1.0, 3.0, 10.0) is not None
