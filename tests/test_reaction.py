import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocalrd.reaction import (
    CallableReaction,
    Reaction,
    LogisticReaction,
    PotentialAbsorbedReaction,
    ShiftedReaction,
    TruncatedReaction,
    absorb_potential,
    add_bump,
    check_sign_condition,
    f_over_s_decreasing,
    growth_hypotheses_check,
    monotone_shift,
    structure_bounds,
    truncate,
    young_constant,
    _block_reduce,
    _log_grid,
)


def cube(n_nodes=3):
    return CallableReaction(lambda s: s ** 3, lambda s: 3 * s ** 2, n_nodes=n_nodes)


class TestTruncate:
    def test_window_values(self):
        fk = truncate(cube(), 2.0)
        assert fk.at(0, 1.0) == pytest.approx(1.0)
        assert fk.at(0, 3.0) == pytest.approx(8.0)
        assert fk.at(0, -5.0) == pytest.approx(-8.0)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            truncate(cube(), 0.0)

    def test_agrees_inside_window_at_many_samples(self):
        f = LogisticReaction(g=0.3, n=1.0, m=0.7, rho=2.5, n_nodes=4)
        fk = truncate(f, 3.0)
        svals = np.linspace(-3, 3, 1024)
        smat = np.broadcast_to(svals, (4, 1024))
        np.testing.assert_array_equal(fk.eval_grid(smat), f.eval_grid(smat))

    def test_global_lipschitz_with_window_constant(self):
        f = cube()
        fk = truncate(f, 2.0)
        lip = fk.lip_on(1e6)
        assert lip == pytest.approx(12.0, rel=1e-2)  # sup of 3s² on [-2, 2]
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(-50, 50, size=2)
            assert abs(fk.at(0, a) - fk.at(0, b)) <= lip * abs(a - b) + 1e-12

    @given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_clamp_construction(self, k, s):
        fk = truncate(cube(1), k)
        clamped = min(max(s, -k), k)
        assert fk.at(0, s) == pytest.approx(clamped ** 3, rel=1e-12, abs=1e-12)


class TestLogistic:
    def test_pointwise_formula(self):
        f = LogisticReaction(g=0.5, n=2.0, m=1.0, rho=3.0, n_nodes=2)
        assert f.at(0, 2.0) == pytest.approx(0.5 + 4.0 - 8.0)
        assert f.at(0, -2.0) == pytest.approx(0.5 - 4.0 + 8.0)

    def test_rejects_negative_damping_and_small_rho(self):
        with pytest.raises(ValueError):
            LogisticReaction(g=0.0, n=1.0, m=-0.1, rho=3.0, n_nodes=2)
        with pytest.raises(ValueError):
            LogisticReaction(g=0.0, n=1.0, m=1.0, rho=1.0, n_nodes=2)

    def test_primitive_matches_simpson_fallback(self):
        f = LogisticReaction(g=0.2, n=1.5, m=0.8, rho=2.7, n_nodes=3)
        generic = CallableReaction(
            lambda s: 0.2 + 1.5 * s - 0.8 * np.abs(s) ** 1.7 * s, n_nodes=3)
        u = np.array([1.3, -2.1, 0.4])
        np.testing.assert_allclose(f.primitive(u), generic.primitive(u), atol=1e-9)

    def test_wrappers_stay_logistic(self):
        f = LogisticReaction(g=0.0, n=2.0, m=1.0, rho=3.0, n_nodes=4)
        bumped = add_bump(f, np.full(4, 0.3))
        absorbed = absorb_potential(f, np.full(4, 0.5))
        assert isinstance(bumped, LogisticReaction)
        assert isinstance(absorbed, LogisticReaction)
        assert bumped.at(1, 1.0) == pytest.approx(f.at(1, 1.0) + 0.3)
        assert absorbed.at(1, 2.0) == pytest.approx(f.at(1, 2.0) - 1.0)

    def test_lip_on_dominates_sampled_derivative(self):
        f = LogisticReaction(g=0.1, n=1.2, m=0.9, rho=3.0, n_nodes=5)
        for k in (0.5, 2.0, 10.0):
            svals = np.linspace(-k, k, 512)
            sampled = float(np.max(np.abs(f.eval_ds_grid(np.broadcast_to(svals, (5, 512))))))
            assert f.lip_on(k) >= sampled - 1e-12


N_APPLY = 9
K_APPLY = 1.5


def _apply_cases():
    """Every Reaction subclass, alone and nested, at ρ ∈ {2, 2.5, 3}."""
    rng = np.random.default_rng(11)
    cases = []
    for rho in (2.0, 2.5, 3.0):
        logi = LogisticReaction(g=rng.uniform(-1, 1, N_APPLY), n=rng.uniform(-1, 2, N_APPLY),
                                m=rng.uniform(0, 2, N_APPLY), rho=rho)
        bump = rng.uniform(0, 1, N_APPLY)
        h = rng.uniform(-1, 1, N_APPLY)
        cases += [
            (f"logistic-{rho}", logi),
            (f"truncated-{rho}", TruncatedReaction(logi, K_APPLY)),
            (f"shifted-{rho}", ShiftedReaction(logi, bump)),
            (f"absorbed-{rho}", PotentialAbsorbedReaction(logi, h)),
            (f"nested-{rho}", TruncatedReaction(
                ShiftedReaction(PotentialAbsorbedReaction(logi, h), bump), K_APPLY)),
        ]
    cub = cube(N_APPLY)
    cases += [("callable", cub), ("truncated-callable", TruncatedReaction(cub, K_APPLY)),
              ("absorbed-callable", PotentialAbsorbedReaction(cub, 0.5))]
    return cases


def _apply_inputs():
    rng = np.random.default_rng(12)
    k = K_APPLY
    return [
        rng.standard_normal(N_APPLY) * 2.0,
        np.array([k, -k, np.nextafter(k, 0), np.nextafter(-k, 0), 2 * k, -2 * k,
                  1e300, -1e300, 0.0]),
        np.array([-0.0, 0.0, k, -k, 3.0, -3.0, 1e-310, -1e-310, 0.5]),
        np.array([np.nan, np.inf, -np.inf, k, -k, 0.0, 1.0, -1.0, 2.0]),
    ]


@pytest.mark.parametrize("name, f", _apply_cases(), ids=[c[0] for c in _apply_cases()])
def test_apply_is_bitwise_the_grid_column(name, f):
    with np.errstate(all="ignore"):
        for u in _apply_inputs():
            fast = f.apply(u)
            grid = f.eval_grid(u[:, None])[:, 0]
            assert fast.shape == (N_APPLY,)
            assert fast.tobytes() == grid.tobytes(), (name, u)
            assert f.apply(list(u)).tobytes() == grid.tobytes()
            ds = f.apply_ds(u)
            assert ds.shape == (N_APPLY,)
            assert ds.tobytes() == f.eval_ds_grid(u[:, None])[:, 0].tobytes(), (name, u)


def _batch_cases():
    """_apply_cases plus every wrapper around a CallableReaction, alone and
    nested, for an x-independent and an x-dependent callable (the generic
    Reaction.apply has to hand eval_grid each node's values along axis 0)."""
    rng = np.random.default_rng(13)
    coef = rng.uniform(-1, 1, (N_APPLY, 1))
    bump, h = rng.uniform(0, 1, N_APPLY), rng.uniform(-1, 1, N_APPLY)
    cases = _apply_cases()
    for label, fun in (("cube", cube(N_APPLY)),
                       ("x-dependent", CallableReaction(lambda s: coef * s - s ** 3,
                                                        n_nodes=N_APPLY))):
        cases += [
            (f"{label}", fun),
            (f"truncated-{label}", TruncatedReaction(fun, K_APPLY)),
            (f"shifted-{label}", ShiftedReaction(fun, bump)),
            (f"absorbed-{label}", PotentialAbsorbedReaction(fun, h)),
            (f"nested-{label}", TruncatedReaction(
                ShiftedReaction(PotentialAbsorbedReaction(fun, h), bump), K_APPLY)),
        ]
    return cases


@pytest.mark.parametrize("name, f", _batch_cases(), ids=[c[0] for c in _batch_cases()])
@pytest.mark.parametrize("k", [1, 3, N_APPLY])  # k = n: the square batch
def test_batch_apply_is_bitwise_the_rows(name, f, k):
    pool = np.stack(_apply_inputs())
    mixed = np.random.default_rng(k).permutation(np.resize(pool, k * N_APPLY))
    with np.errstate(all="ignore"):
        for batch in (pool[np.arange(k) % len(pool)], mixed.reshape(k, N_APPLY)):
            out = f.apply(batch)
            assert out.shape == (k, N_APPLY)
            for j in range(k):
                assert out[j].tobytes() == f.apply(batch[j]).tobytes(), (name, batch[j])


@pytest.mark.parametrize("name, f", _batch_cases(), ids=[c[0] for c in _batch_cases()])
@pytest.mark.parametrize("k", [1, 3, N_APPLY])
def test_batch_apply_ds_is_bitwise_the_rows(name, f, k):
    batch = np.stack(_apply_inputs())[np.arange(k) % len(_apply_inputs())]
    with np.errstate(all="ignore"):
        out = f.apply_ds(batch)
        assert out.shape == (k, N_APPLY)
        for j in range(k):
            assert out[j].tobytes() == f.apply_ds(batch[j]).tobytes(), (name, batch[j])


@pytest.mark.parametrize("dfun", [lambda s: np.array([[1.0], [2.0], [3.0]]) + 0 * s, None],
                         ids=["analytic", "finite-difference"])
def test_batch_apply_ds_per_node(dfun):
    c = np.array([[1.0], [2.0], [3.0]])
    f = CallableReaction(lambda s: c * s, dfun, n_nodes=3)
    np.testing.assert_allclose(f.apply_ds(np.ones((2, 3))), [[1, 2, 3], [1, 2, 3]], rtol=1e-9)
    np.testing.assert_allclose(f.apply_ds(np.ones(3)), [1, 2, 3], rtol=1e-9)


def _grid_f(f, s):
    """f on an (n, k) grid, written per class with [:, None] coefficients
    and without apply: the reference the grid-sampled quantities are pinned to."""
    if isinstance(f, LogisticReaction):
        return f.g[:, None] + f.ncoef[:, None] * s - f.m[:, None] * np.abs(s) ** (f.rho - 1) * s
    if isinstance(f, TruncatedReaction):
        return _grid_f(f.base, np.clip(s, -f.k, f.k))
    if isinstance(f, ShiftedReaction):
        return _grid_f(f.base, s) + f.bump[:, None]
    if isinstance(f, PotentialAbsorbedReaction):
        return _grid_f(f.base, s) - f.h[:, None] * s
    return f.fun(s)


def _grid_ds(f, s):
    """∂f/∂s on an (n, k) grid, the twin of _grid_f."""
    if isinstance(f, LogisticReaction):
        return f.ncoef[:, None] - f.rho * f.m[:, None] * np.abs(s) ** (f.rho - 1)
    if isinstance(f, TruncatedReaction):
        return np.where(np.abs(s) <= f.k, _grid_ds(f.base, np.clip(s, -f.k, f.k)), 0.0)
    if isinstance(f, ShiftedReaction):
        return _grid_ds(f.base, s)
    if isinstance(f, PotentialAbsorbedReaction):
        return _grid_ds(f.base, s) - f.h[:, None]
    if f.dfun is not None:
        return f.dfun(s)
    step = 1e-6 * (1.0 + np.abs(s))
    return (f.fun(s + step) - f.fun(s - step)) / (2 * step)


def _rows(svals, n):
    return np.broadcast_to(np.asarray(svals, dtype=float), (n, len(svals)))


@pytest.mark.parametrize("name, f", _batch_cases(), ids=[c[0] for c in _batch_cases()])
def test_grid_forms_are_the_reference_grid_formulas(name, f):
    smat = np.stack(_apply_inputs(), axis=1)  # (n, 4), special values included
    with np.errstate(all="ignore"):
        for grid in (smat, _rows(_log_grid(1e-6, 1e6), N_APPLY)):
            assert f.eval_grid(grid).tobytes() == _grid_f(f, grid).tobytes(), name
            assert f.eval_ds_grid(grid).tobytes() == _grid_ds(f, grid).tobytes(), name


@pytest.mark.parametrize("name, f", _batch_cases(), ids=[c[0] for c in _batch_cases()])
def test_sampled_quantities_are_bitwise_their_grid_definitions(name, f):
    """monotone_shift, the sampled lip_on and the plain structure bounds
    equal their definitions on (n, k) grids of the reference formulas."""
    n = f.n_nodes
    for k in (0.7, 3.0):
        lin = np.linspace(-k, k, 512)
        logp = np.logspace(-8, np.log10(k), 128)
        svals = np.unique(np.concatenate([lin, logp, -logp]))
        dmin = float(np.min(_grid_ds(f, _rows(svals, n))))
        assert monotone_shift(f, k) == max(0.0, -dmin) + 1.0, name
        lip = float(np.max(np.abs(_grid_ds(f, _rows(np.linspace(-k, k, 512), n)))))
        assert Reaction.lip_on(f, k) == lip, name

    if isinstance(f, TruncatedReaction):
        smat = _rows(np.linspace(-f.k, f.k, 512), n)
        c = np.maximum(np.max(_grid_ds(f, smat), axis=1), 0.0)
        d = np.max(np.abs(_grid_f(f, smat)), axis=1)
    else:
        c = np.max(_grid_ds(f, _rows(_log_grid(1e-6, 1e6), n)), axis=1)
        d = np.abs(_grid_f(f, np.zeros((n, 1)))[:, 0])
    smat = _rows(_log_grid(1e-6, 1e6), n)
    rhs = c[:, None] * smat * smat + d[:, None] * np.abs(smat)
    holds = np.max(_grid_f(f, smat) * smat - rhs) <= 1e-9 * (1.0 + np.max(np.abs(rhs)))
    if not holds:
        with pytest.raises(ValueError, match="structure inequality"):
            structure_bounds(f, "plain")
        return
    sb = structure_bounds(f, "plain")
    if not isinstance(f, LogisticReaction):
        assert sb.c.tobytes() == c.tobytes() and sb.d.tobytes() == d.tobytes(), name


def test_sign_condition_takes_per_node_constants():
    f = LogisticReaction(g=[0.0, 0.5], n=[1.0, -1.0], m=0.0, rho=2.0)
    grid = _log_grid(1e-3, 1e3)
    assert check_sign_condition(f, [1.0, -1.0], [0.0, 0.5], grid)
    assert not check_sign_condition(f, [1.0, -1.0], [0.0, 0.49], grid)
    assert not check_sign_condition(f, -1.0, 0.5, grid)  # a scalar serves every node
    assert check_sign_condition(f, 1.0, 0.5, grid)
    with pytest.raises(ValueError, match="nonnegative"):
        check_sign_condition(f, 1.0, [0.5, -0.1], grid)


class TestStructureBounds:
    def test_plain_logistic(self):
        f = LogisticReaction(g=0.0, n=2.0, m=1.0, rho=3.0, n_nodes=4)
        sb = structure_bounds(f, "plain")
        np.testing.assert_allclose(sb.c, 2.0)
        np.testing.assert_allclose(sb.d, 0.0)

    def test_plain_globally_lipschitz(self):
        g0 = 0.4

        def fun(s):
            return 0.7 * np.tanh(s) + g0

        f = CallableReaction(fun, n_nodes=3, kind="globally_lipschitz", lip=0.7)
        sb = structure_bounds(f, "plain")
        np.testing.assert_allclose(sb.c, 0.7)
        np.testing.assert_allclose(sb.d, g0)

    def test_young_shift_worked_example(self):
        # 3|s| <= 0.5|s|³ + C_eps·3^{3/2} for all s, C_eps from the grid fit below
        f = LogisticReaction(g=0.0, n=2.0, m=1.0, rho=3.0, n_nodes=4)
        sb = structure_bounds(f, "young_shift", a=3.0)
        np.testing.assert_allclose(sb.c, -1.0)
        ce = young_constant(0.5, 3.0)
        np.testing.assert_allclose(sb.d, ce * 3.0 ** 1.5)
        svals = np.linspace(0, 50, 20001)
        grid_max = np.max(3.0 * svals - 0.5 * svals ** 3)
        assert ce * 3.0 ** 1.5 == pytest.approx(grid_max, rel=1e-6)

    def test_partitioned_bounds(self):
        mask = np.array([False, False, True, True])
        f = LogisticReaction(g=0.1, n=2.0, m=np.array([0.0, 0.0, 1.0, 1.0]),
                             rho=3.0, n_nodes=4)
        sb = structure_bounds(f, "partitioned", a=3.0, mask=mask)
        np.testing.assert_allclose(sb.c, [2.0, 2.0, -1.0, -1.0])
        assert sb.d[0] == pytest.approx(0.1)
        assert sb.d[2] > 0.1

    def test_non_finite_derivative_is_rejected(self):
        # exp: the finite difference at s = 1e6 is inf - inf, so c is NaN and must not pass
        f = CallableReaction(lambda s: np.exp(s), n_nodes=2)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="structure inequality"):
            structure_bounds(f, "plain")

    def test_young_shift_preconditions(self):
        f = LogisticReaction(g=0.0, n=2.0, m=0.0, rho=3.0, n_nodes=2)
        with pytest.raises(ValueError):
            structure_bounds(f, "young_shift", a=3.0)
        with pytest.raises(ValueError):
            structure_bounds(cube(), "young_shift", a=3.0)

    def test_outputs_pass_their_own_sign_condition(self):
        rng = np.random.default_rng(4)
        grid = _log_grid(1e-6, 1e6)
        for _ in range(10):
            f = LogisticReaction(g=float(rng.uniform(-1, 1)),
                                 n=float(rng.uniform(-1, 2)),
                                 m=float(rng.uniform(0.2, 1.5)),
                                 rho=float(rng.choice([2.0, 3.0])), n_nodes=3)
            for sb in (structure_bounds(f, "plain"),
                       structure_bounds(f, "young_shift", a=float(rng.uniform(0.5, 4)))):
                assert check_sign_condition(f, float(np.max(sb.c)),
                                            float(np.max(sb.d)), grid)


class TestSignCondition:
    def test_dissipative_cube(self):
        f = CallableReaction(lambda s: -s ** 3, n_nodes=2)
        assert check_sign_condition(f, 0.0, 0.0, np.linspace(-10, 10, 101))

    def test_superlinear_growth_detected(self):
        assert not check_sign_condition(cube(), 5.0, 5.0, _log_grid(1e-6, 1e6))

    def test_logistic_first_bound(self):
        f = LogisticReaction(g=0.0, n=2.0, m=1.0, rho=3.0, n_nodes=2)
        assert check_sign_condition(f, 2.0, 0.0, _log_grid(1e-6, 1e4))

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            check_sign_condition(cube(), 0.0, -1.0, np.linspace(-1, 1, 11))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 48), st.sampled_from([1, 2, 3, None]),
           st.booleans(), st.booleans(), st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_distinct_columns_give_the_full_grid_answer(self, seed, n, pieces, c_vec, d_vec,
                                                        offset):
        # coefficients constant on `pieces` runs of nodes, or drawn per node
        # (None); c, d are the plain logistic constants n, |g| moved by up to
        # ±offset, so both answers occur, some within the check's 1e-9
        rng = np.random.default_rng(seed)
        levels = n if pieces is None else pieces
        cut = np.sort(rng.integers(0, levels, n))
        g, nc, m = (rng.uniform(lo, hi, levels)[cut] for lo, hi in ((-2, 2), (-2, 2), (0, 2)))
        m[rng.uniform(size=n) < 0.2] = 0.0  # undamped nodes: c below n fails at large |s|
        f = LogisticReaction(g, nc, m, rho=float(rng.choice([1.5, 2.0, 3.0, 4.5])))
        c = nc + offset * rng.uniform(-1.0, 1.0, n)
        d = np.abs(g) + offset * rng.uniform(-1.0, 1.0, n)
        d = np.maximum(d, 0.0)
        if not c_vec:
            c = float(np.max(c))
        if not d_vec:
            d = float(np.max(d))
        grid = _log_grid(1e-6, 1e6)
        assert check_sign_condition(f, c, d, grid) == _full_grid_sign_condition(f, c, d, grid)

    def test_constant_coefficients_check_one_column(self, monkeypatch):
        f = LogisticReaction(g=0.2, n=1.0, m=1.0, rho=3.0, n_nodes=512)
        widths = []
        apply = LogisticReaction.apply

        def spy(self, u):
            widths.append(np.shape(u)[-1])
            return apply(self, u)

        monkeypatch.setattr(LogisticReaction, "apply", spy)
        assert check_sign_condition(f, 1.0, [0.2] * 512, _log_grid(1e-6, 1e6))
        assert widths == [1]
        widths.clear()
        assert check_sign_condition(f, np.r_[np.ones(256), np.full(256, 2.0)], 0.2,
                                    _log_grid(1e-6, 1e6))
        assert widths == [2]


def _full_grid_sign_condition(f, c, d, s_grid):
    """check_sign_condition as it was before it checked distinct columns:
    every node of the (G, n) grid."""
    c, d = np.asarray(c, dtype=float), np.asarray(d, dtype=float)

    def extremes(s):
        rhs = c * s * s + d * np.abs(s)
        return np.max(f.apply(s) * s - rhs), np.max(np.abs(rhs))

    top, scale = np.max(_block_reduce(np.asarray(s_grid, dtype=float), f.n_nodes, extremes),
                        axis=0)
    return bool(top <= 1e-9 * (1.0 + scale))


class TestRatioMonotonicity:
    def test_logistic_is_strictly_decreasing(self):
        f = LogisticReaction(g=0.0, n=2.0, m=1.0, rho=3.0, n_nodes=4)
        assert f_over_s_decreasing(f, np.linspace(0.1, 5, 64))

    def test_linear_is_not(self):
        f = CallableReaction(lambda s: 1.0 * s, n_nodes=2)
        assert not f_over_s_decreasing(f, np.linspace(0.1, 5, 64))

    def test_vanishing_damping_breaks_strictness(self):
        f = LogisticReaction(g=0.0, n=2.0, m=np.array([1.0, 1.0, 0.0, 0.0]),
                             rho=3.0, n_nodes=4)
        assert not f_over_s_decreasing(f, np.linspace(0.1, 5, 64))

    def test_rejects_bad_grid(self):
        f = LogisticReaction(g=0.0, n=1.0, m=1.0, rho=2.0, n_nodes=2)
        with pytest.raises(ValueError):
            f_over_s_decreasing(f, np.linspace(-1, 1, 8))


class TestGrowthCheck:
    def test_logistic_beta_and_constant(self):
        f = LogisticReaction(g=0.0, n=2.0, m=1.0, rho=3.0, n_nodes=3)
        rep = growth_hypotheses_check(f, 3.0, np.linspace(-30, 30, 601))
        np.testing.assert_allclose(rep.beta, 2.0, atol=1e-12)
        assert rep.growth_constant == pytest.approx(3.0, abs=1e-2)
        assert not rep.violation

    def test_exponential_is_flagged(self):
        f = CallableReaction(lambda s: np.exp(s), n_nodes=2)
        rep = growth_hypotheses_check(f, 3.0, np.linspace(-30, 30, 601))
        assert rep.violation

    def test_cubic_bistable_beta(self):
        f = CallableReaction(lambda s: s - s ** 3, lambda s: 1 - 3 * s ** 2, n_nodes=2)
        rep = growth_hypotheses_check(f, 3.0, np.linspace(-30, 30, 601))
        np.testing.assert_allclose(rep.beta, 1.0, atol=1e-12)
        assert not rep.violation


def test_monotone_shift_makes_f_plus_beta_increasing():
    f = LogisticReaction(g=0.0, n=2.0, m=1.0, rho=3.0, n_nodes=3)
    k = 2.5
    beta = monotone_shift(f, k)
    svals = np.linspace(-k, k, 700)
    vals = f.eval_grid(np.broadcast_to(svals, (3, 700))) + beta * svals
    assert np.all(np.diff(vals, axis=1) > 0)


@pytest.mark.parametrize("dfun, k, dmin", [
    # exp: the finite difference at s = 1e3 is inf - inf, a NaN sample
    (None, 1e3, "nan"),
    # -60|s|^59 overflows to -inf at the ends of the window
    (lambda s: -60.0 * np.abs(s) ** 59, 1e6, "-inf"),
])
def test_monotone_shift_rejects_a_non_finite_derivative(dfun, k, dmin):
    f = CallableReaction(lambda s: np.exp(s), dfun, n_nodes=2)
    with np.errstate(all="ignore"), pytest.raises(ValueError) as exc:
        monotone_shift(f, k)
    assert f"[-{k:g}, {k:g}]" in str(exc.value) and dmin in str(exc.value)


def test_young_constant_is_the_grid_maximizer():
    for eps, rho, a in [(0.5, 3.0, 3.0), (0.2, 2.0, 1.7), (1.0, 2.5, 5.0)]:
        rho_p = rho / (rho - 1.0)
        svals = np.linspace(0, 200, 400001)
        grid_max = float(np.max(a * svals - eps * svals ** rho))
        assert young_constant(eps, rho) * a ** rho_p == pytest.approx(grid_max, rel=1e-5)


def test_bump_must_be_nonnegative():
    f = LogisticReaction(g=0.0, n=1.0, m=1.0, rho=2.0, n_nodes=2)
    with pytest.raises(ValueError):
        add_bump(f, np.array([0.1, -0.2]))


# --- the closed-form infimum of ∂f/∂s behind monotone_shift ------------------


def _sampled_shift(f, k):
    """monotone_shift's grid definition: the least ∂f/∂s on 512 linear and
    2·128 log-spaced points of [-k, k], padded by 1."""
    lin = np.linspace(-k, k, 512)
    logp = np.logspace(-8, np.log10(max(k, 1e-8)), 128)
    svals = np.unique(np.concatenate([lin, logp, -logp]))
    dmin = float(np.min(f.apply_ds(np.broadcast_to(svals[:, None], (svals.size, f.n_nodes)))))
    return max(0.0, -dmin) + 1.0


def test_closed_form_shift_is_bitwise_the_sampled_one():
    """On 3,000 random truncated logistic systems, bare and under the
    wrappers that delegate ds_inf, β from apply_ds at ±k equals the
    sampled β, since ∂f/∂s = n - ρm|s|^{ρ-1} is monotone in |s| in floating
    point too and the grid holds ±k."""
    rng = np.random.default_rng(2024)
    for trial in range(3000):
        n = int(rng.integers(1, 7))
        base = LogisticReaction(g=rng.uniform(-1, 1, n), n=rng.uniform(-2, 3, n),
                                m=rng.uniform(0, 2, n) * (rng.random(n) > 0.1),
                                rho=float(rng.choice([2.0, 2.5, 3.0])))
        wrap = trial % 3
        if wrap == 1:
            base = ShiftedReaction(base, rng.uniform(0, 1, n))
        elif wrap == 2:
            base = PotentialAbsorbedReaction(base, rng.uniform(-1, 1, n))
        k = float(10.0 ** rng.uniform(-2, 2))
        f = truncate(base, k)
        assert f.ds_inf(k) is not None
        assert monotone_shift(f, k) == _sampled_shift(f, k), trial
        # inside the window the grid's log-spaced end 10**log10(k/2) may pass
        # k/2 by an ulp, and past the window it reads the frozen tail's 0
        inner = monotone_shift(f, 0.5 * k)
        assert abs(inner - _sampled_shift(f, 0.5 * k)) <= 1e-14 * inner, trial


def test_shift_without_a_closed_form_is_sampled():
    """A callable reaction, and a truncated one asked past its window,
    have no ds_inf and keep the grid."""
    f = cube(4)
    assert f.ds_inf(2.0) is None and monotone_shift(f, 2.0) == _sampled_shift(f, 2.0)
    g = truncate(LogisticReaction(g=0.1, n=1.0, m=1.0, rho=3.0, n_nodes=4), 2.0)
    assert g.ds_inf(2.0) is not None and g.ds_inf(3.0) is None
    assert monotone_shift(g, 3.0) == _sampled_shift(g, 3.0)


def test_sampled_shift_stays_in_the_window():
    """The log-spaced end 10**log10(k) passes k by an ulp at this k; the
    samples are clamped to [-k, k], so a derivative falling with |s| gives
    β = -f'(k) + 1 bit for bit."""
    k = 63.73247256341329
    assert np.logspace(-8, np.log10(k), 128)[-1] > k
    seen = []
    dfun = lambda s: -3.0 * s ** 2
    f = CallableReaction(lambda s: -s ** 3, lambda s: seen.append(s.copy()) or dfun(s),
                         n_nodes=2)
    assert f.ds_inf(k) is None
    assert monotone_shift(f, k) == max(0.0, -dfun(k)) + 1.0
    assert seen and all(np.max(np.abs(s)) <= k for s in seen)


def test_closed_form_shift_raises_on_overflow():
    f = truncate(LogisticReaction(g=0.0, n=1.0, m=1.0, rho=3.0, n_nodes=2), 1e200)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="derivative minimum"):
        monotone_shift(f, 1e200)
