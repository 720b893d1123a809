import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nonlocalrd.kernel as kmod
from nonlocalrd.equilibria import _certifies, _newton, solve_phi
from nonlocalrd.evolve import IntegratorConfig, make_stepper
from nonlocalrd.kernel import (
    Kernel,
    NonlocalOperator,
    apply_K,
    assemble_kernel,
    build_operator,
    compute_h0,
)
from nonlocalrd.reaction import (
    GRID_BLOCK,
    CallableReaction,
    LogisticReaction,
    Reaction,
    check_sign_condition,
    monotone_shift,
    structure_bounds,
    truncate,
)
from nonlocalrd.space import MeasureSpace, build_graph, build_interval, is_r_connected, merge_spaces
from nonlocalrd.spectral import principal_value, restrict_operator


def brute_force_K(kernel, u):
    """Independent double-loop quadrature sum."""
    n = kernel.space.n
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += kernel.jmat[i, j] * kernel.space.weights[j] * u[j]
        out[i] = acc
    return out


def test_constant_kernel_matrix():
    s = build_interval(0, 1, 4)
    k = assemble_kernel(s, "constant", c=1.0)
    assert np.all(k.jmat == 1.0)
    assert k.symmetric


def test_tophat_kernel_support():
    s = build_interval(0, 1, 4)
    k = assemble_kernel(s, "tophat", R=0.3, J0=2.0)
    expected = np.where(np.abs(s.x[:, None] - s.x[None, :]) < 0.3, 2.0, 0.0)
    np.testing.assert_array_equal(k.jmat, expected)
    assert k.positivity_cert is not None


def test_table_kernel_rejects_negative_entry():
    s = build_interval(0, 1, 3)
    bad = np.ones((3, 3))
    bad[1, 2] = -0.5
    with pytest.raises(ValueError, match=r"\(1,2\)"):
        assemble_kernel(s, "table", jmat=bad)


def test_non_finite_kernel_entries_rejected():
    s = build_interval(0, 1, 4)
    with pytest.raises(ValueError, match="kernel entry .* not finite"):
        assemble_kernel(s, "gaussian", sigma=float("nan"))
    jmat = np.ones((4, 4))
    jmat[2, 1] = np.inf
    with pytest.raises(ValueError, match=r"kernel entry \(2,1\) is inf"):
        Kernel(space=s, jmat=jmat)


def test_table_kernel_reports_non_finite_before_negative():
    s = build_interval(0, 1, 3)
    jmat = np.ones((3, 3))
    jmat[0, 1] = np.nan
    jmat[2, 2] = -1.0
    with pytest.raises(ValueError, match=r"kernel entry \(0,1\) is nan, not finite"):
        assemble_kernel(s, "table", jmat=jmat)
    jmat[0, 1] = 1.0
    with pytest.raises(ValueError, match=r"kernel entry \(2,2\) is negative"):
        assemble_kernel(s, "table", jmat=jmat)


def _reference_entry_error(j):
    """Frozen copy of the entry checks Kernel made with full-matrix masks."""
    if not np.all(np.isfinite(j)):
        i, k = np.argwhere(~np.isfinite(j))[0]
        return f"kernel entry ({i},{k}) is {j[i, k]}, not finite"
    if np.any(j < 0):
        i, k = np.argwhere(j < 0)[0]
        return f"kernel entry ({i},{k}) is negative"
    return None


def _bad_tables(n):
    rng = np.random.default_rng(n)
    table = np.ones((3, 3))
    table[0, 1], table[2, 2] = np.nan, -1.0
    yield table
    for _ in range(12):
        jmat = rng.uniform(0.0, 1.0, size=(n, n))
        # two to four bad entries at random places, so the first one counts
        for _ in range(rng.integers(2, 5)):
            jmat[tuple(rng.integers(0, n, size=2))] = rng.choice(
                [np.nan, np.inf, -np.inf, -1e-300, -2.0])
        yield jmat
    last = np.ones((n, n))
    last[-1, -1] = -np.inf
    yield last


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("n", [3, 130])
def test_kernel_names_the_entry_the_old_checks_named(n):
    for jmat in _bad_tables(n):
        m = jmat.shape[0]
        expected = _reference_entry_error(jmat)
        assert expected is not None
        with pytest.raises(ValueError) as err:
            Kernel(space=build_interval(0, 1, m), jmat=jmat)
        assert str(err.value) == expected


def test_symmetry_is_derived_not_passed():
    s = build_interval(0, 1, 4)
    with pytest.raises(TypeError):
        Kernel(space=s, jmat=np.ones((4, 4)), symmetric=False)
    assert Kernel(space=s, jmat=np.ones((4, 4))).symmetric
    assert not assemble_kernel(s, "table", jmat=np.triu(np.ones((4, 4)))).symmetric


def test_symmetry_tolerance_scales_with_the_largest_entry():
    s = build_interval(0, 1, 4)
    jmat = np.full((4, 4), 1e3)
    jmat[0, 0] = 0.0
    jmat[1, 2] += 1e-10  # 1e-13 of the largest entry
    assert Kernel(space=s, jmat=jmat).symmetric
    jmat[1, 2] += 1e-8
    assert not Kernel(space=s, jmat=jmat).symmetric


def test_apply_K_constant_data():
    s = build_interval(0, 1, 16)
    k = assemble_kernel(s, "constant", c=1.0)
    np.testing.assert_allclose(apply_K(k, np.full(16, 3.7)), 3.7, atol=1e-14)


def test_apply_K_indicator_of_left_half():
    s = build_interval(0, 1, 16)
    k = assemble_kernel(s, "constant", c=1.0)
    u = (s.x < 0.5).astype(float)
    np.testing.assert_allclose(apply_K(k, u), 0.5, atol=1e-14)


def test_apply_K_matches_brute_force_quadrature():
    s = build_interval(0, 1, 40)
    k = assemble_kernel(s, "gaussian", sigma=0.3, scale=1.2)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(40)
    np.testing.assert_allclose(apply_K(k, u), brute_force_K(k, u), atol=1e-13)


def test_apply_K_rejects_wrong_length():
    s = build_interval(0, 1, 4)
    k = assemble_kernel(s, "constant", c=1.0)
    with pytest.raises(ValueError):
        apply_K(k, np.ones(5))


def test_h0_constant_kernel_unit_interval():
    s = build_interval(0, 1, 32)
    np.testing.assert_allclose(compute_h0(assemble_kernel(s, "constant", c=1.0)),
                               1.0, atol=1e-14)


def test_h0_constant_kernel_length_two():
    s = build_interval(0, 2, 32)
    np.testing.assert_allclose(compute_h0(assemble_kernel(s, "constant", c=1.0)),
                               2.0, atol=1e-13)


def test_h0_tophat_matches_exact_integral_to_quadrature_error():
    n = 200
    s = build_interval(0, 1, n)
    k = assemble_kernel(s, "tophat", R=0.25, J0=1.0)
    exact = np.minimum(s.x + 0.25, 1.0) - np.maximum(s.x - 0.25, 0.0)
    # midpoint sum of an indicator: at most two boundary cells of error
    assert np.max(np.abs(compute_h0(k) - exact)) <= 2.5 / n


def test_operator_two_node_example():
    s = build_interval(0, 1, 2)
    op = build_operator(assemble_kernel(s, "constant", c=1.0), np.ones(2))
    np.testing.assert_allclose(op.amat, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-15)


def test_operator_matrix_bitwise_equal_to_the_dense_expression():
    rng = np.random.default_rng(4)
    s = build_interval(0, 1, 129)
    table = rng.uniform(0.0, 1.0, size=(129, 129))
    table[rng.uniform(size=table.shape) < 0.2] = -0.0
    kernels = (assemble_kernel(s, "tophat", R=0.3, J0=2.0),
               assemble_kernel(s, "gaussian", sigma=0.2),
               assemble_kernel(s, "table", jmat=table))
    h = rng.standard_normal(129)
    h[:10] = 0.0
    h[10:20] = -0.0
    for k in kernels:
        expected = k.jmat * s.weights[None, :] - np.diag(h)
        assert build_operator(k, h).amat.tobytes() == expected.tobytes()


def _transient_bytes(build, count_result=False):
    """Peak traced memory of build() above what its result keeps; with
    count_result, the whole peak, what the result keeps included."""
    tracemalloc.start()
    try:
        result = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak if count_result else peak - current


@pytest.mark.parametrize("stage", ["space", "union", "kernel", "gaussian", "operator"])
def test_setup_makes_no_matrix_sized_temporary(stage):
    n = 512
    space = build_interval(0, 1, n)
    kernel = assemble_kernel(space, "tophat", R=0.1, J0=2.0)
    parts = build_interval(0, 1, n // 2), build_interval(1.5, 2.5, n // 2)
    build = {"space": lambda: build_interval(0, 1, n),
             "union": lambda: merge_spaces(*parts),
             "kernel": lambda: assemble_kernel(space, "tophat", R=0.1, J0=2.0),
             "gaussian": lambda: assemble_kernel(space, "gaussian", sigma=0.2, scale=1.5),
             "operator": lambda: build_operator(kernel, np.linspace(0.0, 1.0, n))}[stage]
    assert _transient_bytes(build) <= 0.5 * 8 * n * n


def test_euler_op_stepper_makes_no_matrix_sized_array():
    """The order-preserving step reads jmat in place: preparing it keeps and
    passes through no n×n array (one is 8 MiB here)."""
    n = 1024
    space = build_interval(0, 1, n)
    op = build_operator(assemble_kernel(space, "tophat", R=0.1, J0=2.0), np.linspace(0, 1, n))
    f = LogisticReaction(g=0.0, n=1.0, m=1.0, rho=3.0, n_nodes=n)
    cfg = IntegratorConfig(scheme="euler_op", dt=1e-3, t_end=0.1, beta=30.0, trunc_k=3.0)
    u0 = np.ones(n)
    assert _transient_bytes(lambda: make_stepper(op, f, u0, cfg), count_result=True) \
        <= 0.125 * 8 * n * n


@pytest.mark.parametrize("quantity", ["monotone_shift", "lip_on", "young_shift",
                                      "plain_truncated", "plain_callable", "long_sign_grid"])
def test_sampled_grids_reduce_in_row_blocks(quantity):
    """A sampled (G, n) grid is evaluated in row blocks of GRID_BLOCK entries,
    so the peak is bounded by a few blocks whatever the row count G: 293
    (the sign grid) to 4096 rows here, 2.3 to 32 MiB per whole-grid array."""
    n = 1024
    f = LogisticReaction(g=0.1, n=1.0, m=1.0, rho=3.0, n_nodes=n)
    cubic = CallableReaction(lambda s: s - s ** 3, lambda s: 1.0 - 3.0 * s ** 2, n_nodes=n)
    run = {"monotone_shift": lambda: monotone_shift(f, 3.0),
           "lip_on": lambda: Reaction.lip_on(f, 3.0),
           "young_shift": lambda: structure_bounds(f, "young_shift", a=2.0),
           "plain_truncated": lambda: structure_bounds(truncate(f, 3.0), "plain"),
           "plain_callable": lambda: structure_bounds(cubic, "plain"),
           "long_sign_grid": lambda: check_sign_condition(f, 1.0, 0.1,
                                                          np.linspace(-10, 10, 4096))}[quantity]
    assert _transient_bytes(run) <= 8 * 8 * GRID_BLOCK


def test_gaussian_law_bitwise_equal_to_the_dense_expression():
    spaces = (build_interval(0, 1, 1), build_interval(-1.0, 2.0, 257, "trapezoid"),
              merge_spaces(build_interval(0, 1, 40), build_interval(1.3, 2.0, 9)))
    for space in spaces:
        for sigma, scale in ((0.2, 1.0), (1e-3, 2.5), (7.0, 1e-300), (0.05, 1e300)):
            jmat = assemble_kernel(space, "gaussian", sigma=sigma, scale=scale).jmat
            expected = scale * np.exp(-0.5 * (space.dist / sigma) ** 2)
            assert jmat.tobytes() == expected.tobytes()


def test_operator_zero_kernel_is_minus_diag_h():
    s = build_interval(0, 1, 5)
    h = np.linspace(1, 2, 5)
    op = build_operator(assemble_kernel(s, "constant", c=0.0), h)
    np.testing.assert_allclose(op.amat, -np.diag(h), atol=1e-15)


def test_operator_row_sums_vanish_at_threshold_potential():
    s = build_interval(0, 1, 20)
    k = assemble_kernel(s, "gaussian", sigma=0.2)
    op = build_operator(k, compute_h0(k))
    np.testing.assert_allclose(op.amat @ np.ones(20), 0.0, atol=1e-13)


def test_positivity_certificate_validated_entrywise():
    from nonlocalrd.kernel import Kernel

    s = build_interval(0, 1, 6)
    jmat = np.where(s.dist < 0.4, 1.0, 0.0)
    Kernel(space=s, jmat=jmat, positivity_cert=(0.4, 0.5))  # valid
    with pytest.raises(ValueError, match="certificate"):
        Kernel(space=s, jmat=jmat, positivity_cert=(0.4, 1.0))  # not strict
    with pytest.raises(ValueError, match="certificate"):
        Kernel(space=s, jmat=jmat, positivity_cert=(0.9, 0.5))  # radius too big


def test_operator_rejects_bad_potentials():
    s = build_interval(0, 1, 4)
    k = assemble_kernel(s, "constant", c=1.0)
    with pytest.raises(ValueError):
        build_operator(k, np.ones(3))
    with pytest.raises(ValueError):
        build_operator(k, np.array([1.0, np.inf, 0.0, 0.0]))


def test_apply_K_linearity_and_positivity():
    s = build_interval(0, 1.5, 30)
    k = assemble_kernel(s, "tophat", R=0.4, J0=1.3)
    rng = np.random.default_rng(9)
    for _ in range(5):
        u, v = rng.standard_normal((2, 30))
        a, b = rng.uniform(-2, 2, size=2)
        np.testing.assert_allclose(apply_K(k, a * u + b * v),
                                   a * apply_K(k, u) + b * apply_K(k, v), atol=1e-12)
    assert np.all(apply_K(k, np.abs(rng.standard_normal(30))) >= 0.0)


def test_row_sum_identity_and_weighted_symmetry():
    s = build_interval(0, 1, 24)
    k = assemble_kernel(s, "gaussian", sigma=0.35, scale=0.8)
    rng = np.random.default_rng(2)
    h = rng.uniform(0.0, 2.0, size=24)
    op = build_operator(k, h)
    np.testing.assert_allclose(op.amat @ np.ones(24), compute_h0(k) - h, atol=1e-12)
    # symmetric kernels are self-adjoint in the weighted inner product
    u, v = rng.standard_normal((2, 24))
    w = s.weights
    lhs = np.sum(w * apply_K(k, u) * v)
    rhs = np.sum(w * u * apply_K(k, v))
    assert abs(lhs - rhs) <= 1e-10


# --- kernel laws and the positivity check in row blocks ----------------------


def _block_rows(n):
    return max(1, GRID_BLOCK // n)


@pytest.mark.parametrize("n", [300, 1000])
def test_kernel_laws_in_row_blocks_bitwise_equal_to_the_whole_matrix(n):
    assert n % _block_rows(n) != 0  # the last row block is partial
    spaces = (build_interval(0, 1, n),
              merge_spaces(build_interval(0, 1, n // 2), build_interval(1.3, 2.0, n - n // 2)),
              build_graph(n, [(i, i + 1, 1.0 / n) for i in range(n - 1)], np.ones(n)))
    for space in spaces:
        d = space.dist
        tophat = assemble_kernel(space, "tophat", R=0.3, J0=2.0).jmat
        assert tophat.tobytes() == np.where(d < 0.3, 2.0, 0.0).tobytes()
        for sigma, scale in ((0.2, 1.0), (1e-3, 2.5), (0.05, 1e300)):
            gauss = assemble_kernel(space, "gaussian", sigma=sigma, scale=scale).jmat
            assert gauss.tobytes() == (scale * np.exp(-0.5 * (d / sigma) ** 2)).tobytes()
        const = assemble_kernel(space, "constant", c=0.7).jmat
        assert const.tobytes() == np.full((n, n), 0.7).tobytes()


def test_positivity_certificate_rejects_a_failure_in_the_last_partial_block():
    n = 1000
    rows = _block_rows(n)
    s = build_interval(0, 1, n)
    jmat = assemble_kernel(s, "tophat", R=0.05, J0=1.0).jmat
    Kernel(space=s, jmat=jmat, positivity_cert=(0.05, 0.5))
    assert n - 1 >= n - n % rows  # row n - 1 lies in the last, partial block
    jmat[n - 1, n - 2] = 0.5  # within R, and not above J0 = 0.5
    with pytest.raises(ValueError, match="certificate fails entrywise"):
        Kernel(space=s, jmat=jmat, positivity_cert=(0.05, 0.5))


# --- the operator stores jmat, w and h; amat is assembled on demand ---------


def _sampled_kernel(kind, n, rng):
    if kind == "graph":
        edges = [(int(i), int(j), float(rng.uniform(0.5, 1.5)))
                 for i, j in rng.integers(0, n, size=(n, 2)) if i != j]
        space = build_graph(n, edges, rng.uniform(0.5, 1.5, size=n) / n)
        return assemble_kernel(space, "tophat", R=float(rng.uniform(1.0, 3.0)), J0=1.5)
    if kind == "union":
        space = merge_spaces(build_interval(0, 1, max(1, n // 2)),
                             build_interval(1.5, 2.5, max(1, n - n // 2)))
        return assemble_kernel(space, "gaussian", sigma=float(rng.uniform(0.05, 0.8)))
    space = build_interval(0, 1, n, str(rng.choice(["midpoint", "trapezoid"])))
    if kind == "table":
        table = rng.uniform(0.0, 2.0, size=(space.n, space.n))
        table[rng.uniform(size=table.shape) < 0.3] = 0.0
        return assemble_kernel(space, "table", jmat=table)
    return assemble_kernel(space, "tophat", R=float(rng.uniform(0.05, 0.6)), J0=2.0)


OPERATOR_CASES = dict(kind=st.sampled_from(["interval", "union", "graph", "table"]),
                      n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(**OPERATOR_CASES)
def test_amat_is_a_fresh_bitwise_assembly_on_each_read(kind, n, seed):
    rng = np.random.default_rng(seed)
    kernel = _sampled_kernel(kind, n, rng)
    h = rng.standard_normal(kernel.space.n)
    op = build_operator(kernel, h)
    jmat = kernel.jmat.copy()
    expected = kernel.jmat * kernel.space.weights[None, :] - np.diag(h)
    first = op.amat
    assert first.tobytes() == expected.tobytes()
    first[...] = np.nan
    assert op.amat.tobytes() == expected.tobytes()
    assert op.kernel.jmat.tobytes() == jmat.tobytes() and op.h.tobytes() == h.tobytes()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 5), **OPERATOR_CASES)
def test_apply_matches_the_assembled_matrix(kind, n, seed, k):
    rng = np.random.default_rng(seed)
    kernel = _sampled_kernel(kind, n, rng)
    n = kernel.space.n
    op = build_operator(kernel, rng.standard_normal(n))
    wj = np.abs(kernel.jmat) * kernel.space.weights
    tol = 4 * n * np.finfo(float).eps
    v = rng.standard_normal(n)
    scale = wj @ np.abs(v) + np.abs(op.h * v)
    assert op.apply(v).shape == (n,)
    assert np.all(np.abs(op.apply(v) - op.amat @ v) <= tol * scale)
    batch = rng.standard_normal((k, n))
    scale = (wj @ np.abs(batch).T).T + np.abs(op.h * batch)
    assert op.apply(batch).shape == (k, n)
    assert np.all(np.abs(op.apply(batch) - (op.amat @ batch.T).T) <= tol * scale)


def test_build_operator_rejects_an_inconsistent_h0(monkeypatch):
    kernel = assemble_kernel(build_interval(0, 1, 50), "tophat", R=0.3, J0=1.0)
    build_operator(kernel, 1.0)
    real = kmod.compute_h0
    monkeypatch.setattr(kmod, "compute_h0", lambda k: real(k) * (1.0 + 1e-8))
    with pytest.raises(AssertionError, match="inconsistent"):
        build_operator(kernel, 1.0)


def test_one_matrix_per_operator():
    """Space, tophat kernel and operator together hold one n×n array, jmat
    (8 n² bytes); an euler_op stepper adds none, and an rk4 stepper one, its
    amat, which it drops with the run."""
    def setup(n):
        space = build_interval(0, 1, n)
        return build_operator(assemble_kernel(space, "tophat", R=0.1, J0=2.0), np.linspace(0, 1, n))

    n = 512
    mat = 8 * n * n
    f = LogisticReaction(g=0.0, n=1.0, m=1.0, rho=3.0, n_nodes=n)
    setup(64)  # imports what the set-up imports lazily (numpy.random), untraced
    tracemalloc.start()
    try:
        op = setup(n)
        assert tracemalloc.get_traced_memory()[1] <= 1.5 * mat
        for cfg, bound in ((IntegratorConfig(scheme="euler_op", dt=1e-3, t_end=0.1, beta=30.0,
                                             trunc_k=3.0), 0.5 * mat),
                           (IntegratorConfig(scheme="rk4", dt=1e-3, t_end=0.1), 1.1 * mat)):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            stepper = make_stepper(op, f, np.ones(n), cfg)
            assert tracemalloc.get_traced_memory()[1] - base <= bound
            del stepper
    finally:
        tracemalloc.stop()


# --- consumers read an on-demand matrix at most once per call ----------------


@pytest.fixture
def matrix_reads(monkeypatch):
    """Counts of reads of NonlocalOperator.amat and MeasureSpace.dist."""
    counts = {}
    for cls, name in ((NonlocalOperator, "amat"), (MeasureSpace, "dist")):
        def counted(self, _get=getattr(cls, name).fget, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _get(self)
        monkeypatch.setattr(cls, name, property(counted))
    return counts


def _consumer_cases():
    n = 40
    space = build_interval(0, 1, n)
    kernel = assemble_kernel(space, "tophat", R=0.3, J0=2.0)
    op = build_operator(kernel, 1.0 + 0.5 * np.sin(2 * np.pi * space.x))
    f = LogisticReaction(g=0.2, n=1.0, m=1.0, rho=3.0, n_nodes=n)
    guess = 1.0 + 0.1 * np.random.default_rng(8).standard_normal(n)
    e, lu = _newton(op, f, guess)
    graph = build_graph(n, [(i, i + 1, 0.1) for i in range(n - 1)], np.ones(n))
    graph_op = build_operator(assemble_kernel(graph, "tophat", R=0.25, J0=1.0), 1.0)
    return {  # each call with the reads it makes
        "_newton": (lambda: _newton(op, f, guess), {"amat": 1}),
        "_certifies": (lambda: _certifies(op, f, e, lu, e + 1e-3, e + 1.0, -1, 1e-12),
                       {"amat": 1}),
        "solve_phi": (lambda: solve_phi(kernel, -5.0, 1.0), {"amat": 1}),
        "principal_value_dense": (lambda: principal_value(op, method="dense"), {"amat": 1}),
        "is_r_connected": (lambda: is_r_connected(space, 0.2), {"dist": 1}),
        "restrict_operator": (lambda: restrict_operator(op, space.x < 0.5), {}),
        "restrict_graph_operator": (lambda: restrict_operator(graph_op, np.arange(n) % 2 == 0),
                                    {}),
    }


@pytest.mark.parametrize("consumer", list(_consumer_cases()))
def test_consumers_read_an_on_demand_matrix_at_most_once(consumer, matrix_reads):
    """A read inside a loop would assemble n² entries per pass."""
    call, reads = _consumer_cases()[consumer]
    matrix_reads.clear()
    call()
    assert matrix_reads == reads


def test_newton_takes_several_steps_on_one_matrix_read(monkeypatch, matrix_reads):
    import scipy.linalg

    cases = _consumer_cases()
    factored = []
    real = scipy.linalg.lu_factor
    monkeypatch.setattr(scipy.linalg, "lu_factor", lambda a, **kw: factored.append(1) or real(a, **kw))
    matrix_reads.clear()
    cases["_newton"][0]()
    assert len(factored) >= 2 and matrix_reads == {"amat": 1}
