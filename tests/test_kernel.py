import tracemalloc

import numpy as np
import pytest

from nonlocalrd.kernel import Kernel, apply_K, assemble_kernel, build_operator, compute_h0
from nonlocalrd.space import build_interval


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


def _transient_bytes(build):
    """Peak traced memory of build() above what its result keeps."""
    tracemalloc.start()
    try:
        result = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


@pytest.mark.parametrize("stage", ["space", "kernel", "operator"])
def test_setup_makes_no_matrix_sized_temporary(stage):
    n = 512
    space = build_interval(0, 1, n)
    kernel = assemble_kernel(space, "tophat", R=0.1, J0=2.0)
    build = {"space": lambda: build_interval(0, 1, n),
             "kernel": lambda: assemble_kernel(space, "tophat", R=0.1, J0=2.0),
             "operator": lambda: build_operator(kernel, np.linspace(0.0, 1.0, n))}[stage]
    assert _transient_bytes(build) <= 0.5 * 8 * n * n


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
