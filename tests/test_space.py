import numpy as np
import pytest

from nonlocalrd.space import (
    MeasureSpace,
    build_graph,
    build_interval,
    is_r_connected,
    merge_spaces,
)


def test_midpoint_interval_nodes_and_weights():
    s = build_interval(0.0, 1.0, 4)
    np.testing.assert_allclose(s.x, [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(s.weights, 0.25)
    assert s.total_measure == pytest.approx(1.0, abs=1e-15)


def test_single_node_interval():
    s = build_interval(0.0, 1.0, 1)
    assert s.n == 1
    assert s.x[0] == pytest.approx(0.5)
    assert s.weights[0] == pytest.approx(1.0)


def test_trapezoid_half_weight_endpoints():
    s = build_interval(0.0, 2.0, 8, rule="trapezoid")
    assert s.n == 9
    np.testing.assert_allclose(s.weights[[0, -1]], 0.125)
    np.testing.assert_allclose(s.weights[1:-1], 0.25)
    assert s.total_measure == pytest.approx(2.0, abs=1e-15)


def test_weights_sum_to_length_at_rounding():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.uniform(-5, 5)
        b = a + rng.uniform(0.1, 10)
        n = int(rng.integers(1, 400))
        s = build_interval(a, b, n)
        assert abs(s.total_measure - (b - a)) <= 1e-14 * n * max(1.0, b - a)


def test_interval_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_interval(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        build_interval(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        build_interval(0.0, 1.0, 4, rule="simpson")


def test_graph_path_distances():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 1.0, 1.0])
    assert g.dist[0, 2] == pytest.approx(2.0)
    two = build_graph(2, [(0, 1, 1.0)], [0.5, 0.5])
    assert two.dist[0, 1] == pytest.approx(1.0)
    assert two.total_measure == pytest.approx(1.0)


def test_graph_disconnected_sentinel_is_finite_and_large():
    g = build_graph(2, [], [0.5, 0.5])
    assert np.isfinite(g.dist[0, 1])
    assert g.dist[0, 1] >= 1e3


def test_graph_duplicate_edges_keep_minimum():
    g = build_graph(2, [(0, 1, 3.0), (1, 0, 1.0)], [1.0, 1.0])
    assert g.dist[0, 1] == pytest.approx(1.0)


def test_graph_rejects_self_loops_and_bad_measures():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 0, 1.0)], [1.0, 1.0])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, 1.0)], [1.0, 0.0])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, -1.0)], [1.0, 1.0])


def test_union_keeps_honest_gap():
    u = merge_spaces(build_interval(0, 0.4, 4), build_interval(0.6, 1.0, 4))
    assert u.n == 8
    # last node of the left part to first node of the right part
    assert u.dist[3, 4] == pytest.approx(0.3)
    assert u.total_measure == pytest.approx(0.8)


def test_r_connected_interval():
    s = build_interval(0, 1, 8)  # spacing 0.125
    cert = is_r_connected(s, 0.2)
    assert cert.connected
    assert cert.witness_chain is not None
    d = s.dist
    hops = [d[i, j] for i, j in zip(cert.witness_chain, cert.witness_chain[1:])]
    assert all(h < 0.2 for h in hops)
    assert cert.witness_chain[0] != cert.witness_chain[-1]


def test_r_connected_union_gap_disconnects():
    u = merge_spaces(build_interval(0, 0.4, 4), build_interval(0.6, 1.0, 4))
    cert = is_r_connected(u, 0.15)
    assert not cert.connected
    assert cert.witness_chain is None


def test_r_connected_rejects_nonpositive_radius():
    s = build_interval(0, 1, 4)
    with pytest.raises(ValueError):
        is_r_connected(s, 0.0)


def test_mu0_matches_brute_force_ball_measures():
    s = build_interval(0, 1, 16)
    r = 0.21
    cert = is_r_connected(s, r)
    balls = [sum(s.weights[j] for j in range(s.n) if s.dist[i, j] < r)
             for i in range(s.n)]
    assert cert.mu0 == pytest.approx(min(balls), abs=1e-15)
    assert all(cert.mu0 <= b + 1e-15 for b in balls)


def test_connectivity_monotone_in_radius():
    rng = np.random.default_rng(11)
    for _ in range(20):
        parts = [build_interval(0, 0.4, int(rng.integers(2, 8))),
                 build_interval(rng.uniform(0.45, 0.9), 1.2, int(rng.integers(2, 8)))]
        space = merge_spaces(*parts)
        r = rng.uniform(0.05, 0.6)
        if is_r_connected(space, r).connected:
            for factor in (1.5, 3.0, 10.0):
                assert is_r_connected(space, r * factor).connected


def _path_metric(n):
    x = np.arange(float(n))
    return np.abs(x[:, None] - x[None, :])


def test_nan_distance_rejected():
    d = _path_metric(4)
    d[1, 2] = d[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        MeasureSpace(points=None, weights=np.ones(4), dist=d, kind="graph")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weight_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        MeasureSpace(points=None, weights=[1.0, bad, 1.0], dist=_path_metric(3),
                     kind="graph")


def test_asymmetry_beyond_tolerance_rejected():
    d = _path_metric(4)
    d[0, 3] += 2e-12
    with pytest.raises(ValueError, match="symmetric"):
        MeasureSpace(points=None, weights=np.ones(4), dist=d, kind="graph")


def test_asymmetry_within_tolerance_accepted():
    d = _path_metric(4)
    d[0, 3] += 5e-13
    s = MeasureSpace(points=None, weights=np.ones(4), dist=d, kind="graph")
    assert s.dist[0, 3] - s.dist[3, 0] == pytest.approx(5e-13, rel=1e-2)
