import numpy as np
import pytest

from nonlocalrd.reaction import GRID_BLOCK
from nonlocalrd.space import (
    MeasureSpace,
    _max_asymmetry,
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


@pytest.mark.parametrize("edge", [(0, 1.5, 1.0), (0.0, 1, 1.0), ("0", 1, 1.0), (0, None, 1.0),
                                  (0, 1, np.nan), (0, 1, np.inf), (0, 1, 0.0), (0, 1, "x")])
def test_graph_rejects_non_integer_endpoints_and_bad_lengths(edge):
    with pytest.raises((TypeError, ValueError)):
        build_graph(3, [(1, 2, 1.0), edge], np.ones(3))


def test_graph_accepts_numpy_integer_endpoints():
    g = build_graph(3, [(np.int64(0), np.int32(1), 1.0), (1, 2, np.float32(2.0))], np.ones(3))
    assert g.dist[0, 2] == 3.0


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
    d[0, 3] += 4e-12  # the tolerance is 1e-12·max|d| = 3e-12
    with pytest.raises(ValueError, match="symmetric"):
        MeasureSpace(points=None, weights=np.ones(4), dist=d, kind="graph")


def test_asymmetry_within_tolerance_accepted():
    d = _path_metric(4)
    d[0, 3] += 5e-13
    s = MeasureSpace(points=None, weights=np.ones(4), dist=d, kind="graph")
    assert s.dist[0, 3] - s.dist[3, 0] == pytest.approx(5e-13, rel=1e-2)


def _ring_dijkstra(vertices, lengths):
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    ring = np.arange(vertices)
    graph = csr_array((lengths, (ring, (ring + 1) % vertices)), shape=(vertices, vertices))
    return dijkstra(graph, directed=False)


def test_long_computed_metric_within_relative_tolerance_accepted():
    # Dijkstra's distances on a ring with lengths near 1e4 are asymmetric by
    # far more than 1e-12 but by far less than 1e-12·max|d|
    d = _ring_dijkstra(64, np.random.default_rng(0).uniform(0.9e4, 1.1e4, size=64))
    assert 1e-12 < _max_asymmetry(d) <= 1e-12 * np.max(d)
    s = MeasureSpace(points=None, weights=np.ones(64), dist=d, kind="graph")
    assert np.array_equal(s.dist, s.dist.T)
    assert np.array_equal(s.dist, np.minimum(d, d.T))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_relative_tolerance_still_rejects_non_finite_distances(bad):
    d = _ring_dijkstra(8, np.full(8, 1e4))
    d[0, 3] = bad  # an inf scale must not excuse an inf asymmetry
    with pytest.raises(ValueError, match="symmetric with finite distances"):
        MeasureSpace(points=None, weights=np.ones(8), dist=d, kind="graph")


def _dense_asymmetry(a):
    """The dense expression _max_asymmetry replaces."""
    return np.max(np.abs(a - a.T))


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
def test_max_asymmetry_equals_the_dense_expression(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    sym = a + a.T
    nearly = sym + 1e-13 * rng.standard_normal((n, n))
    for m in (a, sym, nearly, np.abs(sym)):
        assert _max_asymmetry(m) == _dense_asymmetry(m)


# the first tile, the last (partial at n = 300, tile 128) and an off-diagonal one
_BAD_SPOTS = [(0, 1), (299, 270), (5, 200)]


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
@pytest.mark.parametrize("spot", _BAD_SPOTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("both_ways", [False, True])
def test_max_asymmetry_keeps_non_finite_entries(spot, bad, both_ways):
    d = _path_metric(300)
    i, j = spot
    d[i, j] = bad
    if both_ways:
        d[j, i] = bad
    dense = _dense_asymmetry(d)
    assert not np.isfinite(dense)
    np.testing.assert_array_equal(_max_asymmetry(d), dense)
    with pytest.raises(ValueError, match="symmetric with finite distances"):
        MeasureSpace(points=None, weights=np.ones(300), dist=d, kind="graph")


def _euclidean(pts):
    """The distance expression merge_spaces evaluated before it summed the
    squares one coordinate at a time."""
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_union_distances_bitwise_equal_to_the_broadcast_sum(dim):
    rng = np.random.default_rng(dim)
    for sizes in ((1, 1), (3, 5, 2), (40, 90)):
        clouds = [rng.uniform(-3.0, 3.0, (m, dim)) * 10.0 ** rng.integers(-3, 4) for m in sizes]
        u = merge_spaces(*[MeasureSpace(points=p, weights=np.ones(len(p)), dist=_euclidean(p),
                                        kind="cloud") for p in clouds])
        assert u.dist.tobytes() == _euclidean(u.points).tobytes()


def test_interval_distances_bitwise_equal_to_the_outer_difference():
    for a, b, n, rule in ((0.0, 1.0, 1, "midpoint"), (-1.3, 2.7, 257, "midpoint"),
                          (-2.0, 2.0, 300, "trapezoid")):
        s = build_interval(a, b, n, rule)
        xs = s.x
        assert s.dist.tobytes() == np.abs(xs[:, None] - xs[None, :]).tobytes()


# --- the metric of a space with points, computed on demand ------------------
# Intervals and unions store no matrix; their distances come from the points
# in row blocks.  The references are the matrices build_interval and
# merge_spaces stored before, computed the same way.


def _stored_interval_dist(xs):
    dist = np.subtract.outer(xs, xs)
    return np.abs(dist, out=dist)


def _stored_union_dist(pts):
    dist = np.subtract.outer(pts[:, 0], pts[:, 0])
    np.square(dist, out=dist)
    for col in pts.T[1:]:
        diff = np.subtract.outer(col, col)
        dist += np.square(diff, out=diff)
    return np.sqrt(dist, out=dist)


def _blocks(space):
    """The row blocks stacked; each is copied, since the blocks share a buffer."""
    return np.concatenate([d.copy() for _, d in space.row_blocks()])


def _check_on_demand(space, ref):
    assert space.dist.tobytes() == ref.tobytes()
    assert space.dist is not space.dist  # a fresh array on each read
    assert _blocks(space).tobytes() == ref.tobytes()
    assert space.diameter() == (float(np.max(ref)) if space.n > 1 else 0.0)
    idx = np.flatnonzero(np.arange(space.n) % 3 != 1)
    sub = space.restrict(idx)
    assert sub.points is not None and sub.kind == "restriction"
    assert sub.dist.tobytes() == ref[np.ix_(idx, idx)].tobytes()


@pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
@pytest.mark.parametrize("n", [1, 2, 25, 300, 1000])
def test_interval_metric_on_demand_bitwise_equal_to_the_stored_matrix(rule, n):
    if n >= 300:  # several row blocks, the last one partial
        assert 1 < GRID_BLOCK // n < n and n % (GRID_BLOCK // n) != 0
    s = build_interval(-1.3, 2.7, n, rule)
    _check_on_demand(s, _stored_interval_dist(s.x))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("sizes", [(1, 1), (3, 5, 2), (40, 90), (150, 170)])
def test_union_metric_on_demand_bitwise_equal_to_the_stored_matrix(dim, sizes):
    rng = np.random.default_rng([dim, len(sizes)])
    clouds = [rng.uniform(-3.0, 3.0, (m, dim)) * 10.0 ** rng.integers(-3, 4) for m in sizes]
    u = merge_spaces(*[MeasureSpace(points=p, weights=np.ones(len(p)), dist=None, kind="cloud")
                       for p in clouds])
    _check_on_demand(u, _stored_union_dist(u.points))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_metric_from_points_is_exactly_symmetric_with_zero_diagonal(dim):
    rng = np.random.default_rng(dim)
    for scale in (1e-6, 1.0, 1e6):
        pts = rng.standard_normal((200, dim)) * scale
        d = MeasureSpace(points=pts, weights=np.ones(200), dist=None, kind="cloud").dist
        assert np.array_equal(d, d.T)
        assert np.all(np.diagonal(d) == 0.0)


def test_graph_keeps_its_stored_matrix():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)], np.ones(4))
    assert g.dist is g.dist
    assert _blocks(g).tobytes() == g.dist.tobytes()
    assert g.restrict(np.array([0, 2, 3])).dist.tobytes() == g.dist[np.ix_([0, 2, 3], [0, 2, 3])].tobytes()


def test_given_matrix_with_points_is_stored_and_checked():
    xs = np.linspace(0.0, 1.0, 30)
    d = np.abs(xs[:, None] - xs[None, :]) * 2.0  # not the euclidean metric of xs
    s = MeasureSpace(points=xs[:, None], weights=np.ones(30), dist=d, kind="scaled")
    assert s.dist is d
    assert s.restrict(np.arange(5)).dist.tobytes() == d[:5, :5].tobytes()
    d[0, 1] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        MeasureSpace(points=xs[:, None], weights=np.ones(30), dist=d, kind="scaled")


@pytest.mark.parametrize("points, message", [
    (None, "needs a distance matrix"),
    (np.zeros((3, 1)), "node count"),
    (np.array([[0.0], [np.nan], [1.0], [2.0]]), "points must be finite"),
    pytest.param(np.array([[-1e308], [0.0], [1e308], [2.0]]), "finite distances",
                 marks=pytest.mark.filterwarnings("ignore:overflow encountered")),
])
def test_space_without_matrix_rejects_bad_points(points, message):
    with pytest.raises(ValueError, match=message):
        MeasureSpace(points=points, weights=np.ones(4), dist=None, kind="cloud")


# --- graph queries against frozen copies of the hand-written routines ------
# The references below are the Floyd-Warshall loop, the BFS and the BFS path
# search that build_graph and is_r_connected used before they called
# scipy.sparse.csgraph.  The searches must match them exactly; Dijkstra sums
# a path in another order than Floyd-Warshall, so distances match to rounding.


def _reference_graph_dist(vertices, edges):
    d = np.full((vertices, vertices), np.inf)
    np.fill_diagonal(d, 0.0)
    for (i, j, length) in edges:
        d[i, j] = min(d[i, j], length)
        d[j, i] = min(d[j, i], length)
    for k in range(vertices):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    finite = d[np.isfinite(d)]
    diam = float(np.max(finite)) if finite.size else 0.0
    d[~np.isfinite(d)] = 1e3 * max(diam, 1.0)
    return d


def _reference_bfs_path(adj, start, goal):
    n = adj.shape[0]
    parent = np.full(n, -1)
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier and not seen[goal]:
        nxt = []
        for i in frontier:
            for j in np.nonzero(adj[i] & ~seen)[0]:
                seen[j] = True
                parent[j] = i
                nxt.append(j)
        frontier = nxt
    path = [goal]
    while path[-1] != start:
        path.append(int(parent[path[-1]]))
    return path[::-1]


def _reference_r_connected(space, r):
    n = space.n
    adj = space.dist < r
    mu0 = float(np.min(adj @ space.weights))
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.nonzero(adj[i] & ~seen)[0]:
                seen[j] = True
                nxt.append(j)
        frontier = nxt
    if not np.all(seen):
        return False, None, mu0
    i0, j0 = np.unravel_index(np.argmax(space.dist), space.dist.shape)
    return True, _reference_bfs_path(adj, int(i0), int(j0)), mu0


def _random_edges(rng, vertices):
    """Random edges with duplicates, reversed copies and, often, several
    components; lengths are drawn so that many paths tie up to rounding."""
    m = int(rng.integers(0, 3 * vertices + 1))
    edges = []
    for _ in range(m):
        i, j = (int(v) for v in rng.choice(vertices, size=2, replace=False))
        length = float(rng.choice([0.1, 0.2, 0.3, 1.0, rng.uniform(0.01, 2.0)]))
        edges.append((i, j, length))
        if rng.random() < 0.2:
            edges.append((j, i, length * rng.uniform(0.5, 1.5)))
    return edges


def _random_space(rng):
    kind = rng.integers(3)
    if kind == 0:
        rule = "midpoint" if rng.random() < 0.5 else "trapezoid"
        a = rng.uniform(-2, 2)
        return build_interval(a, a + rng.uniform(0.1, 3), int(rng.integers(1, 40)), rule)
    if kind == 1:
        parts, a = [], 0.0
        for _ in range(int(rng.integers(2, 4))):
            b = a + rng.uniform(0.1, 1.0)
            parts.append(build_interval(a, b, int(rng.integers(1, 12))))
            a = b + rng.uniform(0.0, 0.4)
        return merge_spaces(*parts)
    vertices = int(rng.integers(2, 30))
    return build_graph(vertices, _random_edges(rng, vertices),
                       rng.uniform(0.1, 2.0, vertices))


def _radii(rng, space):
    """A random radius plus radii equal to distances of the space, where the
    strict d < r test decides an edge."""
    d = space.dist
    exact = rng.choice(d.ravel(), size=3)
    return [float(rng.uniform(0.01, 1.0) * max(space.diameter(), 1.0))] + \
        [float(v) for v in exact if v > 0]


def test_graph_distances_match_floyd_warshall_to_rounding():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        vertices = int(rng.integers(1, 40))
        edges = _random_edges(rng, vertices) if vertices > 1 else []
        g = build_graph(vertices, edges, np.ones(vertices))
        ref = _reference_graph_dist(vertices, edges)
        assert np.array_equal(g.dist == 0, ref == 0)
        # paths here are shorter than 80, so only the sentinel reaches 1e3
        assert np.array_equal(g.dist >= 1e3, ref >= 1e3)
        assert np.array_equal(g.dist, g.dist.T)
        # a shortest path sums at most vertices - 1 positive lengths
        assert np.all(np.abs(g.dist - ref) <= vertices * np.finfo(float).eps * ref)


def test_graph_with_long_edges_stays_exactly_symmetric():
    # a ring with chords whose lengths are near 1e4: the searches from i and
    # from j round a distance differently by more than MeasureSpace's 1e-12
    rng = np.random.default_rng(0)
    edges = [(i, (i + 1) % 16, float(rng.uniform(5e3, 1.5e4))) for i in range(16)]
    edges += [(int(i), int(j), float(rng.uniform(1e4, 5e4)))
              for i, j in rng.integers(0, 16, size=(16, 2)) if i != j]
    g = build_graph(16, edges, np.ones(16))
    assert np.array_equal(g.dist, g.dist.T)
    ref = _reference_graph_dist(16, edges)
    assert np.all(np.abs(g.dist - ref) <= 16 * np.finfo(float).eps * ref)


@pytest.mark.parametrize("vertices, edges", [
    (1, []),
    (2, []),
    (4, [(0, 1, 0.5), (1, 0, 0.25), (0, 1, 0.75)]),
    (5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 0.1)]),
    (4, [(3, 2, 0.1), (2, 1, 0.2), (1, 0, 0.3), (0, 3, 0.7)]),
])
def test_graph_edge_cases_match_floyd_warshall(vertices, edges):
    g = build_graph(vertices, edges, np.ones(vertices))
    assert g.dist.tobytes() == _reference_graph_dist(vertices, edges).tobytes()


def test_graph_sentinel_scales_with_component_diameter():
    g = build_graph(5, [(0, 1, 1.0), (1, 2, 2.5), (3, 4, 0.1)], np.ones(5))
    assert g.dist[0, 2] == 3.5
    assert g.dist[0, 3] == g.dist[4, 2] == 3.5e3


def test_r_connected_matches_reference_bfs():
    rng = np.random.default_rng(77)
    seen_connected = seen_disconnected = 0
    for _ in range(300):
        space = _random_space(rng)
        for r in _radii(rng, space):
            cert = is_r_connected(space, r)
            connected, chain, mu0 = _reference_r_connected(space, r)
            assert cert.connected is connected
            assert cert.witness_chain == chain
            assert cert.mu0 == mu0
            seen_connected += connected and len(chain) > 2
            seen_disconnected += not connected
    assert seen_connected > 50 and seen_disconnected > 50


def test_r_connected_runs_one_search(monkeypatch):
    import scipy.sparse.csgraph as csgraph

    calls = []
    bfs = csgraph.breadth_first_order

    def counting_bfs(*args, **kwargs):
        calls.append(args[1])
        return bfs(*args, **kwargs)

    monkeypatch.setattr(csgraph, "breadth_first_order", counting_bfs)
    u = merge_spaces(build_interval(0, 0.4, 4), build_interval(0.6, 1.0, 4))
    for r, connected in ((0.15, False), (0.5, True)):
        calls.clear()
        assert is_r_connected(u, r).connected is connected
        assert calls == [0]  # from i0 of the most distant pair (0, 7)


def test_r_connected_single_node():
    for space in (build_interval(0, 1, 1), build_graph(1, [], [2.0])):
        cert = is_r_connected(space, 0.5)
        assert cert.connected
        assert cert.witness_chain == [0]
        assert cert.mu0 == space.weights[0]


def _asymmetric_path(forward):
    """Path 0-1-2-3 whose middle hop is 1 - 4e-13 one way and 1 the other:
    within MeasureSpace's symmetry tolerance, on opposite sides of r = 1."""
    x = np.array([0.0, 0.5, 1.5, 2.0])
    d = np.abs(x[:, None] - x[None, :])
    i, j = (1, 2) if forward else (2, 1)
    d[i, j] -= 4e-13
    return MeasureSpace(points=None, weights=np.ones(4), dist=d, kind="graph")


@pytest.mark.parametrize("forward", [True, False])
def test_r_connected_on_metric_asymmetric_at_r(forward):
    # MeasureSpace stores the smaller distance both ways, so the hop below
    # r = 1 joins 1 and 2 whichever way it was given
    space = _asymmetric_path(forward)
    assert np.array_equal(space.dist, space.dist.T) and space.dist[1, 2] < 1.0
    cert = is_r_connected(space, 1.0)
    connected, chain, mu0 = _reference_r_connected(space, 1.0)
    assert (cert.connected, cert.witness_chain, cert.mu0) == (connected, chain, mu0)
    assert cert.connected


def test_r_connected_witness_on_metric_asymmetric_at_rounding():
    """x = [0.5, 2, 1.5, 0] with d[0, 2] lowered by 4e-13: node 0 reaches
    every node at r = 1, and the witness between the far pair 1 and 3 must
    use the hop 2-0 that only d[0, 2] put below r."""
    x = np.array([0.5, 2.0, 1.5, 0.0])
    d = np.abs(x[:, None] - x[None, :])
    d[0, 2] -= 4e-13
    space = MeasureSpace(points=None, weights=np.ones(4), dist=d, kind="graph")
    cert = is_r_connected(space, 1.0)
    assert cert.connected
    assert cert.witness_chain == [1, 2, 0, 3]
    assert all(space.dist[a, b] < 1.0 for a, b in zip(cert.witness_chain,
                                                      cert.witness_chain[1:]))
