"""Discretized metric measure spaces.

A space is a finite set of nodes carrying positive quadrature weights
(the measure of each node's cell) and a full pairwise distance matrix.
Intervals use midpoint or trapezoid quadrature, graphs use shortest-path
distances, and unions of coordinate spaces keep honest euclidean gaps.
Shortest paths and the chains of an R-connectivity check come from
scipy.sparse.csgraph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Disconnected vertex pairs get a large finite sentinel instead of inf so
# kernel laws J(d) stay well-defined (compactly supported laws evaluate to 0).
DISCONNECTED_FACTOR = 1e3


def _max_asymmetry(a: np.ndarray) -> float:
    """np.max(np.abs(a - a.T)) of a square matrix, NaN included, taken tile
    by tile against the mirrored tile with no n×n temporary; the value is
    the same, since |x - y| = |y - x| in IEEE arithmetic."""
    n, tile = a.shape[0], 128  # 64 and 128 tie for fastest at n = 2048
    return np.max([np.max(np.abs(a[i:i + tile, j:j + tile] - a[j:j + tile, i:i + tile].T))
                   for i in range(0, n, tile) for j in range(i, n, tile)])


@dataclass(frozen=True)
class MeasureSpace:
    """Nodes, weights and metric of a discretized metric measure space.

    points is an (n, dim) coordinate array for embedded spaces and None
    for abstract graphs; dist is the full (n, n) distance matrix.
    """

    points: Optional[np.ndarray]
    weights: np.ndarray
    dist: np.ndarray
    kind: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "weights", w)
        if self.points is not None:
            object.__setattr__(self, "points", np.atleast_2d(np.asarray(self.points, dtype=float)))
        n = w.shape[0]
        if n < 1:
            raise ValueError("space needs at least one node")
        if not np.all(np.isfinite(w)):
            raise ValueError("all weights must be finite")
        if np.any(w <= 0):
            raise ValueError("all weights must be positive")
        if d.shape != (n, n):
            raise ValueError("distance matrix shape mismatch")
        if np.any(np.abs(np.diagonal(d)) > 0):
            raise ValueError("metric must vanish on the diagonal")
        # relative to max|d|; NaN fails both tests and an inf scale the second
        asym = _max_asymmetry(d)
        if not (asym <= 1e-12 or asym <= 1e-12 * max(np.max(d), -np.min(d)) < np.inf):
            raise ValueError("metric must be symmetric with finite distances")
        # searches read d < r as a relation, so store d exactly symmetric
        object.__setattr__(self, "dist", np.minimum(d, d.T) if asym > 0 else d)
        _check_triangle_inequality(d)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.weights))

    @property
    def x(self) -> np.ndarray:
        """First coordinate of each node (embedded spaces only)."""
        if self.points is None:
            raise ValueError("abstract graph space has no coordinates")
        return self.points[:, 0]

    def diameter(self) -> float:
        return float(np.max(self.dist)) if self.n > 1 else 0.0


def _check_triangle_inequality(d: np.ndarray) -> None:
    n = d.shape[0]
    if n < 3:
        return
    if n <= 24:
        # small spaces: check every triple; d[i,j] <= d[i,k] + d[k,j]
        viol = d[:, None, :] + d[None, :, :] - d[:, :, None]
        if np.min(viol) < -1e-10 * max(1.0, np.max(d)):
            raise ValueError("triangle inequality violated")
        return
    rng = np.random.default_rng(0)
    i, j, k = (rng.integers(0, n, size=256) for _ in range(3))
    if np.any(d[i, j] > d[i, k] + d[k, j] + 1e-10 * max(1.0, np.max(d))):
        raise ValueError("triangle inequality violated on sampled triples")


@dataclass(frozen=True)
class ConnectivityCertificate:
    """Outcome of an R-connectivity check.

    witness_chain is a concrete node path between the two most distant
    nodes with consecutive hops shorter than r; mu0 is the smallest
    measure of any metric ball B(x, r).
    """

    r: float
    connected: bool
    witness_chain: Optional[list]
    mu0: float


def build_interval(a: float, b: float, n: int, rule: str = "midpoint") -> MeasureSpace:
    """Discretize [a, b] with n quadrature cells.

    midpoint: n nodes at cell centers, uniform weights.
    trapezoid: n subintervals, n+1 nodes, half-weight endpoints.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    if a >= b:
        raise ValueError("need a < b")
    if rule == "midpoint":
        h = (b - a) / n
        xs = a + (np.arange(n) + 0.5) * h
        w = np.full(n, h)
    elif rule == "trapezoid":
        h = (b - a) / n
        xs = a + np.arange(n + 1) * h
        w = np.full(n + 1, h)
        w[0] = w[-1] = h / 2
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    pts = xs[:, None]
    dist = np.subtract.outer(xs, xs)
    np.abs(dist, out=dist)
    return MeasureSpace(points=pts, weights=w, dist=dist, kind="interval")


def build_graph(vertices: int, edges: list, vertex_measures) -> MeasureSpace:
    """Weighted graph space with shortest-path metric.

    edges are (i, j, length) triples with integer endpoints and finite
    positive lengths; duplicate edges keep the minimum length, self-loops
    are rejected.  Dijkstra's distances are stored exactly symmetric, and
    vertices in different components get the finite disconnected sentinel.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    # zero vertices and bad measures are MeasureSpace's to reject
    w = np.asarray(vertex_measures, dtype=float)
    if w.shape != (vertices,):
        raise ValueError("vertex_measures length mismatch")
    shortest = {}  # one entry per unordered pair: csr_array would sum duplicates
    for (i, j, length) in edges:
        i, j, length = operator.index(i), operator.index(j), float(length)
        if i == j:
            raise ValueError("self-loop edges are rejected")
        if not 0 < length < np.inf:  # NaN fails too
            raise ValueError(f"edge length {length} is not finite and positive")
        if not (0 <= i < vertices and 0 <= j < vertices):
            raise ValueError("edge endpoint out of range")
        pair = (min(i, j), max(i, j))
        shortest[pair] = min(shortest.get(pair, length), length)
    rows, cols = np.array(list(shortest), dtype=np.intp).reshape(-1, 2).T
    graph = csr_array((list(shortest.values()), (rows, cols)), shape=(vertices, vertices))
    d = dijkstra(graph, directed=False)
    # searches from i and from j round d[i, j] apart, in proportion to its length
    np.minimum(d, d.T, out=d)
    unreachable = np.isinf(d)
    diam = float(np.max(d, where=~unreachable, initial=0.0))
    d[unreachable] = DISCONNECTED_FACTOR * max(diam, 1.0)
    return MeasureSpace(points=None, weights=w, dist=d, kind="graph")


def merge_spaces(*spaces: MeasureSpace) -> MeasureSpace:
    """Union of coordinate spaces; the merged metric is euclidean on the
    concatenated coordinates, so gaps between components are honest."""
    if len(spaces) < 2:
        raise ValueError("need at least two spaces to merge")
    if any(s.points is None for s in spaces):
        raise ValueError("merge requires embedded (coordinate) spaces")
    dim = spaces[0].points.shape[1]
    if any(s.points.shape[1] != dim for s in spaces):
        raise ValueError("embedding dimensions differ")
    pts = np.vstack([s.points for s in spaces])
    w = np.concatenate([s.weights for s in spaces])
    dist = np.subtract.outer(pts[:, 0], pts[:, 0])
    np.square(dist, out=dist)
    for col in pts.T[1:]:  # in the order np.sum adds a short axis, without an n×n×dim array
        diff = np.subtract.outer(col, col)
        dist += np.square(diff, out=diff)
    np.sqrt(dist, out=dist)
    return MeasureSpace(points=pts, weights=w, dist=dist, kind="union")


def is_r_connected(space: MeasureSpace, r: float) -> ConnectivityCertificate:
    """Check chain-connectivity with steps shorter than r.

    The space is r-connected iff the graph with edges {d(i,j) < r} is
    connected.  One breadth-first search from one of the two most distant
    nodes decides it and gives the witness, the path to the other.  mu0
    is the minimum over nodes of the measure of the ball B(x, r).
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order

    if r <= 0:
        raise ValueError("r must be positive")
    adj = space.dist < r
    ball_measure = adj @ space.weights  # diagonal is True, so x's own cell counts
    mu0 = float(np.min(ball_measure))
    i0, j0 = np.unravel_index(np.argmax(space.dist), space.dist.shape)
    order, parent = breadth_first_order(csr_array(adj), int(i0))
    if order.size < space.n:
        return ConnectivityCertificate(r=r, connected=False, witness_chain=None, mu0=mu0)
    chain = [int(j0)]
    while chain[-1] != i0:
        chain.append(int(parent[chain[-1]]))
    chain.reverse()
    return ConnectivityCertificate(r=r, connected=True, witness_chain=chain, mu0=mu0)
