"""Communication graphs, delay statistics, and message-drop models.

Graphs are undirected and connected (stats raise if not). Vertices are
0-indexed internally; edge-list files use 1-indexed vertices, one
"i j" pair per line.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolation, ConfigurationError


class CommGraph:
    """Undirected communication graph with sorted neighbor lists."""

    def __init__(self, n: int, edges):
        if n < 1:
            raise ConfigurationError("graph needs at least one vertex")
        self.n = int(n)
        seen: set[tuple[int, int]] = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ConfigurationError(f"self-loop on vertex {i + 1}")
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigurationError(f"edge ({i + 1}, {j + 1}) outside 1..{n}")
            seen.add((min(i, j), max(i, j)))
        self.edges = sorted(seen)
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        self.neighbors = [np.array(sorted(a), dtype=np.int64) for a in adj]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    def neighbor_matrix(self) -> np.ndarray:
        """(n, max(max_deg, 1)) matrix whose row i lists i's neighbors,
        padded with i itself."""
        max_deg = max(self.degree(i) for i in range(self.n))
        matrix = np.tile(np.arange(self.n, dtype=np.int64)[:, None], (1, max(max_deg, 1)))
        for i, nb in enumerate(self.neighbors):
            matrix[i, : len(nb)] = nb
        return matrix

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_edge_list_text(cls, text: str, n: int | None = None) -> "CommGraph":
        """Parse a 1-indexed "i j" edge list (blank lines and '#' comments
        are ignored)."""
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ConfigurationError(f"edge list line {lineno}: expected 'i j', got {raw!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ConfigurationError(f"edge list line {lineno}: non-integer vertex") from exc
            if i < 1 or j < 1:
                raise ConfigurationError(f"edge list line {lineno}: vertices are 1-indexed")
            pairs.append((i - 1, j - 1))
        if not pairs:
            raise ConfigurationError("edge list is empty")
        size = n if n is not None else max(max(i, j) for i, j in pairs) + 1
        return cls(size, pairs)

    @classmethod
    def path(cls, n: int) -> "CommGraph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def ring(cls, n: int) -> "CommGraph":
        if n < 3:
            return cls.path(n)
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "CommGraph":
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def random_connected(
        cls,
        n: int,
        seed: int,
        extra_edges: int | None = None,
        max_degree: int = 4,
    ) -> "CommGraph":
        """Random connected graph with degrees between 2 and `max_degree`
        (for n >= 3): a random Hamiltonian cycle plus random chords."""
        rng = np.random.default_rng(seed)
        if n <= 2:
            return cls.path(n)
        order = rng.permutation(n)
        edges = [(int(order[k]), int(order[(k + 1) % n])) for k in range(n)]
        deg = {i: 2 for i in range(n)}
        have = {(min(e), max(e)) for e in edges}
        want = n // 2 if extra_edges is None else int(extra_edges)
        attempts = 0
        while want > 0 and attempts < 50 * n:
            attempts += 1
            i, j = rng.integers(0, n, size=2)
            i, j = int(i), int(j)
            key = (min(i, j), max(i, j))
            if i == j or key in have or deg[i] >= max_degree or deg[j] >= max_degree:
                continue
            have.add(key)
            deg[i] += 1
            deg[j] += 1
            edges.append(key)
            want -= 1
        return cls(n, edges)

    def __repr__(self):
        return f"CommGraph(n={self.n}, edges={self.edge_count})"


def shortest_path_lengths(graph: CommGraph) -> np.ndarray:
    """All-pairs hop distances via BFS from every source at once; raises if
    the graph is disconnected.

    `frontier[s, v]` marks the vertices at the current distance from source
    s.  A vertex joins the next frontier when one of its neighbors is on the
    current one, so each level is a column gather per neighbor slot (pads
    point at the vertex itself, which is already reached).
    """
    n = graph.n
    neighbors = graph.neighbor_matrix()
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    d = 0
    while frontier.any():
        d += 1
        nxt = frontier[:, neighbors[:, 0]]
        for k in range(1, neighbors.shape[1]):
            nxt |= frontier[:, neighbors[:, k]]
        nxt &= ~reached
        dist[nxt] = d
        reached |= nxt
        frontier = nxt
    if not reached.all():
        i, j = np.argwhere(~reached)[0]
        raise AssumptionViolation(
            f"communication graph is disconnected: no path between vertices "
            f"{i + 1} and {j + 1}"
        )
    return dist


@dataclass
class NetworkStats:
    """Delay statistics of a graph under a worst-case extra delay `delta`.

    b_bar aggregates (hops + delta)^2 uniformly over ordered pairs;
    b_frak weights each receiving agent by its block dimension; the
    staleness bound is the worst pairwise delay, max hops + delta.
    """

    n: int
    delta: int
    diameter: int
    b_max: int
    b_bar: float
    b_frak: float
    staleness_bound: int
    distances: np.ndarray = field(repr=False)


def network_stats(graph: CommGraph, delta: int = 0, dims=None) -> NetworkStats:
    if delta < 0:
        raise ConfigurationError("extra delay bound must be >= 0")
    dist = shortest_path_lengths(graph)
    n = graph.n
    if dims is None:
        dims = np.ones(n, dtype=float)
    dims = np.asarray(dims, dtype=float)
    if dims.shape != (n,):
        raise ConfigurationError("dims must have one entry per agent")
    shifted_sq = (dist + delta).astype(float) ** 2
    b_bar = float(np.sqrt(shifted_sq.sum() / n**2))
    d_total = float(dims.sum())
    b_frak = float(np.sqrt((shifted_sq * dims[:, None]).sum() / (n * d_total)))
    diameter = int(dist.max())
    return NetworkStats(
        n=n,
        delta=int(delta),
        diameter=diameter,
        b_max=diameter,
        b_bar=b_bar,
        b_frak=b_frak,
        staleness_bound=diameter + int(delta),
        distances=dist,
    )


# ---------------------------------------------------------------------------
# message-drop models


class DelayModel:
    """Per-round, per-directed-message delivery model."""

    declared_delta: int = 0

    def drop_mask(self, rng: np.random.Generator, shape) -> np.ndarray | None:
        """Boolean mask of dropped messages (None = deliver everything)."""
        raise NotImplementedError


class NoDelay(DelayModel):
    declared_delta = 0

    def drop_mask(self, rng, shape):
        return None

    def __repr__(self):
        return "NoDelay()"


class BernoulliDrops(DelayModel):
    """Each directed message is lost independently with probability p.

    `declared_delta` is the extra-delay bound the run is planned
    against; the realized extra delay is measured, not enforced.
    """

    def __init__(self, p: float, declared_delta: int):
        if not (0.0 <= p < 1.0):
            raise ConfigurationError("drop probability must lie in [0, 1)")
        if declared_delta < 0:
            raise ConfigurationError("declared extra delay must be >= 0")
        self.p = float(p)
        self.declared_delta = int(declared_delta)

    def drop_mask(self, rng, shape):
        if self.p == 0.0:
            return None
        return rng.random(shape) < self.p

    def __repr__(self):
        return f"BernoulliDrops(p={self.p}, declared_delta={self.declared_delta})"


# ---------------------------------------------------------------------------
# dependence-aware communication compatibility


@dataclass
class CompatibilityReport:
    compatible: bool
    witnesses: list[tuple[int, int, int]]  # (blocking i, column j, needer l)
    # distances[l, j]: hops from l to j inside the subgraph induced by V_j
    # (the path column j's quotients travel by); -1 when l is not in V_j or
    # cannot reach j there
    distances: np.ndarray


def check_compatibility(graph: CommGraph, affected) -> CompatibilityReport:
    """Decide whether restricting tables to the affected sets keeps every
    needed difference quotient reachable.

    For each column j, the agents tracking j are V_j = {r : j in A_r}.
    Information about j can only travel through V_j, so every agent l
    that needs column j (j in A_l) must reach j inside the subgraph
    induced by V_j. Witnesses name a non-tracking cut vertex on a full
    shortest path from a stranded needer to j.
    """
    n = graph.n
    affected = [frozenset(int(a) for a in s) for s in affected]
    if len(affected) != n:
        raise ConfigurationError("affected sets must have one entry per agent")
    for i, s in enumerate(affected):
        if i not in s:
            raise ConfigurationError(f"agent {i + 1} must belong to its own affected set")
        if any(a < 0 or a >= n for a in s):
            raise ConfigurationError(f"affected set of agent {i + 1} out of range")
    witnesses: list[tuple[int, int, int]] = []
    full_dist = shortest_path_lengths(graph)
    distances = np.full((n, n), -1, dtype=np.int64)
    for j in range(n):
        trackers = {r for r in range(n) if j in affected[r]}
        # BFS from j inside the induced subgraph of trackers.
        reach = {j}
        frontier = [j]
        hops = 0
        while frontier:
            distances[frontier, j] = hops
            hops += 1
            nxt = []
            for v in frontier:
                for w in graph.neighbors[v]:
                    w = int(w)
                    if w in trackers and w not in reach:
                        reach.add(w)
                        nxt.append(w)
            frontier = nxt
        for l in sorted(trackers - reach):
            witnesses.append((_blocking_vertex(graph, full_dist, affected, l, j), j, l))
    return CompatibilityReport(
        compatible=not witnesses, witnesses=witnesses, distances=distances
    )


def _blocking_vertex(graph, dist, affected, l, j):
    """First vertex on a shortest l-to-j path that does not track j."""
    v = l
    while v != j:
        for w in graph.neighbors[v]:
            if dist[w, j] == dist[v, j] - 1:
                v = int(w)
                break
        if j not in affected[v]:
            return v
    return j  # unreachable in practice; satisfies the return type
