"""Communication graphs, delay statistics, and message-drop models.

Graphs are undirected and connected (stats raise if not). Vertices are
0-indexed internally; edge-list files use 1-indexed vertices, one
"i j" pair per line.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolation, ConfigurationError, unreadable


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
    def from_edge_list_file(cls, path: str, n: int | None = None) -> "CommGraph":
        """Read and parse a 1-indexed edge-list file (see `from_edge_list_text`)."""
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            raise ConfigurationError(f"edge-list file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise unreadable(path, exc, "edge-list file") from None
        return cls.from_edge_list_text(text, n=n)

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
        (for n >= 3): a random Hamiltonian cycle plus greedily drawn chords.
        The default count, n // 2, is "up to"; an explicit `extra_edges` above
        the degree budget or the free vertex pairs, or one the draw falls
        short of, is refused."""
        if extra_edges is not None and extra_edges < 0:
            raise ConfigurationError(f"extra_edges must be >= 0, got {extra_edges}")
        if n >= 3 and max_degree < 2:
            raise ConfigurationError(f"max_degree must be >= 2 for n >= 3, got {max_degree}")
        cap = max(0, min(n * (max_degree - 2) // 2, n * (n - 3) // 2))
        if extra_edges is not None and extra_edges > cap:
            raise ConfigurationError(
                f"extra_edges = {extra_edges} exceeds the {cap} chords that {n} nodes "
                f"with max_degree {max_degree} admit"
            )
        if n <= 2:
            return cls.path(n)
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        edges = [(int(order[k]), int(order[(k + 1) % n])) for k in range(n)]
        deg = {i: 2 for i in range(n)}
        have = {(min(e), max(e)) for e in edges}
        want = min(n // 2, cap) if extra_edges is None else int(extra_edges)
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
        if want > 0 and extra_edges is not None:
            placed = extra_edges - want
            raise ConfigurationError(f"extra_edges = {extra_edges}, but the draw placed {placed}")
        return cls(n, edges)

    def __repr__(self):
        return f"CommGraph(n={self.n}, edges={self.edge_count})"


def shortest_path_lengths(graph: CommGraph, within: np.ndarray | None = None) -> np.ndarray:
    """All-pairs hop distances, (n, n) int32, from one sweep out of every source;
    a disconnected graph raises, naming its first unreached pair in row-major
    order.  With `within`, where `within[s, v]` lets v relay what source s sends,
    row s holds the hops through such vertices, -1 where none leads; nothing raises."""
    hops = _hops(graph, np.arange(graph.n), within)  # column s: the sweep from s
    return hops if within is None else np.ascontiguousarray(hops.T)  # undirected: symmetric


def require_connected(graph: CommGraph) -> None:
    """Refuse a disconnected graph with `shortest_path_lengths`'s message, from vertex 1 alone."""
    _hops(graph, np.zeros(1, dtype=np.int64))


def _hops(graph, sources, within=None):
    """Hops (n, m), column c from sources[c], a level a pass.  A sparse level
    expands the frontier (flat positions v * m + c) into the neighbors still at
    -1 (`within`'s closed entries hold -2 until the end), keeping of duplicates
    the one whose mark, written into the entry, stayed; a level with candidates
    for over a quarter of the entries ORs contiguous rows of the frontier mask."""
    n, neighbors, m = graph.n, graph.neighbor_matrix(), len(sources)
    hops = np.full((n, m), -1, dtype=np.int32)
    if within is not None:
        hops[~np.asarray(within, dtype=bool)[sources].T] = -2
    hops[sources, np.arange(m)] = 0
    flat, frontier, size, d = hops.reshape(-1), sources * m + np.arange(m), m, 0
    waiting = flat.size - size if within is None else int(np.count_nonzero(flat == -1))
    sparse = flat.size // 4 // neighbors.shape[1]  # the largest frontier a sparse level takes
    while waiting and size:
        d += 1
        if size <= sparse:
            vertices, columns = np.divmod(frontier, m)
            candidates = neighbors[vertices]
            candidates *= m
            candidates += columns[:, None]
            candidates = candidates[flat[candidates] == -1]
            flat[candidates] = marks = np.arange(-3, -3 - len(candidates), -1, dtype=np.int32)
            frontier = candidates[flat[candidates] == marks]
            flat[frontier], size = d, len(frontier)
        else:
            on = hops == d - 1
            nxt = on[neighbors[:, 0]]
            for slot in neighbors.T[1:]:
                nxt |= on[slot]
            nxt &= hops == -1
            hops[nxt], size = d, int(np.count_nonzero(nxt))
            frontier = np.flatnonzero(nxt) if size <= sparse else None
        waiting -= size
    if within is not None:
        np.maximum(hops, -1, out=hops)
    elif waiting:
        row, v = divmod(int(np.argmax(hops.T < 0)), n)
        raise AssumptionViolation("communication graph is disconnected: no path between "
                                  f"vertices {sources[row] + 1} and {v + 1}")
    return hops


@dataclass
class NetworkStats:
    """Delay statistics of a graph under a worst-case extra delay `delta`.

    b_bar aggregates (hops + delta)^2 uniformly over ordered pairs;
    b_frak weights each receiving agent by its block dimension; the
    staleness bound is the worst pairwise delay, max hops + delta.  All
    three range over the full graph's pairs, also where a run with
    reduced tables bounds only its tracked pairs.
    """

    n: int
    delta: int
    diameter: int
    b_bar: float
    b_frak: float
    staleness_bound: int
    distances: np.ndarray = field(repr=False)  # the int32 hops, widened to add delta


def network_stats(graph: CommGraph, delta: int = 0, dims=None) -> NetworkStats:
    if isinstance(delta, (bool, np.bool_)) or not float(delta).is_integer() or delta < 0:
        raise ConfigurationError(f"extra delay bound must be an integer >= 0, got {delta}")
    dist = shortest_path_lengths(graph)
    n = graph.n
    if dims is None:
        dims = np.ones(n, dtype=float)
    dims = np.asarray(dims, dtype=float)
    if dims.shape != (n,):
        raise ConfigurationError("dims must have one entry per agent")
    for i, d in enumerate(dims.tolist()):
        if not (d >= 1 and d.is_integer()):
            raise ConfigurationError(f"agent {i + 1} has dimension {d:g}, not a positive integer")
    shifted_sq = (dist.astype(np.int64) + delta).astype(float) ** 2
    b_bar = float(np.sqrt(shifted_sq.sum() / n**2))
    d_total = float(dims.sum())
    b_frak = float(np.sqrt((shifted_sq * dims[:, None]).sum() / (n * d_total)))
    diameter = int(dist.max())
    return NetworkStats(
        n=n,
        delta=int(delta),
        diameter=diameter,
        b_bar=b_bar,
        b_frak=b_frak,
        staleness_bound=diameter + int(delta),
        distances=dist,
    )


# ---------------------------------------------------------------------------
# message-drop models


class DelayModel:
    """Per-round, per-directed-message delivery model.

    A `lossless` model never drops a message.  Its tables are then known in
    closed form (stamp = t - hop distance, -1 before the first arrival), so
    the runner neither draws a drop mask nor gossips.
    """

    declared_delta: int = 0
    lossless: bool = False

    def drop_mask(self, rng: np.random.Generator, shape) -> np.ndarray | None:
        """Boolean mask of dropped messages (None = deliver everything)."""
        raise NotImplementedError


class BernoulliDrops(DelayModel):
    """Each directed message is lost independently with probability p.

    `declared_delta` is the extra-delay bound the run is planned
    against; the realized extra delay is measured, not enforced.
    """

    def __init__(self, p: float, declared_delta: int):
        if not (0.0 <= p < 1.0):
            raise ConfigurationError("drop probability must lie in [0, 1)")
        delta = declared_delta
        if isinstance(delta, (bool, np.bool_)) or not float(delta).is_integer() or delta < 0:
            raise ConfigurationError(f"declared extra delay must be an integer >= 0, got {delta}")
        self.p = float(p)
        self.declared_delta = int(declared_delta)
        self.lossless = self.p == 0.0

    def drop_mask(self, rng, shape):
        if self.p == 0.0:
            return None
        return rng.random(shape) < self.p

    def __repr__(self):
        return f"BernoulliDrops(p={self.p}, declared_delta={self.declared_delta})"


class NoDelay(BernoulliDrops):
    """Every message arrives: `BernoulliDrops(0.0, 0)`."""

    def __init__(self):
        super().__init__(0.0, 0)

    def __repr__(self):
        return "NoDelay()"


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
    tracked: np.ndarray  # the (n, n) dependence_mask: row l marks A_l


def dependence_mask(affected, n: int) -> np.ndarray:
    """The (n, n) bool mask of the dependence sets: row i marks A_i, the
    agents whose costs agent i affects.  Refuses sets that are not one per
    agent, a set that leaves out its own agent, and a set with an index
    outside 0..n-1, naming the first such agent (1-based).  Each set is
    converted once; agents that share one set object share its conversion."""
    if len(affected) != n:
        raise ConfigurationError("affected sets must have one entry per agent")
    mask = np.zeros((n, n), dtype=bool)
    previous = None
    for i, s in enumerate(affected):
        if s is not previous:
            previous, cols = s, np.fromiter(s, dtype=np.int64, count=len(s))
            in_range = bool(((cols >= 0) & (cols < n)).all())
        if not (cols == i).any():
            raise ConfigurationError(f"agent {i + 1} must belong to its own affected set")
        if not in_range:
            raise ConfigurationError(f"affected set of agent {i + 1} out of range")
        mask[i, cols] = True
    return mask


def check_compatibility(graph: CommGraph, affected) -> CompatibilityReport:
    """Decide whether restricting tables to the affected sets keeps every
    needed difference quotient reachable.

    For each column j, the agents tracking j are V_j = {r : j in A_r}.
    Information about j can only travel through V_j, so every agent l
    that needs column j (j in A_l) must reach j inside the subgraph
    induced by V_j. Witnesses name a non-tracking cut vertex on a full
    shortest path from a stranded needer to j; only they need distances
    in the full graph, which raises if it is disconnected.  The report
    carries the sets' `dependence_mask` as the tracked entries.
    """
    tracked = dependence_mask(affected, graph.n)
    # the sweep from column j runs through its trackers V_j: within = tracked.T
    distances = shortest_path_lengths(graph, within=tracked.T).T
    # stranded (column, needer) pairs, column by column
    stranded = np.argwhere((tracked & (distances < 0)).T)
    full_dist = shortest_path_lengths(graph) if len(stranded) else None
    witnesses = [
        (_blocking_vertex(graph, full_dist, tracked, int(l), int(j)), int(j), int(l))
        for j, l in stranded
    ]
    return CompatibilityReport(
        compatible=not witnesses, witnesses=witnesses, distances=distances, tracked=tracked
    )


def _blocking_vertex(graph, dist, tracked, l, j):
    """First vertex on a shortest l-to-j path that does not track j; the
    path must meet one, since the trackers strand l."""
    v = l
    while tracked[v, j]:
        v = next(int(w) for w in graph.neighbors[v] if dist[w, j] == dist[v, j] - 1)
    return v
