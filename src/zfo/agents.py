"""Per-agent protocol state: difference-quotient tables, perturbation
history, merging of gossiped tables, and gradient assembly.

Two implementations live here. `InfoTable` plus the module functions
are the transparent per-agent reference the engine is tested against;
`SwarmTables` holds every agent's table in one (n, n) stamp array so
the simulator can process a round with a handful of vector operations.
Both follow the same rules:

* an entry is (quotient, stamp); stamp -1 means "never heard";
* own entries are rewritten every round with the fresh local quotient;
* merging adopts an incoming entry only if its stamp is strictly newer,
  so the incumbent wins stamp ties, and the highest stamp wins;
* assembly pairs each column's quotient with this agent's own
  perturbation from the stamped round, skipping never-heard columns.

A quotient is computed once by its owner and only forwarded, so column
and stamp fix its value: `SwarmTables` gossips stamps alone and reads
values from the owners' quotient ring; the reference's lowest-sender
tie-break cannot change a value.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ProtocolViolation


def local_quotient(f_plus: float, f_minus: float, u: float) -> float:
    """Two-point difference quotient (f+ - f-) / (2u)."""
    if u <= 0:
        raise ConfigurationError("perturbation radius u must be positive")
    return (float(f_plus) - float(f_minus)) / (2.0 * u)


class InfoTable:
    """One agent's view of every tracked column's latest quotient."""

    def __init__(self, columns):
        self.columns = np.asarray(sorted(int(c) for c in columns), dtype=np.int64)
        if len(np.unique(self.columns)) != len(self.columns):
            raise ConfigurationError("table columns must be distinct")
        self.quotients = np.zeros(len(self.columns))
        self.stamps = np.full(len(self.columns), -1, dtype=np.int64)

    @classmethod
    def full(cls, n: int) -> "InfoTable":
        return cls(range(n))

    def index_of(self, j: int) -> int:
        pos = int(np.searchsorted(self.columns, j))
        if pos >= len(self.columns) or self.columns[pos] != j:
            raise KeyError(f"column {j} not tracked")
        return pos

    def tracks(self, j: int) -> bool:
        pos = int(np.searchsorted(self.columns, j))
        return pos < len(self.columns) and self.columns[pos] == j

    def record_own(self, agent_id: int, quotient: float, t: int) -> None:
        pos = self.index_of(agent_id)
        self.quotients[pos] = quotient
        self.stamps[pos] = t

    def copy(self) -> "InfoTable":
        out = InfoTable(self.columns)
        out.quotients = self.quotients.copy()
        out.stamps = self.stamps.copy()
        return out


def merge_tables(own: InfoTable, received) -> None:
    """Merge snapshots `received` = [(sender_id, InfoTable), ...] into
    `own`, in place, following the strict-stamp rule above."""
    for _, table in sorted(received, key=lambda kv: kv[0]):
        for pos, j in enumerate(table.columns):
            if not own.tracks(j):
                continue
            mine = own.index_of(j)
            if table.stamps[pos] > own.stamps[mine]:
                own.stamps[mine] = table.stamps[pos]
                own.quotients[mine] = table.quotients[pos]


class PerturbationHistory:
    """Ring buffer of one agent's past perturbations, stamped by round."""

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ConfigurationError("history capacity must be >= 1")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._z = np.zeros((self.capacity, self.dim))
        self._rounds = np.full(self.capacity, -1, dtype=np.int64)

    def store(self, t: int, z: np.ndarray) -> None:
        slot = t % self.capacity
        self._z[slot] = z
        self._rounds[slot] = t

    def lookup(self, t: int) -> np.ndarray:
        """Perturbation of round t; round -1 (never heard) is the zero
        vector. Rounds already evicted raise ProtocolViolation."""
        if t < 0:
            return np.zeros(self.dim)
        slot = t % self.capacity
        if self._rounds[slot] != t:
            raise ProtocolViolation(
                f"perturbation of round {t} left the history window "
                f"(capacity {self.capacity}); the staleness bound was exceeded"
            )
        return self._z[slot]


def assemble_gradient(
    table: InfoTable, history: PerturbationHistory, n_agents: int
) -> np.ndarray:
    """Estimator block for one agent: (1/n) * sum_j quotient_j * z(stamp_j)."""
    out = np.zeros(history.dim)
    for pos in range(len(table.columns)):
        if table.stamps[pos] < 0:
            continue
        out += table.quotients[pos] * history.lookup(int(table.stamps[pos]))
    return out / n_agents


# ---------------------------------------------------------------------------
# vectorized all-agent state


class SwarmTables:
    """All agents' tables as one (n, n) stamp array: row i is agent i's
    table.  `record_own` keeps each round's own quotients (n,) and
    perturbations (n, d_max) in rings of `capacity` rounds; entry (i, j)
    reads column j's quotient of round stamps[i, j].

    `tracked` marks the columns each row maintains; untracked entries
    stay at stamp -1 forever, which is how reduced tables
    (dependence-aware communication) are represented.
    """

    def __init__(self, n: int, tracked: np.ndarray, capacity: int, d_max: int):
        self.n = int(n)
        tracked = np.asarray(tracked, dtype=bool)
        if tracked.shape != (n, n):
            raise ConfigurationError("tracked mask must be (n, n)")
        if not np.all(np.diag(tracked)):
            raise ConfigurationError("every agent must track its own column")
        self.tracked = tracked
        self.capacity = int(capacity)
        self.stamps = np.full((n, n), -1, dtype=np.int64)
        self._q_ring = np.zeros((self.capacity + 1, n))
        self._z_ring = np.zeros((self.capacity + 1, n, int(d_max)))
        self._ring_rounds = np.full(self.capacity + 1, -1, dtype=np.int64)
        self._diag = np.arange(n)
        self._diag_flat = self._diag * (n + 1)  # flat (C-order) positions of (i, i)

    def record_own(self, t: int, quotients: np.ndarray, z: np.ndarray) -> None:
        slot = t % self.capacity
        self._q_ring[slot] = quotients
        self._z_ring[slot] = z
        self._ring_rounds[slot] = t
        self.stamps.put(self._diag_flat, t)

    def _slots(self) -> np.ndarray:
        """Ring row of each entry; never heard reads the zero last row."""
        return np.where(self.stamps >= 0, self.stamps % self.capacity, self.capacity)

    @property
    def quotients(self) -> np.ndarray:
        """Derived (n, n) values, 0 where never heard (read-only; a stamp
        that left the ring reads the round now in its slot)."""
        return self._q_ring[self._slots(), self._diag]

    def snapshot(self) -> np.ndarray:
        return self.stamps.copy()

    def merge_from(
        self,
        snapshot: np.ndarray,
        neighbor_matrix: np.ndarray,
        drop_mask: np.ndarray | None = None,
    ) -> None:
        """Raise each tracked entry to the newest stamp delivered from the
        previous round's snapshot.

        `neighbor_matrix` is (n, max_deg), row i listing agent i's
        neighbors, padded with i itself (a harmless candidate: an agent's
        old stamps can never beat its current ones).  `drop_mask`
        (n, max_deg) suppresses dropped directed messages.
        """
        candidates = snapshot[neighbor_matrix]  # (n, deg, n)
        if drop_mask is not None:
            candidates[drop_mask] = -1
        np.maximum(self.stamps, candidates.max(axis=1), out=self.stamps, where=self.tracked)

    def staleness(self, t: int) -> np.ndarray:
        """Per-entry age t - stamp over tracked columns (never-heard
        entries read t + 1); untracked entries report 0."""
        return np.where(self.tracked, t - self.stamps, 0)

    def assemble(self, use_mask: np.ndarray | None = None) -> np.ndarray:
        """Gradient blocks (n, d_max): row i is agent i's estimator, the
        sum over the columns j in `use_mask` (default: all) of quotient j
        times agent i's own perturbation of the stamped round, over n.
        Raises ProtocolViolation if a used stamp left the ring.
        """
        idx = self._slots()
        ok = self._ring_rounds[idx] == self.stamps
        if use_mask is not None:
            ok |= ~use_mask
        if not ok.all():
            bad = np.argwhere(~ok)[0]
            raise ProtocolViolation(
                f"agent {bad[0] + 1} references round {self.stamps[bad[0], bad[1]]} "
                f"for column {bad[1] + 1}, which left the history window; "
                "the staleness bound was exceeded"
            )
        q = self._q_ring[idx, self._diag]
        if use_mask is not None:
            q = np.where(use_mask, q, 0.0)
        zr = self._z_ring[idx, self._diag[:, None], :]
        return np.einsum("ij,ijk->ik", q, zr) / self.n
