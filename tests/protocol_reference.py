"""Transparent per-agent reference of the protocol state.

Each agent owns an `InfoTable` of (quotient, stamp) entries and a
`PerturbationHistory` of its own past perturbations; tables merge one
sender at a time and the gradient is assembled column by column.  The
vectorized `zfo.agents.SwarmTables` is cross-checked against this code
round for round (`tests/test_agents.py`).  The rules are the same:

* an entry is (quotient, stamp); stamp -1 means "never heard";
* own entries are rewritten every round with the fresh local quotient;
* merging adopts an incoming entry only if its stamp is strictly newer,
  so the incumbent wins stamp ties, and the highest stamp wins;
* assembly pairs each column's quotient with this agent's own
  perturbation from the stamped round, skipping never-heard columns.

Unlike the engine, these tables carry values and break sender ties by
lowest id; since a column and a stamp fix a quotient's value, the
tie-break cannot change a value.
"""
from __future__ import annotations

import numpy as np

from zfo.errors import ConfigurationError, ProtocolViolation


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
    table: InfoTable, history: PerturbationHistory, n_agents: int, use=None
) -> np.ndarray:
    """Estimator block for one agent: (1/n) * sum_j quotient_j * z(stamp_j)
    over the tracked columns j in `use` (default: all of them)."""
    out = np.zeros(history.dim)
    for pos, j in enumerate(table.columns):
        if table.stamps[pos] < 0 or (use is not None and int(j) not in use):
            continue
        out += table.quotients[pos] * history.lookup(int(table.stamps[pos]))
    return out / n_agents
