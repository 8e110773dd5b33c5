"""Protocol state of the whole swarm: stamped difference-quotient tables,
the rings of past quotients and perturbations, merging of gossiped
tables, and gradient assembly.

`SwarmTables` holds every agent's table in one (n, n) stamp array so the
simulator can process a round with a handful of vector operations.  It
follows these rules:

* entry (i, j) is the round of the newest quotient of column j that
  agent i holds; stamp -1 means "never heard";
* own entries are restamped every round with the current round;
* merging adopts an incoming entry only if its stamp is strictly newer,
  so the incumbent wins stamp ties, and the highest stamp wins; stamps
  therefore never decrease;
* assembly pairs each column's quotient with this agent's own
  perturbation from the stamped round, skipping never-heard columns.

A quotient is computed once by its owner and only forwarded, so column
and stamp fix its value: the tables gossip stamps alone and read values
from the owners' quotient ring.  The transparent per-agent reference the
tables are tested against lives with the tests
(`tests/protocol_reference.py`).
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ProtocolViolation

# Stamps are int32: rounds, and rounds plus hop distances (the runner's
# extra-delay accounting), stay below 2**31 while a run has fewer than
# MAX_ROUNDS rounds.
MAX_ROUNDS = 2**30


class SwarmTables:
    """All agents' tables as one (n, n) stamp array: row i is agent i's
    table.  `record_own` keeps each round's own quotients (n,) and
    perturbations (n, d_max) in rings of `capacity` rounds; entry (i, j)
    reads column j's quotient of round stamps[i, j].

    `tracked` marks the columns each row maintains; untracked entries
    stay at stamp -1 forever, which is how reduced tables
    (dependence-aware communication) are represented.

    Stamps are int32 and come only from `record_own` (called once per
    round, in order) and `merge_from` (earlier snapshots of these tables).
    """

    def __init__(self, n: int, tracked: np.ndarray, capacity: int, d_max: int):
        self.n = int(n)
        tracked = np.asarray(tracked, dtype=bool)
        if tracked.shape != (n, n):
            raise ConfigurationError("tracked mask must be (n, n)")
        if not np.all(np.diag(tracked)):
            raise ConfigurationError("every agent must track its own column")
        self.tracked = tracked
        # With every entry tracked the merge writes the whole table and the
        # oldest stamp is a plain min; reduced tables mask both by `tracked`.
        if tracked.all():
            self._writable = True
            self._untracked_offsets = None
        else:
            self._writable = tracked
            self._untracked_offsets = np.where(tracked, 0, MAX_ROUNDS).astype(np.int32)
            self._offset_stamps = np.empty((n, n), dtype=np.int32)
        self._agents = np.arange(n)
        self.capacity = cap = int(capacity)
        self.stamps = np.full((n, n), -1, dtype=np.int32)
        # Round t lives in ring slot t % cap; slot cap stays zero, round -1.
        # The rings are laid out agent-major, so agent i's quotients and
        # perturbations of every slot sit together.
        self._q_ring = np.zeros((n, cap + 1))
        self._z_ring = np.zeros((n, cap + 1, int(d_max)))
        self._ring_rounds = np.full(cap + 1, -1, dtype=np.int32)
        self._diag_flat = np.arange(n) * (n + 1)  # flat (C-order) positions of (i, i)
        self._agent_base = np.arange(n) * (cap + 1)  # flat start of agent i's ring row
        # Lag -> slot after round t: lag L reads the slot of round t - L
        # while that round exists and is in the ring (L <= t, L < cap);
        # never-heard entries (lag t + 1) and older ones read slot cap.
        # While t < cap the table is the window from t of
        # [cap-1, ..., 0, cap, ..., cap]; later it is the window from
        # t % cap of the doubled cycle [cap-1, ..., 0, cap-1, ..., 0],
        # copied into a buffer that ends in cap.
        descending = np.arange(cap - 1, -1, -1)
        self._warmup = np.concatenate((descending, np.full(cap + 1, cap)))
        self._cycle = np.tile(descending, 2)
        self._phase = np.full(cap + 1, cap)
        self._t = -1
        self._slot_of_lag = self._warmup[cap:]  # no round yet: everything reads slot cap

    def record_own(self, t: int, quotients: np.ndarray, z: np.ndarray) -> None:
        slot = t % self.capacity
        self._q_ring[:, slot] = quotients
        self._z_ring[:, slot] = z
        self._ring_rounds[slot] = t
        self.stamps.put(self._diag_flat, t)
        self._t = t
        cap = self.capacity
        if t < cap:
            self._slot_of_lag = self._warmup[cap - 1 - t : 2 * cap - t]
        else:
            self._phase[:cap] = self._cycle[cap - 1 - slot : 2 * cap - 1 - slot]
            self._slot_of_lag = self._phase

    def _slots(self) -> np.ndarray:
        """Ring slot of each entry, looked up by its lag t - stamp from the
        last recorded round t (clipped at `capacity`): never-heard entries
        and stamps that left the ring read the zero slot `capacity`."""
        return self._slot_of_lag.take(self._t - self.stamps, mode="clip")

    @property
    def quotients(self) -> np.ndarray:
        """Derived (n, n) values, 0 where never heard or where the stamp
        left the ring (read-only)."""
        return self._q_ring.take(self._slots() + self._agent_base)

    def snapshot(self) -> np.ndarray:
        return self.stamps.copy()

    def merge_from(
        self,
        snapshot: np.ndarray,
        neighbor_matrix: np.ndarray,
        drop_mask: np.ndarray | None = None,
    ) -> None:
        """Raise each tracked entry to the newest stamp delivered from an
        earlier `snapshot` of these tables.

        `neighbor_matrix` is (n, max_deg), row i listing agent i's
        neighbors, padded with i itself.  `drop_mask` (n, max_deg)
        suppresses dropped directed messages: a dropped sender is replaced
        by the receiver, like a pad.  Both are harmless candidates, since
        stamps never decrease and a row's earlier snapshot cannot beat its
        current stamps.  So the merge is one gather of the senders' rows,
        (max_deg, n, n), and a max over the senders.
        """
        senders = neighbor_matrix.T
        if drop_mask is not None:
            senders = np.where(drop_mask.T, self._agents, senders)
        newest = snapshot.take(senders, axis=0).max(axis=0)
        np.maximum(self.stamps, newest, out=self.stamps, where=self._writable)

    def oldest_stamp(self) -> int:
        """The oldest stamp over tracked entries; -1 while any tracked entry
        is never heard."""
        if self._untracked_offsets is None:
            return int(self.stamps.min())
        return int(np.add(self.stamps, self._untracked_offsets, out=self._offset_stamps).min())

    def staleness(self, t: int) -> np.ndarray:
        """Per-entry age t - stamp over tracked columns (never-heard
        entries read t + 1); untracked entries report 0."""
        return np.where(self.tracked, t - self.stamps, 0)

    def assemble(self, use_mask: np.ndarray | None = None, oldest: int | None = None) -> np.ndarray:
        """Gradient blocks (n, d_max): row i is agent i's estimator, the
        sum over the columns j in `use_mask` (default: all) of quotient j
        times agent i's own perturbation of the stamped round, over n.
        Raises ProtocolViolation if a used stamp left the ring.

        The sum runs by ring slot: W[i, s] sums the quotients agent i
        holds from the round in slot s, and row i is W[i] @ z_ring[i].

        The window check compares each entry's stamp with the round its
        slot holds.  Only a stamp at least `capacity` rounds old can fail
        it, so it runs only when the oldest tracked stamp is that old.
        A caller that already holds this round's `oldest_stamp()` passes
        it as `oldest`.
        """
        slots = self._slots()
        t, cap = self._t, self.capacity
        if oldest is None:
            oldest = self.oldest_stamp()
        if t >= cap and oldest <= t - cap:
            bad = self._ring_rounds.take(slots) != self.stamps
            if use_mask is not None:
                bad &= use_mask
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ProtocolViolation(
                    f"agent {i + 1} references round {self.stamps[i, j]} "
                    f"for column {j + 1}, which left the history window; "
                    "the staleness bound was exceeded"
                )
        q = self._q_ring.take(slots + self._agent_base)
        if use_mask is not None:
            q *= use_mask
        slots += self._agent_base[:, None]
        weights = np.bincount(slots.ravel(), q.ravel(), self._q_ring.size)
        grad = np.matmul(weights.reshape(self.n, 1, -1), self._z_ring).reshape(self.n, -1)
        grad /= self.n
        return grad
