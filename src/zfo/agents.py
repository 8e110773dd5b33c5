"""Protocol state of the whole swarm: stamped difference-quotient tables,
the rings of past quotients and perturbations, merging of gossiped
tables, and gradient assembly.

`SwarmTables` holds every agent's table in one (n, n) stamp array so the
simulator can process a round with a handful of vector operations.  The
stamps are int16 when the run's last round plus every hop offset fits,
and int32 otherwise: a lossy round's merge and ages are bound by the
bytes of stamps they move.  It follows these rules:

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

# Stamps are at most int32: rounds, and rounds plus hop distances (the
# extra-delay accounting), stay below 2**31 while a run has fewer than
# MAX_ROUNDS rounds.  MAX_ROUNDS is also the untracked entries' offset at int32.
MAX_ROUNDS = 2**30
# The untracked entries' offset at int16.
_NARROW_UNTRACKED = int(np.iinfo(np.int16).max)


def max_lag(distances: np.ndarray, tracked: np.ndarray) -> int:
    """The largest hop distance of a tracked entry (0 with none): how old a
    tracked entry is, at most, when no message is lost."""
    return int(np.max(distances, where=tracked, initial=0))


class SwarmTables:
    """All agents' tables as one (n, n) stamp array: row i is agent i's
    table.  `record_own` keeps each round's own quotients (n,) and
    perturbations (n, d_max) in slot t & mask of rings whose size is the
    smallest power of two holding `capacity` rounds; entry (i, j) reads
    column j's quotient of round stamps[i, j] from slot stamps[i, j] &
    mask while it is less than `capacity` rounds old (the history window).

    `tracked` marks the columns each row maintains; untracked entries
    stay at stamp -1 forever, which is how reduced tables
    (dependence-aware communication) are represented.

    `distances` is the (n, n) hop distance of each tracked entry (inside
    the column's trackers for reduced tables; default 0), and `max_lag`
    its largest value.  The history window holds `max_lag + headroom` rounds,
    capped at `horizon + 1`, which no stamp outlives.  An entry's extra delay
    is its age minus its distance.

    Stamps come only from `record_own` (called once per round, in order,
    up to round `horizon`) and `merge_from` (the tables as the neighbours
    sent them).  They are the true rounds.  The stamps, the offsets and
    their sums are int16 when `horizon + max_lag` lies below the int16
    untracked offset less one, so that no sum reaches an untracked
    entry's, and int32 otherwise; the dtype is fixed for the tables'
    life, and every method runs the same statements on either.  With no
    message lost (`lossless`) every entry is exactly its distance old once
    heard, so `record_own` writes the whole table, max(-1, t - distances),
    and the run needs no merge.
    """

    def __init__(
        self,
        n: int,
        tracked: np.ndarray,
        headroom: int,
        d_max: int,
        distances: np.ndarray | None = None,
        lossless: bool = False,
        horizon: int = MAX_ROUNDS - 1,
    ):
        self.n = int(n)
        tracked = np.asarray(tracked, dtype=bool)
        if tracked.shape != (n, n):
            raise ConfigurationError("tracked mask must be (n, n)")
        if not np.all(np.diag(tracked)):
            raise ConfigurationError("every agent must track its own column")
        self.tracked = tracked
        # With every entry tracked the merge writes the whole table and the
        # oldest stamp is a plain min; reduced tables mask the merge by
        # `tracked` and take the min over the tracked entries' flat positions.
        self._reduced = not tracked.all()
        self._writable = tracked if self._reduced else True
        self._tracked_flat = np.flatnonzero(tracked) if self._reduced else None
        distances = np.zeros((n, n), dtype=np.int32) if distances is None else distances
        if np.shape(distances) != (n, n) or (np.asarray(distances)[tracked] < 0).any():
            raise ConfigurationError("distances must be (n, n) and >= 0 on tracked entries")
        self.max_lag = max_lag(distances, tracked)
        self.horizon = int(horizon)
        narrow = self.horizon + self.max_lag < _NARROW_UNTRACKED - 1
        dtype = np.int16 if narrow else np.int32
        # untracked entries lie the sentinel away: never written, never the least extra delay
        self._offsets = np.full((n, n), _NARROW_UNTRACKED if narrow else MAX_ROUNDS, dtype=dtype)
        np.copyto(self._offsets, distances, where=tracked)
        self.lossless = bool(lossless)
        self._offset_stamps = None if lossless else np.empty((n, n), dtype=dtype)
        self._agents = np.arange(n)
        self.capacity = cap = min(self.max_lag + int(headroom), self.horizon + 1)
        size = 1 << (cap - 1).bit_length()
        self._mask = size - 1
        self.stamps = np.full((n, n), -1, dtype=dtype)
        # The rings are laid out agent-major, so agent i's quotients and
        # perturbations of every slot sit together.
        self._q_ring = np.zeros((n, size))
        self._z_ring = np.zeros((n, size, int(d_max)))
        self._diag_flat = np.arange(n) * (n + 1)  # flat (C-order) positions of (i, i)
        self._agent_base = np.arange(n) * size  # flat start of agent i's ring row
        self._row_base = self._agent_base[:, None]
        self._t = -1
        self._oldest: int | None = None  # oldest_stamp() of the tables as they stand

    def record_own(self, t: int, quotients: np.ndarray, z: np.ndarray) -> None:
        if t > self.horizon:
            raise ProtocolViolation(f"round {t} is past the tables' horizon {self.horizon}")
        slot = t & self._mask
        self._q_ring[:, slot] = quotients
        self._z_ring[:, slot] = z
        if self.lossless:
            np.subtract(t, self._offsets, out=self.stamps)
            # from round max_lag on every tracked entry is heard; untracked ones never are
            if t < self.max_lag or self._reduced:
                np.maximum(self.stamps, -1, out=self.stamps)
        else:
            self.stamps.put(self._diag_flat, t)
        self._t = t
        self._oldest = None

    @property
    def quotients(self) -> np.ndarray:
        """Derived (n, n) values, 0 where never heard or where the stamp
        left the history window (read-only)."""
        slots = np.bitwise_and(self.stamps, self._mask, dtype=np.intp)
        q = self._q_ring.take(slots + self._agent_base)
        q[(self.stamps < 0) | (self.stamps <= self._t - self.capacity)] = 0.0
        return q

    def snapshot(self) -> np.ndarray:
        return self.stamps.copy()

    def merge_from(
        self,
        snapshot: np.ndarray,
        neighbor_matrix: np.ndarray,
        drop_mask: np.ndarray | None = None,
    ) -> None:
        """Raise each tracked entry to the newest stamp delivered from
        `snapshot`, the tables as the neighbours sent them: these tables
        themselves before this round's `record_own`, or an earlier copy.

        `neighbor_matrix` is (n, max_deg), row i listing agent i's
        neighbors, padded with i itself.  `drop_mask` (n, max_deg)
        suppresses dropped directed messages: a dropped sender is replaced
        by the receiver, like a pad.  Both are harmless candidates, since
        stamps never decrease and a row as sent cannot beat its current
        stamps.  So the merge is one gather of the senders' rows,
        (max_deg, n, n), and a max over the senders; the gather is a
        copy, so `snapshot` may be `stamps` itself.
        """
        senders = neighbor_matrix.T
        if drop_mask is not None:
            senders = np.where(drop_mask.T, self._agents, senders)
        newest = np.maximum.reduce(snapshot.take(senders, axis=0), axis=0)
        np.maximum(self.stamps, newest, out=self.stamps, where=self._writable)
        self._oldest = None

    def oldest_stamp(self) -> int:
        """The oldest stamp over tracked entries; -1 while any tracked entry
        is never heard."""
        if self._oldest is None:
            held = self.stamps.take(self._tracked_flat) if self._reduced else self.stamps
            self._oldest = int(np.minimum.reduce(held, axis=None))
        return self._oldest

    def ages(self) -> tuple[int, int]:
        """The oldest tracked age and the largest extra delay of the tables
        after this round's `record_own`; never-heard entries are t + 1 old.
        Loss-free tables are min(t + 1, max_lag) old, with no extra delay."""
        t = self._t
        if self.lossless:
            self._oldest = t - min(t + 1, self.max_lag)
            return t - self._oldest, 0
        due = np.add(self.stamps, self._offsets, out=self._offset_stamps)
        extra = t - int(np.minimum.reduce(due, axis=None))
        return t - self.oldest_stamp(), extra

    def staleness(self, t: int) -> np.ndarray:
        """Per-entry age t - stamp over tracked columns (never-heard
        entries read t + 1); untracked entries report 0.  The ages are intp
        whatever the stamps' dtype, so arithmetic on them cannot overflow."""
        return np.where(self.tracked, np.subtract(t, self.stamps, dtype=np.intp), 0)

    def _check_window(self, use_mask: np.ndarray | None) -> None:
        """Raise ProtocolViolation if a used entry holds a round at least
        `capacity` rounds old: that round left the history window."""
        bad = (self.stamps >= 0) & (self.stamps <= self._t - self.capacity)
        if use_mask is not None:
            bad &= use_mask
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ProtocolViolation(
                f"agent {i + 1} references round {self.stamps[i, j]} "
                f"for column {j + 1}, which left the history window; "
                "the staleness bound was exceeded"
            )

    def assemble(self, use_mask: np.ndarray | None = None) -> np.ndarray:
        """Gradient blocks (n, d_max): row i is agent i's estimator, the
        sum over the columns j in `use_mask` (default: all) of quotient j
        times agent i's own perturbation of the stamped round, over n.
        Raises ProtocolViolation if a used stamp left the history window.

        The sum runs by ring slot: W[i, s] sums the quotients agent i
        holds from the round in slot s, and row i is W[i] @ z_ring[i].

        Only a stamp at least `capacity` rounds old can fail the window
        check, so it runs only when the oldest tracked stamp is that old.
        Never-heard entries (stamp -1) share a live slot, so their
        quotients are zeroed while a tracked entry is never heard, and
        always for reduced tables, whose untracked entries stay -1.
        """
        t, cap = self._t, self.capacity
        oldest = self.oldest_stamp()
        if t >= cap and oldest <= t - cap:
            self._check_window(use_mask)
        # intp slots: take and bincount would otherwise convert the narrow ones
        slots = np.bitwise_and(self.stamps, self._mask, dtype=np.intp)
        q = self._q_ring.take(slots + self._agent_base)
        if oldest < 0 or self._reduced:
            q *= self.stamps >= 0
        if use_mask is not None:
            q *= use_mask
        slots += self._row_base
        weights = np.bincount(slots.ravel(), q.ravel(), self._q_ring.size)
        grad = np.matmul(weights.reshape(self.n, 1, -1), self._z_ring).reshape(self.n, -1)
        grad /= self.n
        return grad
