"""KV cache storage and occupancy: live mask, protected regions, budgets.

Keys and values sit in two arrays indexed by (layer, head, token position),
and one boolean mask of the same leading shape says which entries are
live. Eviction clears mask bits and never moves a vector, so every survivor
keeps its original position and positional geometry is preserved. A cache
is owned by a single decode loop; snapshots taken for reporting are
copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetInfeasible, ProtectedTokenEviction, UnknownToken
from .policy import EvictionPlan, Ranker, lowest_keyed


@dataclass(frozen=True)
class ProtectedRegions:
    """Slots no policy may evict: the whole prompt and the recent window."""

    prompt_len: int
    recent_window: int

    def __post_init__(self) -> None:
        if self.prompt_len < 0 or self.recent_window < 0:
            raise ValueError("protected region sizes must be >= 0")


@dataclass(frozen=True)
class CacheBudget:
    """Hard cap on live non-prompt slots per (layer, head), enforced at every append.

    Its recent window is half the cap, as in H2O, so each capped append
    finds a victim outside the window.
    """

    max_slots: int
    ratio: float | None = None

    def __post_init__(self) -> None:
        if self.ratio is not None and not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        if self.max_slots < 1:
            raise ValueError("a cache budget requires max_slots >= 1")

    @property
    def recent_window(self) -> int:
        return self.max_slots // 2

    @classmethod
    def from_ratio(cls, ratio: float, full_kv_len: float) -> "CacheBudget":
        """Resolve a compression ratio against a measured full-cache average length."""
        if full_kv_len <= 0:
            raise ValueError("full_kv_len must be positive")
        max_slots = max(1, int(ratio * full_kv_len))
        return cls(max_slots=max_slots, ratio=ratio)


class KvCacheState:
    """Key/value storage plus one live mask per (layer, head), for one decode loop.

    keys and values have shape (layers, heads, capacity, head_dim) and live
    has shape (layers, heads, capacity); position t holds token t. A new
    cache has capacity 0, and the first joining forward reserves its
    model's max_seq_len (see reserve), so a run allocates its arrays once.
    Only positions below next_index can be live, so every scan of live
    stops there and costs what the sequence holds, not the capacity. Each
    slot has one writer: the forward writes a new token's key/value into the
    slot at next_index, and append then commits that slot without touching
    its data.
    """

    def __init__(
        self,
        num_layers: int,
        num_heads: int,
        head_dim: int,
        protected: ProtectedRegions,
    ):
        if min(num_layers, num_heads, head_dim) < 1:
            raise ValueError("num_layers, num_heads and head_dim must be >= 1")
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.protected = protected
        self.keys = np.zeros((num_layers, num_heads, 0, head_dim))
        self.values = np.zeros_like(self.keys)
        self.live = np.zeros((num_layers, num_heads, 0), dtype=bool)
        self.next_index = 0
        self.evicted_total = 0

    @property
    def prompt_len(self) -> int:
        return self.protected.prompt_len

    def live_indices(self, layer: int, head: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.live[layer, head, :self.next_index]).tolist())

    def live_nonprompt_count(self, layer: int, head: int) -> int:
        return int(np.count_nonzero(self.live[layer, head, self.prompt_len:self.next_index]))

    def is_live(self, layer: int, head: int, token: int) -> bool:
        return 0 <= token < self.next_index and bool(self.live[layer, head, token])

    def evictable(self) -> np.ndarray:
        """(layers, heads, next_index) mask of the live tokens in
        [prompt_len, next_index - recent_window): past the prompt and outside
        the recent window. Empty when the window covers the whole sequence.
        """
        evictable = np.zeros((self.num_layers, self.num_heads, self.next_index), dtype=bool)
        span = slice(self.prompt_len, max(0, self.next_index - self.protected.recent_window))
        evictable[:, :, span] = self.live[:, :, span]
        return evictable

    def live_sets(self) -> dict[tuple[int, int], frozenset[int]]:
        """Immutable snapshot of every (layer, head) live index set."""
        live = self.live[:, :, :self.next_index]
        return {
            (layer, head): frozenset(np.flatnonzero(live[layer, head]).tolist())
            for layer in range(self.num_layers)
            for head in range(self.num_heads)
        }

    def live_arrays(self, layer: int, head: int) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Live indices plus their key/value rows, oldest first."""
        positions = np.flatnonzero(self.live[layer, head, :self.next_index])
        return positions.tolist(), self.keys[layer, head, positions], self.values[layer, head, positions]

    def reserve(self, capacity: int) -> None:
        """Make sure positions below capacity have storage. A smaller cache
        gets new keys, values and live arrays of exactly that capacity,
        holding the old contents; they come from np.zeros, so the pages of
        slots never written are never touched. A joining forward reserves
        its model's max_seq_len, which no position reaches. live and
        next_index do not change."""
        old = self.live.shape[2]
        if capacity <= old:
            return
        shape = (self.num_layers, self.num_heads, capacity)
        keys, values = np.zeros(shape + (self.head_dim,)), np.zeros(shape + (self.head_dim,))
        live = np.zeros(shape, dtype=bool)
        keys[:, :, :old], values[:, :, :old], live[:, :, :old] = self.keys, self.values, self.live
        self.keys, self.values, self.live = keys, values, live

    def append(self, token_index: int) -> None:
        """Commit the key/value already written to slot token_index in every
        (layer, head): set its live bits and advance next_index.

        The token index must be exactly the next unseen position, and its
        slot must have storage (see reserve).
        """
        if token_index != self.next_index:
            raise ValueError(
                f"appends must be sequential: expected {self.next_index}, got {token_index}"
            )
        if token_index >= self.live.shape[2]:
            raise ValueError(f"slot {token_index} has no storage: capacity is "
                             f"{self.live.shape[2]}")
        self.live[:, :, token_index] = True
        self.next_index += 1

    def apply_plan(self, plan: EvictionPlan) -> int:
        """Remove every planned token; validates the whole plan before mutating.

        Returns the number of entries removed. Raises UnknownToken or
        ProtectedTokenEviction (leaving the state untouched) for the first
        invalid token, checking each head's tokens in ascending order.
        """
        if plan.num_layers != self.num_layers or plan.num_heads != self.num_heads:
            raise ValueError(
                f"plan dimensions ({plan.num_layers}, {plan.num_heads}) do not match "
                f"cache ({self.num_layers}, {self.num_heads})"
            )
        evictable = self.evictable()
        # plan rows ascend by (layer, head, token), the order the checks run
        layers, heads, tokens = plan.victims.T
        live = (tokens >= 0) & (tokens < self.next_index)
        live[live] = self.live[layers[live], heads[live], tokens[live]]
        allowed = np.zeros_like(live)
        allowed[live] = evictable[layers[live], heads[live], tokens[live]]
        if not allowed.all():
            first = int(np.argmin(allowed))
            layer, head, token = plan.victims[first].tolist()
            if not live[first]:
                raise UnknownToken(f"token {token} is not live at ({layer}, {head})")
            raise ProtectedTokenEviction(
                f"token {token} at ({layer}, {head}) is prompt or recent-window protected"
            )
        victims = np.zeros_like(evictable)
        victims[layers, heads, tokens] = True
        return self._evict(victims)

    def _evict(self, victims: np.ndarray) -> int:
        """Clear the live bits of victims, a (layers, heads, next_index) mask
        of evictable tokens. The only code that evicts; returns the count."""
        self.live[:, :, :self.next_index] &= ~victims
        removed = int(np.count_nonzero(victims))
        self.evicted_total += removed
        return removed

    def remove_suffix(self, start_index: int) -> int:
        """Drop every live entry at index >= start_index from all slots.

        Used to retract transient probe tokens; removals are not counted as
        evictions and next_index rolls back to start_index. A negative
        start_index raises ValueError and changes nothing.
        """
        if start_index < 0:
            raise ValueError(f"remove_suffix start must be >= 0, got {start_index}")
        removed = int(np.count_nonzero(self.live[:, :, start_index:self.next_index]))
        self.live[:, :, start_index:self.next_index] = False
        self.next_index = min(self.next_index, start_index)
        return removed

    def stats(self) -> np.ndarray:
        """(layers, heads) count of live tokens per head."""
        return np.add.reduce(self.live[:, :, :self.next_index], axis=2, dtype=np.intp)


def enforce_budget(state: KvCacheState, budget: CacheBudget, rank: Ranker) -> int:
    """Make room for one incoming token under a cache budget.

    Every (layer, head) that would exceed max_slots non-prompt live entries
    after the next append evicts its overflow now: its lowest-keyed
    evictable tokens (the cache's own recent window applies), keyed by one
    rank call for all heads. Raises BudgetInfeasible, changing nothing, when
    a head has fewer evictable tokens than its overflow. Returns the count.
    """
    recent = state.protected.recent_window
    if budget.max_slots < recent:
        raise BudgetInfeasible(
            f"max_slots {budget.max_slots} cannot hold recent window {recent}"
        )
    nonprompt = state.live[:, :, state.prompt_len:state.next_index]
    overflow = np.maximum(np.add.reduce(nonprompt, axis=2, dtype=np.intp) + 1 - budget.max_slots, 0)
    if not overflow.any():
        return 0
    eligible = state.evictable()
    available = np.add.reduce(eligible, axis=2, dtype=np.intp)
    short = overflow > available
    if short.any():
        layer, head = np.argwhere(short)[0].tolist()
        raise BudgetInfeasible(
            f"(layer {layer}, head {head}) must evict {overflow[layer, head]} but only "
            f"{available[layer, head]} tokens are eligible"
        )
    return state._evict(lowest_keyed(eligible, overflow, rank(eligible.shape)))
