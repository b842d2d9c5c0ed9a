"""Eviction planning: hierarchical step-aware allocation plus baselines.

The hierarchical policy sorts steps by ascending step score per layer,
greedily assigns the per-layer eviction budget to the most redundant steps
first, then evicts the lowest-scoring tokens inside each allocated step
independently per head. Random, accumulated-attention (h2o) and
oldest-first (streaming) baselines share the plan type; plan_streaming
is the unbudgeted first/recent window form of streaming.

Every baseline, and the hierarchical policy under a ratio cap, ranks its
victims with a Ranker: one call per probe round or capped append keys
every (layer, head, position) slot of a shape; random's keys are one
uniform draw. lowest_keyed is the only code that turns keys into victims:
per (layer, head), the eligible slots with the lowest keys, ties to the
smaller position, by one argmin when no head takes more than one (every
capped append) and one stable sort otherwise. The hierarchical plan calls
it once per allocated step, the baselines' probe rounds through
plan_by_selector and ratio caps through cache.enforce_budget, for which
policy_ranker maps each PolicyKind to its Ranker.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BudgetExceedsStep
from .scoring import Candidates, ScoreTensor, StepScores, candidate_mask, ranked_step_order
from .trace import Segmentation

# (layers, heads, n) shape -> finite keys of that shape; lower keys are
# evicted first
Ranker = Callable[[tuple[int, ...]], np.ndarray]


class PolicyKind(str, Enum):
    HIERARCHICAL = "ours"
    RANDOM = "random"
    H2O = "h2o"
    STREAMING = "streaming"


@dataclass(frozen=True)
class EvictionBudget:
    """Tokens to evict per (layer, head) in one pruning round."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"eviction budget must be >= 0, got {self.k}")


@dataclass(frozen=True)
class StepAllocation:
    """Per layer: (step id, evictions) pairs in the greedy ascending-score order."""

    by_layer: Mapping[int, tuple[tuple[int, int], ...]]

    def layer_order(self, layer: int) -> tuple[tuple[int, int], ...]:
        return self.by_layer.get(layer, ())


class EvictionPlan:
    """(layer, head, token) slots to remove from the cache.

    victims is a read-only (victims, 3) integer array of (layer, head,
    token) rows in ascending order; counts holds each (layer, head)'s
    number of victims, equal across the heads of a layer. Build one from a
    {(layer, head): integer tokens} mapping (negative or out-of-range
    tokens are the cache's to reject), or from a mask with of_mask.
    """

    def __init__(self, num_layers: int, num_heads: int,
                 evicted: Mapping[tuple[int, int], Iterable[int]]):
        rows = set()
        for (layer, head), tokens in evicted.items():
            if not (0 <= layer < num_layers and 0 <= head < num_heads):
                raise ValueError(f"plan entry {(layer, head)} outside ({num_layers}, {num_heads})")
            for token in tokens:
                if isinstance(token, bool) or not isinstance(token, numbers.Integral):
                    raise ValueError(f"plan token {token!r} at ({layer}, {head}) is not an integer")
                rows.add((layer, head, int(token)))
        self._set(num_layers, num_heads, np.array(sorted(rows), dtype=np.intp).reshape(-1, 3))

    @classmethod
    def of_mask(cls, picked: np.ndarray) -> "EvictionPlan":
        """The plan evicting the set slots of a (layers, heads, n) mask."""
        plan = cls.__new__(cls)
        plan._set(*picked.shape[:2], np.argwhere(picked))
        return plan

    def _set(self, num_layers: int, num_heads: int, victims: np.ndarray) -> None:
        counts = np.bincount(victims[:, 0] * num_heads + victims[:, 1],
                             minlength=num_layers * num_heads).reshape(num_layers, num_heads)
        uneven = np.flatnonzero((counts != counts[:, :1]).any(axis=1))
        if uneven.size:
            layer = int(uneven[0])
            raise ValueError(f"head eviction counts differ within layer {layer}: "
                             f"{sorted(set(counts[layer].tolist()))}")
        victims.flags.writeable = False
        self.num_layers, self.num_heads = num_layers, num_heads
        self.victims = victims
        self.counts = counts

    def head_lists(self) -> list[list[list[int]]]:
        """Per layer, per head, the ascending list of victim tokens."""
        tokens = self.victims[:, 2].tolist()
        ends = np.cumsum(self.counts).tolist()
        heads = [tokens[start:end] for start, end in zip([0] + ends, ends)]
        return [heads[layer * self.num_heads:(layer + 1) * self.num_heads]
                for layer in range(self.num_layers)]

    @property
    def evicted(self) -> dict[tuple[int, int], frozenset[int]]:
        """{(layer, head): victim tokens} for every (layer, head)."""
        return {(layer, head): frozenset(tokens)
                for layer, heads in enumerate(self.head_lists())
                for head, tokens in enumerate(heads)}

    def head_set(self, layer: int, head: int) -> frozenset[int]:
        return frozenset(self.head_lists()[layer][head])

    def __eq__(self, other) -> bool:
        """The same dimensions and victims, whatever mask width they came from."""
        if not isinstance(other, EvictionPlan):
            return NotImplemented
        return ((self.num_layers, self.num_heads) == (other.num_layers, other.num_heads)
                and np.array_equal(self.victims, other.victims))


def allocate(
    step_scores: StepScores,
    seg: Segmentation,
    live: Candidates,
    budget: EvictionBudget,
) -> StepAllocation:
    """Greedy per-layer budget split over steps in ascending step-score order.

    Each step takes min(its live size at head 0, remaining budget); ties on
    score go to the smaller step id. When the budget exceeds the total live
    tokens the allocation saturates (partial fulfillment, no error).
    """
    layers = 1 + max(step_scores.by_layer, default=-1)
    eligible = candidate_mask(live, (layers, 1, seg.trace_len))
    sizes = seg.count_per_step(eligible[:, 0]).tolist()
    by_layer: dict[int, tuple[tuple[int, int], ...]] = {}
    for layer in step_scores.by_layer:
        remaining = budget.k
        allocs: list[tuple[int, int]] = []
        for sid, _score in ranked_step_order(step_scores, layer):
            if remaining == 0:
                break
            take = min(sizes[layer][sid], remaining)
            if take > 0:
                allocs.append((sid, take))
                remaining -= take
        by_layer[layer] = tuple(allocs)
    return StepAllocation(by_layer)


def plan_from_allocation(
    scores: ScoreTensor,
    seg: Segmentation,
    live: Candidates,
    allocation: StepAllocation,
) -> EvictionPlan:
    """Per layer, each allocated step evicts at every head its allocated
    count of lowest-scoring live tokens, which lowest_keyed picks over the
    step's span. Raises BudgetExceedsStep for the first (layer, allocated
    step) where a head has fewer live tokens than that."""
    shape = (scores.num_layers, scores.num_heads, seg.trace_len)
    eligible = candidate_mask(live, shape)
    keys = scores.padded(seg.trace_len)
    sizes = seg.count_per_step(eligible).tolist()
    picked = np.zeros(shape, dtype=bool)
    for layer in range(scores.num_layers):
        for sid, count in allocation.layer_order(layer):
            short = [by_step[sid] for by_step in sizes[layer] if by_step[sid] < count]
            if short:
                raise BudgetExceedsStep(f"cannot evict {count} tokens from a step with "
                                        f"{short[0]} live tokens")
            step = seg.steps[sid]
            span = np.s_[layer, :, step.start:step.end]
            picked[span] |= lowest_keyed(eligible[span][None], np.full((1, shape[1]), count),
                                         keys[span][None])[0]
    return EvictionPlan.of_mask(picked)


def build_plan(
    scores: ScoreTensor,
    step_scores: StepScores,
    seg: Segmentation,
    live: Candidates,
    budget: EvictionBudget,
) -> EvictionPlan:
    """Full hierarchical plan: allocate per layer, select per head."""
    return plan_from_allocation(
        scores, seg, live, allocate(step_scores, seg, live, budget)
    )


def lowest_keyed(eligible: np.ndarray, counts: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """(layers, heads, n) mask of the counts[layer, head] eligible slots with
    the lowest keys per (layer, head), ties to the smaller position.

    counts must not exceed a head's eligible slots and keys must be finite,
    so the ineligible slots, keyed inf here, always sort after them. When no
    head takes more than one, argmin, which returns the first of tied minima
    as the stable sort does, picks each victim.
    """
    masked = np.where(eligible, keys, np.inf)
    picked = np.zeros_like(eligible)
    top = counts.max(initial=0)
    if top <= 1:
        layers, heads = np.nonzero(counts)
        if layers.size:
            picked[layers, heads, np.argmin(masked[layers, heads], axis=1)] = True
        return picked
    first = np.argsort(masked, axis=2, kind="stable")[:, :, :top]
    layers, heads, ranks = np.nonzero(np.arange(top) < counts[..., None])
    picked[layers, heads, first[layers, heads, ranks]] = True
    return picked


def oldest_first(shape: tuple[int, ...]) -> np.ndarray:
    """Streaming: one key for every slot, so the oldest eligible go first."""
    return np.zeros(shape)


def random_victims(seed_prefix: Sequence[int]) -> Ranker:
    """Every slot keyed by one uniform draw from default_rng(seed_prefix).

    IID uniform keys make each head's lowest-keyed eligible slots a uniform
    sample without replacement. The draw covers every (layer, head,
    position) slot at once, so it does not depend on the order in which
    heads are visited.
    """
    prefix = list(seed_prefix)
    return lambda shape: np.random.default_rng(prefix).random(shape)


def lowest_scores(scores: ScoreTensor) -> Ranker:
    """Each slot keyed by its score; unscored slots score zero."""
    return lambda shape: scores.padded(shape[2])


def round_ranking(scores: ScoreTensor, seg: Segmentation, step_scores: StepScores) -> Ranker:
    """Ratio-cap keys for the hierarchical policy, from one probe round.

    Tokens rank by their step's score, then their own score, then position;
    tokens the round did not score rank after those it did. One lexsort
    turns this into integer ranks below the round's width, and tokens
    generated after the round key their position, which is at least that
    width, so they go last, oldest first.
    """
    width = seg.trace_len
    shape = (scores.num_layers, scores.num_heads, width)
    step_value = np.full((scores.num_layers, width), np.inf)
    for layer, entries in step_scores.by_layer.items():
        for sid, value in entries:
            step_value[layer, seg.steps[sid].start:seg.steps[sid].end] = value
    token_value = np.where(candidate_mask(scores.scored, shape), scores.padded(width), np.inf)
    positions = np.broadcast_to(np.arange(width, dtype=float), shape)
    order = np.lexsort((positions, token_value, np.broadcast_to(step_value[:, None], shape)))
    ranks = np.empty(shape)
    np.put_along_axis(ranks, order, positions, axis=2)

    def rank(shape: tuple[int, ...]) -> np.ndarray:
        keys = np.broadcast_to(np.arange(shape[2], dtype=float), shape).copy()
        keys[:, :, :width] = ranks[:, :, :shape[2]]
        return keys

    return rank


def policy_ranker(
    policy: PolicyKind, *, seed: Sequence[int] = (), ranking: Ranker = oldest_first
) -> Ranker:
    """The one PolicyKind to Ranker mapping, for ratio caps.

    random draws afresh from the seed prefix and streaming keeps the oldest;
    h2o and the hierarchical policy rank by ranking: accumulated attention,
    or under a cap the latest probe round (oldest first before any).
    """
    if policy is PolicyKind.RANDOM:
        return random_victims(seed)
    if policy is PolicyKind.STREAMING:
        return oldest_first
    return ranking


def plan_by_selector(
    num_layers: int,
    num_heads: int,
    seq_len: int,
    live: Candidates,
    budget: EvictionBudget,
    rank: Ranker,
) -> EvictionPlan:
    """Evict the min(k, live) lowest-keyed live tokens below seq_len per (layer, head)."""
    eligible = candidate_mask(live, (num_layers, num_heads, seq_len))
    counts = np.minimum(budget.k, np.count_nonzero(eligible, axis=2))
    return EvictionPlan.of_mask(lowest_keyed(eligible, counts, rank(eligible.shape)))


def plan_random(
    num_layers: int,
    num_heads: int,
    seq_len: int,
    live: Candidates,
    budget: EvictionBudget,
    seed: int | Sequence[int],
) -> EvictionPlan:
    """Uniform random eviction of min(k, live) tokens per (layer, head)."""
    return plan_by_selector(num_layers, num_heads, seq_len, live, budget,
                            random_victims([seed] if isinstance(seed, int) else seed))


class H2OAccumulator:
    """Running sum of attention received per token at each (layer, head).

    sums and fed are (layers, heads, capacity) arrays: each token's sum, and
    whether it was ever fed. Feed the dense rows of every normal decode step
    after the prompt; the sums are never reset during a run. Rows are
    exactly 0.0 at dead columns, so adding whole rows gives every token the
    same sum, bit for bit, as adding only its live weights step by step.
    """

    def __init__(self, num_layers: int, num_heads: int):
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.sums = np.zeros((num_layers, num_heads, 0))
        self.fed = np.zeros(self.sums.shape, dtype=bool)

    def _reserve(self, width: int) -> None:
        capacity = self.sums.shape[2]
        if width > capacity:
            grow = ((0, 0), (0, 0), (0, max(width, 2 * capacity) - capacity))
            self.sums = np.pad(self.sums, grow)
            self.fed = np.pad(self.fed, grow)

    def add(self, rows: np.ndarray) -> None:
        """Add one decode step's (layers, heads, width) rows. Every column
        counts as fed: each token was live, so fed, at its own step."""
        width = rows.shape[2]
        self._reserve(width)
        self.sums[:, :, :width] += rows
        self.fed[:, :, :width] = True

    def update(self, layer: int, head: int, row: Mapping[int, float]) -> None:
        """Add one (layer, head)'s {token: weight} row; a row outside the
        accumulator or with a negative token raises ValueError, changing nothing."""
        tokens = list(row)
        low = min(tokens, default=0)
        if not (0 <= layer < self.num_layers and 0 <= head < self.num_heads and low >= 0):
            raise ValueError(f"h2o row entry for token {low} at ({layer}, {head}) is out of range")
        self._reserve(max(tokens, default=-1) + 1)
        self.sums[layer, head, tokens] += list(row.values())
        self.fed[layer, head, tokens] = True

    def history(self) -> ScoreTensor:
        """Every fed token's sum, as a ScoreTensor as wide as the capacity."""
        return ScoreTensor.from_arrays(self.sums, self.fed.copy())

    def rank(self, shape: tuple[int, ...]) -> np.ndarray:
        """Ranker: each slot keyed by its accumulated attention, 0 if never fed."""
        keys = np.zeros(shape)
        keys[:, :, :self.sums.shape[2]] = self.sums[:, :, :shape[2]]
        return keys


def h2o_scores(
    history: ScoreTensor,
    num_layers: int,
    num_heads: int,
    live: Candidates,
) -> ScoreTensor:
    """Accumulated attention (H2OAccumulator.history) filtered to live candidates."""
    if (history.num_layers, history.num_heads) != (num_layers, num_heads):
        raise ValueError(f"history has ({history.num_layers}, {history.num_heads}) heads, "
                         f"expected ({num_layers}, {num_heads})")
    return ScoreTensor.from_arrays(
        history.values, history.scored & candidate_mask(live, history.scored.shape))


def plan_h2o(
    scores: ScoreTensor,
    seq_len: int,
    live: Candidates,
    budget: EvictionBudget,
) -> EvictionPlan:
    """Evict the k lowest accumulated-attention tokens per head, no step structure."""
    return plan_by_selector(scores.num_layers, scores.num_heads, seq_len, live, budget,
                            lowest_scores(scores))


def plan_streaming(
    num_layers: int,
    num_heads: int,
    seq_len: int,
    live: Candidates,
    keep_first: int,
    keep_recent: int,
) -> EvictionPlan:
    """Evict every live token outside the first keep_first / last keep_recent,
    oldest first over [keep_first, seq_len - keep_recent)."""
    if keep_first < 0 or keep_recent < 0:
        raise ValueError("keep_first and keep_recent must be >= 0")
    eligible = candidate_mask(live, (num_layers, num_heads, seq_len - keep_recent))
    eligible[:, :, :keep_first] = False
    return plan_by_selector(num_layers, num_heads, seq_len - keep_recent, eligible,
                            EvictionBudget(max(0, seq_len)), oldest_first)


def plan_oldest(
    num_layers: int,
    num_heads: int,
    seq_len: int,
    live: Candidates,
    budget: EvictionBudget,
) -> EvictionPlan:
    """Evict the k oldest live candidates per (layer, head): the per-round
    budgeted analog of streaming retention."""
    return plan_by_selector(num_layers, num_heads, seq_len, live, budget, oldest_first)


def plan_to_dict(plan: EvictionPlan, allocation: StepAllocation | None = None) -> dict:
    """JSON form: {"layers": [{"heads": [[indices...], ...]}, ...], "allocation": ...}."""
    layers = [{"heads": heads} for heads in plan.head_lists()]
    alloc = None
    if allocation is not None:
        alloc = [
            [[sid, count] for sid, count in allocation.layer_order(layer)]
            for layer in range(plan.num_layers)
        ]
    return {"layers": layers, "allocation": alloc}
