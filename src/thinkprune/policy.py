"""Eviction planning: hierarchical step-aware allocation plus baselines.

The hierarchical policy sorts steps by ascending step score per layer,
greedily assigns the per-layer eviction budget to the most redundant steps
first, then evicts the lowest-scoring tokens inside each allocated step
independently per head. Random, accumulated-attention (h2o) and
oldest-first (streaming) baselines share the plan type; plan_streaming
is the unbudgeted first/recent window form of streaming.

Every baseline, and the hierarchical policy under a ratio cap, ranks its
victims with a Ranker: one call per probe round or capped append gives a
key to every (layer, head, position) slot. lowest_keyed is the only code
that turns keys into victims: per (layer, head), the eligible slots with
the lowest keys, ties to the smaller position. Probe rounds reach it
through plan_by_selector, ratio caps through cache.enforce_budget, and
policy_ranker maps each PolicyKind to its Ranker for both.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BudgetExceedsStep
from .scoring import Candidates, ScoreTensor, StepScores, candidate_mask, ranked_step_order
from .trace import Segmentation, Step

# (eligible (layers, heads, n) mask, counts to evict (layers, heads)) ->
# (layers, heads, n) finite keys; lower keys are evicted first
Ranker = Callable[[np.ndarray, np.ndarray], np.ndarray]


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

    def total(self) -> int:
        return sum(e for allocs in self.by_layer.values() for _, e in allocs)


@dataclass(frozen=True)
class EvictionPlan:
    """Per-(layer, head) sets of token indices to remove from the cache.

    Head sets within a layer may differ in membership but never in size.
    """

    num_layers: int
    num_heads: int
    evicted: Mapping[tuple[int, int], frozenset[int]]

    def __post_init__(self) -> None:
        full = {
            (layer, head): frozenset(self.evicted.get((layer, head), frozenset()))
            for layer in range(self.num_layers)
            for head in range(self.num_heads)
        }
        for key in self.evicted:
            if key not in full:
                raise ValueError(f"plan entry {key} outside ({self.num_layers}, {self.num_heads})")
        for layer in range(self.num_layers):
            sizes = {len(full[(layer, head)]) for head in range(self.num_heads)}
            if len(sizes) > 1:
                raise ValueError(f"head eviction counts differ within layer {layer}: {sorted(sizes)}")
        object.__setattr__(self, "evicted", full)

    def head_set(self, layer: int, head: int) -> frozenset[int]:
        return self.evicted[(layer, head)]

    def total(self) -> int:
        return sum(len(v) for v in self.evicted.values())


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


def _lowest_in_step(eligible: np.ndarray, keys: np.ndarray, step: Step, count: int) -> np.ndarray:
    """(rows, count) positions of the count lowest-keyed eligible tokens of
    step in each row of (rows, n) eligible and keys, ties to the smaller
    position. Every row must hold count eligible tokens in the step."""
    span = np.s_[:, step.start:step.end]
    order = np.argsort(np.where(eligible[span], keys[span], np.inf), axis=1, kind="stable")
    return step.start + order[:, :count]


def _short_step_error(count: int, available: int) -> BudgetExceedsStep:
    return BudgetExceedsStep(
        f"cannot evict {count} tokens from a step with {available} live tokens"
    )


def select_within_step(
    scores: ScoreTensor,
    step: Step,
    count: int,
    layer: int,
    head: int,
    live: Candidates,
) -> frozenset[int]:
    """The `count` live tokens of the step with the lowest scores at (layer, head).

    Ties are broken toward the smaller token index; unscored tokens score 0.
    """
    eligible = candidate_mask(live, (scores.num_layers, scores.num_heads, step.end))
    available = int(np.count_nonzero(eligible[layer, head, step.start:]))
    if count > available:
        raise _short_step_error(count, available)
    keys = scores.padded(step.end)[layer, head:head + 1]
    return frozenset(_lowest_in_step(eligible[layer, head:head + 1], keys, step, count)[0].tolist())


def _plan_of(picked: np.ndarray) -> EvictionPlan:
    """The plan evicting a (layers, heads, n) mask of tokens."""
    num_layers, num_heads = picked.shape[:2]
    tokens = np.nonzero(picked)[2].tolist()
    ends = np.cumsum(np.count_nonzero(picked, axis=2)).tolist()
    return EvictionPlan(num_layers, num_heads, {
        divmod(index, num_heads): frozenset(tokens[start:end])
        for index, (start, end) in enumerate(zip([0] + ends, ends))
    })


def plan_from_allocation(
    scores: ScoreTensor,
    seg: Segmentation,
    live: Candidates,
    allocation: StepAllocation,
) -> EvictionPlan:
    """Per layer, each allocated step evicts its allocated count of lowest-
    scoring live tokens at every head. Raises BudgetExceedsStep for the
    first (layer, head, allocated step) with fewer live tokens than that."""
    shape = (scores.num_layers, scores.num_heads, seg.trace_len)
    eligible = candidate_mask(live, shape)
    keys = scores.padded(seg.trace_len)
    sizes = seg.count_per_step(eligible).tolist()
    picked = np.zeros(shape, dtype=bool)
    heads = np.arange(scores.num_heads)[:, None]
    for layer in range(scores.num_layers):
        order = allocation.layer_order(layer)
        for head in range(scores.num_heads):
            for sid, count in order:
                if count > sizes[layer][head][sid]:
                    raise _short_step_error(count, sizes[layer][head][sid])
        for sid, count in order:
            chosen = _lowest_in_step(eligible[layer], keys[layer], seg.steps[sid], count)
            picked[layer, heads, chosen] = True
    return _plan_of(picked)


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
    so the ineligible slots, keyed inf here, always sort after them.
    """
    order = np.argsort(np.where(eligible, keys, np.inf), axis=2, kind="stable")
    first = order[:, :, :counts.max(initial=0)]
    picked = np.zeros_like(eligible)
    np.put_along_axis(picked, first, np.arange(first.shape[2]) < counts[..., None], axis=2)
    return picked


def oldest_first(eligible: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Streaming: one key for every slot, so the oldest eligible go first."""
    return np.zeros(eligible.shape)


def random_victims(seed_prefix: Sequence[int]) -> Ranker:
    """Uniform draw without replacement, seeded by (*seed_prefix, layer, head).

    The generator is split deterministically per (layer, head), so the draw
    does not depend on the order in which heads are visited. Drawn slots key
    0 and all others 1.
    """
    prefix = list(seed_prefix)

    def rank(eligible: np.ndarray, counts: np.ndarray) -> np.ndarray:
        keys = np.ones(eligible.shape)
        for layer, head in np.argwhere(counts > 0).tolist():
            positions = np.flatnonzero(eligible[layer, head])
            rng = np.random.default_rng(prefix + [layer, head])
            drawn = rng.choice(len(positions), size=int(counts[layer, head]), replace=False)
            keys[layer, head, positions[drawn]] = 0.0
        return keys

    return rank


def lowest_scores(scores: ScoreTensor) -> Ranker:
    """Each slot keyed by its score; unscored slots score zero."""
    return lambda eligible, counts: scores.padded(eligible.shape[2])


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

    def rank(eligible: np.ndarray, counts: np.ndarray) -> np.ndarray:
        keys = np.broadcast_to(np.arange(eligible.shape[2], dtype=float), eligible.shape).copy()
        keys[:, :, :width] = ranks[:, :, :eligible.shape[2]]
        return keys

    return rank


def policy_ranker(
    policy: PolicyKind, *, seed: Sequence[int] = (), ranking: Ranker = oldest_first
) -> Ranker:
    """The one PolicyKind to Ranker mapping, for probe rounds and ratio caps.

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
    return _plan_of(lowest_keyed(eligible, counts, rank(eligible, counts)))


def plan_random(
    num_layers: int,
    num_heads: int,
    seq_len: int,
    live: Candidates,
    budget: EvictionBudget,
    seed: int | Sequence[int],
) -> EvictionPlan:
    """Uniform random eviction of min(k, live) tokens per (layer, head)."""
    prefix = [seed] if isinstance(seed, int) else seed
    return plan_by_selector(num_layers, num_heads, seq_len, live, budget,
                            policy_ranker(PolicyKind.RANDOM, seed=prefix))


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
        """Add one (layer, head)'s {token: weight} row."""
        tokens = list(row)
        self._reserve(max(tokens, default=-1) + 1)
        self.sums[layer, head, tokens] += list(row.values())
        self.fed[layer, head, tokens] = True

    def history(self) -> ScoreTensor:
        """Every fed token's sum, as a ScoreTensor as wide as the capacity."""
        return ScoreTensor.from_arrays(self.sums, self.fed.copy())

    def rank(self, eligible: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Ranker: each slot keyed by its accumulated attention, 0 if never fed."""
        keys = np.zeros(eligible.shape)
        keys[:, :, :self.sums.shape[2]] = self.sums[:, :, :eligible.shape[2]]
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
                            policy_ranker(PolicyKind.H2O, ranking=lowest_scores(scores)))


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
    return plan_by_selector(num_layers, num_heads, seq_len, live, budget,
                            policy_ranker(PolicyKind.STREAMING))


def plan_to_dict(plan: EvictionPlan, allocation: StepAllocation | None = None) -> dict:
    """JSON form: {"layers": [{"heads": [[indices...], ...]}, ...], "allocation": ...}."""
    layers = [
        {
            "heads": [
                sorted(plan.head_set(layer, head)) for head in range(plan.num_heads)
            ]
        }
        for layer in range(plan.num_layers)
    ]
    alloc = None
    if allocation is not None:
        alloc = [
            [[sid, count] for sid, count in allocation.layer_order(layer)]
            for layer in range(plan.num_layers)
        ]
    return {"layers": layers, "allocation": alloc}
