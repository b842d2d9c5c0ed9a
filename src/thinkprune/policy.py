"""Eviction planning: hierarchical step-aware allocation plus baselines.

The hierarchical policy sorts steps by ascending step score per layer,
greedily assigns the per-layer eviction budget to the most redundant steps
first, then evicts the lowest-scoring tokens inside each allocated step
independently per head. Random, accumulated-attention (h2o) and
oldest-first (streaming) baselines share the plan type; plan_streaming
is the unbudgeted first/recent window form of streaming.

Each baseline's victim rule is one VictimSelector. Periodic rounds apply it
through plan_by_selector; ratio caps pass the same selector to
cache.enforce_budget.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BudgetExceedsStep
from .scoring import LivePredicate, ScoreTensor, StepScores, ranked_step_order
from .trace import Segmentation, Step

# (layer, head, eligible_tokens_oldest_first, count) -> tokens to evict
VictimSelector = Callable[[int, int, list[int], int], list[int]]


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


def _live_in_span(start: int, end: int, layer: int, head: int, live: LivePredicate) -> list[int]:
    return [t for t in range(start, end) if live(layer, head, t)]


def allocate(
    step_scores: StepScores,
    seg: Segmentation,
    live: LivePredicate,
    budget: EvictionBudget,
) -> StepAllocation:
    """Greedy per-layer budget split over steps in ascending step-score order.

    Each step takes min(its live size, remaining budget); ties on score go
    to the smaller step id. When the budget exceeds the total live tokens
    the allocation saturates (partial fulfillment, no error).
    """
    by_layer: dict[int, tuple[tuple[int, int], ...]] = {}
    for layer in step_scores.by_layer:
        remaining = budget.k
        allocs: list[tuple[int, int]] = []
        for sid, _score in ranked_step_order(step_scores, layer):
            if remaining == 0:
                break
            step = seg.steps[sid]
            size = len(_live_in_span(step.start, step.end, layer, 0, live))
            take = min(size, remaining)
            if take > 0:
                allocs.append((sid, take))
                remaining -= take
        by_layer[layer] = tuple(allocs)
    return StepAllocation(by_layer)


def select_within_step(
    scores: ScoreTensor,
    step: Step,
    count: int,
    layer: int,
    head: int,
    live: LivePredicate,
) -> frozenset[int]:
    """The `count` live tokens of the step with the lowest scores at (layer, head).

    Ties are broken toward the smaller token index.
    """
    candidates = _live_in_span(step.start, step.end, layer, head, live)
    if count > len(candidates):
        raise BudgetExceedsStep(
            f"cannot evict {count} tokens from a step with {len(candidates)} live tokens"
        )
    head_scores = scores.head_scores(layer, head)
    candidates.sort(key=lambda t: (head_scores.get(t, 0.0), t))
    return frozenset(candidates[:count])


def plan_from_allocation(
    scores: ScoreTensor,
    seg: Segmentation,
    live: LivePredicate,
    allocation: StepAllocation,
) -> EvictionPlan:
    evicted: dict[tuple[int, int], frozenset[int]] = {}
    for layer in range(scores.num_layers):
        for head in range(scores.num_heads):
            chosen: set[int] = set()
            for sid, count in allocation.layer_order(layer):
                chosen |= select_within_step(scores, seg.steps[sid], count, layer, head, live)
            evicted[(layer, head)] = frozenset(chosen)
    return EvictionPlan(scores.num_layers, scores.num_heads, evicted)


def build_plan(
    scores: ScoreTensor,
    step_scores: StepScores,
    seg: Segmentation,
    live: LivePredicate,
    budget: EvictionBudget,
) -> EvictionPlan:
    """Full hierarchical plan: allocate per layer, select per head."""
    return plan_from_allocation(
        scores, seg, live, allocate(step_scores, seg, live, budget)
    )


def oldest_first(layer: int, head: int, eligible: list[int], count: int) -> list[int]:
    """Streaming: evict the oldest eligible tokens."""
    return eligible[:count]


def random_victims(seed_prefix: Sequence[int]) -> VictimSelector:
    """Uniform draw without replacement, seeded by (*seed_prefix, layer, head).

    The generator is split deterministically per (layer, head), so the draw
    does not depend on the order in which heads are visited.
    """
    prefix = list(seed_prefix)

    def select(layer: int, head: int, eligible: list[int], count: int) -> list[int]:
        rng = np.random.default_rng(prefix + [layer, head])
        picked = rng.choice(len(eligible), size=count, replace=False)
        return [eligible[int(i)] for i in picked]

    return select


def lowest_scores(head_scores: Mapping[tuple[int, int], Mapping[int, float]]) -> VictimSelector:
    """Evict the lowest-scoring tokens; unscored tokens count as zero and
    ties break toward the smaller token index."""

    def select(layer: int, head: int, eligible: list[int], count: int) -> list[int]:
        score = head_scores.get((layer, head), {})
        return sorted(eligible, key=lambda t: (score.get(t, 0.0), t))[:count]

    return select


def round_ranking(scores: ScoreTensor, seg: Segmentation, step_scores: StepScores) -> VictimSelector:
    """Ratio-cap victims for the hierarchical policy, from one probe round.

    Tokens rank by their step's score, then their own score, then index;
    tokens the round did not score go last. Before any round, oldest_first
    gives the same order.
    """
    inf = float("inf")
    step_value = {
        (layer, sid): value
        for layer, entries in step_scores.by_layer.items()
        for sid, value in entries
    }
    step_of = {
        token: sid for sid, step in enumerate(seg.steps) for token in range(step.start, step.end)
    }

    def select(layer: int, head: int, eligible: list[int], count: int) -> list[int]:
        head_scores = scores.head_scores(layer, head)

        def rank(token: int) -> tuple[float, float, int]:
            step_c = step_value.get((layer, step_of.get(token)), inf)
            return (step_c, head_scores.get(token, inf), token)

        return sorted(eligible, key=rank)[:count]

    return select


def plan_by_selector(
    num_layers: int,
    num_heads: int,
    seq_len: int,
    live: LivePredicate,
    budget: EvictionBudget,
    select: VictimSelector,
) -> EvictionPlan:
    """Evict min(k, live) tokens per (layer, head), chosen by select."""
    evicted: dict[tuple[int, int], frozenset[int]] = {}
    for layer in range(num_layers):
        for head in range(num_heads):
            eligible = _live_in_span(0, seq_len, layer, head, live)
            take = min(budget.k, len(eligible))
            evicted[(layer, head)] = (
                frozenset(select(layer, head, eligible, take)) if take else frozenset()
            )
    return EvictionPlan(num_layers, num_heads, evicted)


def plan_random(
    num_layers: int,
    num_heads: int,
    seq_len: int,
    live: LivePredicate,
    budget: EvictionBudget,
    seed: int | Sequence[int],
) -> EvictionPlan:
    """Uniform random eviction of min(k, live) tokens per (layer, head)."""
    prefix = [seed] if isinstance(seed, int) else seed
    return plan_by_selector(num_layers, num_heads, seq_len, live, budget, random_victims(prefix))


class H2OAccumulator:
    """Running sum of attention received per token at each (layer, head).

    Feed it the attention row of every normal decode step after the prompt;
    it is never reset during a run.
    """

    def __init__(self, num_layers: int, num_heads: int):
        self.num_layers = num_layers
        self.num_heads = num_heads
        self._acc: dict[tuple[int, int], defaultdict[int, float]] = {
            (layer, head): defaultdict(float)
            for layer in range(num_layers)
            for head in range(num_heads)
        }

    def update(self, layer: int, head: int, row: Mapping[int, float]) -> None:
        acc = self._acc[(layer, head)]
        for token, weight in row.items():
            acc[token] += float(weight)

    def history(self) -> Mapping[tuple[int, int], Mapping[int, float]]:
        return self._acc


def h2o_scores(
    history: Mapping[tuple[int, int], Mapping[int, float]],
    num_layers: int,
    num_heads: int,
    live: LivePredicate,
) -> ScoreTensor:
    """Accumulated attention as a ScoreTensor, filtered to live candidates."""
    scores: dict[tuple[int, int], dict[int, float]] = {}
    for layer in range(num_layers):
        for head in range(num_heads):
            acc = history.get((layer, head), {})
            scores[(layer, head)] = {
                token: float(value)
                for token, value in acc.items()
                if live(layer, head, token)
            }
    return ScoreTensor(num_layers, num_heads, scores)


def plan_h2o(
    scores: ScoreTensor,
    seq_len: int,
    live: LivePredicate,
    budget: EvictionBudget,
) -> EvictionPlan:
    """Evict the k lowest accumulated-attention tokens per head, no step structure."""
    return plan_by_selector(scores.num_layers, scores.num_heads, seq_len, live, budget,
                            lowest_scores(scores.scores))


def plan_streaming(
    num_layers: int,
    num_heads: int,
    seq_len: int,
    live: LivePredicate,
    keep_first: int,
    keep_recent: int,
) -> EvictionPlan:
    """Evict every live token outside the first keep_first / last keep_recent,
    oldest first over [keep_first, seq_len - keep_recent)."""
    if keep_first < 0 or keep_recent < 0:
        raise ValueError("keep_first and keep_recent must be >= 0")

    def past_first(layer: int, head: int, token: int) -> bool:
        return token >= keep_first and live(layer, head, token)

    return plan_by_selector(num_layers, num_heads, seq_len - keep_recent, past_first,
                            EvictionBudget(max(0, seq_len)), oldest_first)


def plan_oldest(
    num_layers: int,
    num_heads: int,
    seq_len: int,
    live: LivePredicate,
    budget: EvictionBudget,
) -> EvictionPlan:
    """Evict the k oldest live candidates per (layer, head): the per-round
    budgeted analog of streaming retention."""
    return plan_by_selector(num_layers, num_heads, seq_len, live, budget, oldest_first)


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
