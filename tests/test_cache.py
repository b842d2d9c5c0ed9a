"""Cache bookkeeping: plans, protected regions, budgets, live arrays, stats."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import append_kv

from thinkprune.cache import (
    CacheBudget,
    KvCacheState,
    ProtectedRegions,
    enforce_budget,
)
from thinkprune.errors import (
    BudgetInfeasible,
    ProtectedTokenEviction,
    UnknownToken,
)
from thinkprune.policy import (
    EvictionBudget,
    EvictionPlan,
    H2OAccumulator,
    PolicyKind,
    oldest_first,
    plan_by_selector,
    policy_ranker,
)


def fill_cache(num_layers, num_heads, head_dim, prompt_len, total, recent=0, seed=0):
    rng = np.random.default_rng(seed)
    state = KvCacheState(num_layers, num_heads, head_dim, ProtectedRegions(prompt_len, recent))
    state.reserve(total + 1)  # and storage for one more commit
    for i in range(total):
        keys = rng.standard_normal((num_layers, num_heads, head_dim))
        values = rng.standard_normal((num_layers, num_heads, head_dim))
        append_kv(state, i, keys, values)
    return state


class TestApplyPlan:
    def test_set_removal_other_slots_unchanged(self):
        state = fill_cache(2, 1, 4, prompt_len=2, total=10)
        plan = EvictionPlan(2, 1, {(0, 0): frozenset({5, 7}), (1, 0): frozenset()})
        removed = state.apply_plan(plan)
        assert removed == 2
        assert state.live_indices(0, 0) == (0, 1, 2, 3, 4, 6, 8, 9)
        assert state.live_indices(1, 0) == tuple(range(10))

    def test_empty_plan_leaves_state_unchanged(self):
        state = fill_cache(1, 2, 4, prompt_len=1, total=6)
        before = state.live_sets()
        before_arrays = {key: state.live_arrays(*key) for key in before}
        state.apply_plan(EvictionPlan(1, 2, {}))
        assert state.live_sets() == before
        assert state.evicted_total == 0
        for key, (positions, keys, values) in before_arrays.items():
            after = state.live_arrays(*key)
            assert after[0] == positions
            assert (after[1] == keys).all() and (after[2] == values).all()

    def test_prompt_token_is_protected(self):
        state = fill_cache(1, 1, 4, prompt_len=2, total=6)
        with pytest.raises(ProtectedTokenEviction):
            state.apply_plan(EvictionPlan(1, 1, {(0, 0): frozenset({1})}))

    def test_recent_window_is_protected(self):
        state = fill_cache(1, 1, 4, prompt_len=1, total=8, recent=3)
        with pytest.raises(ProtectedTokenEviction):
            state.apply_plan(EvictionPlan(1, 1, {(0, 0): frozenset({6})}))

    def test_unknown_token(self):
        state = fill_cache(1, 1, 4, prompt_len=1, total=6)
        state.apply_plan(EvictionPlan(1, 1, {(0, 0): frozenset({4})}))
        with pytest.raises(UnknownToken):
            state.apply_plan(EvictionPlan(1, 1, {(0, 0): frozenset({4})}))

    @pytest.mark.parametrize("token", [-1, -3, "next", "far"])
    def test_out_of_range_token_is_unknown(self, token):
        # Liveness is checked before protection, so a negative index is
        # reported as unknown rather than as a protected prompt token, and it
        # never wraps around to the end of the cache.
        state = fill_cache(1, 1, 4, prompt_len=2, total=6)
        token = {"next": state.next_index, "far": 10 * state.next_index}.get(token, token)
        before = state.live_sets()
        with pytest.raises(UnknownToken):
            state.apply_plan(EvictionPlan(1, 1, {(0, 0): frozenset({token})}))
        assert state.live_sets() == before
        assert state.evicted_total == 0

    def test_validation_happens_before_mutation(self):
        state = fill_cache(1, 1, 4, prompt_len=2, total=6)
        before = state.live_sets()
        with pytest.raises(ProtectedTokenEviction):
            state.apply_plan(EvictionPlan(1, 1, {(0, 0): frozenset({3, 1})}))
        assert state.live_sets() == before

    @pytest.mark.parametrize("heads, error, message", [
        # the first bad token in (layer, head) order decides, whatever its kind
        (({1, 4}, {4, 9}), ProtectedTokenEviction, r"token 1 at \(0, 0\) is prompt"),
        (({4, 9}, {1, 4}), UnknownToken, r"token 9 is not live at \(0, 0\)"),
        # within a head, tokens are checked in ascending order
        (({4, 5}, {1, 9}), ProtectedTokenEviction, r"token 1 at \(0, 1\) is prompt"),
    ], ids=["protected-first", "unknown-first", "ascending"])
    def test_first_invalid_token_across_heads_decides_the_error(self, heads, error, message):
        state = fill_cache(1, 2, 4, prompt_len=2, total=6)
        before = state.live_sets()
        plan = EvictionPlan(1, 2, {(0, head): frozenset(tokens) for head, tokens in enumerate(heads)})
        with pytest.raises(error, match=message):
            state.apply_plan(plan)
        assert state.live_sets() == before
        assert state.evicted_total == 0

    def test_evicted_token_never_reappears(self):
        state = fill_cache(1, 1, 4, prompt_len=0, total=4)
        state.apply_plan(EvictionPlan(1, 1, {(0, 0): frozenset({2})}))
        with pytest.raises(ValueError):
            state.append(2)


class TestConservation:
    def test_appends_minus_evictions_equals_live(self):
        state = fill_cache(2, 2, 4, prompt_len=1, total=12)
        plan = EvictionPlan(2, 2, {
            (0, 0): frozenset({3, 5}), (0, 1): frozenset({4, 6}),
            (1, 0): frozenset({2}), (1, 1): frozenset({9}),
        })
        state.apply_plan(plan)
        assert state.next_index == 12
        for layer in range(2):
            for head in range(2):
                live = len(state.live_indices(layer, head))
                evicted = len(plan.head_set(layer, head))
                assert state.next_index - evicted == live

    def test_remove_suffix_rolls_back_appends(self):
        state = fill_cache(1, 1, 4, prompt_len=1, total=8)
        state.remove_suffix(5)
        assert state.live_indices(0, 0) == (0, 1, 2, 3, 4)
        assert state.next_index == 5
        assert len(state.live_indices(0, 0)) == 5
        assert state.evicted_total == 0
        # the rolled-back positions are free for new appends
        state.append(5)
        assert state.live_indices(0, 0) == (0, 1, 2, 3, 4, 5)

    def test_remove_suffix_rejects_negative_start(self):
        state = fill_cache(2, 2, 4, prompt_len=1, total=3)
        live = state.live.copy()
        with pytest.raises(ValueError, match="-2"):
            state.remove_suffix(-2)
        assert state.next_index == 3
        assert (state.live == live).all()


class TestEnforceBudget:
    def test_overflow_evicts_from_oldest_non_recent(self):
        # Cap 8 non-prompt slots, recent window 4, 8 non-prompt live: the
        # next append must evict one of the 4 oldest non-recent tokens.
        state = fill_cache(1, 1, 4, prompt_len=2, total=10, recent=4)
        budget = CacheBudget(ratio=0.5, max_slots=8)
        seen = {}

        def take_oldest(shape):
            seen["shape"] = shape
            return oldest_first(shape)

        evicted = enforce_budget(state, budget, take_oldest)
        assert evicted == 1
        assert seen["shape"] == (1, 1, 10)
        assert state.live_indices(0, 0) == (0, 1, 3, 4, 5, 6, 7, 8, 9)
        state.append(10)
        assert state.live_nonprompt_count(0, 0) == 8

    def test_below_cap_appends_without_eviction(self):
        state = fill_cache(1, 1, 4, prompt_len=2, total=6, recent=2)
        budget = CacheBudget(ratio=0.5, max_slots=8)
        assert enforce_budget(state, budget, oldest_first) == 0

    def test_infeasible_window(self):
        state = fill_cache(1, 1, 4, prompt_len=1, total=4, recent=4)
        budget = CacheBudget(ratio=0.5, max_slots=2)
        with pytest.raises(BudgetInfeasible):
            enforce_budget(state, budget, oldest_first)

    @pytest.mark.parametrize("policy", ["random", "h2o", "streaming"])
    def test_selector_evicts_what_a_periodic_plan_picks(self, policy):
        # The same ranker under a cap and in a periodic plan with k equal
        # to the overflow, over the same eligible tokens, picks the same victims.
        state = fill_cache(2, 2, 4, prompt_len=2, total=14, recent=3)
        state.apply_plan(EvictionPlan(2, 2, {
            (0, 0): frozenset({3}), (0, 1): frozenset({5}),
            (1, 0): frozenset({4}), (1, 1): frozenset({8}),
        }))
        budget = CacheBudget(max_slots=7)
        rng = np.random.default_rng(3)
        h2o = H2OAccumulator(2, 2)
        for l in range(2):
            for h in range(2):
                h2o.update(l, h, {t: float(rng.integers(0, 4)) for t in range(2, 14) if t % 3})
        rank = policy_ranker(PolicyKind(policy), seed=(7, state.next_index), ranking=h2o.rank)
        end = state.next_index

        def eligible(layer, head, token):
            return state.prompt_len <= token < end - 3 and state.is_live(layer, head, token)

        # 11 non-prompt live per head: evict 5 of the 8 eligible
        overflow = state.live_nonprompt_count(0, 0) + 1 - budget.max_slots
        assert overflow == 5
        plan = plan_by_selector(2, 2, end, eligible, EvictionBudget(overflow), rank)
        before = state.live_sets()
        assert enforce_budget(state, budget, rank) == 4 * overflow
        after = state.live_sets()
        assert {key: before[key] - after[key] for key in before} == dict(plan.evicted)

    def test_heads_of_a_layer_may_evict_different_counts(self):
        # A plan leaves token 3 live in head 1 only, so the suffix removal
        # leaves the two heads of layer 0 with different live counts.
        state = fill_cache(1, 2, 4, prompt_len=0, total=4)
        assert state.apply_plan(EvictionPlan(1, 2, {(0, 0): [1, 2, 3], (0, 1): [0, 1, 2]})) == 6
        assert state.live_sets() == {(0, 0): frozenset({0}), (0, 1): frozenset({3})}
        state.remove_suffix(3)
        assert enforce_budget(state, CacheBudget(max_slots=1), oldest_first) == 1
        assert state.live_sets() == {(0, 0): frozenset(), (0, 1): frozenset()}
        assert state.evicted_total == 7

    def test_failing_ranker_leaves_state_unchanged(self):
        state = fill_cache(1, 2, 4, prompt_len=1, total=8)
        budget = CacheBudget(max_slots=6)

        def failing(shape):
            raise RuntimeError("ranker failed")

        live = state.live.copy()
        with pytest.raises(RuntimeError, match="ranker failed"):
            enforce_budget(state, budget, failing)
        assert (state.live == live).all()
        assert state.evicted_total == 0
        assert state.next_index == 8

    def test_ratio_resolution_and_default_window(self):
        budget = CacheBudget.from_ratio(0.25, 130.0)
        assert budget.max_slots == 32
        assert budget.recent_window == 16
        with pytest.raises(ValueError):
            CacheBudget.from_ratio(1.5, 100.0)


class TestCompact:
    """live_arrays: dense live key/value rows, oldest first, with their positions."""

    def test_identity_mapping_without_evictions(self):
        state = fill_cache(1, 1, 4, prompt_len=0, total=5)
        positions, keys, values = state.live_arrays(0, 0)
        assert positions == list(range(5))
        assert keys.shape == values.shape == (5, 4)

    def test_mapping_after_evictions(self):
        state = fill_cache(1, 1, 4, prompt_len=0, total=4)
        before = state.live_arrays(0, 0)
        state.apply_plan(EvictionPlan(1, 1, {(0, 0): frozenset({1})}))
        positions, keys, values = state.live_arrays(0, 0)
        assert positions == [0, 2, 3]
        # each surviving row keeps the vectors of its original position
        assert (keys == before[1][[0, 2, 3]]).all()
        assert (values == before[2][[0, 2, 3]]).all()

    def test_compacted_attention_matches_masked_attention(self, rng):
        # Softmax over the dense live arrays equals softmax over the full
        # arrays with evicted positions masked to -inf.
        state = fill_cache(1, 2, 8, prompt_len=0, total=12, seed=5)
        full = {(0, h): state.live_arrays(0, h)[1:] for h in range(2)}
        plan = EvictionPlan(1, 2, {(0, 0): frozenset({2, 7, 9}), (0, 1): frozenset({0, 3, 11})})
        state.apply_plan(plan)
        for head in range(2):
            query = rng.standard_normal(8)
            _positions, keys, values = state.live_arrays(0, head)
            scores = keys @ query
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            out_compact = weights @ values

            keys_full, values_full = full[(0, head)]
            masked = keys_full @ query
            for victim in plan.head_set(0, head):
                masked[victim] = -np.inf
            w_full = np.exp(masked - masked.max())
            w_full /= w_full.sum()
            out_masked = w_full @ values_full
            assert np.max(np.abs(out_compact - out_masked)) < 1e-6 * max(1.0, np.max(np.abs(out_masked)))


class TestStats:
    def test_fresh_cache(self):
        state = fill_cache(1, 2, 4, prompt_len=10, total=10)
        counts = state.stats()
        assert counts.tolist() == [[10, 10]]
        assert counts.mean() == 10
        assert counts.max() == 10
        assert state.evicted_total == 0

    def test_uniform_eviction_average(self):
        state = fill_cache(2, 2, 4, prompt_len=0, total=20)
        evictions = {
            (l, h): frozenset({5, 6, 7}) for l in range(2) for h in range(2)
        }
        state.apply_plan(EvictionPlan(2, 2, evictions))
        assert state.stats().mean() == 17

    def test_heterogeneous_counts_average_by_full_scan(self):
        state = fill_cache(2, 2, 4, prompt_len=0, total=16)
        state.apply_plan(EvictionPlan(2, 2, {
            (0, 0): frozenset({1, 2}), (0, 1): frozenset({3, 4}),
            (1, 0): frozenset({5}), (1, 1): frozenset({6}),
        }))
        counts = state.stats()
        scan = [[len(state.live_indices(l, h)) for h in range(2)] for l in range(2)]
        assert counts.tolist() == scan
        assert counts.mean() == sum(map(sum, scan)) / 4
        assert counts.max() == max(map(max, scan))

    def test_count_array_shape(self):
        state = fill_cache(1, 2, 4, prompt_len=2, total=5)
        counts = state.stats()
        assert counts.shape == (1, 2)
        assert counts.dtype == np.intp
        assert counts.tolist() == [[5, 5]]
        assert state.evicted_total == 0
        assert counts.mean() == 5.0
        assert counts.max() == 5


class TestProtectedRegions:
    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            ProtectedRegions(-1, 0)
        with pytest.raises(ValueError):
            ProtectedRegions(0, -2)

    def test_prompt_always_protected(self):
        state = fill_cache(1, 1, 4, prompt_len=3, total=6)
        assert state.evictable().tolist() == [[[False] * 3 + [True] * 3]]

    def test_recent_window_moves_with_appends(self):
        state = fill_cache(1, 1, 4, prompt_len=0, total=6, recent=2)
        assert np.flatnonzero(state.evictable()[0, 0]).tolist() == [0, 1, 2, 3]
        state.append(6)
        assert np.flatnonzero(state.evictable()[0, 0]).tolist() == [0, 1, 2, 3, 4]

    def test_window_longer_than_the_sequence_leaves_nothing_evictable(self):
        # next_index - recent_window is negative; it must not wrap around as a slice end
        state = fill_cache(1, 2, 4, prompt_len=1, total=6, recent=9)
        assert state.evictable().shape == (1, 2, 6)
        assert not state.evictable().any()
        with pytest.raises(ProtectedTokenEviction):
            state.apply_plan(EvictionPlan(1, 2, {(0, 0): frozenset({2}), (0, 1): frozenset({3})}))
