"""Model-based test: KvCacheState against a naive per-(layer, head) list reference.

Random sequences of appends, reserves, valid and invalid eviction plans,
suffix removals and budget enforcement drive the cache and a dict-of-lists
model side by side. Each append grows the cache only to its own slot unless
a reserve made room ahead, so next_index often sits at the capacity. After
every operation, accepted or rejected, every public view of the cache, the
evictable mask included, must match the model.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import append_kv
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from thinkprune.cache import CacheBudget, KvCacheState, ProtectedRegions, enforce_budget
from thinkprune.errors import BudgetInfeasible, ProtectedTokenEviction, UnknownToken
from thinkprune.policy import EvictionPlan, oldest_first, random_victims


def expect_rejection(error, call):
    """call() must raise exactly error, not a subclass of it."""
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error, repr(caught.value)


class ListCache:
    """Reference: (layer, head) -> [(token, key, value)] oldest first."""

    def __init__(self, num_layers, num_heads, prompt_len, recent_window):
        self.heads = {(l, h): [] for l in range(num_layers) for h in range(num_heads)}
        self.prompt_len = prompt_len
        self.recent_window = recent_window
        self.next_index = 0
        self.evicted_total = 0

    def tokens(self, key):
        return [t for t, _k, _v in self.heads[key]]

    def nonprompt(self, key):
        return sum(1 for t in self.tokens(key) if t >= self.prompt_len)

    def protected(self, token):
        return token < self.prompt_len or (self.recent_window > 0
                                           and token >= self.next_index - self.recent_window)

    def plan_error(self, evicted):
        for key, victims in evicted.items():
            for token in sorted(victims):
                if token not in self.tokens(key):
                    return UnknownToken
                if self.protected(token):
                    return ProtectedTokenEviction
        return None

    def remove(self, evicted):
        for key, victims in evicted.items():
            self.heads[key] = [entry for entry in self.heads[key] if entry[0] not in victims]
            self.evicted_total += len(victims)


class CacheMachine(RuleBasedStateMachine):
    @initialize(
        num_layers=st.integers(1, 2),
        num_heads=st.integers(1, 3),
        head_dim=st.sampled_from([2, 4]),
        prompt_len=st.integers(0, 3),
        recent_window=st.integers(0, 3),
        prefill=st.integers(0, 12),
    )
    def setup(self, num_layers, num_heads, head_dim, prompt_len, recent_window, prefill):
        self.shape = (num_layers, num_heads, head_dim)
        self.cache = KvCacheState(num_layers, num_heads, head_dim,
                                  ProtectedRegions(prompt_len, recent_window))
        self.model = ListCache(num_layers, num_heads, prompt_len, recent_window)
        self.append(seed=prefill, count=prefill)

    @rule(seed=st.integers(0, 2**16), count=st.integers(1, 4))
    def append(self, seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            keys, values = rng.standard_normal(self.shape), rng.standard_normal(self.shape)
            index = self.model.next_index
            append_kv(self.cache, index, keys, values)
            for (layer, head), entries in self.model.heads.items():
                entries.append((index, keys[layer, head].copy(), values[layer, head].copy()))
            self.model.next_index += 1
            self.matches_model()

    @rule(offset=st.sampled_from([-2, -1, 1, 5]))
    def append_out_of_order(self, offset):
        expect_rejection(ValueError, lambda: self.cache.append(self.model.next_index + offset))

    @rule(extra=st.integers(0, 3))
    def reserve(self, extra):
        # append_kv grows the cache to next_index + 1 at a time; a larger
        # reserve keeps every slot's contents in the new arrays
        capacity = self.model.next_index + extra
        self.cache.reserve(capacity)
        assert self.cache.live.shape[2] >= capacity

    @precondition(lambda self: self.cache.live.shape[2] == self.model.next_index)
    @rule()
    def append_without_storage(self):
        expect_rejection(ValueError, lambda: self.cache.append(self.model.next_index))

    @rule(data=st.data(), valid=st.booleans())
    def apply_plan(self, data, valid):
        num_layers, num_heads, _ = self.shape
        model = self.model
        end = model.next_index
        evicted = {}
        for layer in range(num_layers):
            keys = [(layer, head) for head in range(num_heads)]
            evictable = {key: [t for t in model.tokens(key) if not model.protected(t)]
                         for key in keys}
            limit = min([3] + [len(evictable[key]) for key in keys]) if valid else 3
            size = data.draw(st.integers(0, limit))
            for key in keys:
                live = model.tokens(key)
                if valid:
                    pool = st.sampled_from(evictable[key]) if size else st.nothing()
                elif live:
                    pool = st.one_of(st.sampled_from(live), st.integers(-4, end + 4))
                else:
                    pool = st.integers(-4, end + 4)
                evicted[key] = frozenset(
                    data.draw(st.lists(pool, min_size=size, max_size=size, unique=True)))
        plan = EvictionPlan(num_layers, num_heads, evicted)
        error = model.plan_error(plan.evicted)
        if error is not None:
            expect_rejection(error, lambda: self.cache.apply_plan(plan))
            return
        assert self.cache.apply_plan(plan) == len(plan.victims)
        model.remove(plan.evicted)

    @rule(tail=st.integers(-2, 5))
    def remove_suffix(self, tail):
        start = max(0, self.model.next_index - tail)
        dropped = sum(1 for key in self.model.heads for t in self.model.tokens(key) if t >= start)
        assert self.cache.remove_suffix(start) == dropped
        for key, entries in self.model.heads.items():
            self.model.heads[key] = [entry for entry in entries if entry[0] < start]
        self.model.next_index = min(self.model.next_index, start)

    @rule(max_slots=st.integers(1, 6), randomized=st.booleans(), seed=st.integers(0, 99))
    def enforce_budget(self, max_slots, randomized, seed):
        recent = self.model.recent_window
        budget = CacheBudget(max_slots=max_slots)
        rank = random_victims((seed,)) if randomized else oldest_first
        model = self.model
        overflow = {key: max(0, model.nonprompt(key) + 1 - max_slots) for key in model.heads}
        eligible = {key: [t for t in model.tokens(key)
                          if model.prompt_len <= t < model.next_index - recent]
                    for key in model.heads}
        if max_slots < recent or any(overflow[key] > len(eligible[key]) for key in model.heads):
            expect_rejection(BudgetInfeasible, lambda: enforce_budget(self.cache, budget, rank))
            return

        # the reference's own uniform key for every (layer, head, position) slot
        keys = np.random.default_rng([seed]).random((*self.shape[:2], model.next_index))

        def victims(key):
            # the oldest, or the lowest-keyed
            if not randomized:
                return eligible[key][:overflow[key]]
            return sorted(eligible[key], key=lambda t: (keys[key][t], t))[:overflow[key]]

        evicted = {key: frozenset(victims(key)) for key in model.heads if overflow[key]}
        assert enforce_budget(self.cache, budget, rank) == sum(map(len, evicted.values()))
        model.remove(evicted)

    @invariant()
    def matches_model(self):
        cache, model = self.cache, self.model
        assert cache.next_index == model.next_index
        assert cache.evicted_total == model.evicted_total
        assert cache.keys.shape == cache.values.shape == cache.live.shape + (self.shape[2],)
        assert not cache.live[:, :, model.next_index:].any()
        counts = {}
        for (layer, head), entries in model.heads.items():
            tokens = [t for t, _k, _v in entries]
            assert cache.live_indices(layer, head) == tuple(tokens)
            assert cache.live_nonprompt_count(layer, head) == model.nonprompt((layer, head))
            positions, keys, values = cache.live_arrays(layer, head)
            assert positions == tokens
            assert keys.shape == values.shape == (len(tokens), self.shape[2])
            for row, (_t, key, value) in enumerate(entries):
                assert keys[row].tobytes() == key.tobytes()
                assert values[row].tobytes() == value.tobytes()
            counts[(layer, head)] = len(tokens)
        assert cache.live_sets() == {key: frozenset(model.tokens(key)) for key in model.heads}
        evictable = cache.evictable()
        assert evictable.shape == (*self.shape[:2], model.next_index)
        for layer, head in model.heads:
            assert np.flatnonzero(evictable[layer, head]).tolist() == [
                t for t in model.tokens((layer, head)) if not model.protected(t)]
        live_counts = cache.stats()
        assert live_counts.shape == self.shape[:2]
        assert {key: int(live_counts[key]) for key in counts} == counts
        assert live_counts.mean() == sum(counts.values()) / len(counts)
        assert live_counts.max() == max(counts.values())


@pytest.mark.parametrize("token", [0, -1, 2])
def test_plan_on_a_cache_no_token_joined_is_unknown(token):
    # an explicit example of a case the machine can draw (prefill 0 and an
    # invalid plan) but its derandomized examples miss: a new cache has no slots
    machine = CacheMachine()
    machine.setup(num_layers=1, num_heads=1, head_dim=2, prompt_len=0, recent_window=0, prefill=0)
    plan = EvictionPlan(1, 1, {(0, 0): [token]})
    expect_rejection(UnknownToken, lambda: machine.cache.apply_plan(plan))
    machine.matches_model()


CacheMachine.TestCase.settings = settings(
    derandomize=True, deadline=None, max_examples=60, stateful_step_count=40,
)
TestKvCacheStateAgainstListModel = CacheMachine.TestCase
