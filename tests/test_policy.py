"""Hierarchical allocation, per-head selection, and baseline plans."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import alg1_reference, h2o_bruteforce
from conftest import (
    live_from_sets,
    make_segmentation,
    random_plan_instance,
    tensor_from_dict,
)

from thinkprune.engine import ProbeRecord, _plan_fields
from thinkprune.errors import BudgetExceedsStep
from thinkprune.policy import (
    EvictionBudget,
    EvictionPlan,
    H2OAccumulator,
    PolicyKind,
    StepAllocation,
    allocate,
    build_plan,
    h2o_scores,
    lowest_keyed,
    lowest_scores,
    oldest_first,
    plan_h2o,
    plan_oldest,
    plan_random,
    plan_streaming,
    plan_to_dict,
    policy_ranker,
    random_victims,
    plan_from_allocation,
    round_ranking,
)
from thinkprune.scoring import ScoreTensor, StepScores, aggregate_step_scores


def all_live(layer, head, token):
    return True


class TestEvictionBudget:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EvictionBudget(-1)


class TestAllocate:
    def test_greedy_example(self):
        # Live step sizes [3, 5, 2]; score order step2 < step0 < step1; k=6.
        seg = make_segmentation(0, [3, 5, 2])
        step_scores = StepScores({0: ((0, 0.5), (1, 0.9), (2, 0.1))})
        alloc = allocate(step_scores, seg, all_live, EvictionBudget(6))
        assert alloc.layer_order(0) == ((2, 2), (0, 3), (1, 1))

    def test_zero_budget(self):
        seg = make_segmentation(0, [3])
        step_scores = StepScores({0: ((0, 0.5),)})
        alloc = allocate(step_scores, seg, all_live, EvictionBudget(0))
        assert alloc.layer_order(0) == ()
        assert sum(e for _, e in alloc.layer_order(0)) == 0

    def test_saturation(self):
        seg = make_segmentation(0, [3, 5, 2])
        step_scores = StepScores({0: ((0, 0.5), (1, 0.9), (2, 0.1))})
        alloc = allocate(step_scores, seg, all_live, EvictionBudget(100))
        assert sum(e for _, e in alloc.layer_order(0)) == 10
        assert dict(alloc.layer_order(0)) == {0: 3, 1: 5, 2: 2}

    def test_score_ties_break_on_smaller_step_id(self):
        seg = make_segmentation(0, [2, 2, 2])
        step_scores = StepScores({0: ((0, 0.3), (1, 0.3), (2, 0.3))})
        alloc = allocate(step_scores, seg, all_live, EvictionBudget(3))
        assert alloc.layer_order(0) == ((0, 2), (1, 1))

    def test_greedy_prefix_property(self, rng):
        # A step receives budget only if every strictly lower scoring step
        # is fully evicted.
        for _ in range(50):
            _l, _h, seg, _spans, scores, live_sets, k = random_plan_instance(rng)
            live = live_from_sets(live_sets)
            tensor = tensor_from_dict(_l, _h, scores)
            step_scores = aggregate_step_scores(tensor, seg, live)
            alloc = allocate(step_scores, seg, live, EvictionBudget(k))
            for layer in range(_l):
                values = dict(step_scores.layer_entries(layer))
                granted = dict(alloc.layer_order(layer))
                for sid, count in granted.items():
                    size = sum(
                        1 for t in range(seg.steps[sid].start, seg.steps[sid].end)
                        if live(layer, 0, t)
                    )
                    if count < size:
                        # partially evicted: every strictly lower-c step is full
                        for other, value in values.items():
                            if value < values[sid]:
                                other_size = sum(
                                    1 for t in range(seg.steps[other].start, seg.steps[other].end)
                                    if live(layer, 0, t)
                                )
                                assert granted.get(other) == other_size


class TestSelectWithinStep:
    """Selection inside one step, through plan_from_allocation with a
    one-step allocation."""

    @staticmethod
    def select(scores, count):
        seg = make_segmentation(10, [3])
        plan = plan_from_allocation(scores, seg, all_live, StepAllocation({0: ((0, count),)}))
        return plan.head_set(0, 0)

    def test_lowest_scores_selected(self):
        scores = ScoreTensor(1, 1, {(0, 0): {10: 0.3, 11: 0.1, 12: 0.2}})
        assert self.select(scores, 2) == frozenset({11, 12})

    def test_ties_evict_smaller_index_first(self):
        scores = ScoreTensor(1, 1, {(0, 0): {10: 0.2, 11: 0.2, 12: 0.2}})
        assert self.select(scores, 1) == frozenset({10})

    def test_full_step(self):
        scores = ScoreTensor(1, 1, {(0, 0): {10: 0.3, 11: 0.1, 12: 0.2}})
        assert self.select(scores, 3) == frozenset({10, 11, 12})

    def test_budget_exceeds_step(self):
        scores = ScoreTensor(1, 1, {(0, 0): {10: 0.3}})
        with pytest.raises(BudgetExceedsStep, match="cannot evict 4 tokens from a step with 3"):
            self.select(scores, 4)


class TestBuildPlan:
    def test_single_step_degenerates_to_global_lowest(self):
        seg = make_segmentation(0, [5])
        entries = {0: 0.5, 1: 0.1, 2: 0.4, 3: 0.2, 4: 0.3}
        scores = ScoreTensor(1, 1, {(0, 0): entries})
        step_scores = aggregate_step_scores(scores, seg, all_live)
        plan = build_plan(scores, step_scores, seg, all_live, EvictionBudget(3))
        assert plan.head_set(0, 0) == frozenset({1, 3, 4})

    def test_heads_same_counts_different_members(self):
        seg = make_segmentation(0, [4])
        scores = ScoreTensor(1, 2, {
            (0, 0): {0: 0.0, 1: 0.1, 2: 0.8, 3: 0.9},
            (0, 1): {0: 0.9, 1: 0.8, 2: 0.1, 3: 0.0},
        })
        step_scores = aggregate_step_scores(scores, seg, all_live)
        plan = build_plan(scores, step_scores, seg, all_live, EvictionBudget(2))
        assert plan.head_set(0, 0) == frozenset({0, 1})
        assert plan.head_set(0, 1) == frozenset({2, 3})
        assert len(plan.head_set(0, 0)) == len(plan.head_set(0, 1)) == 2

    def test_zero_budget_empty_plan(self):
        seg = make_segmentation(0, [4])
        scores = ScoreTensor(1, 1, {(0, 0): {t: 0.1 for t in range(4)}})
        step_scores = aggregate_step_scores(scores, seg, all_live)
        plan = build_plan(scores, step_scores, seg, all_live, EvictionBudget(0))
        assert len(plan.victims) == 0

    def test_budget_conservation(self, rng):
        for _ in range(60):
            nl, nh, seg, _spans, scores, live_sets, k = random_plan_instance(rng)
            live = live_from_sets(live_sets)
            tensor = tensor_from_dict(nl, nh, scores)
            step_scores = aggregate_step_scores(tensor, seg, live)
            plan = build_plan(tensor, step_scores, seg, live, EvictionBudget(k))
            for layer in range(nl):
                available = len(live_sets[(layer, 0)])
                for head in range(nh):
                    assert len(plan.head_set(layer, head)) == min(k, available)

    def test_plan_never_touches_non_candidates(self, rng):
        for _ in range(40):
            nl, nh, seg, _spans, scores, live_sets, k = random_plan_instance(rng)
            live = live_from_sets(live_sets)
            tensor = tensor_from_dict(nl, nh, scores)
            step_scores = aggregate_step_scores(tensor, seg, live)
            plan = build_plan(tensor, step_scores, seg, live, EvictionBudget(k))
            for (layer, head), victims in plan.evicted.items():
                assert victims <= live_sets[(layer, head)]

    def test_saturation_is_idempotent(self, rng):
        # Re-planning on the post-eviction state evicts at most the
        # remaining live tokens and never errors.
        for _ in range(30):
            nl, nh, seg, _spans, scores, live_sets, k = random_plan_instance(rng)
            live = live_from_sets(live_sets)
            tensor = tensor_from_dict(nl, nh, scores)
            step_scores = aggregate_step_scores(tensor, seg, live)
            plan = build_plan(tensor, step_scores, seg, live, EvictionBudget(k))
            survivors = {
                key: live_sets[key] - plan.evicted[key] for key in live_sets
            }
            live2 = live_from_sets(survivors)
            scores2 = {
                key: {t: s for t, s in scores[key].items() if t in survivors[key]}
                for key in scores
            }
            tensor2 = tensor_from_dict(nl, nh, scores2)
            step_scores2 = aggregate_step_scores(tensor2, seg, live2)
            plan2 = build_plan(tensor2, step_scores2, seg, live2, EvictionBudget(k))
            for (layer, head), victims in plan2.evicted.items():
                assert len(victims) == min(k, len(survivors[(layer, head)]))
                assert victims <= survivors[(layer, head)]

    def test_line_by_line_reference_agreement(self, rng):
        for _ in range(200):
            nl, nh, seg, spans, scores, live_sets, k = random_plan_instance(rng)
            live = live_from_sets(live_sets)
            tensor = tensor_from_dict(nl, nh, scores)
            step_scores = aggregate_step_scores(tensor, seg, live)
            plan = build_plan(tensor, step_scores, seg, live, EvictionBudget(k))
            want = alg1_reference(nl, nh, spans, scores, live_sets, k)
            got = {key: set(value) for key, value in plan.evicted.items()}
            assert got == want


class TestEvictionPlanType:
    def test_uniform_head_sizes_enforced(self):
        with pytest.raises(ValueError, match="differ"):
            EvictionPlan(1, 2, {(0, 0): frozenset({3}), (0, 1): frozenset()})
        mask = np.zeros((2, 2, 5), dtype=bool)
        mask[1, 0, [1, 2]] = True
        with pytest.raises(ValueError, match=re.escape("differ within layer 1: [0, 2]")):
            EvictionPlan.of_mask(mask)

    def test_layers_may_differ(self):
        plan = EvictionPlan(2, 1, {(0, 0): frozenset({3, 4}), (1, 0): frozenset()})
        assert len(plan.head_set(0, 0)) == 2
        assert len(plan.head_set(1, 0)) == 0

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            EvictionPlan(1, 1, {(0, 1): frozenset({3})})

    def test_to_dict_shape(self):
        plan = EvictionPlan(1, 2, {(0, 0): frozenset({4, 2}), (0, 1): frozenset({3, 5})})
        data = plan_to_dict(plan)
        assert data == {"layers": [{"heads": [[2, 4], [3, 5]]}], "allocation": None}

    @pytest.mark.parametrize("token", [3.7, 3.0, np.float64(2.0), True, np.True_, "3", None],
                             ids=repr)
    def test_non_integer_token_rejected(self, token):
        with pytest.raises(ValueError, match=re.escape(f"{token!r} at (0, 1)")):
            EvictionPlan(1, 2, {(0, 0): frozenset({2}), (0, 1): frozenset({token})})

    def test_any_integer_token_accepted(self):
        # negative and out-of-range tokens are the cache's to reject
        plan = EvictionPlan(1, 3, {(0, 0): {np.int64(4)}, (0, 1): {-3}, (0, 2): {10**6}})
        assert plan.head_lists() == [[[4], [-3], [10**6]]]

    @staticmethod
    def random_victims(rng):
        """(num_layers, num_heads, {(layer, head): tokens}) with equal head
        counts per layer, several layers evicting nothing."""
        num_layers, num_heads, width = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 12
        evicted = {}
        for layer in range(num_layers):
            count = int(rng.choice([0, 0, 1, 3, width]))
            for head in range(num_heads):
                evicted[(layer, head)] = frozenset(
                    rng.choice(width, size=count, replace=False).tolist())
        return num_layers, num_heads, evicted

    @staticmethod
    def mask_of(num_layers, num_heads, evicted, width):
        mask = np.zeros((num_layers, num_heads, width), dtype=bool)
        for (layer, head), tokens in evicted.items():
            mask[layer, head, list(tokens)] = True
        return mask

    def test_mask_plans_equal_dict_plans_at_every_width(self, rng):
        for _ in range(50):
            num_layers, num_heads, evicted = self.random_victims(rng)
            plan = EvictionPlan(num_layers, num_heads, evicted)
            for width in (12, 13, 40):
                mask = self.mask_of(num_layers, num_heads, evicted, width)
                assert EvictionPlan.of_mask(mask) == plan
            assert EvictionPlan.of_mask(mask) == EvictionPlan.of_mask(mask[:, :, :12])
            assert not plan.victims.flags.writeable

    def test_views_match_the_sorted_reference(self, rng):
        for _ in range(50):
            num_layers, num_heads, evicted = self.random_victims(rng)
            mask = self.mask_of(num_layers, num_heads, evicted, int(rng.integers(12, 20)))
            plan = EvictionPlan.of_mask(mask)
            # reference: sorted loops over the victim sets
            keys = [(layer, head) for layer in range(num_layers) for head in range(num_heads)]
            heads = [[sorted(evicted[(layer, head)]) for head in range(num_heads)]
                     for layer in range(num_layers)]
            sizes = [[len(evicted[(layer, head)]) for head in range(num_heads)]
                     for layer in range(num_layers)]
            assert plan.head_lists() == heads
            assert plan.counts.tolist() == sizes
            assert plan.evicted == {key: evicted[key] for key in keys}
            assert all(plan.head_set(*key) == evicted[key] for key in keys)
            assert len(plan.victims) == sum(len(tokens) for tokens in evicted.values())
            assert plan_to_dict(plan) == {"layers": [{"heads": h} for h in heads],
                                          "allocation": None}
            evicted_lists, counts = _plan_fields(plan)
            record = ProbeRecord(0, 0, evicted=evicted_lists, plan_sizes=counts).to_dict()
            assert record["evicted"] == [[layer, h] for layer, h in enumerate(heads)]
            assert record["plan_sizes"] == [[layer, n] for layer, n in enumerate(sizes)]


class TestPlanRandom:
    def test_zero_budget(self):
        plan = plan_random(1, 1, 10, all_live, EvictionBudget(0), 7)
        assert len(plan.victims) == 0

    def test_same_seed_same_plan(self):
        a = plan_random(2, 2, 30, all_live, EvictionBudget(5), 11)
        b = plan_random(2, 2, 30, all_live, EvictionBudget(5), 11)
        assert a == b

    def test_different_seeds_differ(self):
        a = plan_random(2, 2, 30, all_live, EvictionBudget(5), 11)
        b = plan_random(2, 2, 30, all_live, EvictionBudget(5), 12)
        assert a != b

    def test_saturation_takes_everything(self):
        live = live_from_sets({(0, 0): {3, 4, 5}})
        plan = plan_random(1, 1, 10, live, EvictionBudget(9), 0)
        assert plan.head_set(0, 0) == frozenset({3, 4, 5})

    def test_heads_split_independently(self):
        plan = plan_random(1, 2, 40, all_live, EvictionBudget(6), 3)
        assert plan.head_set(0, 0) != plan.head_set(0, 1)

    def test_every_eligible_slot_is_equally_likely(self):
        # 2 heads evict 3 of the same 10 eligible slots under seeds (s, 5):
        # each slot's inclusion frequency stays near 3/10, no ineligible slot
        # is ever drawn, and the heads' draws are independent.
        eligible = np.ones((1, 2, 14), dtype=bool)
        eligible[:, :, [0, 5, 9, 13]] = False
        counts = np.full((1, 2), 3)
        included = np.zeros(eligible.shape, dtype=int)
        heads_differ = 0
        for s in range(2000):
            picked = lowest_keyed(eligible, counts, random_victims((s, 5))(eligible.shape))
            assert not (picked & ~eligible).any()
            included += picked
            heads_differ += bool((picked[0, 0] != picked[0, 1]).any())
        frequency = included[eligible] / 2000
        assert ((0.25 <= frequency) & (frequency <= 0.35)).all(), frequency
        assert heads_differ >= 0.95 * 2000


class TestH2O:
    def test_hand_accumulation_and_plan(self):
        acc = H2OAccumulator(1, 1)
        acc.update(0, 0, {0: 0.5, 1: 0.5})
        acc.update(0, 0, {0: 1.0, 1: 0.0})
        scores = h2o_scores(acc.history(), 1, 1, all_live)
        assert scores.head_scores(0, 0) == {0: 1.5, 1: 0.5}
        plan = plan_h2o(scores, 2, all_live, EvictionBudget(1))
        assert plan.head_set(0, 0) == frozenset({1})

    def test_single_row_equals_that_row(self):
        acc = H2OAccumulator(1, 1)
        acc.update(0, 0, {2: 0.25, 3: 0.75})
        scores = h2o_scores(acc.history(), 1, 1, all_live)
        assert scores.head_scores(0, 0) == {2: 0.25, 3: 0.75}

    def test_never_attended_token_evicted_first(self):
        acc = H2OAccumulator(1, 1)
        acc.update(0, 0, {0: 0.6, 2: 0.4})
        scores = h2o_scores(acc.history(), 1, 1, all_live)
        plan = plan_h2o(scores, 3, all_live, EvictionBudget(1))
        assert plan.head_set(0, 0) == frozenset({1})

    def test_bruteforce_accumulation_agreement(self, rng):
        rows = []
        acc = H2OAccumulator(1, 1)
        for step in range(20):
            raw = rng.random(step + 1)
            row = {t: float(w) for t, w in enumerate(raw / raw.sum())}
            rows.append(row)
            acc.update(0, 0, row)
        want = h2o_bruteforce(rows)
        got = h2o_scores(acc.history(), 1, 1, all_live).head_scores(0, 0)
        assert set(got) == set(want)
        for token, value in want.items():
            assert abs(got[token] - value) < 1e-12

    def test_history_filter_respects_live_predicate(self):
        acc = H2OAccumulator(1, 1)
        acc.update(0, 0, {0: 0.5, 1: 0.5})
        live = live_from_sets({(0, 0): {1}})
        scores = h2o_scores(acc.history(), 1, 1, live)
        assert set(scores.head_scores(0, 0)) == {1}

    def test_history_of_other_dimensions_rejected(self):
        acc = H2OAccumulator(1, 2)
        acc.update(0, 1, {0: 1.0})
        with pytest.raises(ValueError, match=r"\(1, 2\) heads, expected \(1, 1\)"):
            h2o_scores(acc.history(), 1, 1, all_live)

    @pytest.mark.parametrize("layer, head, row, match", [
        (0, 0, {-1: 0.125}, r"token -1 at \(0, 0\)"),
        (0, 0, {1: 0.5, -2: 0.125}, r"token -2 at \(0, 0\)"),
        (0, -1, {1: 1.0}, r"token 1 at \(0, -1\)"),
        (0, 2, {1: 1.0}, r"token 1 at \(0, 2\)"),
        (1, 0, {1: 1.0}, r"token 1 at \(1, 0\)"),
        (-1, 0, {1: 1.0}, r"token 1 at \(-1, 0\)"),
    ])
    def test_row_outside_the_accumulator_changes_nothing(self, layer, head, row, match):
        # numpy would wrap a negative index onto the last token or head
        acc = H2OAccumulator(1, 2)
        acc.update(0, 0, {0: 0.25, 3: 0.5})
        sums, fed = acc.sums.copy(), acc.fed.copy()
        with pytest.raises(ValueError, match=match):
            acc.update(layer, head, row)
        assert np.array_equal(acc.sums, sums) and np.array_equal(acc.fed, fed)


class TestPlanStreaming:
    def test_middle_eviction(self):
        plan = plan_streaming(1, 1, 10, all_live, 2, 3)
        assert plan.head_set(0, 0) == frozenset({2, 3, 4, 5, 6})

    def test_window_covers_sequence(self):
        plan = plan_streaming(1, 1, 10, all_live, 6, 5)
        assert len(plan.victims) == 0

    def test_zero_keep_evicts_everything_eligible(self):
        plan = plan_streaming(1, 1, 4, all_live, 0, 0)
        assert plan.head_set(0, 0) == frozenset({0, 1, 2, 3})

    def test_identical_across_heads_and_layers(self):
        plan = plan_streaming(2, 3, 12, all_live, 2, 2)
        sets = {plan.head_set(layer, head) for layer in range(2) for head in range(3)}
        assert len(sets) == 1

    def test_negative_keep_rejected(self):
        with pytest.raises(ValueError):
            plan_streaming(1, 1, 10, all_live, -1, 0)


class TestPlanOldest:
    def test_takes_oldest_candidates(self):
        live = live_from_sets({(0, 0): {2, 5, 7, 9}})
        plan = plan_oldest(1, 1, 10, live, EvictionBudget(2))
        assert plan.head_set(0, 0) == frozenset({2, 5})

    def test_saturates(self):
        live = live_from_sets({(0, 0): {4}})
        plan = plan_oldest(1, 1, 10, live, EvictionBudget(3))
        assert plan.head_set(0, 0) == frozenset({4})


def eviction_order(rank, shape, layer, head, tokens):
    """The tokens, eligible at (layer, head), in the order rank evicts them.

    Checks that lowest_keyed takes each prefix of that order as its count grows.
    """
    eligible = np.zeros(shape, dtype=bool)
    eligible[layer, head, tokens] = True
    counts = np.zeros(shape[:2], dtype=int)
    keys = rank(shape)
    order = sorted(tokens, key=lambda t: (keys[layer, head, t], t))
    for count in range(len(tokens) + 1):
        counts[layer, head] = count
        picked = lowest_keyed(eligible, counts, keys)
        assert np.flatnonzero(picked[layer, head]).tolist() == sorted(order[:count])
    return order


class TestRoundRanking:
    """Ratio-cap victims of the hierarchical policy, ranked from one probe round."""

    # steps [2, 5) and [5, 8); tokens 8 and 9 were generated after the round
    SEG = make_segmentation(2, [3, 3])
    SCORES = ScoreTensor(2, 1, {
        (0, 0): {2: 0.1, 3: 0.5, 4: 0.3, 5: 0.9, 6: 0.4, 7: 0.7},
        (1, 0): {2: 0.2, 3: 0.2, 4: 0.6, 5: 0.1, 6: 0.3, 7: 0.3},
    })
    STEPS = StepScores({0: ((0, 0.6), (1, 0.2)), 1: ((0, 0.1), (1, 0.8))})

    def test_lowest_step_score_first_then_token_score(self):
        rank = round_ranking(self.SCORES, self.SEG, self.STEPS)
        assert eviction_order(rank, (2, 1, 8), 0, 0, list(range(2, 8))) == [6, 7, 5, 2, 4, 3]
        # layer 1 orders its steps the other way; equal token scores fall to the index
        assert eviction_order(rank, (2, 1, 8), 1, 0, list(range(2, 8))) == [2, 3, 4, 5, 6, 7]

    def test_tokens_after_the_round_go_last(self):
        rank = round_ranking(self.SCORES, self.SEG, self.STEPS)
        assert eviction_order(rank, (2, 1, 10), 0, 0, [2, 6, 8, 9]) == [6, 2, 8, 9]
        assert eviction_order(rank, (2, 1, 12), 1, 0, [2, 5, 8, 11]) == [2, 5, 8, 11]

    def test_oldest_first_before_any_round(self):
        assert eviction_order(oldest_first, (2, 1, 12), 1, 0, [4, 6, 9, 11]) == [4, 6, 9, 11]
        unscored = round_ranking(ScoreTensor(2, 1, {}), self.SEG, StepScores({}))
        assert eviction_order(unscored, (2, 1, 12), 1, 0, [4, 6, 9, 11]) == [4, 6, 9, 11]


# few distinct values, so most keys tie; all finite, -0.0 and the largest included
TIED_KEYS = (-2.5, -0.0, 0.0, 0.5, 1.0, float(np.finfo(float).max))


def reference_lowest_keyed(eligible, counts, keys):
    """Per head: sorted(eligible positions, key=(key, position))[:count]."""
    picked = np.zeros_like(eligible)
    for layer, head in np.ndindex(counts.shape):
        positions = np.flatnonzero(eligible[layer, head]).tolist()
        chosen = sorted(positions, key=lambda t: (keys[layer, head, t], t))[:counts[layer, head]]
        picked[layer, head, chosen] = True
    return picked


def draw_keyed_heads(data):
    """Up to 3x3 heads of width 0 to 12: a random eligible mask and tie-heavy keys."""
    shape = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)),
             data.draw(st.integers(0, 12)))
    size = int(np.prod(shape))
    eligible = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                        dtype=bool).reshape(shape)
    keys = np.array(data.draw(st.lists(st.sampled_from(TIED_KEYS), min_size=size,
                                       max_size=size)), dtype=float).reshape(shape)
    return eligible, keys


class TestLowestKeyed:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_matches_the_sorted_reference(self, data):
        eligible, keys = draw_keyed_heads(data)
        available = np.count_nonzero(eligible, axis=2)
        counts = np.array([data.draw(st.integers(0, int(limit))) for limit in available.flat],
                          dtype=int).reshape(available.shape)
        picked = lowest_keyed(eligible, counts, keys)
        assert (picked == reference_lowest_keyed(eligible, counts, keys)).all()
        assert not (picked & ~eligible).any()
        assert (np.count_nonzero(picked, axis=2) == counts).all()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_single_victims_match_the_sorted_reference(self, data):
        # counts of 0 or 1 only, the argmin path, often with no head to evict
        eligible, keys = draw_keyed_heads(data)
        available = np.count_nonzero(eligible, axis=2)
        counts = np.array([data.draw(st.integers(0, min(1, int(limit))))
                           for limit in available.flat], dtype=int).reshape(available.shape)
        picked = lowest_keyed(eligible, counts, keys)
        assert (picked == reference_lowest_keyed(eligible, counts, keys)).all()
        assert (np.count_nonzero(picked, axis=2) == counts).all()

    @pytest.mark.parametrize("width", [0, 1, 5])
    def test_no_head_with_a_count_picks_nothing(self, width):
        eligible = np.ones((2, 3, width), dtype=bool)
        picked = lowest_keyed(eligible, np.zeros((2, 3), dtype=int), np.zeros(eligible.shape))
        assert picked.shape == eligible.shape
        assert not picked.any()

    def test_ties_at_the_largest_key_never_reach_ineligible_slots(self):
        # Eligible slots all keyed at the largest finite float, with
        # ineligible slots at smaller positions: ineligible slots sort as inf,
        # strictly after every eligible slot, so the heads evict exactly their
        # eligible tokens.
        eligible = np.array([[[False, False, True, False, True, True],
                              [False, True, False, False, False, True]]])
        keys = np.where(eligible, np.finfo(float).max, 0.0)
        picked = lowest_keyed(eligible, np.array([[3, 2]]), keys)
        assert (picked == eligible).all()
        picked = lowest_keyed(eligible, np.array([[2, 1]]), keys)
        assert np.flatnonzero(picked[0, 0]).tolist() == [2, 4]
        assert np.flatnonzero(picked[0, 1]).tolist() == [1]
        picked = lowest_keyed(eligible, np.array([[1, 1]]), keys)
        assert np.flatnonzero(picked[0, 0]).tolist() == [2]
        assert np.flatnonzero(picked[0, 1]).tolist() == [1]
        picked = lowest_keyed(eligible, np.array([[0, 1]]), keys)
        assert not picked[0, 0].any()
        assert np.flatnonzero(picked[0, 1]).tolist() == [1]


def every_ranker():
    """One instance of each Ranker, with keys for tokens before and after a probe round."""
    seg = make_segmentation(2, [3, 3])
    scores = ScoreTensor(2, 2, {(layer, head): {t: 0.1 * ((t + head) % 3) for t in range(2, 8)}
                                for layer in range(2) for head in range(2)})
    step_scores = StepScores({0: ((0, 0.6), (1, 0.2)), 1: ((0, 0.1), (1, 0.8))})
    h2o = H2OAccumulator(2, 2)
    h2o.add(np.full((2, 2, 5), 0.2))
    rankers = {
        "oldest_first": oldest_first,
        "random": random_victims((4, 9)),
        "lowest_scores": lowest_scores(scores),
        "round_ranking": round_ranking(scores, seg, step_scores),
        "h2o": h2o.rank,
    }
    for policy in PolicyKind:
        rankers[f"policy_ranker[{policy.value}]"] = policy_ranker(
            policy, seed=(1, 2), ranking=h2o.rank)
    return rankers


@pytest.mark.parametrize("name", list(every_ranker()))
def test_every_ranker_keys_each_slot_finitely(name):
    rank = every_ranker()[name]
    for width in (0, 3, 8, 13):
        keys = rank((2, 2, width))
        assert keys.shape == (2, 2, width)
        assert np.isfinite(keys).all()
