"""Candidate masks and the equivalent predicates give the same rounds.

Every scoring and planning function takes its candidates either as a
(layers, heads, positions) bool mask or as a (layer, head, token)
predicate. Both must give bitwise equal scores, step scores, allocations
and plans, and step scores must equal a plain sequential sum.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_segmentation, make_trace

from thinkprune.engine import plan_round
from thinkprune.policy import (
    EvictionBudget,
    H2OAccumulator,
    PolicyKind,
    allocate,
    h2o_scores,
    plan_by_selector,
)
from thinkprune.scoring import (
    ScoreTensor,
    aggregate_step_scores,
    candidate_mask,
    extract_token_scores,
)


def random_round(rng: np.random.Generator):
    """Rows, trace, segmentation and candidate mask of one random probe round."""
    num_layers, num_heads = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    prompt_len = int(rng.integers(0, 4))
    sizes = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 12)))]
    seg = make_segmentation(prompt_len, sizes)
    base = seg.trace_len
    trace = make_trace(["w"] * base, prompt_len)
    live = rng.random((num_layers, num_heads, base)) < rng.uniform(0.3, 1.0)
    if rng.random() < 0.5:
        # head-uniform counts per step, as hierarchical eviction keeps them
        live = np.broadcast_to(live[:, :1], live.shape).copy()
    recent = int(rng.integers(0, 5))
    mask = live.copy()
    mask[:, :, :prompt_len] = False
    if recent:
        mask[:, :, base - recent:] = False
    weights = rng.random((num_layers, num_heads, base + 5)) ** 3
    weights[:, :, :base] *= live
    rows = weights / weights.sum(axis=2, keepdims=True)
    return rows, trace, seg, mask


def predicate_of(mask: np.ndarray):
    def live(layer: int, head: int, token: int) -> bool:
        return 0 <= token < mask.shape[2] and bool(mask[layer, head, token])

    return live


def sequential_step_scores(values: np.ndarray, live: np.ndarray, seg) -> dict:
    """{layer: {step: mean}}: heads outer, tokens inner, one add at a time."""
    out: dict[int, dict[int, float]] = {}
    for layer in range(values.shape[0]):
        out[layer] = {}
        for sid, step in enumerate(seg.steps):
            total, slots = 0.0, 0
            for head in range(values.shape[1]):
                for token in range(step.start, step.end):
                    if live[layer, head, token]:
                        total += float(values[layer, head, token])
                        slots += 1
            if slots:
                out[layer][sid] = total / slots
    return out


def outcome(fn):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - both paths must fail alike
        return type(exc), str(exc)


def test_candidate_mask_fits_width():
    mask = np.array([[[True, False, True]]])
    assert candidate_mask(mask, (1, 1, 2)).tolist() == [[[True, False]]]
    assert candidate_mask(mask, (1, 1, 5)).tolist() == [[[True, False, True, False, False]]]
    assert candidate_mask(predicate_of(mask), (1, 1, 5)).tolist() == [[[True, False, True,
                                                                         False, False]]]
    fresh = candidate_mask(mask, (1, 1, 3))
    fresh[:] = False
    assert mask.any()


def test_mask_and_predicate_rounds_are_bitwise_equal(rng):
    for _ in range(80):
        rows, trace, seg, mask = random_round(rng)
        predicate = predicate_of(mask)
        base = seg.trace_len
        by_mask = extract_token_scores(rows, trace, mask, reason_end=base)
        by_predicate = extract_token_scores(rows, trace, predicate, reason_end=base)
        assert by_mask == by_predicate
        assert by_mask.values.tobytes() == by_predicate.values.tobytes()

        steps = aggregate_step_scores(by_mask, seg, mask)
        assert steps == aggregate_step_scores(by_mask, seg, predicate)
        want = sequential_step_scores(by_mask.values, mask, seg)
        assert {layer: dict(entries) for layer, entries in steps.by_layer.items()} == want

        budget = EvictionBudget(int(rng.integers(0, 12)))
        assert allocate(steps, seg, mask, budget) == allocate(steps, seg, predicate, budget)

        h2o = H2OAccumulator(*rows.shape[:2])
        h2o.add(rows[:, :, :base])
        h2o.add(rows[:, :, 2:base + 2])
        history = h2o.history()
        h2o_by_mask = h2o_scores(history, *rows.shape[:2], mask)
        assert h2o_by_mask == h2o_scores(history, *rows.shape[:2], predicate)
        for policy in PolicyKind:
            ranking = h2o_by_mask if policy is PolicyKind.H2O else by_mask
            planned = [outcome(lambda: plan_round(policy, ranking, seg, steps, live, base,
                                                  budget, (5, 1)))
                       for live in (mask, predicate)]
            assert planned[0] == planned[1], policy
            if policy is PolicyKind.H2O:
                # on the eligible slots the accumulator's own keys equal the
                # filtered history's, so ranking by them plans the same round
                assert planned[0] == outcome(lambda: (plan_by_selector(
                    *rows.shape[:2], base, mask, budget, h2o.rank), None))


@pytest.mark.parametrize("value", [0.4, 1 / 3])
def test_step_sums_are_sequential_not_pairwise(value):
    # 1.0 then many tiny terms: a sequential sum drops each tiny term, a
    # pairwise or compensated sum would not
    values = np.full((1, 2, 40), value * 1e-16)
    values[0, 0, 0] = 1.0
    scored = np.ones(values.shape, dtype=bool)
    seg = make_segmentation(0, [40])
    assert sequential_step_scores(values, scored, seg)[0] == {0: 1.0 / 80}
    steps = aggregate_step_scores(ScoreTensor.from_arrays(values, scored), seg, scored)
    assert dict(steps.layer_entries(0)) == sequential_step_scores(values, scored, seg)[0]


def test_negative_zero_scores_give_positive_zero_steps():
    # the sequential sum starts from 0.0, and 0.0 + -0.0 is 0.0
    values = np.full((1, 2, 3), -0.0)
    scored = np.ones(values.shape, dtype=bool)
    steps = aggregate_step_scores(ScoreTensor.from_arrays(values, scored),
                                  make_segmentation(0, [1, 2]), scored)
    assert [np.copysign(1.0, value) for _sid, value in steps.layer_entries(0)] == [1.0, 1.0]
