"""Probe config, token score extraction, and step score aggregation."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

from reference import eq2_bruteforce
from conftest import live_from_sets, make_segmentation, make_trace

from thinkprune.errors import NonNormalizedRow
from thinkprune.model import THINK_END_ID, tokenize
from thinkprune.scoring import (
    ProbeConfig,
    SUMMARIZATION_PROBE_TEXT,
    ScoreTensor,
    StepScores,
    aggregate_step_scores,
    default_probe,
    extract_token_scores,
)


def all_live(layer, head, token):
    return True


class TestDefaultProbe:
    def test_prompt_text(self):
        assert SUMMARIZATION_PROBE_TEXT == (
            "Time is up. Given the time I've spent and the approaches I've tried, "
            "I should stop thinking and now write summarization in one sentence.</think>"
        )

    def test_interval(self):
        assert default_probe().interval_p == 200

    def test_tokenization_ends_with_think_end(self):
        for vocab_size in (16, 64):
            tokens = tokenize(SUMMARIZATION_PROBE_TEXT, vocab_size)
            assert tokens[-1] == (THINK_END_ID, "</think>")
            assert [tid for tid, _text in tokens].count(THINK_END_ID) == 1

    def test_probe_text_constant(self):
        # the period is the probe's one setting; the text is fixed
        assert default_probe(interval_p=7) == ProbeConfig(7)
        assert [f.name for f in fields(ProbeConfig)] == ["interval_p"]


class TestProbeConfigValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ProbeConfig(0)


def _rows_from_arrays(arrays: dict[tuple[int, int], list[float]]) -> np.ndarray:
    """Dense (layers, heads, keys) rows, as forward_step returns them."""
    num_layers = 1 + max(layer for layer, _head in arrays)
    num_heads = 1 + max(head for _layer, head in arrays)
    width = len(next(iter(arrays.values())))
    rows = np.zeros((num_layers, num_heads, width))
    for (layer, head), weights in arrays.items():
        rows[layer, head] = weights
    return rows


class TestExtractTokenScores:
    def test_uniform_row(self):
        trace = make_trace(["p0", "p1", " a", " b", " c", " d"], 2)
        rows = _rows_from_arrays({(0, 0): [1 / 6] * 6})
        tensor = extract_token_scores(rows, trace, all_live)
        assert tensor.head_scores(0, 0) == {t: 1 / 6 for t in range(2, 6)}

    def test_one_hot_row(self):
        trace = make_trace(["p0", " a", " b", " c"], 1)
        weights = [0.0, 0.0, 1.0, 0.0]
        rows = _rows_from_arrays({(0, 0): weights})
        tensor = extract_token_scores(rows, trace, all_live)
        assert tensor.head_scores(0, 0) == {1: 0.0, 2: 1.0, 3: 0.0}

    def test_random_rows_match_direct_indexing(self, rng):
        trace = make_trace(["p"] + [f" t{i}" for i in range(7)], 1)
        arrays = {}
        for layer in range(2):
            for head in range(2):
                raw = rng.random(8)
                arrays[(layer, head)] = list(raw / raw.sum())
        tensor = extract_token_scores(_rows_from_arrays(arrays), trace, all_live)
        for (layer, head), weights in arrays.items():
            assert tensor.head_scores(layer, head) == {
                t: weights[t] for t in range(1, 8)
            }
        # a tensor holds its dimensions and two arrays, and nothing is cached on it
        assert not hasattr(tensor, "__dict__")

    def test_rows_narrower_than_reasoning_region_rejected(self):
        trace = make_trace(["p", " a", " b", " c"], 1)
        rows = _rows_from_arrays({(0, 0): [0.25, 0.25, 0.5]})
        with pytest.raises(ValueError, match="cover 3 keys"):
            extract_token_scores(rows, trace, all_live)
        with pytest.raises(ValueError, match="cover 3 keys"):
            extract_token_scores(rows, trace, all_live, reason_end=4)
        tensor = extract_token_scores(rows, trace, all_live, reason_end=3)
        assert tensor.head_scores(0, 0) == {1: 0.25, 2: 0.5}

    def test_non_normalized_row(self):
        trace = make_trace(["p", " a"], 1)
        rows = _rows_from_arrays({(0, 0): [0.5, 0.4]})
        with pytest.raises(NonNormalizedRow):
            extract_token_scores(rows, trace, all_live)

    def test_row_sum_tolerance_accepts_1e6_error(self):
        trace = make_trace(["p", " a"], 1)
        rows = _rows_from_arrays({(0, 0): [0.5, 0.5 + 1e-6]})
        extract_token_scores(rows, trace, all_live)

    @pytest.mark.parametrize("excess", [0.99e-5, 1.01e-5, -1.01e-5, float("inf"), float("nan")])
    def test_row_check_matches_fsum_in_row_order(self, excess):
        # a row sums to 1 + excess; what fsum says decides, the first bad row raises
        trace = make_trace(["p", " a", " b"], 1)
        rows = np.full((2, 2, 4), 0.25)
        rows[0, 1, 1:3] = [0.25 + excess / 2, 0.25 + excess / 2]
        rows[1, 0, 0] = 0.5
        total = math.fsum(rows[0, 1].tolist())
        if abs(total - 1.0) > 1e-5:
            with pytest.raises(NonNormalizedRow, match=rf"layer 0, head 1 sums to {total!r}"):
                extract_token_scores(rows, trace, all_live)
        else:
            with pytest.raises(NonNormalizedRow, match="layer 1, head 0"):
                extract_token_scores(rows, trace, all_live)
        rows[1, 0, 0] = 0.25
        if excess == 0.99e-5:
            extract_token_scores(rows, trace, all_live)

    def test_prompt_probe_and_answer_mass_not_scored(self):
        # Trace: 1 prompt + 2 reasoning + 1 answer token; row also covers a
        # probe key at position 4. Only reasoning positions 1..2 get entries.
        trace = make_trace(["p", " a", " b", " ans"], 1)
        rows = _rows_from_arrays({(0, 0): [0.3, 0.2, 0.1, 0.2, 0.2]})
        tensor = extract_token_scores(rows, trace, all_live, reason_end=3)
        assert tensor.head_scores(0, 0) == {1: 0.2, 2: 0.1}

    def test_dead_tokens_get_no_entry(self):
        trace = make_trace(["p", " a", " b", " c"], 1)
        live_sets = {(0, 0): {1, 3}}
        rows = _rows_from_arrays({(0, 0): [0.25, 0.25, 0.25, 0.25]})
        tensor = extract_token_scores(rows, trace, live_from_sets(live_sets))
        assert set(tensor.head_scores(0, 0)) == {1, 3}

    def test_score_conservation(self, rng):
        # Sum of scored reasoning tokens never exceeds the full row sum of 1.
        trace = make_trace(["p0", "p1"] + [f" t{i}" for i in range(6)], 2)
        for _ in range(25):
            raw = rng.random(10)  # 8 trace keys + 2 probe keys
            arrays = {(0, 0): list(raw / raw.sum())}
            tensor = extract_token_scores(_rows_from_arrays(arrays), trace, all_live)
            assert sum(tensor.head_scores(0, 0).values()) <= 1.0 + 1e-9


class TestScoreTensorValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ScoreTensor(1, 1, {(0, 0): {3: -0.1}})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ScoreTensor(1, 1, {(0, 0): {3: float("nan")}})

    def test_rejects_out_of_range_head(self):
        with pytest.raises(ValueError):
            ScoreTensor(1, 1, {(0, 1): {3: 0.1}})


class TestAggregateStepScores:
    def test_hand_example_exact(self):
        # One layer, two heads, one step holding tokens {5, 6}.
        seg = make_segmentation(5, [2])
        scores = ScoreTensor(1, 2, {(0, 0): {5: 0.2, 6: 0.0}, (0, 1): {5: 0.1, 6: 0.1}})
        result = aggregate_step_scores(scores, seg, all_live)
        (sid, value), = result.layer_entries(0)
        assert sid == 0
        assert value == (0.2 + 0.0 + 0.1 + 0.1) / 4
        assert abs(value - 0.1) < 1e-12

    def test_all_zero_scores(self):
        seg = make_segmentation(0, [2, 3])
        scores = ScoreTensor(1, 1, {(0, 0): {t: 0.0 for t in range(5)}})
        result = aggregate_step_scores(scores, seg, all_live)
        assert [value for _sid, value in result.layer_entries(0)] == [0.0, 0.0]

    def test_single_token_single_head(self):
        seg = make_segmentation(0, [1])
        scores = ScoreTensor(1, 1, {(0, 0): {0: 0.7}})
        result = aggregate_step_scores(scores, seg, all_live)
        assert result.layer_entries(0) == ((0, 0.7),)

    def test_steps_with_no_live_tokens_are_omitted(self):
        seg = make_segmentation(0, [2, 2])
        live = live_from_sets({(0, 0): {0, 1}})
        scores = ScoreTensor(1, 1, {(0, 0): {0: 0.2, 1: 0.4}})
        result = aggregate_step_scores(scores, seg, live)
        assert [sid for sid, _ in result.layer_entries(0)] == [0]

    def test_non_uniform_head_counts_average_over_live_slots(self):
        # After a baseline (random/h2o) round, per-step live counts can
        # differ across heads; the step mean then runs over all live
        # (head, token) slots, which reduces to H * n_live when uniform.
        seg = make_segmentation(0, [2])
        live = live_from_sets({(0, 0): {0, 1}, (0, 1): {0}})
        scores = ScoreTensor(1, 2, {(0, 0): {0: 0.1, 1: 0.3}, (0, 1): {0: 0.2}})
        result = aggregate_step_scores(scores, seg, live)
        (sid, value), = result.layer_entries(0)
        assert sid == 0
        assert value == (0.1 + 0.3 + 0.2) / 3

    def test_bruteforce_oracle_agreement(self, rng):
        for _ in range(100):
            num_layers = int(rng.integers(1, 3))
            num_heads = int(rng.integers(1, 4))
            sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4)))]
            seg = make_segmentation(0, sizes)
            total = sum(sizes)
            scores_dict = {}
            live_sets = {}
            for layer in range(num_layers):
                counts = {sid: int(rng.integers(0, size + 1)) for sid, size in enumerate(sizes)}
                for head in range(num_heads):
                    live = set()
                    for sid, step in enumerate(seg.steps):
                        span = list(range(step.start, step.end))
                        chosen = rng.choice(len(span), size=counts[sid], replace=False)
                        live.update(span[int(i)] for i in chosen)
                    live_sets[(layer, head)] = live
                    scores_dict[(layer, head)] = {t: float(rng.random()) for t in live}
            tensor = ScoreTensor(num_layers, num_heads, scores_dict)
            got = aggregate_step_scores(tensor, seg, live_from_sets(live_sets))
            want = eq2_bruteforce(
                num_layers, num_heads,
                [(s.start, s.end) for s in seg.steps], scores_dict, live_sets,
            )
            for layer in range(num_layers):
                entries = dict(got.layer_entries(layer))
                assert set(entries) == set(want[layer])
                for sid, value in want[layer].items():
                    assert math.isclose(entries[sid], value, rel_tol=0, abs_tol=1e-12)

    def test_denominator_uses_live_count(self):
        # Evicting a zero-score token keeps the numerator and shrinks the
        # denominator: c scales by exactly (n + 1) / n.
        seg = make_segmentation(0, [3])
        scores_full = ScoreTensor(1, 1, {(0, 0): {0: 0.5, 1: 0.25, 2: 0.0}})
        c_full = dict(aggregate_step_scores(scores_full, seg, all_live).layer_entries(0))[0]
        live = live_from_sets({(0, 0): {0, 1}})
        scores_pruned = ScoreTensor(1, 1, {(0, 0): {0: 0.5, 1: 0.25}})
        c_pruned = dict(aggregate_step_scores(scores_pruned, seg, live).layer_entries(0))[0]
        assert c_full == (0.5 + 0.25) / 3
        assert c_pruned == (0.5 + 0.25) / 2
        assert math.isclose(c_pruned, c_full * 3 / 2, rel_tol=1e-15)

    def test_head_permutation_invariance(self, rng):
        seg = make_segmentation(0, [2, 2])
        base = {
            (0, 0): {t: float(rng.random()) for t in range(4)},
            (0, 1): {t: float(rng.random()) for t in range(4)},
            (0, 2): {t: float(rng.random()) for t in range(4)},
        }
        swapped = {(0, 0): base[(0, 2)], (0, 1): base[(0, 0)], (0, 2): base[(0, 1)]}
        a = aggregate_step_scores(ScoreTensor(1, 3, base), seg, all_live)
        b = aggregate_step_scores(ScoreTensor(1, 3, swapped), seg, all_live)
        for (sa, va), (sb, vb) in zip(a.layer_entries(0), b.layer_entries(0)):
            assert sa == sb
            assert math.isclose(va, vb, rel_tol=0, abs_tol=1e-15)

    def test_scaling_and_renormalizing_rows_preserves_order(self, rng):
        # Scaling a softmax row by a constant and renormalizing reproduces
        # the same row, hence identical step scores and ordering.
        trace = make_trace(["p"] + [f" t{i}" for i in range(6)], 1)
        raw = rng.random(7)
        row = raw / raw.sum()
        scaled = row * 3.7
        scaled = scaled / scaled.sum()
        seg = make_segmentation(1, [3, 3])
        tensors = []
        for weights in (row, scaled):
            rows = _rows_from_arrays({(0, 0): list(weights)})
            tensor = extract_token_scores(rows, trace, all_live)
            tensors.append(aggregate_step_scores(tensor, seg, all_live))
        order_a = sorted(tensors[0].layer_entries(0), key=lambda e: (e[1], e[0]))
        order_b = sorted(tensors[1].layer_entries(0), key=lambda e: (e[1], e[0]))
        assert [sid for sid, _ in order_a] == [sid for sid, _ in order_b]
