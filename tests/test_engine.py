"""Decode loop, probe cycles, scheduling, and policy wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from reference import alg1_reference, h2o_bruteforce

from thinkprune import cache, engine, policy
from thinkprune.cache import CacheBudget, KvCacheState, ProtectedRegions
from thinkprune.engine import (
    DecodeConfig,
    decode_step,
    kv_stats,
    probe_cycle,
    requery_logits,
    run,
)
from thinkprune.errors import InputFormatError, ProbeLeak, ProtectedTokenEviction, SequenceTooLong
from thinkprune.model import EOS_ID, THINK_END_ID, TinyDecoder, TinyModelConfig, tokenize
from thinkprune.policy import (
    EvictionBudget,
    EvictionPlan,
    H2OAccumulator,
    PolicyKind,
    oldest_first,
)
from thinkprune.scoring import SUMMARIZATION_PROBE_TEXT, ScoreTensor, default_probe
from thinkprune.trace import ReasoningTrace, Token, default_marker_set, segment

PROMPT = "Solve: compute two plus two."


def small_probe(interval: int = 8):
    return default_probe(interval_p=interval)


def make_config(policy=None, budget=None, max_new=40, interval=8, **kw):
    return DecodeConfig(
        max_new_tokens=max_new,
        probe=small_probe(interval),
        policy=policy,
        budget=budget,
        **kw,
    )


class TestDecodeConfig:
    def test_budget_without_policy_rejected(self):
        with pytest.raises(ValueError):
            make_config(policy=None, budget=EvictionBudget(2))

    def test_policy_without_budget_rejected(self):
        with pytest.raises(ValueError):
            make_config(policy=PolicyKind.HIERARCHICAL, budget=None)

    def test_sampling_needs_positive_temperature(self):
        # a non-finite temperature is rejected whether or not it is read
        for greedy, temperature in ((False, 0.0), (False, float("nan")), (False, float("inf")),
                                    (True, float("nan"))):
            with pytest.raises(ValueError):
                make_config(greedy=greedy, temperature=temperature)

    def test_temperature_too_small_to_divide_by_samples_the_argmax(self):
        # logits / 1e-310 overflow to inf; the sampled step takes its limit, the argmax
        cfg = TinyModelConfig(rng_seed=4)
        greedy = run(cfg, PROMPT, make_config(max_new=12))
        tiny = run(cfg, PROMPT, make_config(max_new=12, greedy=False, temperature=1e-310))
        assert tiny.generated_ids == greedy.generated_ids

    def test_recent_window_with_cache_budget_rejected(self):
        # a CacheBudget carries its own recent window; a second one was ignored
        with pytest.raises(ValueError, match="recent_window"):
            make_config(policy=PolicyKind.HIERARCHICAL, budget=CacheBudget(max_slots=8),
                        recent_window=6)
        make_config(policy=PolicyKind.HIERARCHICAL, budget=CacheBudget(max_slots=8))
        make_config(policy=PolicyKind.HIERARCHICAL, budget=EvictionBudget(2), recent_window=6)


class TestPromptIds:
    """run checks every prompt id against the vocabulary before the first forward."""

    @pytest.mark.parametrize("bad", [64, -1])
    def test_out_of_vocabulary_id_is_rejected_before_any_forward(self, monkeypatch, bad):
        forwards = count_forwards(monkeypatch)
        with pytest.raises(ValueError, match=rf"prompt id {bad} at position 1 is outside \[0, 64\)"):
            run(TinyModelConfig(), [(5, "a"), (bad, "b")], make_config(max_new=4))
        assert forwards == []

    @pytest.mark.parametrize("edge", [0, 63])
    def test_ids_at_the_vocabulary_edges_run(self, edge):
        record = run(TinyModelConfig(), [(5, "a"), (edge, "b")], make_config(max_new=4))
        assert record.prompt_len == 2


def count_forwards(monkeypatch) -> list:
    """Patch TinyDecoder.forward_step to record each call's arguments."""
    forwards = []
    original = TinyDecoder.forward_step

    def counting(self, *args, **kwargs):
        forwards.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TinyDecoder, "forward_step", counting)
    return forwards


class TestProbeIds:
    """The probe's ids come from tokenizing SUMMARIZATION_PROBE_TEXT, once per vocabulary."""

    def test_matching_id_runs(self, monkeypatch):
        forwards = count_forwards(monkeypatch)
        record = run(TinyModelConfig(), PROMPT, make_config(policy=PolicyKind.HIERARCHICAL,
                                                            budget=EvictionBudget(2), max_new=8))
        first = record.probe_records[0]
        assert first.ran_probe
        # prompt, decode, probe, and the requery after an evicting round
        assert len(forwards) == record.prompt_len + 8 + 25 + (first.evicted_total > 0)

    def test_probe_text_is_tokenized_once_per_vocabulary(self, monkeypatch):
        tokenized = []
        tokenize = engine.tokenize

        def counting(text, vocab_size):
            if text == SUMMARIZATION_PROBE_TEXT:
                tokenized.append(vocab_size)
            return tokenize(text, vocab_size)

        monkeypatch.setattr(engine, "tokenize", counting)
        engine._probe_ids.cache_clear()
        config = make_config(policy=PolicyKind.HIERARCHICAL, budget=EvictionBudget(2), max_new=24)
        record = run(TinyModelConfig(), PROMPT, config)
        assert [rec.ran_probe for rec in record.probe_records] == [True] * 3
        assert tokenized == [64]
        other = run(TinyModelConfig(vocab_size=128), PROMPT, config)
        assert [rec.ran_probe for rec in other.probe_records] == [True] * 3
        run(TinyModelConfig(), PROMPT, config)
        assert tokenized == [64, 128]


class TestPrefill:
    def test_only_the_last_prompt_token_computes_logits(self, monkeypatch):
        forwards = []
        original = TinyDecoder.forward_step

        def spy(self, cache, token_id, position, **kwargs):
            forwards.append((position, kwargs.get("outputs", "logits")))
            return original(self, cache, token_id, position, **kwargs)

        monkeypatch.setattr(TinyDecoder, "forward_step", spy)
        decoded = []
        decode = engine.decode_step

        def decode_spy(state, model, token_id, position):
            decoded.append(position)
            return decode(state, model, token_id, position)

        monkeypatch.setattr(engine, "decode_step", decode_spy)
        record = run(TinyModelConfig(rng_seed=2), PROMPT, make_config(max_new=3))
        p = record.prompt_len
        assert forwards[:p] == [(i, "kv") for i in range(p - 1)] + [(p - 1, "logits")]
        assert decoded == list(range(p - 1, p + 3))
        # the same tokens as a prefill that computes every logit
        state = KvCacheState(2, 2, 16, ProtectedRegions(p, 0))
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        for i, (tid, _text) in enumerate(tokenize(PROMPT, 64)):
            logits = decode(state, model, tid, i).logits
        assert record.generated_ids[0] == int(np.argmax(logits))


class TestContextLimit:
    @pytest.mark.parametrize("policy", [None, PolicyKind.HIERARCHICAL], ids=["full", "ours"])
    def test_decoding_stops_at_max_seq_len(self, policy):
        config = make_config(policy=policy, budget=None if policy is None else EvictionBudget(2),
                             max_new=100)
        record = run(TinyModelConfig(max_seq_len=40), PROMPT, config)
        assert record.prompt_len + record.tokens_generated == 40
        assert EOS_ID not in record.generated_ids
        if policy is not None:
            # the 25-token probe fits at 5 + 8 tokens, and not from 5 + 16 on
            assert [rec.skip_reason for rec in record.probe_records] == [None] + ["no-room"] * 3

    def test_prompt_longer_than_max_seq_len_is_refused_before_any_forward(self, monkeypatch):
        forwards = count_forwards(monkeypatch)
        with pytest.raises(SequenceTooLong, match="the prompt's 5 tokens exceed max_seq_len 4"):
            run(TinyModelConfig(max_seq_len=4), PROMPT, make_config())
        assert forwards == []

    def test_prompt_that_fills_max_seq_len_generates_nothing(self):
        record = run(TinyModelConfig(max_seq_len=5), PROMPT, make_config())
        assert record.prompt_len == 5
        assert record.generated_ids == []


class TestKvStats:
    """Occupancy rows come from one stats() array per step and final_stats
    from kv_stats, checked here on caches whose heads hold different live
    counts."""

    @staticmethod
    def uneven_cache() -> KvCacheState:
        # per-head plans, then a suffix removal: live counts [[1, 0], [2, 3]]
        state = KvCacheState(2, 2, 4, ProtectedRegions(0, 0))
        state.reserve(4)
        for index in range(4):
            state.append(index)
        state.apply_plan(EvictionPlan(2, 2, {(0, 0): [1, 2, 3], (0, 1): [0, 1, 2],
                                             (1, 0): [0], (1, 1): [3]}))
        state.remove_suffix(3)
        return state

    def test_uneven_heads(self):
        state = self.uneven_cache()
        assert state.live_sets() == {(0, 0): frozenset({0}), (0, 1): frozenset(),
                                     (1, 0): frozenset({1, 2}), (1, 1): frozenset({0, 1, 2})}
        stats = kv_stats(state)
        assert stats == {"avg_kv": 1.5, "peak_kv": 3, "evicted_total": 8,
                         "per_layer": [[1, 0], [2, 3]]}
        assert list(stats) == ["avg_kv", "peak_kv", "evicted_total", "per_layer"]
        assert [type(stats[key]) for key in ("avg_kv", "peak_kv", "evicted_total")] == \
            [float, int, int]

    def test_run_rows_and_final_stats_follow_uneven_heads(self, monkeypatch):
        # on_step clears one live bit of head (0, 1), so every later row and
        # the final stats see heads with different counts
        model = TinyModelConfig(rng_seed=1)

        def on_step(step, state):
            if step == 3:
                state.live[0, 1, 2] = False

        summaries = []

        def counting(state):
            summaries.append(state.next_index)
            return kv_stats(state)

        monkeypatch.setattr(engine, "kv_stats", counting)
        record = run(model, PROMPT, make_config(max_new=6), on_step=on_step)
        # the per-step rows build no kv_stats summary; only final_stats does
        assert summaries == [record.prompt_len + 6]
        rows = record.to_dict()["occupancy"]
        prompt_len = record.prompt_len
        for step, avg_live, max_live, nonprompt in rows:
            full = prompt_len + step
            if step <= 3:
                assert (avg_live, max_live) == (float(full), full)
            else:
                assert (avg_live, max_live) == (full - 1 / 4, full)
            assert nonprompt == step
        assert record.final_stats["per_layer"] == [[prompt_len + 6, prompt_len + 5],
                                                   [prompt_len + 6, prompt_len + 6]]
        assert record.final_stats["avg_kv"] == prompt_len + 6 - 1 / 4
        assert record.final_stats["peak_kv"] == prompt_len + 6


class TestNullPruning:
    def test_probing_with_zero_budget_matches_no_probes(self):
        cfg = TinyModelConfig(rng_seed=1)
        full = run(cfg, PROMPT, make_config())
        probed = run(cfg, PROMPT, make_config(policy=PolicyKind.HIERARCHICAL,
                                              budget=EvictionBudget(0)))
        assert probed.generated_ids == full.generated_ids
        assert probed.evicted_total == 0
        assert probed.probe_rounds > 0
        assert np.array_equal(probed.occupancy, full.occupancy)

    def test_null_pruning_holds_under_sampling(self):
        cfg = TinyModelConfig(rng_seed=4)
        kw = dict(greedy=False, temperature=0.8, top_p=0.9, sampling_seed=123)
        full = run(cfg, PROMPT, make_config(**kw))
        probed = run(cfg, PROMPT, make_config(policy=PolicyKind.HIERARCHICAL,
                                              budget=EvictionBudget(0), **kw))
        assert probed.generated_ids == full.generated_ids


class TestDeterminism:
    @pytest.mark.parametrize("policy,budget", [
        (None, None),
        (PolicyKind.HIERARCHICAL, EvictionBudget(2)),
        (PolicyKind.RANDOM, EvictionBudget(2)),
        (PolicyKind.H2O, EvictionBudget(2)),
        (PolicyKind.STREAMING, EvictionBudget(2)),
    ])
    def test_repeated_runs_are_bitwise_identical(self, policy, budget):
        cfg = TinyModelConfig(rng_seed=6)
        a = run(cfg, PROMPT, make_config(policy=policy, budget=budget, max_new=30))
        b = run(cfg, PROMPT, make_config(policy=policy, budget=budget, max_new=30))
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


class TestScheduling:
    def test_two_rounds_for_ten_reasoning_tokens(self):
        cfg = TinyModelConfig(rng_seed=1)
        record = run(cfg, PROMPT, make_config(policy=PolicyKind.HIERARCHICAL,
                                              budget=EvictionBudget(0),
                                              max_new=10, interval=4))
        assert record.reasoning_len == 10
        assert record.probe_rounds == 2

    def test_rounds_stop_after_natural_think_end(self):
        # Seed 0 with k=1 emits its own end-of-thinking token mid-run.
        cfg = TinyModelConfig(rng_seed=0)
        record = run(cfg, PROMPT, make_config(policy=PolicyKind.HIERARCHICAL,
                                              budget=EvictionBudget(1),
                                              max_new=70, interval=6))
        assert record.think_end_emitted
        assert record.probe_rounds == record.reasoning_len // 6
        # every recorded round happened at a multiple of the interval, within
        # the reasoning region
        for i, rec in enumerate(record.probe_records):
            assert rec.reasoning_tokens == (i + 1) * 6
            assert rec.reasoning_tokens <= record.reasoning_len

    def test_schedule_invariant_across_seeds(self):
        for seed in range(8):
            cfg = TinyModelConfig(rng_seed=seed)
            record = run(cfg, PROMPT, make_config(policy=PolicyKind.HIERARCHICAL,
                                                  budget=EvictionBudget(1),
                                                  max_new=40, interval=5))
            ended_by_eos = (record.tokens_generated < 40 and not record.think_end_emitted)
            if not ended_by_eos:
                assert record.probe_rounds == record.reasoning_len // 5


class TestProbeCycle:
    def _prefill(self, model, texts, ids=None, recent=0):
        cfg = model.config
        ids = ids if ids is not None else [10 + i for i in range(len(texts))]
        state = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim,
                             ProtectedRegions(1, recent))
        for i, tid in enumerate(ids):
            decode_step(state, model, tid, i)
        trace = ReasoningTrace(
            tuple(Token(i, tid, text) for i, (tid, text) in enumerate(zip(ids, texts))), 1
        )
        return state, trace

    def test_hand_built_two_step_trace_evicts_lowest_of_lower_step(self):
        # Single layer, single head, 6 reasoning tokens in 2 steps, k=1:
        # the plan must hold exactly the lowest-scoring token of the
        # lower-scoring step, per the line-by-line reference.
        model = TinyDecoder(TinyModelConfig(num_layers=1, num_heads=1,
                                            model_dim=16, head_dim=16, rng_seed=11))
        texts = ["Q:", "First", " x", " y", ".", " Wait", " z"]
        state, trace = self._prefill(model, texts)
        record, ranker = probe_cycle(
            state, model, trace, PolicyKind.HIERARCHICAL, EvictionBudget(1),
        )
        assert record.ran_probe
        assert ranker is None
        spans = [(s.start, s.end) for s in segment(trace, default_marker_set()).steps]
        assert spans == [(1, 5), (5, 7)]
        scores = {(0, 0): dict(record.scores.head_scores(0, 0))}
        live_sets = {(0, 0): set(range(1, 7))}
        want = alg1_reference(1, 1, spans, scores, live_sets, 1)
        got = {(layer, 0): set(heads[0]) for layer, heads in
               {e[0]: e[1] for e in record.evicted}.items()}
        assert got == want
        # and that token is the argmin of the lower-c step
        c = {sid: score for sid, score in record.step_scores[0].tolist() if sid >= 0}
        low_sid = min(c, key=lambda sid: (c[sid], sid))
        lo, hi = spans[low_sid]
        victim, = got[(0, 0)]
        assert lo <= victim < hi
        step_scores = {t: scores[(0, 0)][t] for t in range(lo, hi)}
        assert victim == min(step_scores, key=lambda t: (step_scores[t], t))

    def test_zero_budget_cycle_restores_state_exactly(self):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        texts = ["Q:", "So", " a", " b", ".", " Then", " c"]
        state, trace = self._prefill(model, texts)
        before = state.live_sets()
        before_next = state.next_index
        record, _ = probe_cycle(
            state, model, trace, PolicyKind.HIERARCHICAL, EvictionBudget(0),
        )
        assert record.evicted_total == 0
        assert state.live_sets() == before
        assert state.next_index == before_next
        assert state.evicted_total == 0

    def test_skipped_after_natural_think_end(self):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        texts = ["Q:", "So", " a", "</think>", " four"]
        ids = [10, 11, 12, THINK_END_ID, 13]
        state, trace = self._prefill(model, texts, ids)
        before = state.live_sets()
        record, ranker = probe_cycle(
            state, model, trace, PolicyKind.HIERARCHICAL, EvictionBudget(3),
        )
        assert record.skipped
        assert record.skip_reason == "post-reasoning"
        assert not record.ran_probe
        assert ranker is None
        assert state.live_sets() == before

    def test_probe_hygiene_no_probe_token_survives(self):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        texts = ["Q:", "So", " a", " b", ".", " Then", " c"]
        state, trace = self._prefill(model, texts)
        pre = state.live_sets()
        probe_cycle(state, model, trace, PolicyKind.HIERARCHICAL, EvictionBudget(2))
        post = state.live_sets()
        base = len(trace.tokens)
        for key, live in post.items():
            assert all(t < base for t in live)
            assert live <= pre[key]

    def test_probe_forwards_skip_what_the_round_does_not_read(self, monkeypatch):
        # every probe token but the last only joins the cache; the last one's
        # rows are the observation, and no probe token's logits are computed
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        texts = ["Q:", "So", " a", " b", ".", " Then", " c"]
        state, trace = self._prefill(model, texts)
        forward_step = TinyDecoder.forward_step
        calls = []

        def spy(self, cache, token_id, *args, **kwargs):
            calls.append((token_id, kwargs.get("outputs", "logits")))
            return forward_step(self, cache, token_id, *args, **kwargs)

        def no_decode_step(*args, **kwargs):
            raise AssertionError("a probe round called decode_step")

        monkeypatch.setattr(TinyDecoder, "forward_step", spy)
        monkeypatch.setattr(engine, "decode_step", no_decode_step)
        record, _ = probe_cycle(state, model, trace, PolicyKind.HIERARCHICAL, EvictionBudget(2))
        assert record.ran_probe
        probe = tokenize(SUMMARIZATION_PROBE_TEXT, model.config.vocab_size)
        assert [token_id for token_id, _outputs in calls] == [pid for pid, _text in probe]
        assert calls[-1][0] == THINK_END_ID
        assert [outputs for _token_id, outputs in calls] == ["kv"] * 24 + ["rows"]

    def test_candidates_end_where_the_recent_window_of_the_real_sequence_starts(self, monkeypatch):
        # the probe is retracted before planning: the candidate mask is as wide
        # as the real sequence, and the recent window covers its last tokens
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        texts = ["Q:", "So", " a", " b", ".", " Then", " c", " d", ".", " Wait", " e"]
        recent, base = 3, len(texts)
        state, trace = self._prefill(model, texts, recent=recent)
        plan_round = engine.plan_round
        seen = []

        def spy(policy, scores, seg, step_scores, live, *args):
            seen.append((live.copy(), state.next_index))
            return plan_round(policy, scores, seg, step_scores, live, *args)

        monkeypatch.setattr(engine, "plan_round", spy)
        record, _ = probe_cycle(state, model, trace, PolicyKind.HIERARCHICAL, EvictionBudget(1))
        (live, next_index), = seen
        assert next_index == base
        assert live.shape == (model.config.num_layers, model.config.num_heads, base)
        assert live[:, :, 1:base - recent].all()
        assert not live[:, :, :1].any() and not live[:, :, base - recent:].any()
        assert record.evicted_total > 0

    def test_probe_token_left_live_is_a_leak(self, monkeypatch):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        texts = ["Q:", "So", " a", " b", ".", " Then", " c"]
        state, trace = self._prefill(model, texts)
        remove_suffix = KvCacheState.remove_suffix
        # retract every probe token but the first
        monkeypatch.setattr(KvCacheState, "remove_suffix",
                            lambda self, start: remove_suffix(self, start + 1))
        with pytest.raises(ProbeLeak, match=r"survived at \(layer, head\) \(0, 0\)"):
            probe_cycle(state, model, trace, PolicyKind.HIERARCHICAL, EvictionBudget(0))

    def test_revived_key_is_a_leak(self, monkeypatch):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        texts = ["Q:", "So", " a", " b", ".", " Then", " c"]
        state, trace = self._prefill(model, texts)
        state.apply_plan(EvictionPlan(2, 2, {(l, h): frozenset({3}) for l in range(2) for h in range(2)}))
        remove_suffix = KvCacheState.remove_suffix

        def revive(self, start):
            removed = remove_suffix(self, start)
            self.live[1, 0, 3] = True
            return removed

        monkeypatch.setattr(KvCacheState, "remove_suffix", revive)
        with pytest.raises(ProbeLeak, match=r"grew .* \(1, 0\)"):
            probe_cycle(state, model, trace, PolicyKind.HIERARCHICAL, EvictionBudget(0))

    def test_score_refresh_mode_evicts_nothing(self):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        texts = ["Q:", "So", " a", " b", ".", " Then", " c"]
        state, trace = self._prefill(model, texts)
        before = state.live_sets()
        record, ranker = probe_cycle(
            state, model, trace, PolicyKind.HIERARCHICAL, None,
        )
        assert record.ran_probe
        assert record.evicted is None
        assert ranker is not None
        assert state.live_sets() == before

    def test_round_without_room_is_skipped(self):
        # The 25-token probe overflows max_seq_len 64 from the third round on;
        # those rounds are recorded as skipped and decoding runs to the end.
        cfg = TinyModelConfig(num_layers=4, num_heads=4, model_dim=64, head_dim=16,
                              max_seq_len=64, rng_seed=0)
        record = run(cfg, PROMPT, make_config(policy=PolicyKind.HIERARCHICAL,
                                              budget=EvictionBudget(8),
                                              max_new=50, interval=16))
        assert record.tokens_generated == 50
        last = record.probe_records[-1]
        assert last.skipped and last.skip_reason == "no-room"
        assert not last.ran_probe

    def test_only_ours_reads_the_probe_scores(self, monkeypatch):
        # The same scored slots with reversed scores: random, h2o and
        # streaming plan without the probe's scores, so their generated
        # ids, evictions and occupancy must not move; ours ranks by them.
        cfg = TinyModelConfig(rng_seed=3)

        def outcome(policy):
            record = run(cfg, PROMPT, make_config(policy=policy, budget=EvictionBudget(3),
                                                  max_new=60, interval=8))
            assert record.probe_rounds > 0
            return (record.generated_ids, [rec.evicted for rec in record.probe_records],
                    record.occupancy.tolist())

        before = {policy: outcome(policy) for policy in PolicyKind}
        original = engine.extract_token_scores

        def reversed_scores(*args, **kwargs):
            tensor = original(*args, **kwargs)
            return ScoreTensor.from_arrays(tensor.values.max(initial=0.0) - tensor.values,
                                           tensor.scored)

        monkeypatch.setattr(engine, "extract_token_scores", reversed_scores)
        after = {policy: outcome(policy) for policy in PolicyKind}
        for policy in (PolicyKind.RANDOM, PolicyKind.H2O, PolicyKind.STREAMING):
            assert after[policy] == before[policy], policy
        assert after[PolicyKind.HIERARCHICAL] != before[PolicyKind.HIERARCHICAL]


class Fault(Exception):
    """Raised by an injected fault."""


def _raise_fault(*args, **kwargs):
    raise Fault("injected")


class TestProbeCycleFaults:
    """A probe round that raises leaves live, evicted_total, next_index and
    the H2O sums exactly as they were before it."""

    def _run_faulty_round(self, inject, policy=PolicyKind.HIERARCHICAL, error=Fault):
        """Prefill, call inject() to plant the fault, then run one round."""
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        cfg = model.config
        # 45 tokens: the 25 probe tokens cross the cache's first 64 slots
        texts = ["Q:"] + ["So", " a", " b", "."] * 11
        state = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim, ProtectedRegions(1, 0))
        h2o = H2OAccumulator(cfg.num_layers, cfg.num_heads)
        for i in range(len(texts)):
            h2o.add(decode_step(state, model, 10 + i, i).rows)
        # an earlier round's evictions
        state.apply_plan(EvictionPlan(cfg.num_layers, cfg.num_heads, {
            (l, h): frozenset({5 + h}) for l in range(cfg.num_layers) for h in range(cfg.num_heads)}))
        trace = ReasoningTrace(tuple(Token(i, 10 + i, text) for i, text in enumerate(texts)), 1)
        live, evicted, next_index = state.live.copy(), state.evicted_total, state.next_index
        sums = h2o.sums.copy()
        inject()
        with pytest.raises(error):
            probe_cycle(state, model, trace, policy, EvictionBudget(2), h2o=h2o)
        width = live.shape[2]
        assert state.live[:, :, :width].tobytes() == live.tobytes()
        assert not state.live[:, :, width:].any()
        assert (state.evicted_total, state.next_index) == (evicted, next_index)
        assert h2o.sums.tobytes() == sums.tobytes()

    def test_probe_forward_raising_midway(self, monkeypatch):
        forward_step = TinyDecoder.forward_step
        calls = []

        def failing(self, *args, **kwargs):
            calls.append(kwargs.get("outputs"))
            if len(calls) == 22:  # past position 64, so after the cache has grown
                raise Fault("injected")
            return forward_step(self, *args, **kwargs)

        self._run_faulty_round(lambda: monkeypatch.setattr(TinyDecoder, "forward_step", failing))
        assert calls == ["kv"] * 22

    def test_segment_raising(self, monkeypatch):
        self._run_faulty_round(lambda: monkeypatch.setattr(engine, "segment", _raise_fault))

    @pytest.mark.parametrize("policy,planner", [
        (PolicyKind.HIERARCHICAL, "plan_from_allocation"),
        (PolicyKind.RANDOM, "plan_random"),
        (PolicyKind.H2O, "plan_h2o"),
        (PolicyKind.STREAMING, "plan_oldest"),
    ])
    def test_planner_raising(self, monkeypatch, policy, planner):
        self._run_faulty_round(lambda: monkeypatch.setattr(engine, planner, _raise_fault), policy)

    def test_apply_plan_rejecting_an_injected_plan(self, monkeypatch):
        def protected_plan(policy, scores, *args):
            # token 20 is evictable, prompt token 0 is not
            return EvictionPlan(scores.num_layers, scores.num_heads, {
                (l, h): frozenset({0, 20})
                for l in range(scores.num_layers) for h in range(scores.num_heads)}), None

        self._run_faulty_round(lambda: monkeypatch.setattr(engine, "plan_round", protected_plan),
                               error=ProtectedTokenEviction)


class TestRequery:
    def test_requery_without_evictions_is_bitwise_identical(self):
        model = TinyDecoder(TinyModelConfig(rng_seed=3))
        cfg = model.config
        state = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim,
                             ProtectedRegions(1, 0))
        ids = [10, 21, 7, 33]
        logits = [decode_step(state, model, tid, i).logits for i, tid in enumerate(ids)]
        again = requery_logits(state, model, ids[-1], len(ids) - 1)
        assert (again == logits[-1]).all()

    def test_requery_sees_the_pruned_cache(self):
        # Evict a token, then decode the next token fresh over the pruned
        # cache: requery must reproduce those logits bitwise, differ from a
        # no-eviction run, and agree with the batch reference whose mask rows
        # encode each query's live set at its own decode time.
        from thinkprune.policy import EvictionPlan

        model = TinyDecoder(TinyModelConfig(rng_seed=3))
        cfg = model.config
        ids = [10, 21, 7, 33, 14]

        intact = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim,
                              ProtectedRegions(1, 0))
        baseline = [decode_step(intact, model, tid, i).logits for i, tid in enumerate(ids)]

        state = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim,
                             ProtectedRegions(1, 0))
        for i, tid in enumerate(ids[:-1]):
            decode_step(state, model, tid, i)
        state.apply_plan(EvictionPlan(cfg.num_layers, cfg.num_heads, {
            (l, h): frozenset({2})
            for l in range(cfg.num_layers) for h in range(cfg.num_heads)
        }))
        fresh = decode_step(state, model, ids[-1], len(ids) - 1).logits
        again = requery_logits(state, model, ids[-1], len(ids) - 1)
        assert (again == fresh).all()
        assert not (fresh == baseline[-1]).all()

        mask = np.ones((cfg.num_layers, cfg.num_heads, 5, 5), dtype=bool)
        mask[:, :, 4, 2] = False
        ref = model.reference_forward(ids, key_mask=mask)
        rel = np.max(np.abs(fresh - ref[4]) / (np.abs(ref[4]) + 1e-9))
        assert rel < 1e-9


class TestH2OWiring:
    def test_round_one_plan_matches_bruteforce_replay(self):
        # Replay the same tokens without any policy, accumulate the decode
        # rows by brute force, and check the engine's first h2o round chose
        # exactly the lowest accumulated tokens.
        interval, k = 6, 2
        cfg = TinyModelConfig(rng_seed=1)
        record = run(cfg, PROMPT, make_config(policy=PolicyKind.H2O,
                                              budget=EvictionBudget(k),
                                              max_new=8, interval=interval))
        assert record.probe_rounds >= 1
        first = record.probe_records[0]

        model = TinyDecoder(cfg)
        prompt_tokens = tokenize(PROMPT, cfg.vocab_size)
        state = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim,
                             ProtectedRegions(len(prompt_tokens), 0))
        for i, (tid, _text) in enumerate(prompt_tokens):
            decode_step(state, model, tid, i)
        rows_per_slot: dict[tuple[int, int], list[dict[int, float]]] = {}
        for j, tid in enumerate(record.generated_ids[:interval]):
            out = decode_step(state, model, tid, len(prompt_tokens) + j)
            # nothing is evicted before the first round, so every column is live
            for layer in range(cfg.num_layers):
                for head in range(cfg.num_heads):
                    row = dict(enumerate(out.rows[layer, head].tolist()))
                    rows_per_slot.setdefault((layer, head), []).append(row)

        reason_start = len(prompt_tokens)
        seq_len = reason_start + interval
        expected = {}
        for key, rows in rows_per_slot.items():
            acc = h2o_bruteforce(rows)
            candidates = sorted(range(reason_start, seq_len),
                                key=lambda t: (acc.get(t, 0.0), t))
            expected[key] = set(candidates[:k])
        got = {(layer, head): set(heads[head])
               for layer, heads in ((e[0], e[1]) for e in first.evicted)
               for head in range(cfg.num_heads)}
        assert got == expected

    @pytest.mark.parametrize("budget", [EvictionBudget(3), CacheBudget(max_slots=24)],
                             ids=["periodic", "ratio"])
    def test_array_feed_equals_the_per_head_live_feed(self, monkeypatch, budget):
        # The run adds each decode step's dense rows whole. The feed it
        # replaced, written out: per (layer, head), {live token: weight} of
        # the step's row after its append, added token by token. Both must
        # agree bit for bit after every step, on the same fed tokens.
        cfg = TinyModelConfig(rng_seed=1)
        caches, per_head, checked = [], {}, []
        original_step = engine.decode_step

        def remember_cache(state, model, token_id, position):
            caches.append(state)
            return original_step(state, model, token_id, position)

        class WithOldFeed(H2OAccumulator):
            def add(self, rows):
                super().add(rows)
                live = caches[-1].live
                for layer in range(self.num_layers):
                    for head in range(self.num_heads):
                        positions = np.flatnonzero(live[layer, head, :rows.shape[2]])
                        acc = per_head.setdefault((layer, head), {})
                        for token, weight in zip(positions.tolist(),
                                                 rows[layer, head, positions].tolist()):
                            acc[token] = acc.get(token, 0.0) + float(weight)
                hexed = {key: {t: v.hex() for t, v in acc.items()} for key, acc in per_head.items()}
                assert {(layer, head): {t: v.hex() for t, v in pairs}
                        for layer, head, pairs in self.history()} == hexed
                checked.append(rows.shape[2])

        monkeypatch.setattr(engine, "decode_step", remember_cache)
        monkeypatch.setattr(engine, "H2OAccumulator", WithOldFeed)
        record = run(cfg, PROMPT, make_config(policy=PolicyKind.H2O, budget=budget,
                                              max_new=80, interval=8))
        assert record.evicted_total > 0
        assert len(checked) == record.tokens_generated
        # the last rows span the 64-slot growth of the cache and the accumulator
        assert checked[-1] > 64


class TestRatioMode:
    def test_probes_fire_only_for_hierarchical(self):
        cfg = TinyModelConfig(rng_seed=1)
        budget = CacheBudget.from_ratio(0.5, 24.0)
        ours = run(cfg, PROMPT, make_config(policy=PolicyKind.HIERARCHICAL,
                                            budget=budget, max_new=40))
        h2o = run(cfg, PROMPT, make_config(policy=PolicyKind.H2O,
                                           budget=budget, max_new=40))
        assert ours.probe_rounds > 0
        assert all(r.evicted is None for r in ours.probe_records if r.ran_probe)
        assert h2o.probe_rounds == 0
        assert h2o.evicted_total > 0

    def test_cap_and_protection_hold_at_every_step(self):
        cfg = TinyModelConfig(rng_seed=1)
        budget = CacheBudget.from_ratio(0.25, 30.0)
        violations = []

        def audit(step, state):
            window = budget.recent_window
            for l in range(state.num_layers):
                for h in range(state.num_heads):
                    if state.live_nonprompt_count(l, h) > budget.max_slots:
                        violations.append(("cap", step, l, h))
                    for t in range(state.prompt_len):
                        if not state.is_live(l, h, t):
                            violations.append(("prompt", step, l, h, t))
                    for t in range(max(state.prompt_len, state.next_index - window),
                                   state.next_index):
                        if not state.is_live(l, h, t):
                            violations.append(("recent", step, l, h, t))

        for policy in PolicyKind:
            run(cfg, PROMPT, make_config(policy=policy, budget=budget, max_new=40),
                on_step=audit)
        assert violations == []

    def test_ours_evicts_oldest_before_any_probe_round(self):
        # With no probe round yet, the hierarchical policy has no scores and
        # its ratio-cap victims are the oldest eligible tokens, as in streaming.
        cfg = TinyModelConfig(rng_seed=1)
        budget = CacheBudget.from_ratio(0.25, 30.0)
        ours, streaming = (
            run(cfg, PROMPT, make_config(policy=policy, budget=budget, max_new=40, interval=64))
            for policy in (PolicyKind.HIERARCHICAL, PolicyKind.STREAMING)
        )
        assert ours.probe_rounds == 0
        assert ours.evicted_total > 0
        assert np.array_equal(ours.occupancy, streaming.occupancy)
        assert ours.generated_ids == streaming.generated_ids

    def test_capped_appends_rank_by_the_latest_probe_round(self, monkeypatch):
        # ours hands each round's ranking to every capped append after it,
        # and ranks oldest first before its first round
        cfg = TinyModelConfig(rng_seed=1)
        budget = CacheBudget.from_ratio(0.25, 30.0)
        round_ranking, enforce_budget = engine.round_ranking, engine.enforce_budget
        events = []

        def ranking_spy(*args):
            ranker = round_ranking(*args)
            events.append(("round", ranker))
            return ranker

        def enforce_spy(state, cap, rank):
            events.append(("append", rank))
            return enforce_budget(state, cap, rank)

        monkeypatch.setattr(engine, "round_ranking", ranking_spy)
        monkeypatch.setattr(engine, "enforce_budget", enforce_spy)
        record = run(cfg, PROMPT, make_config(policy=PolicyKind.HIERARCHICAL, budget=budget,
                                              max_new=40))
        rounds = [ranker for kind, ranker in events if kind == "round"]
        assert len(rounds) == record.probe_rounds > 1
        assert events[0] == ("append", oldest_first)
        latest = oldest_first
        for kind, ranker in events:
            if kind == "round":
                latest = ranker
            else:
                assert ranker is latest
        # every round but possibly the last is followed by a capped append
        assert set(rounds[:-1]) <= {ranker for kind, ranker in events if kind == "append"}
        assert record.evicted_total > 0


class TestOnePicker:
    """lowest_keyed picks every victim, of probe rounds and capped appends alike."""

    @pytest.fixture
    def picked(self, monkeypatch):
        """The number of victims of each lowest_keyed call."""
        picked = []
        lowest_keyed = policy.lowest_keyed

        def spy(eligible, counts, keys):
            victims = lowest_keyed(eligible, counts, keys)
            picked.append(int(np.count_nonzero(victims)))
            return victims

        # cache imported the picker by name
        monkeypatch.setattr(policy, "lowest_keyed", spy)
        monkeypatch.setattr(cache, "lowest_keyed", spy)
        return picked

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_every_probe_round_victim(self, picked, kind):
        record = run(TinyModelConfig(rng_seed=2), PROMPT,
                     make_config(policy=kind, budget=EvictionBudget(2), max_new=24))
        evicted = sum(probe.evicted_total for probe in record.probe_records)
        assert evicted > 0
        assert sum(picked) == evicted == record.evicted_total

    def test_every_capped_append_victim(self, picked):
        record = run(TinyModelConfig(rng_seed=1), PROMPT,
                     make_config(policy=PolicyKind.HIERARCHICAL,
                                 budget=CacheBudget.from_ratio(0.25, 30.0), max_new=40))
        assert record.evicted_total > 0
        assert sum(picked) == record.evicted_total


class TestRunRecord:
    def test_round_trip(self):
        cfg = TinyModelConfig(rng_seed=6)
        record = run(cfg, PROMPT, make_config(policy=PolicyKind.HIERARCHICAL,
                                              budget=EvictionBudget(2), max_new=20))
        from thinkprune.engine import RunRecord

        data = json.loads(json.dumps(record.to_dict()))
        loaded = RunRecord.from_dict(data)
        assert loaded.generated_ids == record.generated_ids
        assert loaded.probe_rounds == record.probe_rounds
        assert loaded.to_dict() == record.to_dict()

    def test_compact_scores_render_as_the_old_lists(self):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        texts = ["Q:", "So", " a", " b", ".", " Then", " c", " d", ".", " Wait", " e"]
        cfg = model.config
        state = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim, ProtectedRegions(1, 0))
        for i in range(len(texts)):
            decode_step(state, model, 10 + i, i)
        trace = ReasoningTrace(tuple(Token(i, 10 + i, text) for i, text in enumerate(texts)), 1)
        record, _ = probe_cycle(
            state, model, trace, PolicyKind.HIERARCHICAL, EvictionBudget(1),
        )
        scores = record.scores
        old = [
            [layer, head, [[t, s] for t, s in sorted(scores.head_scores(layer, head).items())]]
            for layer in range(scores.num_layers)
            for head in range(scores.num_heads)
        ]
        assert sum(len(pairs) for _l, _h, pairs in old) > 0
        expected = dict(record.to_dict(), scores=old)
        assert json.dumps(record.to_dict()) == json.dumps(expected)
        assert [(l, h, list(pairs)) for l, h, pairs in record.scores] == \
            [(l, h, [tuple(p) for p in pairs]) for l, h, pairs in old]

    def test_loaded_record_holds_compact_scores(self):
        cfg = TinyModelConfig(rng_seed=6)
        record = run(cfg, PROMPT, make_config(policy=PolicyKind.HIERARCHICAL,
                                              budget=EvictionBudget(2), max_new=20))
        from thinkprune.engine import RunRecord

        text = json.dumps(record.to_dict())
        loaded = RunRecord.from_dict(json.loads(text))
        assert json.dumps(loaded.to_dict()) == text
        rounds = [(a, b) for a, b in zip(record.probe_records, loaded.probe_records)
                  if a.scores is not None]
        assert rounds
        for original, again in rounds:
            assert isinstance(again.scores, ScoreTensor)
            assert again.scores == original.scores
            assert (again.scores.num_layers, again.scores.num_heads) == (
                original.scores.num_layers, original.scores.num_heads)
            assert sum(len(pairs) for _l, _h, pairs in again.scores) > 0

    def test_layers_of_different_lengths_render_without_padding(self):
        from thinkprune.engine import STEP_EVICTIONS, STEP_SCORE, ProbeRecord

        data = {"round_index": 0, "reasoning_tokens": 6, "ran_probe": True,
                "step_scores": [[0, [[0, 0.5], [1, 0.25], [2, 0.125]]], [1, [[1, 0.75]]]],
                "allocation": [[0, [[2, 1], [0, 2]]], [1, []]],
                "evicted": [[0, [[1, 4, 5], [1, 2, 5]]], [1, [[], []]]],
                "plan_sizes": [[0, [3, 3]], [1, [0, 0]]]}
        record = ProbeRecord.from_dict(data)
        assert record.step_scores.dtype == STEP_SCORE and record.step_scores.shape == (2, 3)
        assert record.allocation.dtype == STEP_EVICTIONS and record.allocation.shape == (2, 2)
        assert record.evicted[0][1] == [(1, 4, 5), (1, 2, 5)]
        assert record.plan_sizes.tolist() == [[3, 3], [0, 0]]
        assert {key: record.to_dict()[key] for key in data} == data

    @pytest.mark.parametrize("field", ["step_scores", "allocation", "plan_sizes"])
    def test_layers_out_of_order_are_rejected(self, field):
        from thinkprune.engine import ProbeRecord

        entries = {"step_scores": [[0, 0.5]], "allocation": [[1, 1]], "plan_sizes": [1]}[field]
        with pytest.raises(InputFormatError, match=rf'"{field}\[0\]\[0\]" must be layer 0, got 1'):
            ProbeRecord.from_dict({"round_index": 0, "reasoning_tokens": 1,
                                   field: [[1, entries], [0, entries]]})

    def test_timings_excluded_from_canonical_form(self):
        cfg = TinyModelConfig(rng_seed=6)
        record = run(cfg, PROMPT, make_config(max_new=10))
        assert "timings_ms" not in record.to_dict()
        assert record.timings_ms["decode_ms"] > 0
