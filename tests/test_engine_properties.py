"""Engine property test: Hypothesis draws whole runs and checks every step.

Small models, prompts, probe intervals, budgets, all five policies (full
and the four pruning ones) and both budget modes. The model's max_seq_len
may fall below prompt + max_new_tokens, where the run stops at the limit,
and below the prompt, where it is refused before its first forward.
Through the run's on_step and on_probe hooks, each step's occupancy row,
protection and cap, and each probe round's effect on the live sets are
checked against plain scans of `live_sets()`.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinkprune.cache import CacheBudget
from thinkprune.engine import DecodeConfig, run
from thinkprune.errors import SequenceTooLong
from thinkprune.model import EOS_ID, TinyDecoder, TinyModelConfig, tokenize
from thinkprune.policy import EvictionBudget, PolicyKind
from thinkprune.scoring import SUMMARIZATION_PROBE_TEXT, default_probe

# token texts for drawn prompts: step markers and filler
WORDS = (" Wait", " So", " First", " Then", " Hmm", " the", " sum", " two", " plus",
         " check", " x", " done.")


@st.composite
def run_cases(draw):
    num_heads = draw(st.integers(1, 3))
    head_dim = draw(st.sampled_from([2, 4]))
    vocab_size = draw(st.sampled_from([16, 64]))
    prompt = draw(st.lists(st.tuples(st.integers(0, vocab_size - 1), st.sampled_from(WORDS)),
                           min_size=1, max_size=8))
    max_new = draw(st.integers(0, 40))
    # slack past prompt + max_new; under the probe's 25 tokens some rounds
    # have no room, and at 25 a round on the last step fits exactly. Below 0
    # the run stops at max_seq_len, and below -max_new its prompt does not fit.
    total = len(prompt) + max_new
    slack = draw(st.one_of(st.integers(0, 60), st.sampled_from([24, 25]),
                           st.integers(1 - total, -1) if total > 1 else st.just(0)))
    model = TinyModelConfig(
        vocab_size=vocab_size, num_layers=draw(st.integers(1, 2)), num_heads=num_heads,
        model_dim=num_heads * head_dim, head_dim=head_dim,
        max_seq_len=total + slack, rng_seed=draw(st.integers(0, 3)),
    )
    policy = draw(st.sampled_from([*PolicyKind, None]))
    recent, budget = 0, None
    if policy is None or draw(st.booleans()):
        recent = draw(st.integers(0, 4))
        if policy is not None:
            budget = EvictionBudget(draw(st.integers(0, 6)))
    else:
        budget = CacheBudget(max_slots=draw(st.integers(1, 8)))
    options = dict(
        max_new_tokens=max_new, probe=default_probe(interval_p=draw(st.integers(2, 10))),
        policy=policy, budget=budget, greedy=draw(st.booleans()),
        sampling_seed=draw(st.integers(0, 3)), eviction_seed=draw(st.integers(0, 3)),
        recent_window=recent,
    )
    return model, prompt, options


def scan_counts(live: dict) -> list[int]:
    return [len(live[key]) for key in sorted(live)]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(case=run_cases())
def test_every_step_matches_a_scan_of_the_live_sets(case):
    model, prompt, options = case
    budget = options["budget"]
    config = DecodeConfig(**options)
    prompt_len = len(prompt)
    if prompt_len > model.max_seq_len:
        decoder = TinyDecoder(model)

        def no_forward(*args, **kwargs):
            raise AssertionError("a forward ran before the prompt was refused")

        decoder.forward_step = no_forward
        with pytest.raises(SequenceTooLong, match=f"{prompt_len} tokens exceed "
                                                  f"max_seq_len {model.max_seq_len}"):
            run(decoder, prompt, config)
        return
    recent = budget.recent_window if isinstance(budget, CacheBudget) else options["recent_window"]
    probe_len = len(tokenize(SUMMARIZATION_PROBE_TEXT, model.vocab_size))
    scans: list[dict] = []
    rounds: list[tuple] = []

    def on_probe(pre, post, record):
        rounds.append((len(scans) + 1, pre, post, record))

    def on_step(step, state):
        assert step == len(scans) + 1
        assert state.next_index == prompt_len + step
        live = state.live_sets()
        for tokens in live.values():
            # the prompt and the recent window are never evicted
            assert set(range(prompt_len)) <= tokens
            assert set(range(max(0, state.next_index - recent), state.next_index)) <= tokens
            if isinstance(budget, CacheBudget):
                assert sum(1 for t in tokens if t >= prompt_len) <= budget.max_slots
        scans.append(live)

    record = run(model, prompt, config, on_step=on_step, on_probe=on_probe)

    # a run ends at max_new_tokens, at EOS, or where the sequence fills max_seq_len
    generated = record.generated_ids
    if len(generated) < options["max_new_tokens"] and generated[-1:] != [EOS_ID]:
        assert prompt_len + len(generated) == model.max_seq_len
    assert prompt_len + len(generated) <= model.max_seq_len

    # the rows as the record's JSON holds them
    occupancy = record.to_dict()["occupancy"]
    assert len(occupancy) == len(scans) == len(record.generated_ids)
    for step, (row, live) in enumerate(zip(occupancy, scans), start=1):
        counts = scan_counts(live)
        nonprompt = sum(1 for t in live[(0, 0)] if t >= prompt_len)
        assert row == [step, sum(counts) / len(counts), max(counts), nonprompt]
        assert [type(value) for value in row] == [int, float, int, int]

    # with no step, the final cache holds the prompt alone
    heads = [(layer, head) for layer in range(model.num_layers) for head in range(model.num_heads)]
    final = scans[-1] if scans else {key: frozenset(range(prompt_len)) for key in heads}
    counts = scan_counts(final)
    assert record.final_stats == {
        "avg_kv": sum(counts) / len(counts), "peak_kv": max(counts),
        "evicted_total": record.evicted_total,
        "per_layer": [counts[layer * model.num_heads:(layer + 1) * model.num_heads]
                      for layer in range(model.num_layers)],
    }
    assert type(record.final_stats["avg_kv"]) is float
    assert type(record.final_stats["peak_kv"]) is int

    assert len(rounds) == len(record.probe_records)
    for step, pre, post, probe_record in rounds:
        base = prompt_len + step
        fits = base + probe_len <= model.max_seq_len
        assert probe_record.skip_reason == (None if fits else "no-room")
        assert probe_record.skipped == (probe_record.skip_reason is not None)
        assert probe_record.ran_probe == fits
        assert pre.keys() == post.keys()
        for key, tokens in post.items():
            assert tokens <= pre[key], "a live set grew inside a round"
            assert all(t < base for t in tokens), "a live index is at or past the round's base"
        assert sum(len(pre[key] - post[key]) for key in pre) == probe_record.evicted_total

    again = run(model, prompt, config)
    assert json.dumps(again.to_dict()) == json.dumps(record.to_dict())
