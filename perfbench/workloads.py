"""Workload definitions, seeded prompt generation and cell construction.

A cell is one `engine.run` call for one prompt and one policy. A workload
round is every cell of the workload, in a fixed order; rounds repeat the
same cells, so each timed repeat of a cell can be tied to one checked run
by the digest of its run record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from thinkprune import (
    CacheBudget,
    engine,
    DecodeConfig,
    EvictionBudget,
    PolicyKind,
    TinyDecoder,
    TinyModelConfig,
    default_probe,
    tokenize,
)
from thinkprune.model import EOS_ID, THINK_END_ID

FULL = "full"
RATIO = 0.5
PROBE_TOKENS = 25  # length of the stock summarization probe in the tiny vocabulary
# A prompt whose full-cache greedy continuation stops (EOS or </think>) this
# early is drawn again: such stops come within the first few tokens or not
# at all here, and a cell that stops early would change the work per round.
SCREEN_TOKENS = 32
MAX_DRAWS = 100

# 4 layers x 4 heads x head_dim 16, vocabulary 64, weights from seed 0.
MODEL_SHAPE = dict(vocab_size=64, num_layers=4, num_heads=4, model_dim=64, head_dim=16, rng_seed=0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prompts: int
    prompt_tokens: int
    max_new: int
    policies: tuple[str, ...]
    interval: int
    k: int | None = None  # periodic eviction budget per (layer, head) and round
    ratio: float | None = None  # cache cap as a share of the full cell's non-prompt occupancy

    @property
    def prompt_range(self) -> tuple[int, int]:
        """Prompt lengths in tokens, inclusive: within 1/32 of the nominal length."""
        spread = max(1, self.prompt_tokens // 32)
        return self.prompt_tokens - spread, self.prompt_tokens + spread

    @property
    def max_seq_len(self) -> int:
        # room for the 25-token probe after the last generated token
        return self.prompt_range[1] + self.max_new + PROBE_TOKENS


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="decode-long",
            why="long greedy generation where the per-step cache gather dominates; "
                "probe rounds are rare and nothing is evicted at append time",
            prompts=1, prompt_tokens=16, max_new=399,
            policies=(FULL, "ours"), interval=200, k=8,
        ),
        Workload(
            name="probe-dense",
            why="probe round every 16 tokens after a 128-token prompt, so probe forwards, "
                "scoring, segmentation and planning dominate",
            prompts=1, prompt_tokens=128, max_new=64,
            policies=("ours", "random", "h2o", "streaming"), interval=16, k=8,
        ),
        Workload(
            name="ratio-cap",
            why="hard cap at half the full cell's occupancy, so every append past the cap "
                "runs enforce_budget and a victim selector",
            prompts=2, prompt_tokens=32, max_new=128,
            policies=(FULL, "ours", "random", "h2o", "streaming"), interval=32, ratio=RATIO,
        ),
    )
}

_PROMPT_WORDS = (
    "Compute", "the", "sum", "of", "and", "then", "multiply", "by", "What", "is",
    "Let", "x", "y", "equal", "plus", "minus", "times", "divided", "Find", "value",
    "if", "Solve", "for", "total", "remainder", "when", "number", "half", "twice",
    "square", "root", "product", "difference", "each", "three", "five", "seven",
)


def make_prompts(wl: Workload, seed: int, model: TinyDecoder) -> list[list[tuple[int, str]]]:
    """Math-like prompts, their lengths and words drawn from the seed."""
    index = list(WORKLOADS).index(wl.name)
    rng = np.random.default_rng([seed, index])
    low, high = wl.prompt_range
    prompts = []
    for _draw in range(MAX_DRAWS):
        if len(prompts) == wl.prompts:
            return prompts
        length = int(rng.integers(low, high + 1))
        words = ["Problem:"]
        while len(words) < length - 1:
            if rng.random() < 0.3:
                words.append(str(int(rng.integers(2, 100))))
            else:
                words.append(_PROMPT_WORDS[int(rng.integers(len(_PROMPT_WORDS)))])
        words.append("Answer:")
        tokens = tokenize(" ".join(words), MODEL_SHAPE["vocab_size"])
        if len(tokens) != length:
            raise ValueError(f"prompt tokenized to {len(tokens)} tokens, expected {length}")
        if not _stops_early(model, tokens):
            prompts.append(tokens)
    raise ValueError(f"{MAX_DRAWS} candidate prompts left fewer than {wl.prompts} that decode past "
                     f"{SCREEN_TOKENS} tokens")


def _stops_early(model: TinyDecoder, prompt: list[tuple[int, str]]) -> bool:
    """Full-cache greedy continuation hits EOS or </think> within SCREEN_TOKENS."""
    config = DecodeConfig(max_new_tokens=SCREEN_TOKENS, probe=default_probe(), greedy=True)
    generated = engine.run(model, prompt, config).generated_ids
    return EOS_ID in generated or THINK_END_ID in generated


def make_model(wl: Workload) -> TinyDecoder:
    return TinyDecoder(TinyModelConfig(max_seq_len=wl.max_seq_len, **MODEL_SHAPE))


@dataclass(frozen=True)
class Cell:
    prompt_index: int
    policy: str

    @property
    def key(self) -> str:
        return f"p{self.prompt_index}/{self.policy}"


def cells(wl: Workload) -> list[Cell]:
    return [Cell(p, policy) for p in range(wl.prompts) for policy in wl.policies]


def ratio_budget(full_record) -> CacheBudget:
    """The cap `thinkprune run --ratio` derives from a full-cache record."""
    nonprompt = [row[3] for row in full_record.occupancy] or [1.0]
    return CacheBudget.from_ratio(RATIO, sum(nonprompt) / len(nonprompt))


def decode_config(wl: Workload, cell: Cell, seed: int, cap: CacheBudget | None) -> DecodeConfig:
    """Greedy decoding; the seed also drives the random policy's evictions."""
    policy = None if cell.policy == FULL else PolicyKind(cell.policy)
    if policy is None:
        budget = None
    elif wl.ratio is not None:
        if cap is None:
            raise ValueError("a ratio cell needs the cap from its prompt's full cell")
        budget = cap
    else:
        budget = EvictionBudget(wl.k)
    return DecodeConfig(
        max_new_tokens=wl.max_new,
        probe=default_probe(interval_p=wl.interval),
        policy=policy,
        budget=budget,
        greedy=True,
        eviction_seed=seed,
    )


def record_digest(record) -> str:
    """sha256 of the run record's deterministic JSON form (no timings)."""
    blob = json.dumps(record.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
