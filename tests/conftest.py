"""Shared builders for traces, score tensors, synthetic caches and randomized plan instances."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from thinkprune.scoring import ScoreTensor
from thinkprune.trace import ReasoningTrace, Segmentation, Step, Token

MARKER_SAMPLE = (
    "Wait", "Alternatively", "But wait", "Hold on", "Hmm", "Let me",
    "Let me double-check", "Let’s see", "So", "Now", "First", "Then",
    "Therefore", "Thus", "I don’t see any errors", "That’s correct",
)

FILLER_WORDS = (
    "soap", "Sonow", "waltz", "thereforeX", "sum", "x", "y2", "alpha",
    "wait", "so", "now", "first", "okay", "number", "NowhereLand", "Solet",
    "Thensome", "value", "term", "Correctness", "Goodly",
)


def append_kv(state, index: int, keys: np.ndarray, values: np.ndarray) -> None:
    """Write (layers, heads, head_dim) keys and values into slot index and
    commit it with KvCacheState.append, as a joining forward does. The cache
    is grown only to index + 1 positions, so next_index reaches its capacity
    after every append."""
    state.reserve(index + 1)
    state.keys[:, :, index] = keys
    state.values[:, :, index] = values
    state.append(index)


def make_trace(texts: list[str], prompt_len: int, ids: list[int] | None = None) -> ReasoningTrace:
    ids = ids if ids is not None else [10 + i for i in range(len(texts))]
    return ReasoningTrace(
        tuple(Token(i, tid, text) for i, (tid, text) in enumerate(zip(ids, texts))),
        prompt_len,
    )


def chunk_randomly(text: str, rng: np.random.Generator, lo: int = 1, hi: int = 6) -> list[str]:
    """Split text into random-length character chunks (token texts)."""
    chunks = []
    pos = 0
    while pos < len(text):
        width = int(rng.integers(lo, hi + 1))
        chunks.append(text[pos: pos + width])
        pos += width
    return chunks


def make_segmentation(reason_start: int, sizes: list[int]) -> Segmentation:
    steps = []
    start = reason_start
    for size in sizes:
        steps.append(Step(start, start + size))
        start += size
    return Segmentation(tuple(steps), start)


def dyadic(rng: np.random.Generator) -> float:
    """Scores on a 1/64 grid: sums are exact in float64 in any order."""
    return float(rng.integers(0, 65)) / 64.0


def random_plan_instance(rng: np.random.Generator):
    """A randomized small hierarchical-eviction instance.

    Returns (num_layers, num_heads, seg, spans, scores_dict, live_sets, k)
    with head-uniform per-step live counts, matching the cache invariant.
    """
    num_layers = int(rng.integers(1, 4))
    num_heads = int(rng.integers(1, 4))
    reason_start = int(rng.integers(0, 3))
    num_steps = int(rng.integers(1, 5))
    # at most 4 steps x 5 tokens = 20 reasoning tokens
    sizes = [int(rng.integers(1, 6)) for _ in range(num_steps)]
    seg = make_segmentation(reason_start, sizes)
    spans = [(step.start, step.end) for step in seg.steps]
    k = int(rng.integers(0, 26))
    live_sets: dict[tuple[int, int], set[int]] = {}
    scores: dict[tuple[int, int], dict[int, float]] = {}
    for layer in range(num_layers):
        per_step_counts = []
        for start, end in spans:
            span = list(range(start, end))
            per_step_counts.append(int(rng.integers(0, len(span) + 1)))
        for head in range(num_heads):
            live: set[int] = set()
            for (start, end), count in zip(spans, per_step_counts):
                span = list(range(start, end))
                chosen = rng.choice(len(span), size=count, replace=False)
                live.update(span[int(i)] for i in chosen)
            live_sets[(layer, head)] = live
            scores[(layer, head)] = {t: dyadic(rng) for t in sorted(live)}
    return num_layers, num_heads, seg, spans, scores, live_sets, k


def tensor_from_dict(num_layers: int, num_heads: int, scores: dict) -> ScoreTensor:
    return ScoreTensor(num_layers, num_heads, scores)


def live_from_sets(live_sets: dict[tuple[int, int], set[int]]):
    def live(layer: int, head: int, token: int) -> bool:
        return token in live_sets[(layer, head)]

    return live


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
