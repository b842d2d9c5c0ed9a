"""Summarization-probe configuration and attention-derived importance scores.

A probe is a fixed instruction ending in the end-of-thinking token. The
attention row of that final token, read per layer and head, scores how much
each live reasoning token contributes; step scores average those values
over a step's live tokens and all heads of a layer.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import NonNormalizedRow
from .schema import DUMP, SCORES, check
from .trace import ReasoningTrace, Segmentation

THINK_END_TEXT = "</think>"

SUMMARIZATION_PROBE_TEXT = (
    "Time is up. Given the time I've spent and the approaches I've tried, "
    "I should stop thinking and now write summarization in one sentence."
    + THINK_END_TEXT
)

# Generated reasoning tokens between probe-and-prune rounds.
DEFAULT_PRUNING_INTERVAL = 200

ROW_SUM_TOLERANCE = 1e-5

# (layer, head, token) -> is this token a live scoring/eviction candidate?
LivePredicate = Callable[[int, int, int], bool]
# Candidate slots: a (layers, heads, positions) bool mask, or a predicate.
Candidates = np.ndarray | LivePredicate


def _fit(array: np.ndarray, width: int) -> np.ndarray:
    """A fresh copy of array cut or zero-padded to width along its last axis."""
    out = np.zeros(array.shape[:-1] + (max(width, 0),), dtype=array.dtype)
    kept = max(min(width, array.shape[-1]), 0)
    out[..., :kept] = array[..., :kept]
    return out


def candidate_mask(live: Candidates, shape: tuple[int, int, int]) -> np.ndarray:
    """live as a fresh bool mask of the shape (layers, heads, width).

    A mask keeps its own layers and heads and is cut or padded with False
    to the width; a predicate is asked once per slot. Every function that
    takes candidates converts them here.
    """
    if callable(live):
        num_layers, num_heads, width = shape
        return np.array([[[live(layer, head, token) for token in range(width)]
                          for head in range(num_heads)]
                         for layer in range(num_layers)], dtype=bool).reshape(
                             num_layers, num_heads, max(width, 0))
    return _fit(np.asarray(live, dtype=bool), shape[2])


@dataclass(frozen=True)
class ProbeConfig:
    """The probe period: SUMMARIZATION_PROBE_TEXT runs every interval_p
    generated reasoning tokens."""

    interval_p: int

    def __post_init__(self) -> None:
        if self.interval_p < 1:
            raise ValueError(f"probe interval_p must be >= 1, got {self.interval_p}")


def default_probe(interval_p: int = DEFAULT_PRUNING_INTERVAL) -> ProbeConfig:
    """The summarization probe, by default every 200 tokens."""
    return ProbeConfig(interval_p)


class ScoreTensor:
    """Per-(layer, head) importance score of every scored reasoning token.

    Held as two (layers, heads, width) arrays and nothing else: scored
    marks the scored slots and values holds their scores, 0.0 elsewhere.
    Build one from a {(layer, head): {token: score}} mapping, or with
    from_arrays. The slots leave no room to cache a view on a tensor.
    """

    __slots__ = ("num_layers", "num_heads", "scored", "values")

    def __init__(self, num_layers: int, num_heads: int,
                 scores: Mapping[tuple[int, int], Mapping[int, float]]):
        for layer, head in scores:
            if not (0 <= layer < num_layers and 0 <= head < num_heads):
                raise ValueError(f"score entry for ({layer}, {head}) outside dimensions")
        width = 1 + max((max(head_scores, default=-1) for head_scores in scores.values()),
                        default=-1)
        values = np.zeros((num_layers, num_heads, width))
        scored = np.zeros(values.shape, dtype=bool)
        for (layer, head), head_scores in scores.items():
            tokens = list(head_scores)
            if tokens and min(tokens) < 0:
                raise ValueError(f"score entry for token {min(tokens)} at ({layer}, {head}) "
                                 "is negative")
            values[layer, head, tokens] = list(head_scores.values())
            scored[layer, head, tokens] = True
        self._set(values, scored)

    @classmethod
    def from_arrays(cls, values: np.ndarray, scored: np.ndarray) -> "ScoreTensor":
        """Scores of the slots scored marks, read from values of the same shape."""
        tensor = cls.__new__(cls)
        tensor._set(np.asarray(values, dtype=float), np.asarray(scored, dtype=bool))
        return tensor

    def _set(self, values: np.ndarray, scored: np.ndarray) -> None:
        values = np.where(scored, values, 0.0)
        valid = (values >= 0.0) & (values < np.inf)  # False for NaN, inf and negatives
        if not valid.all():
            layer, head, token = np.argwhere(~valid)[0].tolist()
            raise ValueError(
                f"score for token {token} at ({layer}, {head}) must be finite and >= 0"
            )
        self.num_layers, self.num_heads = scored.shape[:2]
        self.scored = scored
        self.values = values

    def padded(self, width: int) -> np.ndarray:
        """values cut or padded with 0.0 to width."""
        return _fit(self.values, width)

    def head_scores(self, layer: int, head: int) -> Mapping[int, float]:
        """{scored token: score} at (layer, head), tokens ascending."""
        scored = self.scored[layer, head]
        tokens = np.flatnonzero(scored).tolist()
        return dict(zip(tokens, self.values[layer, head, scored].tolist()))

    def __iter__(self):
        """(layer, head, [(token, score), ...]) for every (layer, head) in
        order, each head's scored tokens ascending, read from the two arrays
        on each call."""
        pairs = list(zip(np.nonzero(self.scored)[2].tolist(), self.values[self.scored].tolist()))
        start = 0
        for index, end in enumerate(np.cumsum(np.count_nonzero(self.scored, axis=2)).tolist()):
            layer, head = divmod(index, self.num_heads)
            yield layer, head, pairs[start:end]
            start = end

    def __eq__(self, other) -> bool:
        """The same scored tokens with the same scores; the widths may differ."""
        if not isinstance(other, ScoreTensor):
            return NotImplemented
        return list(self) == list(other)


@dataclass(frozen=True)
class StepScores:
    """Per-layer step scores c, one entry per step with at least one live token."""

    by_layer: Mapping[int, tuple[tuple[int, float], ...]]

    def layer_entries(self, layer: int) -> tuple[tuple[int, float], ...]:
        return self.by_layer.get(layer, ())


def extract_token_scores(
    rows: np.ndarray,
    trace: ReasoningTrace,
    live: Candidates,
    *,
    reason_end: int | None = None,
) -> ScoreTensor:
    """Read the probe token's dense attention rows into a ScoreTensor.

    rows has shape (layers, heads, keys): column t is the weight on key
    token t, taken at the probe's end-of-thinking position, and each row
    sums to one. Only live reasoning tokens in [reason_start, reason_end)
    are scored; mass on prompt, probe, and post-reasoning keys is read
    (it participates in the row-sum check) but never scored.
    """
    rows = np.asarray(rows, dtype=float)
    num_layers, num_heads, width = rows.shape
    end = len(trace.tokens) if reason_end is None else reason_end
    if end > width:
        raise ValueError(f"attention rows cover {width} keys, the reasoning region ends at {end}")
    # Summing a row in any order errs from its exact sum by less than
    # width * eps * sum(|row|), and fsum by half an ulp, so a row whose
    # NumPy sum is that far inside half the tolerance passes the fsum check
    # for sure. Every other row, non-finite ones included, is checked with
    # fsum in (layer, head) order, so the same row raises as with fsum alone.
    margin = width * np.finfo(float).eps * np.abs(rows).sum(axis=2)
    sure = np.abs(rows.sum(axis=2) - 1.0) + margin < ROW_SUM_TOLERANCE / 2
    for layer, head in np.argwhere(~sure).tolist():
        total = math.fsum(rows[layer, head].tolist())
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise NonNormalizedRow(
                f"attention row at layer {layer}, head {head} sums to {total!r}"
            )
    scored = candidate_mask(live, (num_layers, num_heads, end))
    scored[:, :, :trace.reason_start] = False
    return ScoreTensor.from_arrays(rows[:, :, :max(end, 0)], scored)


def aggregate_step_scores(
    scores: ScoreTensor,
    seg: Segmentation,
    live: Candidates,
) -> StepScores:
    """Mean token score per step over its live tokens and all heads of a layer.

    The denominator is the number of live (head, token) slots in the step,
    which equals num_heads times the step's live token count whenever counts
    are head-uniform (always true under hierarchical eviction, whose
    per-step counts come from the layer-level allocation). Previously
    evicted tokens contribute nothing to either side, so they never deflate
    a step's score; a live token without a score counts as 0.0. Steps with
    no live tokens are omitted.

    Each step sums sequentially from 0.0, heads outer and tokens inner in
    ascending order, so results are bitwise reproducible. np.add.accumulate
    runs along one chain per step, the step's tokens of every head in turn,
    each head padded with 0.0 to a common length; adding 0.0 for a dead or
    padding slot changes no sum. Steps are chained in groups whose lengths
    are within a factor of two, so padding at most doubles the work.
    """
    num_layers, num_heads = scores.num_layers, scores.num_heads
    width = seg.trace_len
    live_mask = candidate_mask(live, (num_layers, num_heads, width + 1))
    live_mask[:, :, width] = False  # each head's column width is its padding slot
    flat = np.where(live_mask, scores.padded(width + 1), 0.0).reshape(num_layers, -1)
    heads = np.arange(num_heads)[:, None] * (width + 1)
    starts, lengths = seg.bounds[:-1], np.diff(seg.bounds)
    totals = np.zeros((num_layers, len(lengths)))
    group_of = np.frexp(lengths)[1]
    for group in sorted(set(group_of.tolist())):
        sids = np.flatnonzero(group_of == group)
        offsets = np.arange(lengths[sids].max())
        tokens = np.where(offsets < lengths[sids, None], starts[sids, None] + offsets, width)
        chains = np.take(flat, heads + tokens[:, None], axis=1).reshape(num_layers, len(sids), -1)
        totals[:, sids] = np.add.accumulate(chains, axis=2)[:, :, -1]
    # a chain starts from its first term rather than from 0.0; adding 0.0
    # turns the only possible difference, a -0.0 total, into 0.0
    totals += 0.0
    slots = seg.count_per_step(live_mask).sum(axis=1)
    layers, sids = np.nonzero(slots)
    means = (totals[layers, sids] / slots[layers, sids]).tolist()
    by_layer: dict[int, list[tuple[int, float]]] = {layer: [] for layer in range(num_layers)}
    for layer, sid, mean in zip(layers.tolist(), sids.tolist(), means):
        by_layer[layer].append((sid, mean))
    return StepScores({layer: tuple(entries) for layer, entries in by_layer.items()})


def ranked_step_order(step_scores: StepScores, layer: int) -> list[tuple[int, float]]:
    """Steps of a layer sorted ascending by score, ties broken by step id."""
    return sorted(step_scores.layer_entries(layer), key=lambda entry: (entry[1], entry[0]))


@dataclass(frozen=True)
class AttentionDump:
    """Dense attention rows of a probe's trigger position, shape (layers, heads, keys)."""

    probe_position: int
    rows: np.ndarray


def dump_from_dict(data: object) -> AttentionDump:
    """An attention dump from its JSON form, checked by schema.DUMP."""
    check(data, DUMP, "dump")
    return AttentionDump(data["probe_position"], np.array(data["rows"], dtype=float))


def scores_to_dict(tensor: ScoreTensor) -> dict:
    heads = [[list(pair) for pair in pairs] for _layer, _head, pairs in tensor]
    return {"layers": tensor.num_layers, "heads": tensor.num_heads,
            "scores": [heads[start:start + tensor.num_heads]
                       for start in range(0, len(heads), tensor.num_heads)]}


def scores_from_dict(data: object, num_tokens: int) -> ScoreTensor:
    """A score tensor from its JSON form, checked by schema.SCORES against
    num_tokens, the length of the trace it scores."""
    check(data, SCORES, "scores", tokens=num_tokens)
    return ScoreTensor(data["layers"], data["heads"],
                       {(layer, head): dict(pairs) for layer, heads in enumerate(data["scores"])
                        for head, pairs in enumerate(heads)})


def format_step_table(step_scores: StepScores, seg: Segmentation) -> str:
    """Human-readable per-layer step table, ascending by step score."""
    lines = []
    for layer in sorted(step_scores.by_layer):
        lines.append(f"layer {layer}  (steps ascending by score)")
        lines.append("  step  span            marker            score")
        for sid, value in ranked_step_order(step_scores, layer):
            step = seg.steps[sid]
            marker = step.marker if step.marker is not None else "-"
            lines.append(
                f"  {sid:>4}  [{step.start:>5},{step.end:>5})  {marker:<16}  {value:.9f}"
            )
    return "\n".join(lines)
