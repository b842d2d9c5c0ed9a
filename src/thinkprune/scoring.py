"""Summarization-probe configuration and attention-derived importance scores.

A probe is a fixed instruction ending in the end-of-thinking token. The
attention row of that final token, read per layer and head, scores how much
each live reasoning token contributes; step scores average those values
over a step's live tokens and all heads of a layer.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputFormatError, NonNormalizedRow
from .trace import ReasoningTrace, Segmentation

THINK_END_TEXT = "</think>"

# Reserved vocabulary id the bundled tiny model uses for the end-of-thinking
# token; external tokenizers supply their own id via ProbeConfig.
DEFAULT_THINK_END_TOKEN_ID = 1

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


def live_everywhere(layer: int, head: int, token: int) -> bool:
    """Predicate admitting every token; handy for dump-driven scoring."""
    return True


@dataclass(frozen=True)
class ProbeConfig:
    """The summarization prompt, its trigger token id, and the probe period."""

    prompt_text: str
    think_end_token_id: int
    interval_p: int

    def __post_init__(self) -> None:
        if not self.prompt_text:
            raise ValueError("probe prompt_text must be non-empty")
        if not self.prompt_text.endswith(THINK_END_TEXT):
            raise ValueError(f"probe prompt_text must end with {THINK_END_TEXT!r}")
        if self.interval_p < 1:
            raise ValueError(f"probe interval_p must be >= 1, got {self.interval_p}")


def default_probe(
    think_end_token_id: int = DEFAULT_THINK_END_TOKEN_ID,
    interval_p: int = DEFAULT_PRUNING_INTERVAL,
) -> ProbeConfig:
    """The stock summarization probe with a 200-token pruning interval."""
    return ProbeConfig(SUMMARIZATION_PROBE_TEXT, think_end_token_id, interval_p)


@dataclass(frozen=True)
class ScoreTensor:
    """Per-(layer, head) importance score of every live reasoning token."""

    num_layers: int
    num_heads: int
    scores: Mapping[tuple[int, int], Mapping[int, float]]

    def __post_init__(self) -> None:
        for (layer, head), head_scores in self.scores.items():
            if not (0 <= layer < self.num_layers and 0 <= head < self.num_heads):
                raise ValueError(f"score entry for ({layer}, {head}) outside dimensions")
            for token, value in head_scores.items():
                if not math.isfinite(value) or value < 0.0:
                    raise ValueError(
                        f"score for token {token} at ({layer}, {head}) must be finite and >= 0"
                    )

    def head_scores(self, layer: int, head: int) -> Mapping[int, float]:
        return self.scores.get((layer, head), {})


@dataclass(frozen=True)
class StepScores:
    """Per-layer step scores c, one entry per step with at least one live token."""

    by_layer: Mapping[int, tuple[tuple[int, float], ...]]

    def layer_entries(self, layer: int) -> tuple[tuple[int, float], ...]:
        return self.by_layer.get(layer, ())


def extract_token_scores(
    rows: np.ndarray,
    trace: ReasoningTrace,
    live: LivePredicate,
    *,
    reason_end: int | None = None,
) -> ScoreTensor:
    """Read the probe token's dense attention rows into a ScoreTensor.

    rows has shape (layers, heads, keys): column t is the weight on key
    token t, taken at the probe's end-of-thinking position, and each row
    sums to one. Only live reasoning tokens in [reason_start, reason_end)
    receive entries; mass on prompt, probe, and post-reasoning keys is read
    (it participates in the row-sum check) but never scored.
    """
    num_layers, num_heads, width = rows.shape
    end = len(trace.tokens) if reason_end is None else reason_end
    if end > width:
        raise ValueError(f"attention rows cover {width} keys, the reasoning region ends at {end}")
    scores: dict[tuple[int, int], dict[int, float]] = {}
    for layer in range(num_layers):
        for head in range(num_heads):
            row = rows[layer, head].tolist()
            total = math.fsum(row)
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                raise NonNormalizedRow(
                    f"attention row at layer {layer}, head {head} sums to {total!r}"
                )
            scores[(layer, head)] = {
                token: row[token]
                for token in range(trace.reason_start, end)
                if live(layer, head, token)
            }
    return ScoreTensor(num_layers, num_heads, scores)


def aggregate_step_scores(
    scores: ScoreTensor,
    seg: Segmentation,
    live: LivePredicate,
) -> StepScores:
    """Mean token score per step over its live tokens and all heads of a layer.

    The denominator is the number of live (head, token) slots in the step,
    which equals num_heads times the step's live token count whenever counts
    are head-uniform (always true under hierarchical eviction, whose
    per-step counts come from the layer-level allocation). Previously
    evicted tokens contribute nothing to either side, so they never deflate
    a step's score. Steps with no live tokens are omitted. Summation order
    is fixed (heads outer, tokens inner, ascending) so results are bitwise
    reproducible.
    """
    num_heads = scores.num_heads
    by_layer: dict[int, tuple[tuple[int, float], ...]] = {}
    for layer in range(scores.num_layers):
        entries: list[tuple[int, float]] = []
        for sid, step in enumerate(seg.steps):
            slots = 0
            total = 0.0
            for head in range(num_heads):
                head_scores = scores.head_scores(layer, head)
                for token in range(step.start, step.end):
                    if live(layer, head, token):
                        slots += 1
                        total += head_scores.get(token, 0.0)
            if slots == 0:
                continue
            entries.append((sid, total / slots))
        by_layer[layer] = tuple(entries)
    return StepScores(by_layer)


def ranked_step_order(step_scores: StepScores, layer: int) -> list[tuple[int, float]]:
    """Steps of a layer sorted ascending by score, ties broken by step id."""
    return sorted(step_scores.layer_entries(layer), key=lambda entry: (entry[1], entry[0]))


# --- file formats -----------------------------------------------------------
#
# Attention dump (JSON): {"layers": L, "heads": H, "probe_position": int,
#   "rows": [[[w_0, ..., w_{T-1}], ... per head], ... per layer]}
# Score tensor (JSON):   {"layers": L, "heads": H,
#   "scores": [[[[token, s], ...] per head], ... per layer]}


@dataclass(frozen=True)
class AttentionDump:
    """Dense attention rows of a probe's trigger position, shape (layers, heads, keys)."""

    probe_position: int
    rows: np.ndarray


def dump_from_dict(data: object) -> AttentionDump:
    if not isinstance(data, dict):
        raise InputFormatError("dump document must be a JSON object")
    layers = data.get("layers")
    heads = data.get("heads")
    probe_position = data.get("probe_position")
    rows = data.get("rows")
    for name, value in (("layers", layers), ("heads", heads), ("probe_position", probe_position)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise InputFormatError(f'dump field "{name}" must be a non-negative integer')
    if layers < 1 or heads < 1:
        raise InputFormatError('dump fields "layers" and "heads" must be >= 1')
    if not isinstance(rows, list) or len(rows) != layers:
        raise InputFormatError(f'dump field "rows" must be a list of {layers} layer entries')
    row_len: int | None = None
    for li, layer_rows in enumerate(rows):
        if not isinstance(layer_rows, list) or len(layer_rows) != heads:
            raise InputFormatError(f'dump field "rows[{li}]" must be a list of {heads} head rows')
        for hi, head_row in enumerate(layer_rows):
            if not isinstance(head_row, list) or not all(
                isinstance(w, (int, float)) and not isinstance(w, bool) for w in head_row
            ):
                raise InputFormatError(f'dump field "rows[{li}][{hi}]" must be a list of numbers')
            if row_len is None:
                row_len = len(head_row)
            elif len(head_row) != row_len:
                raise InputFormatError(
                    f'dump field "rows[{li}][{hi}]" has length {len(head_row)}, expected {row_len}'
                )
    if row_len is None or row_len == 0:
        raise InputFormatError('dump field "rows" must contain non-empty rows')
    if probe_position >= row_len:
        raise InputFormatError('dump field "probe_position" must be smaller than the row length')
    return AttentionDump(probe_position, np.array(rows, dtype=float))


def load_attention_dump(path: str | Path) -> AttentionDump:
    with open(path, encoding="utf-8") as fh:
        return dump_from_dict(json.load(fh))


def scores_to_dict(tensor: ScoreTensor) -> dict:
    return {
        "layers": tensor.num_layers,
        "heads": tensor.num_heads,
        "scores": [
            [
                [[token, value] for token, value in sorted(tensor.head_scores(layer, head).items())]
                for head in range(tensor.num_heads)
            ]
            for layer in range(tensor.num_layers)
        ],
    }


def scores_from_dict(data: object) -> ScoreTensor:
    if not isinstance(data, dict):
        raise InputFormatError("scores document must be a JSON object")
    layers = data.get("layers")
    heads = data.get("heads")
    entries = data.get("scores")
    if not isinstance(layers, int) or not isinstance(heads, int):
        raise InputFormatError('scores fields "layers" and "heads" must be integers')
    if not isinstance(entries, list) or len(entries) != layers:
        raise InputFormatError(f'scores field "scores" must be a list of {layers} layer entries')
    scores: dict[tuple[int, int], dict[int, float]] = {}
    for layer, layer_entries in enumerate(entries):
        if not isinstance(layer_entries, list) or len(layer_entries) != heads:
            raise InputFormatError(f'scores field "scores[{layer}]" must list {heads} heads')
        for head, pairs in enumerate(layer_entries):
            try:
                scores[(layer, head)] = {int(t): float(s) for t, s in pairs}
            except (TypeError, ValueError) as exc:
                raise InputFormatError(
                    f'scores field "scores[{layer}][{head}]" is malformed: {exc}'
                ) from exc
    return ScoreTensor(layers, heads, scores)


def load_scores(path: str | Path) -> ScoreTensor:
    with open(path, encoding="utf-8") as fh:
        return scores_from_dict(json.load(fh))


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
