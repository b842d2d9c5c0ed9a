"""Checked runs and the correctness checks applied to them.

A checked run is one `engine.run` call with recording hooks. It keeps every
probe round seen through `on_probe`, the live set each decode step attended
to, the occupancy after every step seen through `on_step`, and the logits
of every forward made by `engine.decode_step`. The checks compare these with the batch forward
`TinyDecoder.reference_forward` and the oracles in `tests/reference.py`, or
test properties the method must have. None of them compares against stored
output.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from thinkprune import engine
from thinkprune.model import EOS_ID, THINK_END_ID, token_text
from thinkprune.trace import DEFAULT_MARKER_PHRASES

from workloads import Cell, Workload

LOGIT_RTOL = 1e-6


def load_reference(root: Path):
    """Import tests/reference.py under its own name, apart from the library."""
    path = root / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    if spec is None or not path.is_file():
        raise ImportError(f"oracle module not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class RoundObs:
    """One probe round: live sets before and after, the record, and its step."""

    pre: dict
    post: dict
    record: object
    step: int | None = None


@dataclass
class StepObs:
    step: int
    evicted_total: int
    probed: bool
    # ratio cells only: non-prompt live count per (layer, head) and whether
    # every prompt slot is live there
    nonprompt: tuple[int, ...] = ()
    prompt_live: tuple[bool, ...] = ()


@dataclass
class Observation:
    """Everything a checked run of one cell recorded."""

    cell: Cell
    prompt: list[tuple[int, str]]
    record: object
    k: int  # eviction budget per probe round; 0 when rounds only refresh scores
    interval: int
    recent: int
    max_slots: int | None
    probes_enabled: bool
    rounds: list[RoundObs] = field(default_factory=list)
    steps: list[StepObs] = field(default_factory=list)
    logits: dict[int, np.ndarray] = field(default_factory=dict)
    # key_mask for TinyDecoder.reference_forward, (layers, heads, T, T): row q
    # is the live set the forward at position q attended to
    masks: np.ndarray | None = None


class _Recorder:
    def __init__(self, obs: Observation, num_layers: int, num_heads: int):
        self.obs = obs
        self.keys = [(layer, head) for layer in range(num_layers) for head in range(num_heads)]

    def on_probe(self, pre, post, record) -> None:
        self.obs.rounds.append(RoundObs(pre, post, record))

    def on_step(self, step: int, state) -> None:
        obs = self.obs
        probed = bool(obs.rounds) and obs.rounds[-1].step is None
        if probed:
            obs.rounds[-1].step = step
        # the step's forward saw the cache after its append and before its probe round
        attended = obs.rounds[-1].pre if probed else state.live_sets()
        position = len(obs.prompt) + step - 1
        for (layer, head), live in attended.items():
            obs.masks[layer, head, position, list(live)] = True
        row = StepObs(step, state.evicted_total, probed)
        if obs.max_slots is not None:
            p = len(obs.prompt)
            live = [state.live_indices(layer, head) for layer, head in self.keys]
            row.nonprompt = tuple(sum(1 for t in idx if t >= p) for idx in live)
            row.prompt_live = tuple(idx[:p] == tuple(range(p)) for idx in live)
        obs.steps.append(row)


def observe(model, wl: Workload, cell: Cell, prompt, config) -> Observation:
    """Run one cell with recording hooks and a logits spy on engine.decode_step."""
    budget = config.budget
    if config.policy is None:
        k, recent, max_slots = 0, config.recent_window, None
    elif wl.ratio is not None:
        k, recent, max_slots = 0, budget.recent_window, budget.max_slots
    else:
        k, recent, max_slots = budget.k, config.recent_window, None
    obs = Observation(
        cell=cell, prompt=prompt, record=None, k=k, interval=wl.interval, recent=recent,
        max_slots=max_slots,
        probes_enabled=config.policy is not None and (wl.ratio is None or cell.policy == "ours"),
    )
    cfg = model.config
    size = len(prompt) + config.max_new_tokens
    obs.masks = np.zeros((cfg.num_layers, cfg.num_heads, size, size), dtype=bool)
    obs.masks[:, :, : len(prompt), : len(prompt)] = np.tril(np.ones((len(prompt),) * 2, dtype=bool))
    recorder = _Recorder(obs, cfg.num_layers, cfg.num_heads)
    original = getattr(engine, "decode_step", None)
    if original is not None:
        def spy(state, model_, token_id, position, *args, **kwargs):
            out = original(state, model_, token_id, position, *args, **kwargs)
            # probe forwards reach positions that a later decode step overwrites
            obs.logits[position] = np.array(out.logits, dtype=np.float64)
            return out
        engine.decode_step = spy
    try:
        obs.record = engine.run(model, prompt, config,
                                on_step=recorder.on_step, on_probe=recorder.on_probe)
    finally:
        if original is not None:
            engine.decode_step = original
    return obs


# --- checks -----------------------------------------------------------------


def check_reference(model, obs: Observation) -> list[str]:
    """Tokens and logits equal the batch forward under the recorded live sets.

    Row q of the key mask is what the forward at position q attended to, so
    one masked batch forward replays the whole pruned decode. A token sampled
    after a round that evicted comes from requeried logits, which no row
    reproduces; those tokens are skipped.
    """
    p = len(obs.prompt)
    generated = obs.record.generated_ids
    ids = [tid for tid, _ in obs.prompt] + generated
    size = len(ids)
    ref = model.reference_forward(ids, key_mask=obs.masks[:, :, :size, :size])
    requeried = {r.step for r in obs.rounds if r.record.evicted_total > 0}
    failures = []
    for j, token in enumerate(generated):
        if j in requeried:
            continue
        row = ref[p - 1 + j]
        top2 = np.sort(row)[-2:]
        if top2[1] - top2[0] < LOGIT_RTOL * max(1.0, abs(top2[1])):
            continue
        if token != int(np.argmax(row)):
            failures.append(f"generated token {j} is {token}, "
                            f"masked batch forward argmax is {int(np.argmax(row))}")
            break
    for position in range(size):
        got = obs.logits.get(position)
        if got is None:
            continue
        want = ref[position]
        err = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
        if err > LOGIT_RTOL:
            failures.append(f"logits at position {position} differ by {err:.3g} relative")
            break
    return failures


def predicted_probe_steps(generated: list[int], interval: int, enabled: bool) -> list[int]:
    """Steps at which the schedule fires: every interval-th token while reasoning."""
    if not enabled:
        return []
    steps, reasoning = [], True
    for step, token in enumerate(generated, 1):
        if token == THINK_END_ID:
            reasoning = False
        if reasoning and token != EOS_ID and step % interval == 0:
            steps.append(step)
    return steps


def check_schedule(obs: Observation) -> list[str]:
    want = predicted_probe_steps(obs.record.generated_ids, obs.interval, obs.probes_enabled)
    got = [r.step for r in obs.rounds]
    failures = []
    if got != want:
        failures.append(f"probe rounds at steps {got}, schedule predicts {want}")
    if len(obs.record.probe_records) != len(want):
        failures.append(f"{len(obs.record.probe_records)} probe records, schedule predicts {len(want)}")
    failures += [f"round {r.record.round_index} did not run its probe"
                 for r in obs.rounds if not r.record.ran_probe]
    return failures


def _evicted_sets(record, keys) -> dict:
    if record.evicted is None:
        return {key: set() for key in keys}
    return {(layer, head): set(tokens)
            for layer, heads in record.evicted for head, tokens in enumerate(heads)}


def _eligible(live, prompt_len: int, base: int, recent: int) -> set[int]:
    return {t for t in live if prompt_len <= t < base and not (recent and t >= base - recent)}


def check_rounds(obs: Observation, reference) -> list[str]:
    """Per-round invariants, plus the oracle plan for ours and FIFO for streaming."""
    failures = []
    p = len(obs.prompt)
    texts = [text for _, text in obs.prompt] + [token_text(t) for t in obs.record.generated_ids]
    for r in obs.rounds:
        tag = f"round {r.record.round_index}"
        if r.step is None:
            failures.append(f"{tag} was not followed by a step")
            continue
        base = p + r.step
        keys = sorted(r.pre)
        evicted = _evicted_sets(r.record, keys)
        eligible = {key: _eligible(r.pre[key], p, base, obs.recent) for key in keys}
        layers = sorted({layer for layer, _ in keys})
        for key in keys:
            pre, post = set(r.pre[key]), set(r.post[key])
            if not post <= pre:
                failures.append(f"{tag} {key}: live set grew")
            if any(t >= base for t in post):
                failures.append(f"{tag} {key}: a live index is at or past the round's base {base}")
            if pre - post != evicted[key]:
                failures.append(f"{tag} {key}: pre - post differs from the record's evicted")
            if not evicted[key] <= eligible[key]:
                failures.append(f"{tag} {key}: evicted a prompt, recent-window or dead token")
            if len(evicted[key]) != min(obs.k, len(eligible[key])):
                failures.append(f"{tag} {key}: evicted {len(evicted[key])}, "
                                f"expected min(k={obs.k}, eligible={len(eligible[key])})")
        for layer in layers:
            sizes = {len(evicted[key]) for key in keys if key[0] == layer}
            if len(sizes) > 1:
                failures.append(f"{tag} layer {layer}: head eviction counts differ {sorted(sizes)}")
        scores = {(layer, head): {int(t): float(s) for t, s in pairs}
                  for layer, head, pairs in (r.record.scores or [])}
        for key, head_scores in scores.items():
            values = list(head_scores.values())
            if any(not 0.0 <= s <= 1.0 for s in values) or math.fsum(values) > 1.0 + 1e-9:
                failures.append(f"{tag} {key}: token scores outside [0, 1] or summing past 1")
        if obs.cell.policy == "ours" and obs.k > 0:
            bounds = reference.segment_oracle(texts[:base], p, DEFAULT_MARKER_PHRASES)
            starts = [b for b, _ in bounds]
            spans = list(zip(starts, starts[1:] + [base]))
            want = reference.alg1_reference(
                len(layers), len(keys) // len(layers), spans, scores, eligible, obs.k
            )
            if {key: set(v) for key, v in want.items()} != evicted:
                failures.append(f"{tag}: evictions differ from alg1_reference")
        if obs.cell.policy == "streaming" and obs.k > 0:
            for key in keys:
                if evicted[key] != set(sorted(eligible[key])[: obs.k]):
                    failures.append(f"{tag} {key}: streaming did not evict the k oldest eligible")
    return failures


def check_cap(obs: Observation) -> list[str]:
    """Under a ratio cap, non-prompt live slots never exceed max_slots and the prompt stays live."""
    if obs.max_slots is None:
        return []
    failures = []
    for row in obs.steps:
        if max(row.nonprompt) > obs.max_slots:
            failures.append(f"step {row.step}: {max(row.nonprompt)} non-prompt slots "
                            f"exceed the cap {obs.max_slots}")
            break
        if not all(row.prompt_live):
            failures.append(f"step {row.step}: a prompt slot is no longer live")
            break
    if len(obs.steps) != len(obs.record.generated_ids):
        failures.append(f"{len(obs.steps)} steps observed for {len(obs.record.generated_ids)} tokens")
    return failures


def check_cell(model, obs: Observation, reference) -> list[str]:
    return (check_reference(model, obs) + check_schedule(obs)
            + check_rounds(obs, reference) + check_cap(obs))
