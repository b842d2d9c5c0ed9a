"""Autoregressive decode loop with periodic probe-and-prune rounds.

Every interval_p newly generated reasoning tokens, the summarization probe
is appended, its last forward harvests the end-of-thinking attention rows,
and the probe tokens are removed again. Scores and step scores are then
computed and the active policy's plan is applied to the original sequence,
so decoding continues on the pruned sequence alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from time import perf_counter

import numpy as np

from .cache import CacheBudget, KvCacheState, ProtectedRegions, enforce_budget
from .errors import ProbeLeak, SequenceTooLong
from .model import (
    EOS_ID,
    THINK_END_ID,
    StepOutput,
    TinyDecoder,
    TinyModelConfig,
    token_text,
    tokenize,
)
from .policy import (
    EvictionBudget,
    EvictionPlan,
    H2OAccumulator,
    PolicyKind,
    Ranker,
    StepAllocation,
    allocate,
    h2o_scores,
    oldest_first,
    plan_from_allocation,
    plan_h2o,
    plan_oldest,
    plan_random,
    policy_ranker,
    round_ranking,
)
from .scoring import (
    SUMMARIZATION_PROBE_TEXT,
    Candidates,
    ProbeConfig,
    ScoreTensor,
    StepScores,
    aggregate_step_scores,
    extract_token_scores,
)
from .schema import PROBE_RECORD, RUN_RECORD, check
from .trace import ReasoningTrace, Segmentation, Token, default_marker_set, segment

FULL_KV_NAME = "full"
# one run record occupancy row per decode step
OCCUPANCY = np.dtype([("step", np.intp), ("avg_live", np.float64), ("max_live", np.intp),
                      ("nonprompt_live", np.intp)])
# a probe round's step scores and allocation hold one row per layer of
# (step id, value) entries, padded with step -1 to the longest layer's length
STEP_SCORE = np.dtype([("step", np.intp), ("score", np.float64)])
STEP_EVICTIONS = np.dtype([("step", np.intp), ("evictions", np.intp)])


@dataclass(frozen=True)
class DecodeConfig:
    """Everything a run needs besides the model and the prompt."""

    max_new_tokens: int
    probe: ProbeConfig
    policy: PolicyKind | None = None
    budget: EvictionBudget | CacheBudget | None = None
    greedy: bool = True
    temperature: float = 0.6
    top_p: float = 0.95
    sampling_seed: int = 0
    eviction_seed: int = 0
    recent_window: int = 0
    keep_dumps: bool = False

    def __post_init__(self) -> None:
        if self.max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        if not math.isfinite(self.temperature) or not self.greedy and self.temperature <= 0:
            raise ValueError(f"temperature must be finite, and > 0 unless decoding greedily; "
                             f"got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.recent_window < 0:
            raise ValueError("recent_window must be >= 0")
        if self.recent_window > 0 and isinstance(self.budget, CacheBudget):
            raise ValueError("recent_window applies to periodic budgets; a CacheBudget "
                             "carries its own recent_window")
        if self.policy is None:
            if self.budget is not None:
                raise ValueError("a budget without a policy has no effect; drop one")
        elif not isinstance(self.budget, (EvictionBudget, CacheBudget)):
            raise ValueError("an active policy requires an EvictionBudget or a CacheBudget")

    @property
    def policy_name(self) -> str:
        return FULL_KV_NAME if self.policy is None else self.policy.value


@dataclass(eq=False)
class ProbeRecord:
    """What one probe-and-prune round saw and did.

    The round's step scores, allocation and plan sizes are held as arrays
    and its victims as per-head tuples, which are cheap to build and to
    free; to_dict renders the record's JSON lists from them.
    """

    round_index: int
    reasoning_tokens: int
    ran_probe: bool = False
    skipped: bool = False
    skip_reason: str | None = None
    scores: ScoreTensor | None = None
    # (layers, longest) STEP_SCORE entries, each layer's in step order
    step_scores: np.ndarray | None = None
    # (layers, longest) STEP_EVICTIONS entries, each layer's in the greedy order
    allocation: np.ndarray | None = None
    # [[layer, [a tuple of victim tokens per head]], ...]
    evicted: list | None = None
    # (layers, heads) victim counts
    plan_sizes: np.ndarray | None = None
    evicted_total: int = 0
    dump: dict | None = None

    def to_dict(self) -> dict:
        # shallow: dataclasses.asdict would deep-copy every list
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.scores is not None:
            data["scores"] = [[layer, head, [list(pair) for pair in pairs]]
                              for layer, head, pairs in self.scores]
        for name in ("step_scores", "allocation"):
            if data[name] is not None:
                data[name] = [[layer, [list(entry) for entry in entries if entry[0] >= 0]]
                              for layer, entries in enumerate(data[name].tolist())]
        if self.evicted is not None:
            data["evicted"] = [[layer, [list(tokens) for tokens in heads]]
                               for layer, heads in self.evicted]
        if self.plan_sizes is not None:
            data["plan_sizes"] = [[layer, counts]
                                  for layer, counts in enumerate(self.plan_sizes.tolist())]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ProbeRecord":
        """A round checked by schema.PROBE_RECORD (and by RunRecord.from_dict against its run)."""
        return cls._checked(data, check(data, PROBE_RECORD, "probe record"))

    @classmethod
    def _checked(cls, data: dict, dims: dict) -> "ProbeRecord":
        """A checked round; its scores take the layers and heads of dims, or of its entries."""
        data = {key: value for key, value in data.items() if key != "scores_digest"}
        if data.get("scores") is not None:
            shape = [dims.get(name, 1 + max((entry[axis] for entry in data["scores"]), default=-1))
                     for axis, name in enumerate(("layers", "heads"))]
            data["scores"] = ScoreTensor(*shape, {(layer, head): dict(pairs)
                                                  for layer, head, pairs in data["scores"]})
        for name, dtype in (("step_scores", STEP_SCORE), ("allocation", STEP_EVICTIONS)):
            if data.get(name) is not None:
                data[name] = _layer_rows([[tuple(entry) for entry in entries]
                                          for _layer, entries in data[name]], dtype)
        if data.get("evicted") is not None:
            data["evicted"] = [[layer, [tuple(tokens) for tokens in heads]]
                               for layer, heads in data["evicted"]]
        if data.get("plan_sizes") is not None:
            data["plan_sizes"] = np.array([counts for _layer, counts in data["plan_sizes"]],
                                          dtype=np.intp)
        return cls(**data)


def _layer_rows(by_layer: list, dtype: np.dtype) -> np.ndarray:
    """Each layer's (step, value) entries as one row of a (layers, longest)
    array, padded with step -1."""
    rows = np.full((len(by_layer), max(map(len, by_layer), default=0)), -1, dtype=dtype)
    for layer, entries in enumerate(by_layer):
        rows[layer, :len(entries)] = entries
    return rows


@dataclass(eq=False)
class RunRecord:
    """Full log of one decode run."""

    model: dict
    policy: str
    budget: dict | None
    prompt_len: int
    generated_ids: list[int]
    reasoning_len: int
    think_end_emitted: bool
    probe_records: list[ProbeRecord]
    # one OCCUPANCY row per decode step: the step, average and maximum live
    # slots per (layer, head), and head (0, 0)'s live non-prompt slots
    occupancy: np.ndarray
    final_stats: dict
    avg_kv: float
    peak_kv: int
    evicted_total: int
    seeds: dict
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def probe_rounds(self) -> int:
        return len(self.probe_records)

    @property
    def tokens_generated(self) -> int:
        return len(self.generated_ids)

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "timings_ms"}
        data["probe_records"] = [rec.to_dict() for rec in self.probe_records]
        data["occupancy"] = [list(row) for row in self.occupancy.tolist()]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """A run from its JSON form, checked by schema.RUN_RECORD."""
        dims = check(data, RUN_RECORD, "run record")
        return cls(**dict(data, probe_records=[ProbeRecord._checked(record, dims)
                                               for record in data["probe_records"]],
                          occupancy=np.array([tuple(row) for row in data["occupancy"]],
                                             dtype=OCCUPANCY)))


def decode_step(state: KvCacheState, model: TinyDecoder, token_id: int, position: int) -> StepOutput:
    """Forward one token at next_index over the live keys; the forward
    writes and commits its K/V slot.

    Softmax runs only over live positions per (layer, head). Raises
    SequenceTooLong past the model's maximum length, before mutating.
    """
    return model.forward_step(state, token_id, position)


def requery_logits(state: KvCacheState, model: TinyDecoder, token_id: int, position: int) -> np.ndarray:
    """Recompute a token's logits over the current (possibly pruned) cache.

    Query-only pass below next_index: nothing is written or appended, and
    the token's own K/V participate only where they are still live.
    """
    return model.forward_step(state, token_id, position).logits


def _plan_fields(plan: EvictionPlan) -> tuple[list, np.ndarray]:
    """A plan as its record's evicted and plan_sizes fields."""
    return ([[layer, [tuple(tokens) for tokens in heads]]
             for layer, heads in enumerate(plan.head_lists())], plan.counts)


def kv_stats(state: KvCacheState) -> dict:
    """Live slots per (layer, head): their average and maximum over every
    (layer, head), the cache's eviction count, and the (layers, heads)
    counts as nested lists: the run record's final_stats."""
    counts = state.stats()
    flat = counts.ravel().tolist()
    return {"avg_kv": sum(flat) / len(flat), "peak_kv": max(flat),
            "evicted_total": state.evicted_total, "per_layer": counts.tolist()}


def plan_round(
    policy: PolicyKind,
    scores: ScoreTensor,
    seg: Segmentation | None,
    step_scores: StepScores | None,
    live: Candidates,
    seq_len: int,
    budget: EvictionBudget,
    seed: int | tuple[int, ...],
) -> tuple[EvictionPlan, StepAllocation | None]:
    """One round's eviction plan under policy, and the hierarchical allocation.

    The one mapping from PolicyKind to planner, shared by probe rounds and
    `thinkprune plan`. scores ranks victims: probe scores for the
    hierarchical policy, accumulated attention for h2o; random and
    streaming read only its dimensions. seg and step_scores are read only
    by the hierarchical policy, seed only by random.
    """
    if policy is PolicyKind.HIERARCHICAL:
        allocation = allocate(step_scores, seg, live, budget)
        return plan_from_allocation(scores, seg, live, allocation), allocation
    if policy is PolicyKind.RANDOM:
        return plan_random(scores.num_layers, scores.num_heads, seq_len, live, budget, seed), None
    if policy is PolicyKind.H2O:
        return plan_h2o(scores, seq_len, live, budget), None
    if policy is PolicyKind.STREAMING:
        return plan_oldest(scores.num_layers, scores.num_heads, seq_len, live, budget), None
    raise ValueError(f"unknown policy {policy!r}")


@lru_cache(maxsize=16)
def _probe_ids(vocab_size: int) -> tuple[int, ...]:
    """The ids of SUMMARIZATION_PROBE_TEXT, whose last is THINK_END_ID."""
    return tuple(tid for tid, _text in tokenize(SUMMARIZATION_PROBE_TEXT, vocab_size))


def probe_cycle(
    state: KvCacheState,
    model: TinyDecoder,
    trace: ReasoningTrace,
    policy: PolicyKind,
    budget: EvictionBudget | None,
    *,
    h2o: H2OAccumulator | None = None,
    eviction_seed: int = 0,
    round_index: int = 0,
    keep_dump: bool = False,
) -> tuple[ProbeRecord, Ranker | None]:
    """One probe-and-prune round; the cache is updated in place.

    Appends the probe, captures the end-of-thinking attention rows and
    removes every probe token, even when a probe forward raises. Only then
    does it score the original sequence, segment it with default_marker_set(),
    plan per the active policy and apply the plan, which validates it whole
    before evicting: a round that raises before it evicts leaves the cache
    as it was. With budget None (a ratio cap) it plans nothing and returns
    the round's ranking for capped appends, else None. The cycle is skipped
    entirely if the model already produced its own end-of-thinking token
    ("post-reasoning") or the probe would not fit under the model's maximum
    sequence length ("no-room").
    """
    reasoning_ids = [tok.id for tok in trace.tokens[trace.reason_start:]]
    record = ProbeRecord(round_index=round_index, reasoning_tokens=len(reasoning_ids))
    if THINK_END_ID in reasoning_ids:
        record.skipped = True
        record.skip_reason = "post-reasoning"
        return record, None

    probe_ids = _probe_ids(model.config.vocab_size)
    base = len(trace.tokens)
    if base + len(probe_ids) > model.config.max_seq_len:
        record.skipped = True
        record.skip_reason = "no-room"
        return record, None
    pre_live = state.live[:, :, :base].copy()
    last = len(probe_ids) - 1
    try:
        # the round reads the probe tokens' K/V and the last token's rows,
        # never a probe token's logits
        for offset, pid in enumerate(probe_ids):
            out = model.forward_step(state, pid, base + offset,
                                     outputs="rows" if offset == last else "kv")
    finally:
        state.remove_suffix(base)
    record.ran_probe = True
    # the one candidate mask of the round
    eligible = state.evictable()
    scores = extract_token_scores(out.rows, trace, eligible)
    seg = segment(trace, default_marker_set())
    step_scores = aggregate_step_scores(scores, seg, eligible)
    record.scores = scores
    record.step_scores = _layer_rows([list(step_scores.layer_entries(layer))
                                      for layer in sorted(step_scores.by_layer)], STEP_SCORE)
    if keep_dump:
        record.dump = {"layers": out.rows.shape[0], "heads": out.rows.shape[1],
                       "probe_position": base + last, "rows": out.rows.tolist()}
    ranker = round_ranking(scores, seg, step_scores) if budget is None else None
    if budget is not None:
        ranking = scores
        if policy is PolicyKind.H2O:
            if h2o is None:
                raise ValueError("the h2o policy needs an H2OAccumulator")
            ranking = h2o_scores(h2o.history(), state.num_layers, state.num_heads, eligible)
        plan, allocation = plan_round(policy, ranking, seg, step_scores, eligible, base,
                                      budget, (eviction_seed, round_index))
        record.evicted_total = state.apply_plan(plan)
        if allocation is not None:
            record.allocation = _layer_rows([list(allocation.layer_order(layer))
                                             for layer in sorted(allocation.by_layer)],
                                            STEP_EVICTIONS)
        record.evicted, record.plan_sizes = _plan_fields(plan)

    leaked = np.argwhere(state.live[:, :, base:])
    if leaked.size:
        raise ProbeLeak(f"probe token survived at (layer, head) {tuple(leaked[0, :2].tolist())}")
    grown = np.argwhere(state.live[:, :, :base] & ~pre_live)
    if grown.size:
        raise ProbeLeak(
            f"live set grew during the probe cycle at (layer, head) {tuple(grown[0, :2].tolist())}"
        )
    return record, ranker


def _sample_token(logits: np.ndarray, config: DecodeConfig, rng: np.random.Generator) -> int:
    if config.greedy:
        return int(np.argmax(logits))
    with np.errstate(over="ignore"):
        z = logits / config.temperature
    if not np.isfinite(z).all():
        # a temperature so small that the logits overflow: its limit, the argmax
        return int(np.argmax(logits))
    z = z - z.max()
    probs = np.exp(z)
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    cut = int(np.searchsorted(np.cumsum(probs[order]), config.top_p)) + 1
    keep = order[:cut]
    kept = probs[keep] / probs[keep].sum()
    return int(rng.choice(keep, p=kept))


def run(
    model: TinyDecoder | TinyModelConfig,
    prompt: str | list[tuple[int, str]],
    config: DecodeConfig,
    *,
    on_step=None,
    on_probe=None,
) -> RunRecord:
    """Generate up to max_new_tokens, probing and pruning on schedule.

    Decoding stops early at EOS or once the sequence fills the model's
    max_seq_len; a prompt longer than max_seq_len raises SequenceTooLong
    before the first forward. Probe rounds fire after every interval_p
    newly generated reasoning tokens and never once the model has emitted
    its own end-of-thinking token. All randomness flows from the config
    seeds; repeated runs are bitwise identical. on_step(step, state) and
    on_probe(pre, post, record) are observation hooks for tests and
    reporting.
    """
    if isinstance(model, TinyModelConfig):
        model = TinyDecoder(model)
    cfg = model.config
    if isinstance(prompt, str):
        prompt_tokens = tokenize(prompt, cfg.vocab_size)
    else:
        prompt_tokens = [(int(tid), str(text)) for tid, text in prompt]
    if not prompt_tokens:
        raise ValueError("the prompt must contain at least one token")
    for i, (tid, _text) in enumerate(prompt_tokens):
        if not 0 <= tid < cfg.vocab_size:
            raise ValueError(f"prompt id {tid} at position {i} is outside [0, {cfg.vocab_size})")
    if len(prompt_tokens) > cfg.max_seq_len:
        raise SequenceTooLong(f"the prompt's {len(prompt_tokens)} tokens exceed "
                              f"max_seq_len {cfg.max_seq_len}")

    ratio_budget = config.budget if isinstance(config.budget, CacheBudget) else None
    periodic_budget = config.budget if isinstance(config.budget, EvictionBudget) else None
    recent = ratio_budget.recent_window if ratio_budget is not None else config.recent_window
    protected = ProtectedRegions(len(prompt_tokens), recent)
    state = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim, protected)
    h2o = H2OAccumulator(cfg.num_layers, cfg.num_heads) if config.policy is PolicyKind.H2O else None
    # Under a ratio cap, h2o ranks by accumulated attention and ours by its
    # latest probe round (oldest first before any).
    ranking: Ranker = h2o.rank if h2o is not None else oldest_first
    # Ratio caps evict at append time; probe rounds then only refresh scores,
    # which only the hierarchical policy consumes.
    probes_enabled = config.policy is not None and (
        periodic_budget is not None or config.policy is PolicyKind.HIERARCHICAL
    )

    rng = np.random.default_rng(config.sampling_seed)
    timings = {"prefill_ms": 0.0, "decode_ms": 0.0, "probe_ms": 0.0}

    started = perf_counter()
    # only the last prompt token's logits are read; the others only write K/V
    last = len(prompt_tokens) - 1
    for i, (tid, _text) in enumerate(prompt_tokens[:last]):
        model.forward_step(state, tid, i, outputs="kv")
    logits = decode_step(state, model, prompt_tokens[last][0], last).logits
    tokens: list[Token] = [Token(i, tid, text) for i, (tid, text) in enumerate(prompt_tokens)]
    timings["prefill_ms"] = (perf_counter() - started) * 1e3

    generated: list[int] = []
    records: list[ProbeRecord] = []
    occupancy: list[tuple[int, float, int, int]] = []
    reasoning_active = True
    reason_len: int | None = None

    while len(generated) < config.max_new_tokens and len(tokens) < cfg.max_seq_len:
        next_id = _sample_token(logits, config, rng)
        position = len(tokens)
        step_started = perf_counter()
        if ratio_budget is not None:
            enforce_budget(state, ratio_budget, policy_ranker(
                config.policy, seed=(config.eviction_seed, position), ranking=ranking))
        out = decode_step(state, model, next_id, position)
        logits = out.logits
        timings["decode_ms"] += (perf_counter() - step_started) * 1e3
        tokens.append(Token(position, next_id, token_text(next_id)))
        generated.append(next_id)
        if h2o is not None:
            h2o.add(out.rows)
        if next_id == THINK_END_ID and reasoning_active:
            reasoning_active = False
            reason_len = len(generated) - 1
        if (
            next_id != EOS_ID
            and probes_enabled
            and reasoning_active
            and len(generated) % config.probe.interval_p == 0
        ):
            trace = ReasoningTrace(tuple(tokens), len(prompt_tokens))
            pre = state.live_sets() if on_probe is not None else None
            probe_started = perf_counter()
            record, ranker = probe_cycle(
                state, model, trace, config.policy, periodic_budget,
                h2o=h2o,
                eviction_seed=config.eviction_seed,
                round_index=len(records),
                keep_dump=config.keep_dumps,
            )
            timings["probe_ms"] += (perf_counter() - probe_started) * 1e3
            records.append(record)
            if ranker is not None:
                ranking = ranker
            if record.evicted_total > 0:
                logits = requery_logits(state, model, next_id, position)
            if on_probe is not None:
                on_probe(pre, state.live_sets(), record)
        counts = state.stats()
        occupancy.append((len(generated), int(counts.sum()) / counts.size, int(counts.max()),
                          state.live_nonprompt_count(0, 0)))
        if on_step is not None:
            on_step(len(generated), state)
        if next_id == EOS_ID:
            break

    if reasoning_active:
        reason_len = len(generated)
    final_stats = kv_stats(state)
    avg_kv, peak_kv = final_stats["avg_kv"], final_stats["peak_kv"]
    if occupancy:
        avg_kv = sum(row[1] for row in occupancy) / len(occupancy)
        peak_kv = max(row[2] for row in occupancy)

    budget_info = None
    if ratio_budget is not None:
        budget_info = {"mode": "ratio", "ratio": ratio_budget.ratio,
                       "max_slots": ratio_budget.max_slots,
                       "recent_window": ratio_budget.recent_window}
    elif periodic_budget is not None:
        budget_info = {"mode": "periodic", "k": periodic_budget.k}

    return RunRecord(
        model=cfg.to_dict(),
        policy=config.policy_name,
        budget=budget_info,
        prompt_len=len(prompt_tokens),
        generated_ids=generated,
        reasoning_len=reason_len,
        think_end_emitted=not reasoning_active,
        probe_records=records,
        occupancy=np.array(occupancy, dtype=OCCUPANCY),
        final_stats=final_stats,
        avg_kv=avg_kv,
        peak_kv=peak_kv,
        evicted_total=state.evicted_total,
        seeds={
            "model": cfg.rng_seed,
            "sampling": config.sampling_seed,
            "eviction": config.eviction_seed,
        },
        timings_ms=timings,
    )
