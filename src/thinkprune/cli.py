"""Command-line front end: segment, score, plan, run, report.

Exit codes: 0 success, 2 malformed input, 3 runtime failure. Structured
output is JSON; tabular summaries are CSV. The THINKPRUNE_OUT environment
variable supplies a default output directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cache import CacheBudget
from .engine import FULL_KV_NAME, DecodeConfig, RunRecord, plan_round, run
from .errors import (
    BudgetExceedsStep,
    BudgetInfeasible,
    InputFormatError,
    ProbeLeak,
    ProtectedTokenEviction,
    PruneError,
    SequenceTooLong,
    UnknownToken,
)
from .model import TinyModelConfig
from .policy import EvictionBudget, PolicyKind, plan_to_dict
from .scoring import (
    ScoreTensor,
    THINK_END_TEXT,
    aggregate_step_scores,
    default_probe,
    dump_from_dict,
    extract_token_scores,
    format_step_table,
    scores_from_dict,
    scores_to_dict,
)
from .schema import load
from .trace import default_marker_set, markers_from_dict, segment, segmentation_to_dict, trace_from_dict

ENV_OUT_DIR = "THINKPRUNE_OUT"
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RUNTIME = 3

# a failure of the program on valid input; any other error is the input's
_RUNTIME_ERRORS = (ProbeLeak, BudgetInfeasible, ProtectedTokenEviction, UnknownToken,
                   BudgetExceedsStep)

_SWEEP_POLICIES = [FULL_KV_NAME] + [kind.value for kind in PolicyKind]


@dataclass
class ReportRow:
    """One summary line per (policy, budget) cell."""

    policy: str
    budget: str
    avg_kv: float
    peak_kv: int
    evicted_total: int
    tokens_generated: int
    probe_rounds: int

    FIELDS = ("policy", "budget", "avg_kv", "peak_kv", "evicted_total",
              "tokens_generated", "probe_rounds")

    def csv_values(self) -> list[str]:
        return [str(getattr(self, name)) for name in self.FIELDS]

    @classmethod
    def from_record(cls, record: RunRecord) -> "ReportRow":
        budget = record.budget
        return cls(
            policy=record.policy,
            budget="-" if budget is None else f"ratio={budget['ratio']}"
            if budget["mode"] == "ratio" else f"k={budget['k']}",
            avg_kv=record.avg_kv,
            peak_kv=record.peak_kv,
            evicted_total=record.evicted_total,
            tokens_generated=record.tokens_generated,
            probe_rounds=record.probe_rounds,
        )


def _out_dir(args) -> Path | None:
    value = getattr(args, "out", None) or os.environ.get(ENV_OUT_DIR)
    if not value:
        return None
    path = Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


def _load_marker_set(args):
    return load(args.markers, markers_from_dict) if args.markers else default_marker_set()


def _require_equal_step_sizes(seg, scores: ScoreTensor) -> None:
    """allocate sizes each step from head 0, so every head of a layer must
    score the same number of tokens in each step."""
    for layer in range(scores.num_layers):
        for sid, step in enumerate(seg.steps):
            sizes = np.count_nonzero(scores.scored[layer, :, step.start:step.end], axis=1).tolist()
            if len(set(sizes)) > 1:
                raise InputFormatError(f"layer {layer} step {sid}: heads score {sizes} tokens; "
                                       "every head must score as many as head 0")


def _find_reason_end(trace) -> int | None:
    for tok in trace.tokens[trace.reason_start:]:
        if tok.text == THINK_END_TEXT:
            return tok.index
    return None


def _score_trace_against_dump(trace, dump) -> ScoreTensor:
    row_len = dump.rows.shape[2]
    if row_len < len(trace.tokens):
        raise InputFormatError(f'dump field "rows" covers {row_len} positions but the trace '
                               f"has {len(trace.tokens)} tokens")
    return extract_token_scores(dump.rows, trace, np.ones(dump.rows.shape, dtype=bool),
                                reason_end=_find_reason_end(trace))


# --- subcommands ------------------------------------------------------------


def cmd_segment(args) -> int:
    trace = load(args.trace, trace_from_dict)
    markers = _load_marker_set(args)
    seg = segment(trace, markers)
    payload = segmentation_to_dict(seg)
    print(json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False))
    out = _out_dir(args)
    if out is not None:
        _dump_json(payload, out / "segmentation.json")
    return EXIT_OK


def cmd_score(args) -> int:
    trace = load(args.trace, trace_from_dict)
    dump = load(args.dump, dump_from_dict)
    markers = _load_marker_set(args)
    scores = _score_trace_against_dump(trace, dump)
    seg = segment(trace, markers)
    step_scores = aggregate_step_scores(scores, seg, scores.scored)
    print(format_step_table(step_scores, seg))
    payload = scores_to_dict(scores)
    out = _out_dir(args)
    if out is not None:
        _dump_json(payload, out / "scores.json")
        (out / "step_table.txt").write_text(format_step_table(step_scores, seg) + "\n",
                                            encoding="utf-8")
    else:
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_plan(args) -> int:
    trace = load(args.trace, trace_from_dict)
    markers = _load_marker_set(args)
    policy = PolicyKind(args.policy)
    seq_len = len(trace.tokens)
    if args.scores or args.dump:
        scores = (load(args.scores, scores_from_dict, seq_len) if args.scores
                  else _score_trace_against_dump(trace, load(args.dump, dump_from_dict)))
        live = scores.scored
    elif policy in (PolicyKind.HIERARCHICAL, PolicyKind.H2O):
        raise InputFormatError(f'policy "{policy.value}" needs --scores or --dump')
    else:
        # random and streaming read only the tensor's dimensions
        scores = ScoreTensor(args.layers, args.heads, {})
        reason_end = _find_reason_end(trace)
        live = np.zeros((args.layers, args.heads, seq_len), dtype=bool)
        live[:, :, trace.reason_start:reason_end] = True

    seg = step_scores = None
    if policy is PolicyKind.HIERARCHICAL:
        seg = segment(trace, markers)
        _require_equal_step_sizes(seg, scores)
        step_scores = aggregate_step_scores(scores, seg, live)
    plan, allocation = plan_round(policy, scores, seg, step_scores, live, seq_len,
                                  EvictionBudget(args.budget), args.seed)

    payload = plan_to_dict(plan, allocation)
    print(json.dumps(payload, sort_keys=True, indent=2))
    out = _out_dir(args)
    if out is not None:
        _dump_json(payload, out / "plan.json")
    return EXIT_OK


def _cell_configs(policy_name: str, args, budget) -> tuple[TinyModelConfig, DecodeConfig]:
    """One cell's model and decode configs: a malformed option raises here."""
    config = TinyModelConfig(
        vocab_size=args.vocab,
        num_layers=args.layers,
        num_heads=args.heads,
        model_dim=args.heads * args.head_dim,
        head_dim=args.head_dim,
        max_seq_len=args.max_seq,
        rng_seed=args.model_seed,
    )
    probe = default_probe(interval_p=args.interval)
    policy = None if policy_name == FULL_KV_NAME else PolicyKind(policy_name)
    decode = DecodeConfig(
        max_new_tokens=args.max_new,
        probe=probe,
        policy=policy,
        budget=budget if policy is not None else None,
        greedy=not args.sample,
        temperature=args.temperature,
        top_p=args.top_p,
        sampling_seed=args.seed,
        eviction_seed=args.eviction_seed,
        recent_window=args.recent,
        keep_dumps=args.keep_dumps,
    )
    return config, decode


def cmd_run(args) -> int:
    out = _out_dir(args) or Path("thinkprune_out")
    out.mkdir(parents=True, exist_ok=True)
    if args.budget is not None and args.ratio is not None:
        raise InputFormatError("--budget and --ratio are mutually exclusive")
    if args.ratio is not None and args.recent:
        raise InputFormatError("--recent applies to --budget runs; a --ratio cap protects "
                               "half of its slots as the recent window")
    policies = _SWEEP_POLICIES.copy() if args.policy == "all" else args.policy.split(",")
    for name in policies:
        if name != FULL_KV_NAME and name not in PolicyKind._value2member_map_:
            raise InputFormatError(f'unknown policy "{name}"')

    rows: list[ReportRow] = []
    timing_rows: list[list[str]] = []
    failures: list[str] = []
    records: dict[str, RunRecord] = {}

    ratio_budget = None
    if args.ratio is not None:
        # The cap is resolved against the measured full-cache average, so the
        # full cell always runs first.
        model, decode = _cell_configs(FULL_KV_NAME, args, None)
        full_record = run(model, args.prompt, decode)
        records[FULL_KV_NAME] = full_record
        nonprompt = [row[3] for row in full_record.occupancy] or [1.0]
        full_avg = sum(nonprompt) / len(nonprompt)
        ratio_budget = CacheBudget.from_ratio(args.ratio, full_avg)
        policies = [name for name in policies if name != FULL_KV_NAME]

    for name in policies:
        budget = (
            None if name == FULL_KV_NAME
            else ratio_budget if ratio_budget is not None
            else EvictionBudget(args.budget) if args.budget is not None
            else None
        )
        if name != FULL_KV_NAME and budget is None:
            raise InputFormatError("pruning policies need --budget K or --ratio R")
        model, decode = _cell_configs(name, args, budget)
        try:
            records[name] = run(model, args.prompt, decode)
        except SequenceTooLong:
            raise
        except (PruneError, ValueError) as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")

    order = {name: i for i, name in enumerate(_SWEEP_POLICIES)}
    for name in sorted(records, key=lambda n: order.get(n, 99)):
        record = records[name]
        _dump_json(record.to_dict(), out / f"run_{name}.json")
        row = ReportRow.from_record(record)
        rows.append(row)
        timing_rows.append([name] + [
            str(round(record.timings_ms.get(key, 0.0), 3))
            for key in ("prefill_ms", "decode_ms", "probe_ms")
        ])
    _write_csv(out / "report.csv", list(ReportRow.FIELDS), [r.csv_values() for r in rows])
    _write_csv(out / "timings.csv", ["policy", "prefill_ms", "decode_ms", "probe_ms"], timing_rows)
    for row in rows:
        print(",".join(row.csv_values()))
    if failures:
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _score_histogram(record: RunRecord, bins: int = 10) -> list[tuple[float, float, int]]:
    values: list[float] = []
    for probe in record.probe_records:
        for _layer, _head, pairs in probe.scores or []:
            values.extend(float(s) for _t, s in pairs)
    if not values:
        return []
    hi = max(values) or 1.0
    edges = [hi * i / bins for i in range(bins + 1)]
    counts = [0] * bins
    for value in values:
        slot = min(int(value / hi * bins), bins - 1)
        counts[slot] += 1
    return [(edges[i], edges[i + 1], counts[i]) for i in range(bins)]


def _first_evicted_step(probe) -> int | None:
    # each layer's first allocated step, -1 where the layer allocated none
    firsts = [] if probe.allocation is None else probe.allocation["step"][:, :1].ravel().tolist()
    return next((step for step in firsts if step >= 0), None)


def cmd_report(args) -> int:
    if not args.records:
        raise InputFormatError("report needs at least one run record")
    records = [load(path, RunRecord.from_dict) for path in args.records]
    out = _out_dir(args) or Path("thinkprune_out")
    out.mkdir(parents=True, exist_ok=True)

    lines = ["# thinkprune run report", "", "## Policy comparison", ""]
    lines.append("| policy | budget | avg_kv | peak_kv | evicted | tokens | probe rounds |")
    lines.append("|---|---|---|---|---|---|---|")
    summary_rows = []
    for record in records:
        row = ReportRow.from_record(record)
        summary_rows.append(row.csv_values())
        lines.append(
            f"| {row.policy} | {row.budget} | {row.avg_kv:.3f} | {row.peak_kv} "
            f"| {row.evicted_total} | {row.tokens_generated} | {row.probe_rounds} |"
        )

    occupancy_rows = []
    histogram_rows = []
    for record in records:
        lines += ["", f"## {record.policy} ({ReportRow.from_record(record).budget})", ""]
        lines.append(f"- generated tokens: {record.tokens_generated}")
        lines.append(f"- reasoning tokens: {record.reasoning_len}")
        lines.append(f"- average KV per (layer, head): {record.avg_kv:.3f}")
        lines.append(f"- end-of-run KV per (layer, head): {record.final_stats['avg_kv']:.3f}")
        lines.append(f"- peak KV: {record.peak_kv}")
        lines.append(f"- evicted entries: {record.evicted_total}")
        for step, avg_live, max_live, nonprompt_live in record.occupancy.tolist():
            occupancy_rows.append([record.policy, str(step), str(avg_live),
                                   str(max_live), str(nonprompt_live)])
        if record.probe_records:
            lines += ["", "### Pruning rounds", "",
                      "| round | reasoning tokens | ran probe | first evicted step | evicted |",
                      "|---|---|---|---|---|"]
            for probe in record.probe_records:
                first = _first_evicted_step(probe)
                lines.append(
                    f"| {probe.round_index} | {probe.reasoning_tokens} | {probe.ran_probe} "
                    f"| {'-' if first is None else first} | {probe.evicted_total} |"
                )
        hist = _score_histogram(record)
        if hist:
            total = sum(count for _lo, _hi, count in hist)
            lines += ["", f"### Token score histogram ({total} scored tokens)", ""]
            for lo, hi, count in hist:
                bar = "#" * min(count, 60)
                lines.append(f"- [{lo:.6f}, {hi:.6f}): {count} {bar}")
                histogram_rows.append([record.policy, str(lo), str(hi), str(count)])

    report_md = "\n".join(lines) + "\n"
    (out / "report.md").write_text(report_md, encoding="utf-8")
    _write_csv(out / "summary.csv", list(ReportRow.FIELDS), summary_rows)
    _write_csv(out / "occupancy.csv",
               ["policy", "step", "avg_live", "max_live", "nonprompt_live"], occupancy_rows)
    _write_csv(out / "histograms.csv", ["policy", "bin_lo", "bin_hi", "count"], histogram_rows)
    print(report_md)
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thinkprune",
        description="Prune redundant reasoning tokens from KV caches via summarization probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_segment = sub.add_parser("segment", help="split a trace into marker-delimited steps")
    p_segment.add_argument("--trace", required=True, help="trace JSON file")
    p_segment.add_argument("--markers", help="JSON array of marker phrases")
    p_segment.add_argument("--out", help="output directory")
    p_segment.set_defaults(func=cmd_segment)

    p_score = sub.add_parser("score", help="score a trace against an attention dump")
    p_score.add_argument("--trace", required=True)
    p_score.add_argument("--dump", required=True, help="attention dump JSON file")
    p_score.add_argument("--markers")
    p_score.add_argument("--out")
    p_score.set_defaults(func=cmd_score)

    p_plan = sub.add_parser("plan", help="build an eviction plan")
    p_plan.add_argument("--trace", required=True)
    p_plan.add_argument("--scores", help="score tensor JSON file")
    p_plan.add_argument("--dump", help="attention dump JSON file (alternative to --scores)")
    p_plan.add_argument("--markers")
    p_plan.add_argument("--policy", required=True,
                        choices=[kind.value for kind in PolicyKind])
    p_plan.add_argument("--budget", type=int, required=True, help="tokens to evict per (layer, head)")
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--layers", type=int, default=1,
                        help="random/streaming without --scores or --dump")
    p_plan.add_argument("--heads", type=int, default=1,
                        help="random/streaming without --scores or --dump")
    p_plan.add_argument("--out")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="run pruning experiments on the tiny model")
    p_run.add_argument("--policy", default="all",
                       help='one of full|ours|random|h2o|streaming, a comma list, or "all"')
    p_run.add_argument("--budget", type=int, default=None, help="periodic eviction budget k")
    p_run.add_argument("--ratio", type=float, default=None, help="cache compression ratio")
    p_run.add_argument("--interval", type=int, default=16, help="probe interval in reasoning tokens")
    p_run.add_argument("--prompt", default="Solve: compute two plus two.")
    p_run.add_argument("--max-new", type=int, default=64)
    p_run.add_argument("--recent", type=int, default=0, help="protected recent window (--budget only)")
    p_run.add_argument("--vocab", type=int, default=64)
    p_run.add_argument("--layers", type=int, default=2)
    p_run.add_argument("--heads", type=int, default=2)
    p_run.add_argument("--head-dim", type=int, default=16)
    p_run.add_argument("--max-seq", type=int, default=512)
    p_run.add_argument("--model-seed", type=int, default=0)
    p_run.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_run.add_argument("--eviction-seed", type=int, default=0)
    p_run.add_argument("--sample", action="store_true", help="sample with temperature/top-p instead of greedy")
    p_run.add_argument("--temperature", type=float, default=0.6)
    p_run.add_argument("--top-p", type=float, default=0.95)
    p_run.add_argument("--keep-dumps", action="store_true",
                       help="store raw probe attention dumps inside run records")
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="summarize run records into markdown + CSV")
    p_report.add_argument("records", nargs="*", help="run record JSON files")
    p_report.add_argument("--out")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PruneError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME if isinstance(exc, _RUNTIME_ERRORS) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
