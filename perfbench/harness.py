"""Timed rounds, the traced pass, checked runs and the result object.

One process runs the cells of a workload one after another, closed loop:
a cell starts when the previous one has returned. Timed rounds carry only
two light hooks: `on_step` stamps the wall clock and `on_probe` marks the
step that ran a probe round. After the timed rounds the process reads its
peak RSS, then runs every cell once more with recording hooks and checks
that run; each timed repeat must have the same record digest as it.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from thinkprune import engine

import checks
import spans
import workloads as wls
from workloads import FULL, Cell, Workload

SETUP_REPEATS = 3
# self times of a traced pass must sum to its engine.run wall time within this share
SELF_TIME_TOLERANCE = 1e-3
WARMUP_PROMPT_TOKENS = 16
WARMUP_NEW_TOKENS = 8
WARMUP_INTERVAL = 4

END_TO_END = (
    ("setup_s", "s"),
    ("tokens_per_s", "tokens/s"),
    ("token_gap_p50_ms", "ms"),
    ("probe_step_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("kv_slots_avg", "slots"),
)


class StepClock:
    """Timed-run hooks: wall gaps between consecutive generated tokens."""

    def __init__(self) -> None:
        self.last: float | None = None
        self.probe_pending = False
        self.gaps: list[float] = []
        self.probe_gaps: list[float] = []

    def on_probe(self, pre, post, record) -> None:
        self.probe_pending = True

    def on_step(self, step: int, state) -> None:
        now = perf_counter()
        if self.last is not None:
            (self.probe_gaps if self.probe_pending else self.gaps).append(now - self.last)
        self.probe_pending = False
        self.last = now


@dataclass
class CellRun:
    cell: Cell
    wall_s: float = 0.0
    tokens: int = 0
    avg_kv: float = 0.0
    digest: str | None = None
    gaps: list[float] = field(default_factory=list)
    probe_gaps: list[float] = field(default_factory=list)
    error: str | None = None


@dataclass
class Setup:
    wl: Workload
    seed: int
    model: object
    prompts: list


def set_up(wl: Workload, seed: int) -> Setup:
    """Model, seeded prompts, and a short warm-up of every policy path."""
    model = wls.make_model(wl)
    prompts = wls.make_prompts(wl, seed, model)
    warm = replace(
        wl, prompts=1, prompt_tokens=WARMUP_PROMPT_TOKENS,
        max_new=WARMUP_NEW_TOKENS, interval=WARMUP_INTERVAL,
    )
    run_round(Setup(warm, seed, model, [prompts[0][:WARMUP_PROMPT_TOKENS]]))
    return Setup(wl, seed, model, prompts)


def run_round(setup: Setup, tracer: spans.Tracer | None = None) -> list[CellRun]:
    """Every cell of the workload once, in order."""
    wl = setup.wl
    run = engine.run if tracer is None else tracer.wrap(engine.run, spans.RUN)
    out: list[CellRun] = []
    caps: dict[int, object] = {}
    for cell in wls.cells(wl):
        result = CellRun(cell)
        out.append(result)
        prompt = setup.prompts[cell.prompt_index]
        clock = StepClock()
        try:
            config = wls.decode_config(wl, cell, setup.seed, caps.get(cell.prompt_index))
            if tracer is not None:
                tracer.prompt_len = len(prompt)
            started = perf_counter()
            record = run(setup.model, prompt, config, on_step=clock.on_step, on_probe=clock.on_probe)
            result.wall_s = perf_counter() - started
        except Exception as exc:  # a failing cell is counted, not fatal
            result.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            continue
        result.tokens = len(record.generated_ids)
        result.avg_kv = record.avg_kv
        result.gaps, result.probe_gaps = clock.gaps, clock.probe_gaps
        result.digest = wls.record_digest(record)
        if wl.ratio is not None and cell.policy == FULL:
            caps[cell.prompt_index] = wls.ratio_budget(record)
    return out


def check_round(setup: Setup, reference) -> dict[str, tuple[str | None, list[str]]]:
    """Checked run of every cell: cell key -> (record digest, failures)."""
    wl = setup.wl
    caps: dict[int, object] = {}
    out = {}
    for cell in wls.cells(wl):
        prompt = setup.prompts[cell.prompt_index]
        try:
            config = wls.decode_config(wl, cell, setup.seed, caps.get(cell.prompt_index))
            obs = checks.observe(setup.model, wl, cell, prompt, config)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            out[cell.key] = (None, [f"checked run raised {type(exc).__name__}: {exc}"])
            continue
        if wl.ratio is not None and cell.policy == FULL:
            caps[cell.prompt_index] = wls.ratio_budget(obs.record)
        out[cell.key] = (wls.record_digest(obs.record), checks.check_cell(setup.model, obs, reference))
    return out


def tally(runs: list[CellRun], checked: dict) -> tuple[int, int, bool, list[str]]:
    """attempted, failed, correct, messages. A cell fails if it raised, its
    checked run failed a check, or its record differs from the checked run's."""
    failed, correct, messages = 0, True, []
    for key, (_digest, failures) in checked.items():
        messages += [f"{key}: {msg}" for msg in failures]
        if failures:
            correct = False
    for run in runs:
        digest, failures = checked.get(run.cell.key, (None, ["no checked run"]))
        if run.error is not None:
            failed += 1
            messages.append(f"{run.cell.key}: timed run raised {run.error}")
        elif failures or run.digest != digest:
            failed += 1
            correct = False
            if not failures:
                messages.append(f"{run.cell.key}: timed record differs from the checked run")
    return len(runs), failed, correct, messages


def timing_figures(runs: list[CellRun]) -> dict[str, float]:
    ok = [r for r in runs if r.error is None]
    gaps = [g for r in ok for g in r.gaps]
    probe_gaps = [g for r in ok for g in r.probe_gaps]
    wall = sum(r.wall_s for r in ok)
    return {
        "tokens_per_s": sum(r.tokens for r in ok) / wall if wall else 0.0,
        "token_gap_p50_ms": statistics.median(gaps) * 1e3 if gaps else 0.0,
        "token_gap_p99_ms": float(np.percentile(gaps, 99)) * 1e3 if gaps else 0.0,
        "token_gaps": len(gaps),
        "probe_step_p50_ms": statistics.median(probe_gaps) * 1e3 if probe_gaps else 0.0,
        "probe_steps": len(probe_gaps),
    }


def _result(runs, checked, metrics: dict, problems: tuple[str, ...] = ()) -> dict:
    attempted, failed, correct, messages = tally(runs, checked)
    messages += problems
    correct = correct and not problems
    for msg in messages:
        print(f"FAIL {msg}")
    print(f"cells attempted {attempted}, failed {failed}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, out_dir: Path, reference) -> dict:
    wl = wls.WORKLOADS[name]
    durations = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        setup = set_up(wl, seed)
        durations.append(perf_counter() - started)
    setup_s = import_s + statistics.median(durations)
    print(f"workload {name} seed {seed}: imports {import_s:.3f} s, "
          f"set-up repeats {', '.join(f'{d:.3f}' for d in durations)} s")
    if trace:
        return _traced(setup, seconds, out_dir, reference)

    runs: list[CellRun] = []
    started = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - started < seconds:
        runs += run_round(setup)
        rounds += 1
    timed_s = perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = check_round(setup, reference)
    _write_digests(out_dir / f"digests_{name}_seed{seed}.json", checked)

    figures = timing_figures(runs)
    kv = [r.avg_kv for r in runs[: len(wls.cells(wl))] if r.error is None]
    for cell in wls.cells(wl):
        per_token = [r.wall_s / r.tokens * 1e3 for r in runs
                     if r.cell == cell and r.error is None and r.tokens]
        if per_token:
            print(f"  {cell.key:<14} {statistics.median(per_token):8.3f} ms/token (median of {len(per_token)})")
    print(f"{rounds} rounds in {timed_s:.1f} s; "
          f"token gap p99 {figures['token_gap_p99_ms']:.3f} ms over {figures['token_gaps']} gaps; "
          f"probe step p50 over {figures['probe_steps']} rounds")
    values = {
        "setup_s": setup_s,
        "tokens_per_s": figures["tokens_per_s"],
        "token_gap_p50_ms": figures["token_gap_p50_ms"],
        "probe_step_p50_ms": figures["probe_step_p50_ms"],
        "peak_rss_mb": peak_rss_mb,
        "kv_slots_avg": sum(kv) / len(kv) if kv else 0.0,
    }
    metrics = {n: {"value": values[n], "unit": unit} for n, unit in END_TO_END}
    return _result(runs, checked, metrics)


def _traced(setup: Setup, seconds: float, out_dir: Path, reference) -> dict:
    """Alternate untraced and traced rounds; per-layer numbers from the traced ones."""
    wl = setup.wl
    tracer = spans.Tracer()
    plain: list[CellRun] = []
    traced: list[CellRun] = []
    traced_rounds = 0
    started = perf_counter()
    while traced_rounds == 0 or perf_counter() - started < seconds:
        plain += run_round(setup)
        with tracer.installed():
            traced += run_round(setup, tracer)
        traced_rounds += 1
    checked = check_round(setup, reference)
    _write_digests(out_dir / f"digests_{wl.name}_seed{setup.seed}.json", checked)
    tracer.write(out_dir / f"spans_{wl.name}_seed{setup.seed}.json")

    totals = tracer.totals()
    ok = [r for r in traced if r.error is None]
    tokens = sum(r.tokens for r in ok)
    metrics = spans.per_layer_metrics(totals, tokens, len(ok), traced_rounds)
    wall = sum(r.wall_s for r in ok)
    self_sum = sum(t["self_s"] for t in totals.values())
    base_tps = timing_figures(plain)["tokens_per_s"]
    traced_tps = tokens / wall if wall else 0.0
    print(f"traced rounds {traced_rounds}; spans {len(tracer.spans)}; "
          f"unplaced hooks: {', '.join(tracer.unplaced) or 'none'}")
    print(f"self times sum {self_sum:.6f} s against engine.run wall {wall:.6f} s "
          f"(ratio {self_sum / wall if wall else 0.0:.6f})")
    print(f"tokens_per_s untraced {base_tps:.2f}, traced {traced_tps:.2f}, "
          f"tracing overhead {(1 - traced_tps / base_tps) * 100 if base_tps else 0.0:.1f}%")
    print(f"{'span':<28}{'calls':>10}{'total ms':>12}{'self ms':>12}")
    for name in sorted(totals):
        t = totals[name]
        print(f"{name:<28}{t['calls']:>10}{t['total_s'] * 1e3:>12.1f}{t['self_s'] * 1e3:>12.1f}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>12.4f} {m['unit']}")
    problems = ()
    if abs(self_sum - wall) > SELF_TIME_TOLERANCE * wall:
        problems = (f"self times sum to {self_sum:.6f} s, engine.run wall is {wall:.6f} s",)
    return _result(plain + traced, checked, metrics, problems)


def _write_digests(path: Path, checked: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({key: digest for key, (digest, _f) in checked.items()},
                               indent=1, sort_keys=True) + "\n", encoding="utf-8")
