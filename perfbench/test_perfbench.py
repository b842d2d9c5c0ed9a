"""The benchmark's own tests: its checks catch planted faults, and the names
it prints match BENCHMARK.json.

Run with `PYTHONPATH=src python -m pytest -q perfbench`. The workloads are
shrunk to a few dozen tokens so the suite takes seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import run as entry  # noqa: E402
import spans  # noqa: E402
import workloads as wls  # noqa: E402

REFERENCE = checks.load_reference(ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small(name: str) -> wls.Workload:
    return dataclasses.replace(wls.WORKLOADS[name], prompts=1, prompt_tokens=16,
                               max_new=24, interval=8, k=4 if wls.WORKLOADS[name].k else None)


@pytest.fixture
def shrunk(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    for name in wls.WORKLOADS:
        monkeypatch.setitem(wls.WORKLOADS, name, small(name))


def observations(name: str) -> dict[str, checks.Observation]:
    wl = small(name)
    model = wls.make_model(wl)
    (prompt,) = wls.make_prompts(wl, 3, model)
    out, cap = {}, None
    for cell in wls.cells(wl):
        obs = checks.observe(model, wl, cell, prompt, wls.decode_config(wl, cell, 3, cap))
        if cell.policy == wls.FULL and wl.ratio is not None:
            cap = wls.ratio_budget(obs.record)
        out[cell.policy] = obs
    return out


@pytest.fixture(scope="module")
def periodic():
    return observations("probe-dense")


@pytest.fixture(scope="module")
def capped():
    return observations("ratio-cap")


@pytest.fixture(scope="module")
def model():
    return wls.make_model(small("ratio-cap"))


def test_unmodified_cells_pass_every_check(periodic, capped, model):
    for obs in list(periodic.values()) + list(capped.values()):
        assert checks.check_cell(model, obs, REFERENCE) == [], obs.cell.key
    assert all(obs.rounds for obs in periodic.values())
    assert any(max(row.nonprompt) == capped["random"].max_slots for row in capped["random"].steps)


@pytest.mark.parametrize("policy", ["ours", "random", "h2o", "streaming"])
def test_dropped_eviction_is_caught(periodic, policy):
    obs = copy.deepcopy(periodic[policy])
    record = next(r.record for r in obs.rounds if r.record.evicted_total)
    layer, heads = record.evicted[0]
    heads[0] = heads[0][1:]
    assert checks.check_rounds(obs, REFERENCE)


def test_cap_exceeded_by_one_slot_is_caught(capped):
    obs = copy.deepcopy(capped["h2o"])
    assert checks.check_cap(obs) == []
    index = next(i for i, row in enumerate(obs.steps) if max(row.nonprompt) == obs.max_slots)
    row = obs.steps[index]
    obs.steps[index] = dataclasses.replace(row, nonprompt=(row.nonprompt[0] + 1,) + row.nonprompt[1:])
    assert checks.check_cap(obs)


def test_changed_token_is_caught(capped, model):
    obs = copy.deepcopy(capped["full"])
    ids = obs.record.generated_ids
    ids[5] = (ids[5] + 1) % model.config.vocab_size
    assert checks.check_reference(model, obs)


def test_attention_to_an_evicted_key_is_caught(periodic, model):
    obs = copy.deepcopy(periodic["ours"])
    assert checks.check_reference(model, obs) == []
    r = next(r for r in obs.rounds if r.record.evicted_total)
    (layer, head), gone = next((key, r.pre[key] - r.post[key]) for key in r.pre if r.pre[key] - r.post[key])
    row = len(obs.prompt) + r.step + 1
    obs.masks[layer, head, row, min(gone)] = True
    assert checks.check_reference(model, obs)


def test_wrong_probe_schedule_is_caught(periodic):
    obs = copy.deepcopy(periodic["ours"])
    obs.interval += 1
    assert checks.check_schedule(obs)


def test_workload_names_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(wls.WORKLOADS) == list(entry.WORKLOAD_NAMES)
    assert [w["why"] for w in SPEC["workloads"]] == [wl.why for wl in wls.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [row[:2] for row in spans.PER_LAYER]


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(shrunk, tmp_path, trace):
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for name in wls.WORKLOADS:
        result = harness.run_workload(name, 5, 0.0, trace, 0.01, tmp_path, REFERENCE)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(wls.cells(wls.WORKLOADS[name])) * (2 if trace else 1)
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in section
        }
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spans_classify_every_forward(shrunk):
    wl = wls.WORKLOADS["probe-dense"]
    setup = harness.set_up(wl, 2)
    tracer = spans.Tracer()
    with tracer.installed():
        runs = harness.run_round(setup, tracer)
    assert tracer.unplaced == []
    totals = tracer.totals()
    rounds = sum(len(r.probe_gaps) for r in runs)
    assert totals["engine.probe_cycle"]["calls"] == rounds
    assert totals["model.prefill_forward"]["calls"] == sum(len(p) for p in setup.prompts) * len(wl.policies)
    assert totals["model.decode_forward"]["calls"] == sum(r.tokens for r in runs)
    assert totals["model.probe_forward"]["calls"] == 25 * rounds
    assert totals["model.requery_forward"]["calls"] == totals["engine.requery_logits"]["calls"]


def test_missing_hook_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(spans.engine, "plan_oldest")
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.unplaced == ["engine.plan_oldest"]
