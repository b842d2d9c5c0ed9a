"""CLI subcommands: formats, exit codes, round trips, determinism."""

from __future__ import annotations

import json
import re

import pytest

from conftest import make_trace

from thinkprune import cli
from thinkprune.cli import EXIT_INPUT, EXIT_OK, EXIT_RUNTIME, main
from thinkprune.engine import DecodeConfig, run
from thinkprune.errors import ProbeLeak
from thinkprune.model import TinyModelConfig
from thinkprune.policy import EvictionBudget, PolicyKind
from thinkprune.scoring import default_probe
from thinkprune.trace import trace_to_dict

THREE_MARKER_TEXTS = ["Q:"] + ["First", ",", " add", " 2", ".", " Wait", ",", " recheck",
                               ".", " So", " the", " answer", " is", " 4", "."]


@pytest.fixture
def trace_file(tmp_path):
    trace = make_trace(THREE_MARKER_TEXTS, 1)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace_to_dict(trace)), encoding="utf-8")
    return path


def write_uniform_dump(tmp_path, trace_len, layers=1, heads=2, extra=1):
    total = trace_len + extra
    row = [1.0 / total] * total
    dump = {
        "layers": layers,
        "heads": heads,
        "probe_position": total - 1,
        "rows": [[list(row) for _ in range(heads)] for _ in range(layers)],
    }
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump), encoding="utf-8")
    return path


class TestSegmentCommand:
    def test_three_marker_trace(self, trace_file, capsys):
        assert main(["segment", "--trace", str(trace_file)]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert [s["marker"] for s in data["steps"]] == ["First", "Wait", "So"]
        assert [s["start"] for s in data["steps"]] == [1, 6, 10]

    def test_empty_reasoning_region_exits_2(self, tmp_path, capsys):
        trace = make_trace(["just", " prompt"], 2)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace_to_dict(trace)), encoding="utf-8")
        assert main(["segment", "--trace", str(path)]) == EXIT_INPUT
        assert "EmptyReasoningRegion" in capsys.readouterr().err

    def test_custom_marker_file_overrides_defaults(self, trace_file, tmp_path, capsys):
        markers = tmp_path / "markers.json"
        markers.write_text(json.dumps(["recheck"]), encoding="utf-8")
        assert main(["segment", "--trace", str(trace_file), "--markers", str(markers)]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert [s["marker"] for s in data["steps"]] == [None, "recheck"]

    def test_malformed_trace_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"prompt_len": -1, "tokens": []}), encoding="utf-8")
        assert main(["segment", "--trace", str(path)]) == EXIT_INPUT
        assert "prompt_len" in capsys.readouterr().err

    def test_out_dir_writes_file(self, trace_file, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["segment", "--trace", str(trace_file), "--out", str(out)]) == EXIT_OK
        assert (out / "segmentation.json").exists()


class TestScoreCommand:
    def test_uniform_dump_gives_equal_step_scores(self, trace_file, tmp_path, capsys):
        dump = write_uniform_dump(tmp_path, trace_len=len(THREE_MARKER_TEXTS))
        out = tmp_path / "scored"
        assert main(["score", "--trace", str(trace_file), "--dump", str(dump),
                     "--out", str(out)]) == EXIT_OK
        scores = json.loads((out / "scores.json").read_text())
        values = {s for head in scores["scores"][0] for _t, s in head}
        assert len(values) == 1
        table = capsys.readouterr().out
        assert "layer 0" in table
        # equal scores per step within 1e-9: all three steps share one value
        step_values = [float(line.split()[-1]) for line in table.splitlines()
                       if line.strip().startswith(("0 ", "1 ", "2 "))]
        assert max(step_values) - min(step_values) < 1e-9

    def test_truncated_dump_exits_2(self, trace_file, tmp_path, capsys):
        dump = write_uniform_dump(tmp_path, trace_len=4)  # shorter than the trace
        assert main(["score", "--trace", str(trace_file), "--dump", str(dump)]) == EXIT_INPUT
        assert "rows" in capsys.readouterr().err

    def test_ragged_dump_exits_2(self, trace_file, tmp_path, capsys):
        n = len(THREE_MARKER_TEXTS) + 1
        dump = {
            "layers": 1, "heads": 2, "probe_position": n - 1,
            "rows": [[[1.0 / n] * n, [1.0 / (n - 1)] * (n - 1)]],
        }
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(dump), encoding="utf-8")
        assert main(["score", "--trace", str(trace_file), "--dump", str(path)]) == EXIT_INPUT

    def test_head_count_mismatch_exits_2(self, trace_file, tmp_path):
        n = len(THREE_MARKER_TEXTS) + 1
        dump = {
            "layers": 2, "heads": 1, "probe_position": n - 1,
            "rows": [[[1.0 / n] * n]],  # one layer entry, header says two
        }
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(dump), encoding="utf-8")
        assert main(["score", "--trace", str(trace_file), "--dump", str(path)]) == EXIT_INPUT


class TestScoreBounds:
    def test_answer_region_after_think_end_is_not_scored(self, tmp_path, capsys):
        texts = ["Q:", "So", " a", "</think>", " four", "."]
        trace = make_trace(texts, 1)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace_to_dict(trace)), encoding="utf-8")
        dump = write_uniform_dump(tmp_path, trace_len=len(texts))
        out = tmp_path / "scored"
        assert main(["score", "--trace", str(path), "--dump", str(dump),
                     "--out", str(out)]) == EXIT_OK
        scores = json.loads((out / "scores.json").read_text())
        scored_tokens = {t for head in scores["scores"][0] for t, _s in head}
        assert scored_tokens == {1, 2}  # reasoning only, nothing at or past </think>


class TestEnvironmentOutDir:
    def test_env_var_supplies_default_out_dir(self, trace_file, tmp_path, monkeypatch, capsys):
        target = tmp_path / "from_env"
        monkeypatch.setenv("THINKPRUNE_OUT", str(target))
        assert main(["segment", "--trace", str(trace_file)]) == EXIT_OK
        assert (target / "segmentation.json").exists()


class TestPlanCommand:
    def test_ours_plan_with_allocation(self, trace_file, tmp_path, capsys):
        dump = write_uniform_dump(tmp_path, trace_len=len(THREE_MARKER_TEXTS))
        assert main(["plan", "--trace", str(trace_file), "--dump", str(dump),
                     "--policy", "ours", "--budget", "3"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["allocation"] is not None
        sizes = {len(head) for head in data["layers"][0]["heads"]}
        assert sizes == {3}

    def test_random_plan_reproducible(self, trace_file, capsys):
        args = ["plan", "--trace", str(trace_file), "--policy", "random",
                "--budget", "4", "--seed", "9", "--layers", "2", "--heads", "2"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_streaming_plan_of_middle(self, trace_file, capsys):
        # streaming keeps the prompt and drains the k oldest reasoning
        # tokens, the same rule as run's probe rounds
        assert main(["plan", "--trace", str(trace_file), "--policy", "streaming",
                     "--budget", "4", "--layers", "2", "--heads", "2"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["allocation"] is None
        assert [layer["heads"] for layer in data["layers"]] == [[[1, 2, 3, 4]] * 2] * 2

    def test_ours_from_scores_with_unequal_heads_exits_2(self, trace_file, tmp_path, capsys):
        # After random or h2o rounds the heads of a layer hold different live
        # tokens; here head 1 scores 1 token of step 0 ([1, 6)), head 0 all 5.
        reasoning = range(1, len(THREE_MARKER_TEXTS))
        head0 = [[t, 0.01 if t < 6 else 0.5] for t in reasoning]
        head1 = [[t, s] for t, s in head0 if t == 1 or t >= 6]
        path = tmp_path / "scores.json"
        path.write_text(json.dumps({"layers": 1, "heads": 2, "scores": [[head0, head1]]}),
                        encoding="utf-8")
        assert main(["plan", "--trace", str(trace_file), "--scores", str(path),
                     "--policy", "ours", "--budget", "3"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "InputFormatError" in err
        assert "layer 0 step 0: heads score [5, 1] tokens" in err

    @pytest.mark.parametrize("pairs, message", [
        ([[2.7, 0.5]], '[0][0]" must be an integer >= 0, got 2.7'),
        ([[True, 0.5]], '[0][0]" must be an integer >= 0, got true'),
        ([["5", 0.5]], '[0][0]" must be an integer >= 0, got "5"'),
        ([[4, 0.5], [4, 0.25]], '[1]" repeats entry [0]'),
        ([[4, True]], '[0][1]" must be a finite number >= 0, got true'),
        ([[4, "0.5"]], '[0][1]" must be a finite number >= 0, got "0.5"'),
        ([[4, 0.5, 1]], '[0]" must be a list of 2, got [4, 0.5, 1]'),
        ([[16, 0.5]], '[0][0]" must be below 16 (tokens), got 16'),
        ([[10**7, 0.5]], '[0][0]" must be below 16 (tokens), got 10000000'),
    ], ids=["pairs0-has token 2.7, not an integer", "pairs1-has token True, not an integer",
            "pairs2-has token '5', not an integer", "pairs3-lists token 4 twice",
            "pairs4-has score True, not a number", "pairs5-has score '0.5', not a number",
            "pairs6-has [4, 0.5, 1], not a [token, score] pair",
            "pairs7-has token 16, the trace's length", "pairs8-has token 10**7, past the trace"])
    def test_malformed_score_pair_exits_2(self, trace_file, tmp_path, capsys, pairs, message):
        # each pair is taken as written: nothing is coerced and no token is overwritten, and
        # every token lies inside the 16-token trace
        path = tmp_path / "scores.json"
        path.write_text(json.dumps({"layers": 1, "heads": 2, "scores": [[[[1, 0.5]], pairs]]}),
                        encoding="utf-8")
        assert main(["plan", "--trace", str(trace_file), "--scores", str(path),
                     "--policy", "h2o", "--budget", "1"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "InputFormatError" in err
        assert f'"scores[0][1]{message}' in err

    def test_ours_without_scores_exits_2(self, trace_file, capsys):
        assert main(["plan", "--trace", str(trace_file), "--policy", "ours",
                     "--budget", "2"]) == EXIT_INPUT
        assert "--scores or --dump" in capsys.readouterr().err

    def test_answer_region_never_planned(self, tmp_path, capsys):
        texts = ["Q:", "So", " a", " b", "</think>", " four", "."]
        trace = make_trace(texts, 1)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace_to_dict(trace)), encoding="utf-8")
        assert main(["plan", "--trace", str(path), "--policy", "random",
                     "--budget", "10", "--seed", "3"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert set(data["layers"][0]["heads"][0]) == {1, 2, 3}


class TestRunCommand:
    def test_sweep_full_vs_ours(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["run", "--policy", "full,ours", "--budget", "8",
                     "--interval", "8", "--max-new", "48", "--out", str(out)]) == EXIT_OK
        report = (out / "report.csv").read_text().splitlines()
        assert report[0].startswith("policy,budget,avg_kv")
        rows = {line.split(",")[0]: line.split(",") for line in report[1:]}
        assert set(rows) == {"full", "ours"}
        assert float(rows["ours"][2]) < float(rows["full"][2])
        assert (out / "run_full.json").exists()
        assert (out / "run_ours.json").exists()
        assert (out / "timings.csv").exists()

    def test_repeat_invocation_identical_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["run", "--policy", "ours", "--budget", "4", "--interval", "8",
                "--max-new", "32"]
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        assert (out_a / "run_ours.json").read_bytes() == (out_b / "run_ours.json").read_bytes()

    def test_ratio_run_respects_cap(self, tmp_path):
        out = tmp_path / "ratio"
        assert main(["run", "--policy", "full,ours", "--ratio", "0.5",
                     "--interval", "8", "--max-new", "48", "--out", str(out)]) == EXIT_OK
        full = json.loads((out / "run_full.json").read_text())
        ours = json.loads((out / "run_ours.json").read_text())
        nonprompt = [row[3] for row in full["occupancy"]]
        cap = max(1, int(0.5 * (sum(nonprompt) / len(nonprompt))))
        assert ours["budget"]["max_slots"] == cap
        assert all(row[3] <= cap for row in ours["occupancy"])
        prompt_len = ours["prompt_len"]
        assert ours["peak_kv"] - prompt_len <= cap

    def test_recent_with_ratio_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["run", "--policy", "ours", "--ratio", "0.5", "--recent", "6",
                     "--max-new", "8", "--out", str(out)]) == EXIT_INPUT
        assert "--recent" in capsys.readouterr().err
        assert not (out / "run_full.json").exists()

    @pytest.mark.parametrize("temperature", ["nan", "inf"])
    def test_non_finite_temperature_exits_2_before_any_cell(self, tmp_path, capsys, temperature):
        out = tmp_path / "x"
        assert main(["run", "--policy", "full,ours", "--budget", "2", "--sample",
                     "--temperature", temperature, "--max-new", "8", "--out", str(out)]) == EXIT_INPUT
        assert "temperature must be finite" in capsys.readouterr().err
        assert not (out / "run_full.json").exists()

    def test_pruning_without_budget_exits_2(self, tmp_path, capsys):
        assert main(["run", "--policy", "ours", "--out", str(tmp_path / "x")]) == EXIT_INPUT

    def test_engine_failure_exits_3_with_partial_results(self, tmp_path, capsys, monkeypatch):
        # the ours cell fails mid-run; the full cell still reports
        def run_or_leak(config, prompt, decode):
            if decode.policy is PolicyKind.HIERARCHICAL:
                raise ProbeLeak("probe token left in the cache")
            return run(config, prompt, decode)

        monkeypatch.setattr(cli, "run", run_or_leak)
        out = tmp_path / "fail"
        code = main(["run", "--policy", "full,ours", "--budget", "2", "--interval", "4",
                     "--max-new", "12", "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert "ProbeLeak" in capsys.readouterr().err
        assert (out / "report.csv").exists()
        assert (out / "run_full.json").exists() and not (out / "run_ours.json").exists()

    def test_prompt_longer_than_max_seq_exits_2(self, tmp_path, capsys):
        # the default 5-token prompt does not fit under max-seq 4, which run
        # refuses before the first forward
        code = main(["run", "--policy", "ours", "--budget", "2", "--interval", "4",
                     "--max-new", "40", "--max-seq", "4", "--out", str(tmp_path / "x")])
        assert code == EXIT_INPUT
        assert "SequenceTooLong" in capsys.readouterr().err


class TestReportCommand:
    def _record_file(self, tmp_path, policy=PolicyKind.HIERARCHICAL, budget=EvictionBudget(4)):
        record = run(
            TinyModelConfig(rng_seed=1),
            "Solve: compute two plus two.",
            DecodeConfig(max_new_tokens=32, probe=default_probe(interval_p=8),
                         policy=policy, budget=budget),
        )
        path = tmp_path / f"run_{record.policy}.json"
        path.write_text(json.dumps(record.to_dict()), encoding="utf-8")
        return path, record

    def test_single_record_report(self, tmp_path, capsys):
        path, record = self._record_file(tmp_path)
        out = tmp_path / "rep"
        assert main(["report", str(path), "--out", str(out)]) == EXIT_OK
        md = (out / "report.md").read_text()
        assert "Policy comparison" in md
        assert "ours" in md
        assert (out / "summary.csv").exists()
        assert (out / "occupancy.csv").exists()

    def test_histogram_bins_sum_to_scored_tokens(self, tmp_path):
        path, record = self._record_file(tmp_path)
        out = tmp_path / "rep"
        assert main(["report", str(path), "--out", str(out)]) == EXIT_OK
        hist_lines = (out / "histograms.csv").read_text().splitlines()[1:]
        binned = sum(int(line.split(",")[-1]) for line in hist_lines)
        scored = sum(
            len(pairs) for probe in record.probe_records
            for _l, _h, pairs in (probe.scores or [])
        )
        assert binned == scored > 0

    def test_multiple_records_comparison(self, tmp_path, capsys):
        a, _ = self._record_file(tmp_path)
        b, _ = self._record_file(tmp_path, policy=PolicyKind.RANDOM)
        out = tmp_path / "rep"
        assert main(["report", str(a), str(b), "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.csv").read_text()
        assert "ours" in summary and "random" in summary

    def test_empty_input_exits_2(self, capsys):
        assert main(["report"]) == EXIT_INPUT

    @pytest.mark.parametrize("document, message", [
        ({}, '"model" is missing'),
        ([1, 2], "document must be an object"),
        (lambda data: data["final_stats"].update(avg_kv=None),
         '"final_stats.avg_kv" must be a finite number >= 0, got null'),
        (lambda data: data.update(generated_ids="abc"), '"generated_ids" must be a list'),
        (lambda data: data["probe_records"][0]["evicted"][0].__setitem__(0, 7),
         r'"probe_records\[0\].evicted\[0\]\[0\]" must be layer 0, got 7'),
    ], ids=["empty-object", "list", "null-avg-kv", "string-ids", "evicted-layer-7"])
    def test_malformed_record_exits_2_naming_the_file(self, tmp_path, capsys, document, message):
        # a valid record edited in one field: each used to exit 0, or fail with a traceback
        if callable(document):
            path, _record = self._record_file(tmp_path)
            data = json.loads(path.read_text())
            document(data)
            document = data
        path = tmp_path / "bad_record.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["report", str(path), "--out", str(tmp_path / "rep")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "InputFormatError" in err and str(path) in err
        assert re.search(message, err)

    def test_record_with_retired_digest_field_still_loads(self, tmp_path):
        path, _record = self._record_file(tmp_path)
        data = json.loads(path.read_text())
        for probe in data["probe_records"]:
            probe["scores_digest"] = "0" * 64
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["report", str(path), "--out", str(tmp_path / "rep")]) == EXIT_OK

    def test_record_with_malformed_score_pair_exits_2(self, tmp_path, capsys):
        path, _record = self._record_file(tmp_path)
        data = json.loads(path.read_text())
        probe = next(p for p in data["probe_records"] if p["scores"])
        probe["scores"][0][2] = [["token", 0.5]]
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["report", str(path), "--out", str(tmp_path / "rep")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "InputFormatError" in err and str(path) in err

    @pytest.mark.parametrize("entry, message", [
        (None, r'scores\[4\]" repeats entry \[0\]'),
        ([0, 0, [[2, 0.5], [2, 0.25]]], r'scores\[0\]\[2\]\[1\]" repeats entry \[0\]'),
        ([0, 0, [[True, 0.5]]], r'scores\[0\]\[2\]\[0\]\[0\]" must be an integer >= 0, got true'),
        ([0, 0, [[1.9, 0.5]]], r'scores\[0\]\[2\]\[0\]\[0\]" must be an integer >= 0, got 1.9'),
        ([True, 0, []], r'scores\[0\]\[0\]" must be an integer >= 0, got true'),
        ([0, True, []], r'scores\[0\]\[1\]" must be an integer >= 0, got true'),
        ([0, 1000000, []], r'scores\[0\]\[1\]" must be below 2 \(heads\), got 1000000'),
        ([0, 0, [[13, 0.5]]],
         r'scores\[0\]\[2\]\[0\]\[0\]" must be below 13 \(prompt_len \+ reasoning_tokens\)'),
    ], ids=["repeated-head", "repeated-token", "bool-token", "float-token", "bool-layer",
            "bool-head", "huge-head", "token-past-round"])
    def test_record_with_altered_scores_exits_2(self, tmp_path, capsys, entry, message):
        # each used to load: a repeated head or token kept only its last
        # entry, a bool token became token 1 and a bool layer indexed by mask,
        # and a huge head or token sized the score tensor from it. The first
        # scored round has 2 heads over 5 prompt and 8 reasoning tokens.
        path, _record = self._record_file(tmp_path)
        data = json.loads(path.read_text())
        probe = next(p for p in data["probe_records"] if p["scores"])
        assert (probe["round_index"], probe["reasoning_tokens"], data["prompt_len"]) == (0, 8, 5)
        if entry is None:
            probe["scores"].append(probe["scores"][0])
        else:
            probe["scores"][0] = entry
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["report", str(path), "--out", str(tmp_path / "rep")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "InputFormatError" in err and str(path) in err
        assert re.search(message, err)

    def test_occupancy_series_covers_every_step(self, tmp_path):
        path, record = self._record_file(tmp_path)
        out = tmp_path / "rep"
        assert main(["report", str(path), "--out", str(out)]) == EXIT_OK
        rows = (out / "occupancy.csv").read_text().splitlines()[1:]
        assert len(rows) == record.tokens_generated


class TestRoundTripFidelity:
    @pytest.mark.parametrize("policy", [PolicyKind.HIERARCHICAL, PolicyKind.STREAMING],
                             ids=lambda kind: kind.value)
    def test_cli_pipeline_reproduces_engine_round_one(self, tmp_path, policy):
        # Export the first probe round's dump, push it through score + plan,
        # and compare with the engine's own decision for that round.
        record = run(
            TinyModelConfig(rng_seed=1),
            "Solve: compute two plus two.",
            DecodeConfig(max_new_tokens=16, probe=default_probe(interval_p=8),
                         policy=policy, budget=EvictionBudget(3), keep_dumps=True),
        )
        first = record.probe_records[0]
        assert first.dump is not None

        prompt_len = record.prompt_len
        seq_len = prompt_len + first.reasoning_tokens
        from thinkprune.model import token_text, tokenize

        prompt_tokens = tokenize("Solve: compute two plus two.", 64)
        texts = [t for _i, t in prompt_tokens] + [
            token_text(tid) for tid in record.generated_ids[: first.reasoning_tokens]
        ]
        ids = [i for i, _t in prompt_tokens] + list(
            record.generated_ids[: first.reasoning_tokens]
        )
        trace = make_trace(texts, prompt_len, ids=ids)
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(trace_to_dict(trace)), encoding="utf-8")
        dump_path = tmp_path / "dump.json"
        dump_path.write_text(json.dumps(first.dump), encoding="utf-8")

        out = tmp_path / "cli"
        assert main(["score", "--trace", str(trace_path), "--dump", str(dump_path),
                     "--out", str(out)]) == EXIT_OK
        cli_scores = json.loads((out / "scores.json").read_text())
        engine_scores = {(l, h): dict(map(tuple, pairs)) for l, h, pairs in first.scores}
        for layer in range(cli_scores["layers"]):
            for head in range(cli_scores["heads"]):
                got = {t: s for t, s in cli_scores["scores"][layer][head]}
                assert got == engine_scores[(layer, head)]

        assert main(["plan", "--trace", str(trace_path), "--scores",
                     str(out / "scores.json"), "--policy", policy.value, "--budget", "3",
                     "--out", str(out)]) == EXIT_OK
        cli_plan = json.loads((out / "plan.json").read_text())
        engine_evicted = {layer: heads for layer, heads in first.to_dict()["evicted"]}
        assert sum(len(head) for heads in engine_evicted.values() for head in heads) > 0
        for layer, layer_entry in enumerate(cli_plan["layers"]):
            assert layer_entry["heads"] == engine_evicted[layer]
