"""tools/behaviour_matrix.py: compare on hand-made cells, and the recorded
matrix against the committed digests of its exact fields."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from thinkprune.engine import RunRecord

_PATH = Path(__file__).resolve().parent.parent / "tools" / "behaviour_matrix.py"
_spec = importlib.util.spec_from_file_location("behaviour_matrix", _PATH)
behaviour_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(behaviour_matrix)
DIGESTS = Path(__file__).resolve().parent / "behaviour_digests.json"


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict]:
    return behaviour_matrix.record_matrix()


def test_recorded_matrix_matches_the_committed_digests(recorded):
    expected = json.loads(DIGESTS.read_text())
    got = behaviour_matrix.digests(recorded)
    changed = sorted(name for name in expected.keys() | got.keys()
                     if expected.get(name) != got.get(name))
    assert not changed, (
        f"{len(changed)} of {len(expected)} cells differ from {DIGESTS.name} "
        f"(record the parent and compare to see the fields): {changed}")


def test_every_run_cell_loads_and_renders_byte_identically(recorded):
    runs = {name: cell for name, cell in recorded.items() if "probe_records" in cell}
    assert len(runs) == 280
    for name, cell in runs.items():
        text = json.dumps(cell, sort_keys=True)
        again = RunRecord.from_dict(json.loads(text)).to_dict()
        assert json.dumps(again, sort_keys=True) == text, name


def cells() -> dict[str, dict]:
    probe_round = {
        "round_index": 0,
        "evicted": [[0, [[3, 5], [4, 6]]]],
        "plan_sizes": [[0, [2, 2]]],
        "scores": [[0, 0, [[3, 0.25], [5, 0.5]]], [0, 1, [[4, 0.125], [6, 0.75]]]],
        "step_scores": [[0, [[0, 0.375]]]],
    }
    return {
        "ours-k3": {"generated_ids": [7, 8, 9], "probe_records": [probe_round]},
        "ours-k3/plan-ours-from-scores": {"exit_code": 0, "stdout": "{}\n", "stderr": ""},
    }


def test_identical_recordings_pass():
    mismatches, worst, identical = behaviour_matrix.compare(cells(), cells())
    assert (mismatches, worst, identical) == ([], 0.0, 2)


def test_changed_evicted_list_is_an_exact_field_mismatch():
    change = cells()
    change["ours-k3"]["probe_records"][0]["evicted"] = [[0, [[3, 5], [4, 7]]]]
    mismatches, worst, identical = behaviour_matrix.compare(cells(), change)
    assert mismatches == ["ours-k3: round 0 evicted"]
    assert worst == 0.0 and identical == 1


def test_changed_plan_output_is_a_mismatch():
    change = cells()
    change["ours-k3/plan-ours-from-scores"]["exit_code"] = 3
    mismatches, _worst, _identical = behaviour_matrix.compare(cells(), change)
    assert mismatches == ["ours-k3/plan-ours-from-scores: exit_code"]


def test_missing_cell_is_reported():
    change = cells()
    del change["ours-k3/plan-ours-from-scores"]
    mismatches, _worst, identical = behaviour_matrix.compare(cells(), change)
    assert mismatches == ["ours-k3/plan-ours-from-scores: missing from one side"]
    assert identical == 1


@pytest.mark.parametrize("delta, within", [(1e-13, True), (1e-11, False)])
def test_score_differences_against_the_tolerance(tmp_path, delta, within):
    change = cells()
    change["ours-k3"]["probe_records"][0]["scores"][1][2][0][1] += delta
    mismatches, worst, identical = behaviour_matrix.compare(cells(), change)
    assert mismatches == [] and identical == 1
    assert worst == pytest.approx(delta, rel=1e-3)
    parent, changed = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(cells()))
    changed.write_text(json.dumps(change))
    assert behaviour_matrix.main(["compare", str(parent), str(changed)]) == (0 if within else 1)
