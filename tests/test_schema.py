"""Every loader on mutated valid documents: a mutant loads, or raises
InputFormatError naming the bad field, and no load allocates much past
what its valid document's load allocates."""

from __future__ import annotations

import copy
import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thinkprune.cache import CacheBudget
from thinkprune.engine import DecodeConfig, RunRecord, run
from thinkprune.errors import InputFormatError
from thinkprune.model import TinyModelConfig
from thinkprune.policy import EvictionBudget, PolicyKind
from thinkprune.scoring import ScoreTensor, default_probe, dump_from_dict, scores_from_dict, scores_to_dict
from thinkprune.trace import markers_from_dict, trace_from_dict

# type swaps, bools, null, non-finite and negative numbers, and indices past
# any dimension (2**62 is an integer no array can be sized by)
MUTANTS = (True, False, None, "x", "", 1.5, -0.5, float("nan"), float("inf"), -1, 0, 1, 7,
           10**6, 2**62, 2**63, [], {}, [0], {"x": 0})
PROMPT = "Solve: two plus two. First add, then check the sum."
MODEL = TinyModelConfig(num_layers=2, num_heads=2, model_dim=32, head_dim=16)


def _record(**kw) -> dict:
    config = DecodeConfig(max_new_tokens=14, probe=default_probe(interval_p=4), greedy=False,
                          policy=PolicyKind.HIERARCHICAL, **kw)
    return run(MODEL, PROMPT, config).to_dict()


FORMATS = {
    "trace": (trace_from_dict, {"prompt_len": 2, "tokens": [
        {"id": 10 + i, "text": text} for i, text in enumerate(["Q", ":", " So", " x", " Wait"])]}),
    "markers": (markers_from_dict, ["Wait", "So"]),
    "dump": (dump_from_dict, {"layers": 2, "heads": 1, "probe_position": 2,
                              "rows": [[[0.25, 0.25, 0.5]], [[0.5, 0.0, 0.5]]]}),
    # scores of a 6-token trace
    "scores": (lambda data: scores_from_dict(data, 6), scores_to_dict(
        ScoreTensor(2, 2, {(0, 0): {2: 0.5, 4: 0.25}, (1, 1): {3: 1.0}}))),
    "periodic record": (RunRecord.from_dict, _record(budget=EvictionBudget(2), keep_dumps=True)),
    "capped record": (RunRecord.from_dict, _record(budget=CacheBudget(max_slots=14))),
}


def _locations(value, path=()):
    """The path of value and of everything inside it."""
    yield path
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, item in items:
        yield from _locations(item, path + (key,))


@st.composite
def mutants(draw, document):
    """document after one to three edits: a value swapped, or an entry repeated,
    dropped or added."""
    box = [copy.deepcopy(document)]
    for _ in range(draw(st.integers(1, 3))):
        *parent, key = draw(st.sampled_from(list(_locations(box))[1:]))
        container = box
        for step in parent:
            container = container[step]
        edit = draw(st.sampled_from(["swap", "swap", "repeat", "drop", "add"]))
        if edit == "swap" or not parent:
            container[key] = draw(st.sampled_from(MUTANTS))
        elif edit == "repeat" and type(container) is list:
            container.insert(key, copy.deepcopy(container[key]))
        elif edit == "drop":
            del container[key]
        elif type(container) is list:
            container.append(draw(st.sampled_from(MUTANTS)))
        else:
            container["extra"] = draw(st.sampled_from(MUTANTS))
    return box[0]


def _peak(load, document) -> int:
    """Bytes traced at load's peak."""
    tracemalloc.start()
    try:
        load(document)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("name", FORMATS)
def test_mutated_documents_load_or_name_the_bad_field(name):
    load, valid = FORMATS[name]
    limit = 2 * _peak(load, valid) + 65536

    @settings(derandomize=True, deadline=None, max_examples=120 if "record" in name else 60,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(mutants(valid))
    def check(document):
        try:
            peak = _peak(load, document)
        except InputFormatError as exc:
            assert re.search(r' (field "[^"]+"|document) ', str(exc)), exc
        else:
            assert peak <= limit

    check()
