"""One walker for every input format, and each format's schema.

A schema is a JSON-like literal: a dict is an object with exactly its keys
(one ending in "?" may be absent), a tuple a list of one value per item, a
set one of its strings, and int, float, str and bool an integer in
[0, 2**63), a finite number >= 0, a string and a bool. check names the
first bad field by its path. The walk binds the document's dimensions: a
dim or length names a value the first time and must equal it after, and an
Int lies below the sum of its below terms, once they are bound.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from operator import itemgetter

from .errors import InputFormatError

Int = namedtuple("Int", "lo below dim", defaults=(0, (), ""))
Str = namedtuple("Str", "least")
# unique(entry) keys entries that may not repeat, a scoped list's entries
# bind names of their own, and a layered list holds [layer, item] for each
# of the "layers" in order
List = namedtuple("List", "item length least unique scoped layered",
                  defaults=("", 0, None, False, False))
Opt = namedtuple("Opt", "item")  # item or null
Tagged = namedtuple("Tagged", "tag cases")  # an object whose tag names its case
_LEAVES = {float: ("a finite number >= 0",
                   lambda v: type(v) in (int, float) and 0 <= v <= sys.float_info.max),
           bool: ("true or false", lambda v: type(v) is bool),
           str: ("a string", lambda v: type(v) is str)}


class _Bad(Exception):
    """The (path, problem) of a bad value."""


def _must(path: str, what: str, value: object) -> _Bad:
    return _Bad(path, f"must be {what}, got {json.dumps(value, default=repr)[:40]}")


def check(value: object, schema, document: str, **dims: int) -> dict:
    """Walk value with schema from dims, and return the dims it bound."""
    try:
        _walk(value, schema, dims, "")
    except _Bad as bad:
        path, problem = bad.args
        where = f'field "{path.lstrip(".")}"' if path else "document"
        raise InputFormatError(f"{document} {where} {problem}") from None
    return dims


def load(path, from_dict, *context):
    """from_dict(document, *context) of a UTF-8 JSON file, naming the file in errors."""
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    try:
        return from_dict(document, *context)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def _walk(value, schema, dims: dict, path: str) -> None:
    kind = type(schema)
    if schema is int or kind is Int:
        lo, below, dim = Int() if schema is int else schema
        if type(value) is not int or not lo <= value < 2**63:
            raise _must(path, f"an integer >= {lo}", value)
        bound = 0
        for term in below:  # a name not bound yet sets no limit
            bound += dims.get(term, math.inf) if type(term) is str else term
        if below and value >= bound:
            raise _must(path, f"below {bound} ({' + '.join(map(str, below))})", value)
        if dim and dims.setdefault(dim, value) != value:
            raise _Bad(path, f"must be {dims[dim]} ({dim}), got {value}")
    elif kind is type:
        what, valid = _LEAVES[schema]
        if not valid(value):
            raise _must(path, what, value)
    elif kind is tuple:
        if type(value) is not list or len(value) != len(schema):
            raise _must(path, f"a list of {len(schema)}", value)
        for index, item in enumerate(schema):
            _walk(value[index], item, dims, f"{path}[{index}]")
    elif kind is List:
        if type(value) is not list or len(value) < schema.least:
            raise _must(path, f"a list of at least {schema.least}", value)
        item, length = ((int, schema.item), "layers") if schema.layered else schema[:2]
        if length and dims.setdefault(length, len(value)) != len(value):
            raise _Bad(path, f"must list {dims[length]} ({length}), got {len(value)}")
        seen: dict = {}
        for index, entry in enumerate(value):
            if schema.layered and type(entry) is list and entry and entry[0] != index:
                raise _must(f"{path}[{index}][0]", f"layer {index}", entry[0])
            _walk(entry, item, dict(dims) if schema.scoped else dims, f"{path}[{index}]")
            if schema.unique and seen.setdefault(schema.unique(entry), index) != index:
                raise _Bad(f"{path}[{index}]", f"repeats entry [{seen[schema.unique(entry)]}]")
    elif kind is set or kind is Str:
        if type(value) is not str or (value not in schema if kind is set else not value):
            raise _must(path, f"one of {sorted(schema)}" if kind is set else "a non-empty string",
                        value)
    elif kind is Opt:
        if value is not None:
            _walk(value, schema.item, dims, path)
    elif kind is Tagged:
        case = value.get(schema.tag) if type(value) is dict else None
        if type(case) is not str or case not in schema.cases:
            raise _must(path, f'an object whose "{schema.tag}" is one of {sorted(schema.cases)}',
                        value)
        _walk(value, schema.cases[case], dims, path)
    else:
        if type(value) is not dict:
            raise _must(path, "an object", value)
        fields = {key.rstrip("?"): item for key, item in schema.items()}
        bad = [(key, "is not a field of this format") for key in value if key not in fields]
        bad += [(key, "is missing") for key in schema if key[-1] != "?" and key not in value]
        for key, problem in bad[:1]:
            raise _Bad(f"{path}.{key}", problem)
        for key, item in fields.items():
            if key in value:
                _walk(value[key], item, dims, f"{path}.{key}")


TRACE = {"tokens": List({"id": int, "text": str}, length="tokens"),
         "prompt_len": Int(below=("tokens", 1))}
MARKERS = List(Str(1), least=1)
# rows[layer][head][key]: attention weights at the probe's end-of-thinking position
DUMP = {"layers": Int(1, dim="layers"), "heads": Int(1, dim="heads"),
        "rows": List(List(List(float, length="keys", least=1), length="heads"), length="layers"),
        "probe_position": Int(below=("keys",))}
# scores[layer][head]: [token, score] pairs over a trace of "tokens" that the loader names
SCORES = {"layers": Int(1, dim="layers"), "heads": Int(1, dim="heads"),
          "scores": List(List(List((Int(below=("tokens",)), float), unique=itemgetter(0)),
                              length="heads"), length="layers")}
# a run record's round; its tokens lie below prompt_len + reasoning_tokens
_ROUND, _STEPS = ("prompt_len", "reasoning_tokens"), ("reasoning_tokens",)
PROBE_RECORD = {
    "round_index": int, "reasoning_tokens": Int(below=("generated", 1), dim="reasoning_tokens"),
    "ran_probe?": bool, "skipped?": bool, "skip_reason?": Opt({"post-reasoning", "no-room"}),
    "scores?": Opt(List((Int(below=("layers",)), Int(below=("heads",)),
                         List((Int(below=_ROUND), float), unique=itemgetter(0))),
                        unique=itemgetter(0, 1))),
    "step_scores?": Opt(List(List((Int(below=_STEPS), float), unique=itemgetter(0)), layered=True)),
    "allocation?": Opt(List(List((Int(below=_STEPS), int), unique=itemgetter(0)), layered=True)),
    "evicted?": Opt(List(List(List(Int(below=_ROUND), unique=int), length="heads"), layered=True)),
    "plan_sizes?": Opt(List(List(int, length="heads"), layered=True)),
    "evicted_total?": int, "dump?": Opt(DUMP),
    "scores_digest?": str,  # retired; records written before still carry it
}
RUN_RECORD = {
    "model": {"vocab_size": Int(1, dim="vocab_size"), "num_layers": Int(1, dim="layers"),
              "num_heads": Int(1, dim="heads"), "model_dim": Int(1), "head_dim": Int(1),
              "max_seq_len": Int(1), "rng_seed": int},
    "policy": {"full", "ours", "random", "h2o", "streaming"},
    "budget": Opt(Tagged("mode", {"periodic": {"mode": str, "k": int},
                                  "ratio": {"mode": str, "ratio": Opt(float), "max_slots": Int(1),
                                            "recent_window": int}})),
    "prompt_len": Int(1, dim="prompt_len"),
    "generated_ids": List(Int(below=("vocab_size",)), length="generated"),
    "reasoning_len": Opt(Int(below=("generated", 1))),
    "think_end_emitted": bool,
    "probe_records": List(PROBE_RECORD, scoped=True),
    "occupancy": List((int, float, int, int), length="generated"),  # one row per token
    "final_stats": {"avg_kv": float, "peak_kv": int, "evicted_total": int,
                    "per_layer": List(List(int, length="heads"), length="layers")},
    "avg_kv": float, "peak_kv": int, "evicted_total": int,
    "seeds": {"model": int, "sampling": int, "eviction": int},
    "timings_ms?": {"prefill_ms?": float, "decode_ms?": float, "probe_ms?": float},
}
