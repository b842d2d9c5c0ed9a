"""Record run records over a fixed matrix of cells, and compare two recordings.

    python3 tools/behaviour_matrix.py record out.json
    python3 tools/behaviour_matrix.py compare parent.json change.json
    python3 tools/behaviour_matrix.py digest tests/behaviour_digests.json

`record` runs every cell against the library in this checkout's `src/`
and writes {cell name: record.to_dict()}. The matrix: the full-cache run,
and each of ours/random/h2o/streaming under periodic budgets (k, interval,
recent window) in {(0, 8, 0), (3, 8, 0) with attention dumps, (8, 16, 4),
(5, 6, 0), (3, 8, 96)} and under ratio caps 0.15, 0.3 and 0.6 of the full
run's average occupancy; greedy and sampled decoding; model seeds 0 and 1;
two prompts; 80 new tokens; 2 layers x 3 heads. That is 264 run cells. The
tight 0.15 cap makes the hierarchical policy evict tokens generated after
its latest probe round. A recent window of 96 is longer than every
sequence (a 12- or 15-token prompt plus 80 tokens), so no probe round
has a candidate.

Long cells give probe rounds traces with dozens of steps: the benchmark's
model shape (4 layers x 4 heads, model dim 64, model seed 0), two
benchmark-style prompts on which this model writes 13 to 144 steps per
round, greedy decoding of 300 new tokens with a probe round every 100,
and each of the four policies at periodic k=8 with recent windows 0 and
4. That is 16 more run cells.

It also records `thinkprune plan` for 320 plan cells, {"exit_code",
"stdout", "stderr"} each, so a changed error message shows in `compare`.
Their inputs come from the last dumped probe round of every (3, 8, 0)
run: the trace up to that round, the round's scores as a scores file and
its dump as a dump file. For each such round, every policy plans from
`--scores` and from `--dump`, and random and streaming also plan from
neither, at budget 4 and seed 7.

`compare` checks that the two files hold the same cells, that the float
fields (`scores`, `step_scores`, `dump` in each probe round) agree within
1e-12, and that every other field matches exactly, except `scores_digest`,
which records written before that field was retired still carry. It
prints how many cells are byte-identical and exits 1 on any mismatch.

`digest` records the matrix and writes {cell name: sha256 of its exact
fields}: everything `compare` matches exactly, so a run cell's ids,
evictions, allocations, plan sizes, occupancy and skip fields, and a plan
cell's exit code, stdout and stderr. `tests/test_behaviour_matrix.py`
records the matrix and checks it against `tests/behaviour_digests.json`;
a change that alters behaviour on purpose regenerates that file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from thinkprune.cache import CacheBudget  # noqa: E402
from thinkprune.cli import main as cli_main  # noqa: E402
from thinkprune.engine import DecodeConfig, run  # noqa: E402
from thinkprune.model import TinyModelConfig, token_text, tokenize  # noqa: E402
from thinkprune.policy import EvictionBudget, PolicyKind  # noqa: E402
from thinkprune.scoring import default_probe  # noqa: E402

PROMPTS = (
    "Solve: compute two plus two. First add, then check the sum again.",
    "Problem: a value x times three equals six. So what is x? Let me see.",
)
PERIODIC = ((0, 8, 0, False), (3, 8, 0, True), (8, 16, 4, False), (5, 6, 0, False),
            (3, 8, 96, False))
RATIOS = (0.15, 0.3, 0.6)
RATIO_INTERVAL = 8
MAX_NEW = 80
DUMPED = "k3-i8-r0"
PLAN_BUDGET = 4
PLAN_SEED = 7
LONG_PROMPTS = (
    "Problem: Compute the sum of 12 and 7 then multiply by three. What is the value? Answer:",
    "Problem: Let y equal half the product of 8 and 9, minus seven. Solve for y. Answer:",
)
LONG_MODEL = dict(vocab_size=64, num_layers=4, num_heads=4, model_dim=64, head_dim=16,
                  rng_seed=0)
LONG_NEW, LONG_INTERVAL, LONG_K, LONG_RECENT = 300, 100, 8, (0, 4)
FLOAT_FIELDS = ("scores", "step_scores", "dump")
FLOAT_TOLERANCE = 1e-12


def _config(greedy: bool, interval: int = RATIO_INTERVAL, **kw) -> DecodeConfig:
    return DecodeConfig(max_new_tokens=MAX_NEW, probe=default_probe(interval_p=interval),
                        greedy=greedy, sampling_seed=5, eviction_seed=3, **kw)


def record_matrix() -> dict[str, dict]:
    cells: dict[str, dict] = {}
    for model_seed in (0, 1):
        model = TinyModelConfig(num_layers=2, num_heads=3, model_dim=48, head_dim=16,
                                rng_seed=model_seed)
        for prompt_index, prompt in enumerate(PROMPTS):
            for greedy in (True, False):
                prefix = f"m{model_seed}/p{prompt_index}/{'greedy' if greedy else 'sampled'}"
                full = run(model, prompt, _config(greedy))
                cells[f"{prefix}/full"] = full.to_dict()
                for policy in PolicyKind:
                    for k, interval, recent, dumps in PERIODIC:
                        record = run(model, prompt, _config(
                            greedy, policy=policy, budget=EvictionBudget(k), interval=interval,
                            recent_window=recent, keep_dumps=dumps))
                        cells[f"{prefix}/{policy.value}/k{k}-i{interval}-r{recent}"] = record.to_dict()
                    for ratio in RATIOS:
                        budget = CacheBudget.from_ratio(ratio, full.avg_kv)
                        record = run(model, prompt, _config(greedy, policy=policy, budget=budget))
                        cells[f"{prefix}/{policy.value}/ratio{ratio}"] = record.to_dict()
                    source = f"{prefix}/{policy.value}/{DUMPED}"
                    cells.update(record_plans(source, prompt, cells[source]))
    cells.update(record_long())
    return cells


def record_long() -> dict[str, dict]:
    """The long cells: the benchmark's model shape, 300 tokens, a round every 100."""
    model = TinyModelConfig(**LONG_MODEL)
    cells = {}
    for prompt_index, prompt in enumerate(LONG_PROMPTS):
        for policy in PolicyKind:
            for recent in LONG_RECENT:
                config = DecodeConfig(
                    max_new_tokens=LONG_NEW, probe=default_probe(interval_p=LONG_INTERVAL),
                    policy=policy, budget=EvictionBudget(LONG_K), recent_window=recent,
                    eviction_seed=3)
                record = run(model, prompt, config)
                cells[f"long/p{prompt_index}/{policy.value}/k{LONG_K}-i{LONG_INTERVAL}-r{recent}"] = (
                    record.to_dict())
    return cells


def _plan_output(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    return {"exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def record_plans(source: str, prompt: str, record: dict) -> dict[str, dict]:
    """`thinkprune plan` output for every policy and input, from the last
    dumped probe round of one run record."""
    probe = [rnd for rnd in record["probe_records"] if rnd["dump"] is not None][-1]
    dump = probe["dump"]
    layers, heads = dump["layers"], dump["heads"]
    tokens = tokenize(prompt, record["model"]["vocab_size"])
    tokens += [(tid, token_text(tid)) for tid in record["generated_ids"][:probe["reasoning_tokens"]]]
    trace = {"prompt_len": record["prompt_len"],
             "tokens": [{"id": tid, "text": text} for tid, text in tokens]}
    by_head = {(layer, head): pairs for layer, head, pairs in probe["scores"]}
    scores = {"layers": layers, "heads": heads,
              "scores": [[by_head[(layer, head)] for head in range(heads)]
                         for layer in range(layers)]}
    cells = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (("trace", trace), ("scores", scores), ("dump", dump)):
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
        for policy in PolicyKind:
            inputs = {"scores": ["--scores", paths["scores"]], "dump": ["--dump", paths["dump"]]}
            if policy in (PolicyKind.RANDOM, PolicyKind.STREAMING):
                inputs["none"] = ["--layers", str(layers), "--heads", str(heads)]
            for name, extra in inputs.items():
                argv = ["plan", "--trace", paths["trace"], "--policy", policy.value,
                        "--budget", str(PLAN_BUDGET), "--seed", str(PLAN_SEED)] + extra
                cells[f"{source}/plan-{policy.value}-from-{name}"] = _plan_output(argv)
    return cells


def _float_diff(a, b) -> float:
    """Largest absolute difference between two equally nested number lists or dicts."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return float("inf")
        return max((_float_diff(a[key], b[key]) for key in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return float("inf")
        return max((_float_diff(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b)
    return 0.0 if a == b else float("inf")


def exact_fields(cell: dict) -> dict:
    """The cell without its probe rounds' float fields and retired digest."""
    if "probe_records" not in cell:
        return cell
    return dict(cell, probe_records=[
        {key: value for key, value in rnd.items()
         if key not in FLOAT_FIELDS and key != "scores_digest"}
        for rnd in cell["probe_records"]])


def digests(cells: dict[str, dict]) -> dict[str, str]:
    """{cell name: sha256 of the cell's exact fields as sorted-key JSON}."""
    return {name: hashlib.sha256(json.dumps(exact_fields(cell), sort_keys=True).encode())
            .hexdigest() for name, cell in sorted(cells.items())}


def compare(parent: dict[str, dict], change: dict[str, dict]) -> tuple[list[str], float, int]:
    """Return (exact-field mismatches, largest float difference, byte-identical cells)."""
    mismatches = [f"{name}: missing from one side" for name in sorted(parent.keys() ^ change.keys())]
    worst = 0.0
    identical = 0
    for name in sorted(parent.keys() & change.keys()):
        a, b = parent[name], change[name]
        identical += json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        for key in sorted(a.keys() | b.keys()):
            if key != "probe_records" and a.get(key) != b.get(key):
                mismatches.append(f"{name}: {key}")
        rounds_a, rounds_b = a.get("probe_records", []), b.get("probe_records", [])
        if len(rounds_a) != len(rounds_b):
            mismatches.append(f"{name}: probe round count")
            continue
        for index, (ra, rb) in enumerate(zip(rounds_a, rounds_b)):
            for key in sorted(ra.keys() | rb.keys()):
                if key in FLOAT_FIELDS:
                    worst = max(worst, _float_diff(ra.get(key), rb.get(key)))
                elif key != "scores_digest" and ra.get(key) != rb.get(key):
                    mismatches.append(f"{name}: round {index} {key}")
    return mismatches, worst, identical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the matrix and write the records")
    rec.add_argument("out")
    cmp_ = sub.add_parser("compare", help="compare two recordings")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    dig = sub.add_parser("digest", help="run the matrix and write each cell's digest")
    dig.add_argument("out")
    args = parser.parse_args(argv)

    if args.command == "digest":
        cells = digests(record_matrix())
        Path(args.out).write_text(json.dumps(cells, sort_keys=True, indent=0) + "\n")
        print(f"wrote {len(cells)} cell digests to {args.out}")
        return 0

    if args.command == "record":
        cells = record_matrix()
        Path(args.out).write_text(json.dumps(cells, sort_keys=True))
        print(f"recorded {len(cells)} cells to {args.out}")
        return 0
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    mismatches, worst, identical = compare(parent, change)
    for line in mismatches:
        print(f"mismatch {line}")
    print(f"cells: {len(parent)} vs {len(change)}; byte-identical: {identical}; "
          f"exact-field mismatches: {len(mismatches)}; max float difference: {worst:.3g}")
    return 0 if not mismatches and worst <= FLOAT_TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
