"""Benchmark entry point.

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 20 --trace 0

Runs one workload against the library in `src/` (no install step) and
prints, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end figures; with `--trace 1` they are the per-layer figures of a
traced pass. Spans and record digests go to `perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("decode-long", "probe-dense", "ratio-cap")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, set before NumPy loads: the model's matrices are tiny,
    # and the process must not use more threads than the machine has cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import checks
        import harness
        reference = checks.load_reference(ROOT)
    except ImportError as exc:
        print(f"cannot import the library or its oracles from {ROOT}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - STARTED

    result = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        import_s, ROOT / "perfbench_out", reference,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
