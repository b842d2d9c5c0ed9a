"""Time one-token forwards of the benchmark model at several cache widths.

    python3 tools/forward_bench.py

Builds the benchmark's model shape (4 layers x 4 heads, model dim 64, head
dim 16, vocabulary 64, weights from seed 0) from this checkout's `src/`,
with BLAS pinned to one thread as `perfbench/run.py` pins it. For each
width in WIDTHS it decodes that many tokens into a cache and times
`TinyDecoder.forward_step` for the next position in each mode twice: on
the all-live cache (row `live`, as in every prefill forward and every
decode forward of a full-cache run), and again after evicting every fifth
non-prompt token at every head (row `pruned`, so attention spans dead
columns, as after pruning). The modes:

- `logits`, `rows`, `kv`: the `outputs` keyword, with the token joining
  the cache at next_index. The forward writes and commits its K/V slot,
  and `remove_suffix(width)` retracts it so every call sees the same
  cache; these figures include both the commit and the retraction;
- `requery`: the query-only pass at next_index - 1, as after a round.

Each figure is the fastest of REPEATS batches of CALLS calls, in µs per
call: on a shared host, other load only ever adds time, so the fastest
batch is the steadiest estimate. Run it in two checkouts, alternating, to
compare them. The model's max_seq_len is the widest width plus one. The
widths 1024 and 2048 show what dead columns cost on long caches. The run
takes about 22 s on a 2-core x86 host, most of it decoding and timing
those two widths.

Next to the timings it prints the bytes each structure holds: the model's
position table, layer-0 table and fused layer blocks, and at each width the
cache's keys, values and live mask, allocated (capacity) and in the slots
below the width. The cache is built as a run builds it, by joining
forwards, so its capacity is the model's max_seq_len from the first one.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from thinkprune.cache import KvCacheState, ProtectedRegions  # noqa: E402
from thinkprune.engine import decode_step  # noqa: E402
from thinkprune.model import TinyDecoder, TinyModelConfig  # noqa: E402
from thinkprune.policy import EvictionPlan  # noqa: E402

SHAPE = dict(vocab_size=64, num_layers=4, num_heads=4, model_dim=64, head_dim=16, rng_seed=0)
WIDTHS = (16, 128, 400, 1024, 2048)
PROMPT_LEN = 8
MODES = ("logits", "rows", "kv", "requery")
CACHE_ARRAYS = ("keys", "values", "live")
CALLS = 100
REPEATS = 15


def decoded_cache(model: TinyDecoder, width: int) -> KvCacheState:
    cfg = model.config
    state = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim,
                         ProtectedRegions(PROMPT_LEN, 0))
    for position in range(width):
        decode_step(state, model, 4 + (7 * position) % (cfg.vocab_size - 4), position)
    return state


def evict_every_fifth(state: KvCacheState) -> None:
    victims = frozenset(range(PROMPT_LEN, state.next_index - 1, 5))
    state.apply_plan(EvictionPlan(state.num_layers, state.num_heads, {
        (layer, head): victims for layer in range(state.num_layers)
        for head in range(state.num_heads)
    }))


def time_mode(model: TinyDecoder, state: KvCacheState, mode: str) -> float:
    width = state.next_index
    if mode == "requery":
        def call():
            model.forward_step(state, 9, width - 1)
    else:
        def call():
            model.forward_step(state, 9, width, outputs=mode)
            state.remove_suffix(width)
    call()
    batches = []
    for _ in range(REPEATS):
        started = perf_counter()
        for _ in range(CALLS):
            call()
        batches.append((perf_counter() - started) / CALLS * 1e6)
    return min(batches)


def model_bytes(model: TinyDecoder) -> dict[str, int]:
    return {
        "position table": model._rotation_entries.nbytes + model._rotation_index.nbytes,
        "layer-0 table": model._layer0_qkv.nbytes,
        "fused blocks": sum(array.nbytes for block in model._blocks for array in block),
    }


def main() -> int:
    model = TinyDecoder(TinyModelConfig(max_seq_len=max(WIDTHS) + 1, **SHAPE))
    print(f"{'width':>6}{'cache':>8}" + "".join(f"{mode:>10}" for mode in MODES)
          + "   (µs per forward_step)")
    held = {}
    for width in WIDTHS:
        state = decoded_cache(model, width)
        for cache in ("live", "pruned"):
            if cache == "pruned":
                evict_every_fifth(state)
            figures = [time_mode(model, state, mode) for mode in MODES]
            print(f"{width:>6}{cache:>8}" + "".join(f"{f:>10.1f}" for f in figures))
        held[width] = [getattr(state, name) for name in CACHE_ARRAYS]
    print(f"\n{'width':>6}" + "".join(f"{name:>16}" for name in CACHE_ARRAYS)
          + "   (cache bytes: allocated / below width)")
    for width, arrays in held.items():
        print(f"{width:>6}" + "".join(f"{f'{a.nbytes}/{a[:, :, :width].nbytes}':>16}"
                                      for a in arrays))
    print(f"\nmodel, max_seq_len {model.config.max_seq_len}: "
          + ", ".join(f"{name} {size}" for name, size in model_bytes(model).items()) + " bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
