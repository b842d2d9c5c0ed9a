"""A tiny deterministic transformer decoder used as the attention provider.

Pre-norm blocks, rotary positions bound to original token indices (so
evicting a key never shifts the geometry of the survivors), multi-head
attention restricted to whatever the cache says is live. The config's seed
is the whole model: weights are drawn from it in float32, the RMS norms have
no gain, and all arithmetic runs in float64 so the incremental and batch
paths agree to near machine precision.
"""

from __future__ import annotations

import math
import re
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .errors import SequenceTooLong
from .scoring import THINK_END_TEXT

PAD_ID = 0
# the id tokenize gives THINK_END_TEXT, which ends the summarization probe
THINK_END_ID = 1
EOS_ID = 2
NUM_RESERVED_IDS = 4

ROPE_BASE = 10000.0
_RMS_EPS = 1e-6

# Surface forms for generated ids. Several single-word step markers and the
# pieces of multi-word ones ("But wait", "Hold on", "Let me") are included so
# toy generations segment into multiple steps.
_WORDS = (
    "Wait", "So", "First", "Then", "Now", "Maybe", "Hmm", "Okay", "Alright",
    "Compute", "Correct", "Good", "Thus", "Therefore", "Similarly", "Starting",
    "Remember", "Alternatively", "But", "wait", "Hold", "on", "Let", "me",
    "the", "a", "sum", "term", "value", "answer", "check", "again", "equals",
    "plus", "minus", "times", "two", "three", "four", "five", "six", "x", "y",
    "z", "step", "result", "so", "now", "then", "it", "is", "we", "get",
    "total", "number", "add", "half", "part", "count.", "done.",
)


def token_text(token_id: int) -> str:
    """Deterministic surface string for a generated token id."""
    if token_id == THINK_END_ID:
        return THINK_END_TEXT
    if token_id < NUM_RESERVED_IDS:
        return ""
    return " " + _WORDS[(token_id - NUM_RESERVED_IDS) % len(_WORDS)]


def tokenize(text: str, vocab_size: int) -> list[tuple[int, str]]:
    """Toy tokenizer: whitespace-attached chunks hashed into the vocabulary.

    The literal end-of-thinking string always maps to its reserved id, and
    concatenating the returned texts reproduces the input exactly.
    """
    if vocab_size <= NUM_RESERVED_IDS:
        raise ValueError(f"vocab_size must exceed {NUM_RESERVED_IDS}")
    span = vocab_size - NUM_RESERVED_IDS
    out: list[tuple[int, str]] = []
    parts = text.split(THINK_END_TEXT)
    for i, part in enumerate(parts):
        consumed = 0
        for match in re.finditer(r"\s*\S+", part):
            chunk = match.group(0)
            out.append((NUM_RESERVED_IDS + zlib.crc32(chunk.encode("utf-8")) % span, chunk))
            consumed = match.end()
        if consumed < len(part):
            out.append((PAD_ID, part[consumed:]))
        if i + 1 < len(parts):
            out.append((THINK_END_ID, THINK_END_TEXT))
    return out


@dataclass(frozen=True)
class TinyModelConfig:
    vocab_size: int = 64
    num_layers: int = 2
    num_heads: int = 2
    model_dim: int = 32
    head_dim: int = 16
    max_seq_len: int = 512
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if min(self.vocab_size, self.num_layers, self.num_heads, self.model_dim,
               self.head_dim, self.max_seq_len) < 1:
            raise ValueError("all model dimensions must be >= 1")
        if self.model_dim != self.num_heads * self.head_dim:
            raise ValueError(
                f"model_dim {self.model_dim} != num_heads {self.num_heads} x head_dim {self.head_dim}"
            )
        if self.head_dim % 2 != 0:
            raise ValueError("head_dim must be even for rotary positions")
        if self.vocab_size <= NUM_RESERVED_IDS:
            raise ValueError(f"vocab_size must exceed {NUM_RESERVED_IDS}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class StepOutput:
    """Result of running one token through the decoder.

    A field the forward did not compute is None: logits unless outputs is
    "logits", rows when outputs is "kv". A joining token's key and value
    are not returned: the forward writes them into the cache slot at
    next_index and commits that slot.
    """

    logits: np.ndarray | None
    # (layers, heads, width) attention weights; column t is key token t and
    # is exactly 0.0 where token t is not live. width is next_index, plus
    # one for the token's own key when it joins.
    rows: np.ndarray | None


def _silu(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: x / (1 + e^-x) for x >= 0, x e^x / (1 + e^x) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, x, x * e) / (1.0 + e)


def _silu_of_double(g: np.ndarray) -> np.ndarray:
    """silu(2g) as g + g tanh(g), since x sigmoid(x) = x/2 (1 + tanh(x/2)).

    Three calls, and tanh cannot overflow; forward_step folds the 1/2 into
    its RMS scale."""
    t = np.tanh(g)
    t *= g
    t += g
    return t


def _inv_rms(x: np.ndarray) -> float:
    """1 / sqrt(mean(x^2) + eps) for one vector, as a Python float."""
    return 1.0 / math.sqrt(float(x @ x) / x.shape[0] + _RMS_EPS)


def _normed(x: np.ndarray) -> np.ndarray:
    """x scaled to unit RMS: the norm, which has no gain."""
    return x * _inv_rms(x)


class TinyDecoder:
    """Deterministic numpy decoder; weights fully determined by the config seed."""

    def __init__(self, config: TinyModelConfig):
        self.config = config
        rng = np.random.default_rng(config.rng_seed)
        d, v, f = config.model_dim, config.vocab_size, 4 * config.model_dim

        def normal(*shape: int, scale: float) -> np.ndarray:
            # drawn in float32, so every weight is exactly a float32 value
            draw = rng.standard_normal(shape, dtype=np.float32) * np.float32(scale)
            return draw.astype(np.float64)

        w: dict[str, np.ndarray] = {"embed": normal(v, d, scale=1.0)}
        for layer in range(config.num_layers):
            for name in ("wq", "wk", "wv", "wo"):
                w[f"layers.{layer}.{name}"] = normal(d, d, scale=1.0 / math.sqrt(d))
            w[f"layers.{layer}.mlp_in"] = normal(d, f, scale=1.0 / math.sqrt(d))
            w[f"layers.{layer}.mlp_out"] = normal(f, d, scale=1.0 / math.sqrt(f))
        w["unembed"] = normal(d, v, scale=1.0 / math.sqrt(d))
        self._w = w
        half = config.head_dim // 2
        self._inv_freq = ROPE_BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / config.head_dim)
        # forward_step's working set: one tuple per layer whose (d, 3d)
        # wq|wk|wv matrix carries 1/sqrt(head_dim) on its q columns, layer
        # 0's Q/K/V per token id, and each position's rotation entries
        blocks = []
        for layer in range(config.num_layers):
            wqkv = np.concatenate([w[f"layers.{layer}.w{p}"] for p in "qkv"], axis=1)
            wqkv[:, :d] *= 1.0 / math.sqrt(config.head_dim)
            blocks.append((wqkv, w[f"layers.{layer}.wo"],
                           w[f"layers.{layer}.mlp_in"], w[f"layers.{layer}.mlp_out"]))
        self._blocks = tuple(blocks)
        # layer 0's input is the embedding row, so its Q/K/V depend on the id
        # alone; each row is the product forward_step computes at later layers
        wqkv0 = blocks[0][0]
        self._layer0_qkv = np.stack([_normed(x) @ wqkv0 for x in w["embed"]])
        # a position's rotation matrix has 2 head_dim nonzero entries: row p
        # of _rotation_entries holds them, at the flat indices _rotation_index
        # (see _rotation_at)
        angles = np.arange(config.max_seq_len, dtype=np.float64)[:, None] * self._inv_freq
        cos, sin = np.cos(angles), np.sin(angles)
        first, second = np.arange(half), np.arange(half, config.head_dim)
        rows = np.concatenate([first, second, second, first])
        cols = np.concatenate([first, second, first, second])
        self._rotation_index = rows * config.head_dim + cols
        self._rotation_entries = np.concatenate([cos, cos, -sin, sin], axis=1)

    # --- numerics ---------------------------------------------------------

    def _rms(self, x: np.ndarray) -> np.ndarray:
        # np.add.reduce / d is exactly what np.mean computes, without its overhead
        mean_sq = np.add.reduce(np.square(x), axis=-1, keepdims=True) / x.shape[-1]
        return x / np.sqrt(mean_sq + _RMS_EPS)

    def _rope(self, heads: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Rotate per-head vectors by their original absolute positions.

        heads: (..., num_heads, head_dim); positions broadcast over the
        leading axes. First and second halves form the rotation pairs.
        """
        half = self.config.head_dim // 2
        angles = np.asarray(positions, dtype=np.float64)[..., None] * self._inv_freq
        cos = np.cos(angles)[..., None, :]
        sin = np.sin(angles)[..., None, :]
        x1 = heads[..., :half]
        x2 = heads[..., half:]
        return np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)

    def _rotation_at(self, position: int) -> np.ndarray:
        """The (head_dim, head_dim) matrix R with v @ R == _rope(v, position):
        the halves (x1, x2) of v become (x1 cos - x2 sin, x2 cos + x1 sin)."""
        head_dim = self.config.head_dim
        rotation = np.zeros(head_dim * head_dim)
        rotation[self._rotation_index] = self._rotation_entries[position]
        return rotation.reshape(head_dim, head_dim)

    # --- incremental path ---------------------------------------------------

    def forward_step(self, cache, token_id: int, position: int, *,
                     outputs: str = "logits") -> StepOutput:
        """One token forward over the live cache entries.

        Each layer runs one masked attention over all heads against the
        cache's first next_index positions, with dead positions scored -inf.
        At position == next_index the token joins the cache: the first
        joining forward sizes the cache to max_seq_len positions (see
        KvCacheState.reserve), the token's own key/value are written straight
        into its slot and join the attention as its last column, and once
        the forward has run the slot is committed with append(position). At
        next_index - 1 the pass is query-only: it requeries the cache's last
        token, which is (possibly partially) represented in the cache
        already, attention runs over the live entries alone, and nothing is
        written. Any other position is a ValueError, raised before anything
        changes: an earlier query would see the keys of later tokens. A
        forward that raises commits nothing.

        outputs names what the caller reads, and the forward stops once it
        has it: "logits" runs every layer through to the logits; "rows"
        stops after the last layer's softmax; "kv" stops after writing the
        last layer's key/value and skips that layer's attention, returning
        neither logits nor rows. Fields not computed are None (see
        StepOutput). "rows" and "kv" serve tokens that join the cache.
        """
        if outputs not in ("logits", "rows", "kv"):
            raise ValueError(f'outputs must be "logits", "rows" or "kv", got {outputs!r}')
        cfg = self.config
        if position >= cfg.max_seq_len:
            raise SequenceTooLong(
                f"position {position} exceeds max_seq_len {cfg.max_seq_len}"
            )
        n = cache.next_index
        if position > n:
            raise ValueError(f"a token joins the cache at position {n}, got {position}")
        joins = position == n
        if joins:
            cache.reserve(cfg.max_seq_len)
        elif outputs != "logits":
            raise ValueError(f"outputs={outputs!r} needs a token that joins at position {n}, "
                             f"got {position}")
        elif position != n - 1:
            raise ValueError(f"a query-only pass requeries the last token, at position {n - 1}, "
                             f"got {position}")
        else:
            empty = np.argwhere(~cache.live[:, :, :n].any(axis=2))
            if empty.size:
                raise ValueError(f"no live keys to attend to at {tuple(empty[0].tolist())}")
        num_heads, head_dim = cfg.num_heads, cfg.head_dim
        width = n + 1 if joins else n
        dead = ~cache.live[:, :, :n]
        rows = np.empty((cfg.num_layers, num_heads, width))
        rotation = self._rotation_at(position)
        # the layer after whose K/V write ("kv") or softmax ("rows") the forward stops
        last = cfg.num_layers - 1
        stop_at_kv = last if outputs == "kv" else -1
        stop_at_rows = last if outputs == "rows" else -1
        x = self._w["embed"][token_id]
        qkv = self._layer0_qkv[token_id]
        for layer, (wqkv, wo, mlp_in, mlp_out) in enumerate(self._blocks):
            if layer:
                qkv = _normed(x) @ wqkv
            qkv = qkv.reshape(3 * num_heads, head_dim)
            # q and k rotate in one product; q already carries 1/sqrt(head_dim)
            qk = qkv[:2 * num_heads] @ rotation
            keys = cache.keys[layer, :, :width]
            values = cache.values[layer, :, :width]
            if joins:
                # the new key and value go through the same products as the
                # cached ones, so a later requery of this token is bitwise equal
                keys[:, n] = qk[num_heads:]
                values[:, n] = qkv[2 * num_heads:]
            if layer == stop_at_kv:
                break
            weights = rows[layer]
            np.matmul(keys, qk[:num_heads, :, None], out=weights[:, :, None])
            np.copyto(weights[:, :n], -np.inf, where=dead[layer])
            weights -= np.maximum.reduce(weights, axis=1, keepdims=True)
            np.exp(weights, out=weights)
            weights /= np.add.reduce(weights, axis=1, keepdims=True)
            if layer == stop_at_rows:
                break
            x = x + (weights[:, None, :] @ values).reshape(cfg.model_dim) @ wo
            # the MLP input is norm(x) / 2, so silu(h) = g + g tanh(g) with g = h / 2
            g = (x * (0.5 * _inv_rms(x))) @ mlp_in
            x = x + _silu_of_double(g) @ mlp_out
        logits = None
        if outputs == "logits":
            logits = _normed(x) @ self._w["unembed"]
        if joins:
            cache.append(position)
        return StepOutput(logits, None if outputs == "kv" else rows)

    # --- batch oracle path ----------------------------------------------------

    def reference_forward(
        self,
        token_ids,
        key_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Non-incremental forward with an arbitrary per-(layer, head) key mask.

        key_mask has shape (num_layers, num_heads, T, T); entry [l, h, i, j]
        True lets query i attend key j (always intersected with causality).
        Every query must at least see itself. Returns (T, vocab) logits.
        """
        cfg = self.config
        ids = np.asarray(token_ids, dtype=np.int64)
        t = len(ids)
        if t > cfg.max_seq_len:
            raise SequenceTooLong(f"sequence of {t} exceeds max_seq_len {cfg.max_seq_len}")
        pos = np.arange(t)
        causal = np.tril(np.ones((t, t), dtype=bool))
        if key_mask is None:
            key_mask = np.ones((cfg.num_layers, cfg.num_heads, t, t), dtype=bool)
        key_mask = np.asarray(key_mask, dtype=bool)
        if key_mask.shape != (cfg.num_layers, cfg.num_heads, t, t):
            raise ValueError(f"key_mask shape {key_mask.shape} does not match (L, H, T, T)")
        num_heads, head_dim = cfg.num_heads, cfg.head_dim
        inv_scale = 1.0 / math.sqrt(head_dim)
        x = self._w["embed"][ids]
        for layer in range(cfg.num_layers):
            u = self._rms(x)
            q = self._rope((u @ self._w[f"layers.{layer}.wq"]).reshape(t, num_heads, head_dim), pos)
            k = self._rope((u @ self._w[f"layers.{layer}.wk"]).reshape(t, num_heads, head_dim), pos)
            v = (u @ self._w[f"layers.{layer}.wv"]).reshape(t, num_heads, head_dim)
            scores = np.einsum("qhd,khd->hqk", q, k) * inv_scale
            allow = causal[None, :, :] & key_mask[layer]
            if not np.all(allow.diagonal(axis1=1, axis2=2)):
                raise ValueError("every query must be allowed to attend to itself")
            scores = np.where(allow, scores, -np.inf)
            shifted = scores - scores.max(axis=-1, keepdims=True)
            ex = np.exp(shifted)
            weights = ex / ex.sum(axis=-1, keepdims=True)
            attn = np.einsum("hqk,khd->qhd", weights, v)
            x = x + attn.reshape(t, cfg.model_dim) @ self._w[f"layers.{layer}.wo"]
            u2 = self._rms(x)
            x = x + _silu(u2 @ self._w[f"layers.{layer}.mlp_in"]) @ self._w[f"layers.{layer}.mlp_out"]
        return self._rms(x) @ self._w["unembed"]
