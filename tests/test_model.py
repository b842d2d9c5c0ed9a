"""Tiny decoder: determinism, weights, tokenizer, attention paths."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from thinkprune.cache import KvCacheState, ProtectedRegions
from thinkprune.engine import decode_step
from thinkprune.errors import SequenceTooLong
from thinkprune.model import (
    EOS_ID,
    NUM_RESERVED_IDS,
    PAD_ID,
    THINK_END_ID,
    TinyDecoder,
    TinyModelConfig,
    token_text,
    tokenize,
)
from thinkprune.policy import EvictionPlan


def _decode_sequence(model, ids, prompt_len=0, recent=0):
    cfg = model.config
    state = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim,
                         ProtectedRegions(prompt_len, recent))
    logits = [decode_step(state, model, tid, i).logits for i, tid in enumerate(ids)]
    return state, np.stack(logits)


class TestConfig:
    def test_dim_consistency_enforced(self):
        with pytest.raises(ValueError):
            TinyModelConfig(model_dim=30, num_heads=2, head_dim=16)

    def test_head_dim_must_be_even(self):
        with pytest.raises(ValueError):
            TinyModelConfig(model_dim=6, num_heads=2, head_dim=3)

    def test_vocab_must_exceed_reserved(self):
        with pytest.raises(ValueError):
            TinyModelConfig(vocab_size=4)


class TestTokenizer:
    def test_concatenation_reproduces_text(self):
        text = "Solve it.  Then   check\nagain. </think> done  "
        tokens = tokenize(text, 64)
        assert "".join(t for _id, t in tokens) == text

    def test_think_end_maps_to_reserved_id(self):
        tokens = tokenize("stop now</think>", 64)
        assert tokens[-1] == (THINK_END_ID, "</think>")

    def test_ids_within_vocab(self):
        tokens = tokenize("alpha beta gamma delta", 10)
        assert all(NUM_RESERVED_IDS <= tid < 10 or tid in (PAD_ID, THINK_END_ID)
                   for tid, _t in tokens)

    def test_deterministic(self):
        assert tokenize("So it goes", 64) == tokenize("So it goes", 64)

    def test_vocab_too_small(self):
        with pytest.raises(ValueError):
            tokenize("hello", NUM_RESERVED_IDS)

    def test_token_text_reserved_ids(self):
        assert token_text(THINK_END_ID) == "</think>"
        assert token_text(PAD_ID) == ""
        assert token_text(EOS_ID) == ""
        assert token_text(NUM_RESERVED_IDS).startswith(" ")


class TestDeterminism:
    def test_same_seed_same_logits(self):
        ids = [10, 20, 30, 40]
        _, a = _decode_sequence(TinyDecoder(TinyModelConfig(rng_seed=5)), ids)
        _, b = _decode_sequence(TinyDecoder(TinyModelConfig(rng_seed=5)), ids)
        assert (a == b).all()

    def test_different_seed_differs(self):
        ids = [10, 20, 30, 40]
        _, a = _decode_sequence(TinyDecoder(TinyModelConfig(rng_seed=5)), ids)
        _, b = _decode_sequence(TinyDecoder(TinyModelConfig(rng_seed=6)), ids)
        assert not (a == b).all()


class TestWeights:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_weights_are_float32_values_under_fixed_names(self, seed):
        config = TinyModelConfig(rng_seed=seed)
        model = TinyDecoder(config)
        names = ["embed"]
        for layer in range(config.num_layers):
            names += [f"layers.{layer}.{name}"
                      for name in ("wq", "wk", "wv", "wo", "mlp_in", "mlp_out")]
        names.append("unembed")
        assert list(model._w) == names
        for weight in model._w.values():
            assert weight.dtype == np.float64
            assert _bitwise_equal(weight.astype(np.float32).astype(np.float64), weight)


class TestAttentionPaths:
    def test_incremental_matches_reference_without_evictions(self):
        model = TinyDecoder(TinyModelConfig(rng_seed=3))
        ids = [10, 21, 7, 33, 14, 5, 40, 19]
        _, inc = _decode_sequence(model, ids)
        ref = model.reference_forward(ids)
        rel = np.max(np.abs(inc - ref) / (np.abs(ref) + 1e-9))
        assert rel < 1e-9

    def test_all_but_one_key_evicted_gives_one_hot_attention(self):
        model = TinyDecoder(TinyModelConfig(num_layers=1, rng_seed=1))
        ids = [10, 21, 7, 33, 14]
        state, _ = _decode_sequence(model, ids)
        keep = 2
        victims = frozenset(set(range(5)) - {keep})
        state.apply_plan(EvictionPlan(1, 2, {(0, 0): victims, (0, 1): victims}))
        # a query-only pass at next_index - 1 attends the live keys alone
        out = model.forward_step(state, 9, 4)
        one_hot = [0.0] * 5
        one_hot[keep] = 1.0
        assert out.rows.shape == (1, 2, 5)
        for head in range(2):
            assert out.rows[0, head].tolist() == one_hot

    def test_single_key_attention_output_is_that_value_vector(self):
        model = TinyDecoder(TinyModelConfig(num_layers=1, rng_seed=1))
        ids = [10, 21, 7]
        state, _ = _decode_sequence(model, ids)
        state.apply_plan(EvictionPlan(1, 2, {(0, 0): frozenset({0, 2}), (0, 1): frozenset({0, 2})}))
        # with one live key the softmax weight is exactly 1, so the head
        # reads out exactly the stored value vector
        assert state.live_indices(0, 0) == (1,)
        out = model.forward_step(state, 9, 2)
        assert out.rows[0, 0].tolist() == [0.0, 1.0, 0.0]

    def test_evicting_zero_attention_key_barely_moves_logits(self):
        # Engineer one key to repel the next query at every head, check its
        # weight is below 1e-12, then compare decode with and without it.
        model = TinyDecoder(TinyModelConfig(num_layers=1, rng_seed=7))
        cfg = model.config
        ids = [10, 21, 7, 33, 14, 5, 40]
        next_id, next_pos = ids[-1], len(ids) - 1
        # A 1-layer model's query depends only on the token and its position.
        u = model._rms(model._w["embed"][next_id])
        queries = model._rope((u @ model._w["layers.0.wq"]).reshape(cfg.num_heads, cfg.head_dim), next_pos)
        victim = 3
        state, _ = _decode_sequence(model, ids[:-1], prompt_len=1)
        for head in range(cfg.num_heads):
            query = queries[head]
            state.keys[0, head, victim] = -200.0 * query / np.linalg.norm(query)
        kept = copy.deepcopy(state)
        out_kept = model.forward_step(kept, next_id, next_pos)
        for head in range(model.config.num_heads):
            assert out_kept.rows[0, head, victim] < 1e-12
        pruned = copy.deepcopy(state)
        pruned.apply_plan(EvictionPlan(1, 2, {
            (0, 0): frozenset({victim}), (0, 1): frozenset({victim}),
        }))
        out_pruned = model.forward_step(pruned, next_id, next_pos)
        rel = np.max(np.abs(out_kept.logits - out_pruned.logits) / (np.abs(out_pruned.logits) + 1e-9))
        assert rel < 1e-6

    @pytest.mark.parametrize("joins", [True, False])
    def test_rows_are_dense_and_zero_where_not_live(self, joins):
        model = TinyDecoder(TinyModelConfig(rng_seed=5))
        cfg = model.config
        ids = [10, 21, 7, 33, 14, 5]
        state, _ = _decode_sequence(model, ids)
        victims = {(0, 0): frozenset({1, 4}), (0, 1): frozenset({2, 3}),
                   (1, 0): frozenset({0}), (1, 1): frozenset({5})}
        state.apply_plan(EvictionPlan(cfg.num_layers, cfg.num_heads, victims))
        # at next_index the token joins as column 6; below it, a query-only pass
        position = 6 if joins else 5
        out = model.forward_step(state, 9, position)
        width = 7 if joins else 6
        assert out.rows.shape == (cfg.num_layers, cfg.num_heads, width)
        for (layer, head), evicted in victims.items():
            row = out.rows[layer, head]
            for t in range(width):
                if t in evicted:
                    assert row[t] == 0.0
                else:
                    assert row[t] > 0.0
            assert abs(row.sum() - 1.0) < 1e-12

    def test_head_without_live_keys_is_rejected(self):
        model = TinyDecoder(TinyModelConfig(num_layers=1, rng_seed=1))
        state, _ = _decode_sequence(model, [10, 21, 7])
        state.live[0, 1] = False
        with pytest.raises(ValueError, match=r"no live keys to attend to at \(0, 1\)"):
            model.forward_step(state, 9, 2)

    @pytest.mark.parametrize("position", [2, 4])
    def test_new_key_must_join_at_the_next_index(self, position):
        # "kv" writes the token's key, which only a token at next_index has
        model = TinyDecoder(TinyModelConfig(rng_seed=1))
        state, _ = _decode_sequence(model, [10, 21, 7])
        with pytest.raises(ValueError, match="position 3, got"):
            model.forward_step(state, 9, position, outputs="kv")

    def test_positions_are_retained_after_eviction(self):
        # Evicting token 1 must leave survivors at their original rotary
        # positions: incremental decode equals the masked batch reference,
        # which always uses original position ids.
        model = TinyDecoder(TinyModelConfig(rng_seed=4))
        ids = [10, 21, 7, 33, 14]
        cfg = model.config
        state = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim, ProtectedRegions(0, 0))
        mask = np.ones((cfg.num_layers, cfg.num_heads, 5, 5), dtype=bool)
        logits = []
        for i, tid in enumerate(ids):
            if i >= 3:
                mask[:, :, i, 1] = False
            logits.append(decode_step(state, model, tid, i).logits)
            if i == 2:
                state.apply_plan(EvictionPlan(cfg.num_layers, cfg.num_heads, {
                    (l, h): frozenset({1})
                    for l in range(cfg.num_layers) for h in range(cfg.num_heads)
                }))
        ref = model.reference_forward(ids, key_mask=mask)
        rel = np.max(np.abs(np.stack(logits) - ref) / (np.abs(ref) + 1e-9))
        assert rel < 1e-9

    def test_sequence_too_long(self):
        model = TinyDecoder(TinyModelConfig(max_seq_len=4))
        ids = [10, 20, 30, 40]
        state, _ = _decode_sequence(model, ids)
        with pytest.raises(SequenceTooLong):
            decode_step(state, model, 5, 4)

    def test_reference_forward_requires_self_attention(self):
        model = TinyDecoder(TinyModelConfig())
        mask = np.ones((2, 2, 3, 3), dtype=bool)
        mask[0, 0, 2, 2] = False
        with pytest.raises(ValueError):
            model.reference_forward([5, 6, 7], key_mask=mask)


# The formulas forward_step used before its rewrite, kept verbatim but for
# the norm gain, which was always one.
def _silu_old(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = x[pos] / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = x[~pos] * ex / (1.0 + ex)
    return out


def _rms_old(x):
    scale = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + 1e-6)
    return x / scale


def _bitwise_equal(a, b):
    # compares bit patterns, so -0.0 and 0.0 differ
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _numeric_cases(seed=0, count=300):
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, 1e-310, -1e-310, 745.0, -745.0, 800.0, -800.0,
                        1e300, -1e300, 36.0, -36.0, 710.0, -710.0])
    yield special
    for i in range(count):
        scale = 10.0 ** rng.uniform(-8, 3)
        x = rng.standard_normal(int(rng.integers(1, 300))) * scale
        x[rng.random(x.size) < 0.05] = 0.0
        x[rng.random(x.size) < 0.05] = -0.0
        yield x if i % 2 else np.concatenate([x, rng.choice(special, 7)])


class TestStepNumerics:
    """The numerics reference_forward uses give the same bits as the formulas
    they replaced, and forward_step's tanh SiLU stays within its error bound."""

    def test_silu_matches_old_formula_bitwise(self):
        from thinkprune.model import _silu

        for x in _numeric_cases():
            assert _bitwise_equal(_silu(x), _silu_old(x))

    def test_rms_matches_mean_formula_bitwise(self):
        model = TinyDecoder(TinyModelConfig(rng_seed=0))
        for x in _numeric_cases(seed=2):
            x = x[np.abs(x) < 1e150]  # squares stay finite
            assert _bitwise_equal(model._rms(x), _rms_old(x))
            rows = np.stack([x, -x, 2.0 * x])
            assert _bitwise_equal(model._rms(rows), _rms_old(rows))

    def test_tanh_silu_matches_silu_within_its_bound(self):
        from thinkprune.model import _silu, _silu_of_double

        eps = np.finfo(float).eps
        for x in _numeric_cases():
            err = np.abs(_silu_of_double(x / 2) - _silu(x))
            assert (err <= 2 * eps * np.maximum(1.0, np.abs(x))).all()


class TestTables:
    """The tables forward_step reads equal the products they replace."""

    BENCH_SHAPE = dict(vocab_size=64, num_layers=4, num_heads=4, model_dim=64, head_dim=16)

    def test_rotation_table_matches_rope_at_every_position(self):
        model = TinyDecoder(TinyModelConfig(**self.BENCH_SHAPE, max_seq_len=512))
        cfg = model.config
        heads = np.random.default_rng(3).standard_normal((2 * cfg.num_heads, cfg.head_dim))
        # the dense (max_seq_len, head_dim, head_dim) table that _rotation_at replaces
        half = cfg.head_dim // 2
        angles = np.arange(cfg.max_seq_len, dtype=np.float64)[:, None] * model._inv_freq
        cos, sin = np.cos(angles), np.sin(angles)
        first, second = np.arange(half), np.arange(half, cfg.head_dim)
        dense = np.zeros((cfg.max_seq_len, cfg.head_dim, cfg.head_dim))
        dense[:, first, first] = cos
        dense[:, second, second] = cos
        dense[:, second, first] = -sin
        dense[:, first, second] = sin
        for position in range(cfg.max_seq_len):
            rotation = model._rotation_at(position)
            assert _bitwise_equal(rotation, dense[position])
            want = model._rope(heads, position)
            assert np.abs(heads @ rotation - want).max() <= 1e-15

    @pytest.mark.parametrize("head_dim", [2, 16, 64])
    def test_position_table_holds_2_head_dim_numbers_per_position(self, head_dim):
        model = TinyDecoder(TinyModelConfig(num_heads=1, model_dim=head_dim, head_dim=head_dim,
                                            max_seq_len=300))
        assert model._rotation_entries.nbytes <= 300 * 2 * head_dim * 8
        assert model._rotation_index.shape == (2 * head_dim,)

    def test_folded_products_match_the_unfolded_ones(self):
        from thinkprune.model import _inv_rms, _normed

        model = TinyDecoder(TinyModelConfig(**self.BENCH_SHAPE))
        cfg, w = model.config, model._w
        inv_scale = 1.0 / np.sqrt(cfg.head_dim)
        rng = np.random.default_rng(4)

        def close(got, want):
            return np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

        for _ in range(50):
            x = rng.standard_normal(cfg.model_dim) * 10.0 ** rng.uniform(-3, 3)
            for layer, (wqkv, _wo, mlp_in, _out) in enumerate(model._blocks):
                u = model._rms(x)
                q, k, v = (u @ w[f"layers.{layer}.w{p}"] for p in "qkv")
                assert close(_normed(x) @ wqkv, np.concatenate([q * inv_scale, k, v]))
                half = (x * (0.5 * _inv_rms(x))) @ mlp_in
                assert close(half, u @ mlp_in / 2)
            assert close(_normed(x) @ w["unembed"], model._rms(x) @ w["unembed"])

    def test_layer0_table_rows_equal_layer_0_of_the_forward(self):
        from thinkprune.model import _normed

        model = TinyDecoder(TinyModelConfig(**self.BENCH_SHAPE, max_seq_len=80))
        cfg = model.config
        wqkv = model._blocks[0][0]
        assert model._layer0_qkv.shape == (cfg.vocab_size, 3 * cfg.model_dim)
        for token in range(cfg.vocab_size):
            # what the forward computes at every later layer, given layer 0's input
            assert _bitwise_equal(model._layer0_qkv[token], _normed(model._w["embed"][token]) @ wqkv)
        # and a forward writes layer 0's key and value from the table
        state, _ = _decode_sequence(model, [10, 21, 7], prompt_len=1)
        model.forward_step(state, 9, 3, outputs="kv")
        qkv = model._layer0_qkv[9].reshape(3 * cfg.num_heads, cfg.head_dim)
        rotated = qkv[:2 * cfg.num_heads] @ model._rotation_at(3)
        assert _bitwise_equal(state.keys[0, :, 3], rotated[cfg.num_heads:])
        assert _bitwise_equal(state.values[0, :, 3], qkv[2 * cfg.num_heads:])

    def test_forward_matches_reference_at_every_width_with_dead_columns(self):
        model = TinyDecoder(TinyModelConfig(**self.BENCH_SHAPE, max_seq_len=400))
        cfg = model.config
        ids = np.random.default_rng(7).integers(NUM_RESERVED_IDS, cfg.vocab_size, 400).tolist()
        state = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim, ProtectedRegions(4, 0))
        masks = np.zeros((cfg.num_layers, cfg.num_heads, len(ids), len(ids)), dtype=bool)
        rng = np.random.default_rng(8)
        logits = []
        for position, tid in enumerate(ids):
            if position >= 8 and position % 16 == 0:
                # a different victim per (layer, head), so columns die unevenly
                state.apply_plan(EvictionPlan(cfg.num_layers, cfg.num_heads, {
                    (layer, head): frozenset({int(rng.choice(state.live_indices(layer, head)[4:]))})
                    for layer in range(cfg.num_layers) for head in range(cfg.num_heads)
                }))
            for (layer, head), live in state.live_sets().items():
                masks[layer, head, position, list(live)] = True
            masks[:, :, position, position] = True
            logits.append(decode_step(state, model, tid, position).logits)
        assert not state.live[:, :, :len(ids)].all()
        ref = model.reference_forward(ids, key_mask=masks)
        err = np.abs(np.stack(logits) - ref).max(axis=1) / np.maximum(1.0, np.abs(ref).max(axis=1))
        assert err.max() <= 1e-12


class TestOutputs:
    """forward_step's outputs keyword stops the forward early, changing no bit it computes."""

    @staticmethod
    def _pruned_cache(model, length):
        cfg = model.config
        ids = [10 + (7 * i) % 50 for i in range(length)]
        state, _ = _decode_sequence(model, ids, prompt_len=1)
        state.apply_plan(EvictionPlan(cfg.num_layers, cfg.num_heads, {
            (0, 0): frozenset({2, 3}), (0, 1): frozenset({3, 4}),
            (1, 0): frozenset({4, 1}), (1, 1): frozenset({2, length - 1}),
        }))
        return state

    @pytest.mark.parametrize("length", [5, 63, 64])
    @pytest.mark.parametrize("outputs", ["rows", "kv"])
    def test_early_stop_matches_the_full_forward_bitwise(self, length, outputs):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        full_state = self._pruned_cache(model, length)
        state = copy.deepcopy(full_state)
        full = model.forward_step(full_state, 9, length)
        out = model.forward_step(state, 9, length, outputs=outputs)
        assert out.logits is None
        # the new token's slot, then the whole cache
        assert _bitwise_equal(state.keys[:, :, length], full_state.keys[:, :, length])
        assert _bitwise_equal(state.values[:, :, length], full_state.values[:, :, length])
        if outputs == "rows":
            assert _bitwise_equal(out.rows, full.rows)
            assert (out.rows[0, 0, 2:4] == 0.0).all()
        else:
            assert out.rows is None
        # every outputs commits the slot once, as the full forward does
        assert state.next_index == full_state.next_index == length + 1
        assert (state.live == full_state.live).all()
        assert _bitwise_equal(state.keys, full_state.keys)
        assert _bitwise_equal(state.values, full_state.values)

    @pytest.mark.parametrize("outputs", ["rows", "kv"])
    def test_early_stop_requires_a_joining_token(self, outputs):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        state = self._pruned_cache(model, 5)
        with pytest.raises(ValueError, match="needs a token that joins at position 5, got 4"):
            model.forward_step(state, 9, 4, outputs=outputs)

    def test_unknown_outputs_rejected(self):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        state = self._pruned_cache(model, 5)
        with pytest.raises(ValueError, match="outputs must be"):
            model.forward_step(state, 9, 5, outputs="keys")


class TestInPlaceKv:
    """forward_step writes its new key/value into the cache slot at next_index
    and commits that slot; a query-only pass below next_index writes nothing."""

    @pytest.mark.parametrize("length", [5, 64])
    def test_joining_forward_commits_only_its_slot(self, length):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        cfg = model.config
        ids = [10 + (7 * i) % 50 for i in range(length)]
        state, _ = _decode_sequence(model, ids, prompt_len=1)
        state.apply_plan(EvictionPlan(cfg.num_layers, cfg.num_heads, {
            (0, 0): frozenset({2, 3}), (0, 1): frozenset({3, 4}),
            (1, 0): frozenset({4}), (1, 1): frozenset({2}),
        }))
        live = state.live[:, :, :length].copy()
        keys = state.keys[:, :, :length].copy()
        values = state.values[:, :, :length].copy()
        evicted = state.evicted_total
        arrays = (state.keys, state.values, state.live)
        model.forward_step(state, 9, length)
        # written in place: the cache was sized to max_seq_len by its first join
        assert all(now is before for now, before in zip((state.keys, state.values, state.live),
                                                         arrays))
        assert state.live.shape[2] == cfg.max_seq_len
        assert state.next_index == length + 1
        assert state.evicted_total == evicted == 6
        assert (state.live[:, :, :length] == live).all()
        assert state.live[:, :, length].all()
        assert not state.live[:, :, length + 1:].any()
        assert _bitwise_equal(state.keys[:, :, :length], keys)
        assert _bitwise_equal(state.values[:, :, :length], values)
        # the new key and value are in the slot: layer 0's depend only on
        # the token and its position
        u = model._rms(model._w["embed"][9])
        key = model._rope((u @ model._w["layers.0.wk"]).reshape(cfg.num_heads, cfg.head_dim), length)
        value = (u @ model._w["layers.0.wv"]).reshape(cfg.num_heads, cfg.head_dim)
        assert np.abs(state.keys[0, :, length] - key).max() < 1e-12
        assert np.abs(state.values[0, :, length] - value).max() < 1e-12

    @staticmethod
    def _snapshot(state):
        return (state.next_index, state.evicted_total, state.live.copy(),
                state.keys.copy(), state.values.copy())

    def _assert_unchanged(self, state, before):
        next_index, evicted, live, keys, values = before
        assert (state.next_index, state.evicted_total) == (next_index, evicted)
        assert state.live.shape == live.shape and (state.live == live).all()
        assert _bitwise_equal(state.keys, keys)
        assert _bitwise_equal(state.values, values)

    def test_query_below_next_index_writes_and_commits_nothing(self):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        state, _ = _decode_sequence(model, [10, 21, 7, 33, 14], prompt_len=1)
        before = self._snapshot(state)
        out = model.forward_step(state, 14, 4)
        self._assert_unchanged(state, before)
        assert out.rows.shape[2] == 5

    @pytest.mark.parametrize("position", [-1, 0, 3])
    def test_query_only_pass_runs_only_at_the_last_position(self, position):
        # an earlier query would attend the keys of the tokens after it
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        ids = [10, 21, 7, 33, 14]
        state, _ = _decode_sequence(model, ids, prompt_len=1)
        before = self._snapshot(state)
        with pytest.raises(ValueError, match=f"at position 4, got {position}"):
            model.forward_step(state, ids[position], position)
        self._assert_unchanged(state, before)
        logits = model.forward_step(state, ids[4], 4).logits
        assert np.abs(logits - model.reference_forward(ids)[4]).max() <= 1e-12

    @pytest.mark.parametrize("outputs", ["logits", "rows", "kv"])
    @pytest.mark.parametrize("length", [5, 64])
    def test_position_past_next_index_raises_before_mutating(self, outputs, length):
        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        state, _ = _decode_sequence(model, [10 + (7 * i) % 50 for i in range(length)])
        before = self._snapshot(state)
        with pytest.raises(ValueError, match=f"joins the cache at position {length}, "
                                             f"got {length + 1}"):
            model.forward_step(state, 9, length + 1, outputs=outputs)
        self._assert_unchanged(state, before)

    @pytest.mark.parametrize("length", [5, 64])
    def test_forward_raising_mid_layer_commits_nothing(self, monkeypatch, length):
        # the second MLP call is layer 1's, after that layer wrote its key/value
        from thinkprune import model as model_module

        model = TinyDecoder(TinyModelConfig(rng_seed=2))
        state, _ = _decode_sequence(model, [10 + (7 * i) % 50 for i in range(length)])
        live = state.live[:, :, :length].copy()
        silu = model_module._silu_of_double
        calls = []

        def failing(g):
            calls.append(g)
            if len(calls) == 2:
                raise ArithmeticError("injected")
            return silu(g)

        monkeypatch.setattr(model_module, "_silu_of_double", failing)
        with pytest.raises(ArithmeticError, match="injected"):
            model.forward_step(state, 9, length)
        assert len(calls) == 2
        assert state.next_index == length
        assert (state.live[:, :, :length] == live).all()
        assert not state.live[:, :, length:].any()
        # the slot is free again: the next forward joins there
        monkeypatch.setattr(model_module, "_silu_of_double", silu)
        model.forward_step(state, 9, length)
        assert state.next_index == length + 1

    @pytest.mark.parametrize("probe_at", [None, 50])
    def test_decode_and_probe_in_one_allocation_match_reference(self, probe_at):
        # The first join sizes the cache to max_seq_len. Decoding 110 tokens,
        # with or without the 25 probe tokens at 50-74 and the pruned cache
        # decoding resumes over, writes into the same arrays throughout.
        from thinkprune.engine import probe_cycle
        from thinkprune.policy import EvictionBudget, PolicyKind
        from thinkprune.scoring import default_probe
        from thinkprune.trace import ReasoningTrace, Token

        model = TinyDecoder(TinyModelConfig(rng_seed=5, max_seq_len=160))
        cfg = model.config
        prompt_len = 8
        ids = np.random.default_rng(6).integers(NUM_RESERVED_IDS, cfg.vocab_size, 110).tolist()
        state = KvCacheState(cfg.num_layers, cfg.num_heads, cfg.head_dim,
                             ProtectedRegions(prompt_len, 0))
        masks = np.zeros((cfg.num_layers, cfg.num_heads, len(ids), len(ids)), dtype=bool)
        logits = [decode_step(state, model, ids[0], 0).logits]
        masks[:, :, 0, 0] = True
        arrays = (state.keys, state.values, state.live)
        assert state.live.shape[2] == cfg.max_seq_len
        for position, tid in enumerate(ids[1:], start=1):
            if position == probe_at:
                trace = ReasoningTrace(
                    tuple(Token(i, t, token_text(t)) for i, t in enumerate(ids[:position])),
                    prompt_len,
                )
                record, _ = probe_cycle(state, model, trace, PolicyKind.RANDOM, EvictionBudget(6),
                                        eviction_seed=1)
                assert record.ran_probe and record.evicted_total > 0
            for (layer, head), live in state.live_sets().items():
                masks[layer, head, position, list(live)] = True
            masks[:, :, position, position] = True
            logits.append(decode_step(state, model, tid, position).logits)
        assert all(now is before for now, before in zip((state.keys, state.values, state.live),
                                                         arrays))
        ref = model.reference_forward(ids, key_mask=masks)
        rel = np.max(np.abs(np.stack(logits) - ref) / (np.abs(ref) + 1e-9))
        assert rel < 1e-6
