"""Model-based test: TinyDecoder.forward_step and KvCacheState driven together.

Hypothesis draws interleavings of joining forwards in each outputs mode,
requeries of the last token, apply_plan evictions, remove_suffix, and
forwards that must raise. Beside the cache it keeps the token ids and, for
each position, the live mask its token joined under: the mask row that
reference_forward needs to reproduce that token's keys and values. After
every step:

- a forward's logits match reference_forward under the implied mask;
- its rows are exactly 0.0 at dead columns, and each row sums to 1;
- a rejected call leaves keys, values, live and next_index unchanged, and
  so does a requery;
- a joining forward that raises partway commits nothing, and leaves every
  slot below next_index as it was.

A requery attends with today's live set, while its token's keys and values
came from the live set it joined under. One mask row per token expresses
that only when the two agree below the last layer and the token is live in
every head, so for other requeries only the rows are checked.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from thinkprune import model as model_module
from thinkprune.cache import KvCacheState, ProtectedRegions
from thinkprune.errors import SequenceTooLong
from thinkprune.model import TinyDecoder, TinyModelConfig
from thinkprune.policy import EvictionPlan

VOCAB = 16


class ForwardMachine(RuleBasedStateMachine):
    @initialize(
        num_layers=st.integers(1, 2),
        num_heads=st.integers(1, 2),
        head_dim=st.sampled_from([2, 4]),
        max_seq_len=st.integers(4, 16),
        rng_seed=st.integers(0, 3),
        prompt_len=st.integers(0, 2),
        recent_window=st.integers(0, 2),
    )
    def setup(self, num_layers, num_heads, head_dim, max_seq_len, rng_seed, prompt_len,
              recent_window):
        self.model = TinyDecoder(TinyModelConfig(
            vocab_size=VOCAB, num_layers=num_layers, num_heads=num_heads,
            model_dim=num_heads * head_dim, head_dim=head_dim, max_seq_len=max_seq_len,
            rng_seed=rng_seed,
        ))
        self.cache = KvCacheState(num_layers, num_heads, head_dim,
                                  ProtectedRegions(prompt_len, recent_window))
        self.ids: list[int] = []
        # joined[p]: the (layers, heads, max_seq_len) live mask token p joined
        # under, itself included
        self.joined = np.zeros((num_layers, num_heads, max_seq_len, max_seq_len), dtype=bool)

    # --- helpers ------------------------------------------------------------

    @property
    def next_index(self) -> int:
        return len(self.ids)

    def snapshot(self):
        cache = self.cache
        return (cache.next_index, cache.evicted_total, cache.live.copy(),
                cache.keys.tobytes(), cache.values.tobytes())

    def assert_unchanged(self, before):
        next_index, evicted, live, keys, values = before
        cache = self.cache
        assert (cache.next_index, cache.evicted_total) == (next_index, evicted)
        assert cache.live.shape == live.shape and (cache.live == live).all()
        assert cache.keys.tobytes() == keys and cache.values.tobytes() == values

    def reject(self, error, call):
        before = self.snapshot()
        with pytest.raises(error):
            call()
        self.assert_unchanged(before)

    def check_rows(self, rows, live):
        """rows against the (layers, heads, width) live mask they attended under."""
        assert rows.shape == live.shape
        assert (rows[~live] == 0.0).all()
        assert np.abs(rows.sum(axis=2) - 1.0).max() <= 1e-12

    def check_logits(self, logits, ids, mask_rows):
        """logits of the last of ids against reference_forward, where token q
        attends under mask_rows[:, :, q]."""
        t = len(ids)
        want = self.model.reference_forward(ids, key_mask=mask_rows[:, :, :t, :t])[-1]
        assert np.abs(logits - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

    # --- accepted calls -----------------------------------------------------

    @rule(joins=st.lists(st.tuples(st.integers(0, VOCAB - 1),
                                   st.sampled_from(["logits", "logits", "rows", "kv"])),
                         min_size=1, max_size=6))
    def join(self, joins):
        """Join tokens at next_index, up to max_seq_len."""
        for token, outputs in joins[:self.model.config.max_seq_len - self.next_index]:
            n = self.next_index
            attends = np.ones(self.joined.shape[:2] + (n + 1,), dtype=bool)
            attends[:, :, :n] = self.cache.live[:, :, :n]
            out = self.model.forward_step(self.cache, token, n, outputs=outputs)
            self.ids.append(token)
            self.joined[:, :, n] = False
            self.joined[:, :, n, :n + 1] = attends
            assert self.cache.next_index == n + 1 and self.cache.live[:, :, n].all()
            assert (out.rows is None) == (outputs == "kv")
            assert (out.logits is None) == (outputs != "logits")
            if out.rows is not None:
                self.check_rows(out.rows, attends)
            if out.logits is not None:
                self.check_logits(out.logits, self.ids, self.joined)

    @precondition(lambda self: self.next_index > 0)
    @rule()
    def requery(self):
        n, token = self.next_index, self.ids[-1]
        live = self.cache.live[:, :, :n].copy()
        if not live.any(axis=2).all():
            self.reject(ValueError, lambda: self.model.forward_step(self.cache, token, n - 1))
            return
        before = self.snapshot()
        out = self.model.forward_step(self.cache, token, n - 1)
        self.assert_unchanged(before)
        self.check_rows(out.rows, live)
        joined = self.joined[:, :, n - 1, :n]
        if (live[:-1] == joined[:-1]).all() and live[-1, :, n - 1].all():
            mask_rows = self.joined.copy()
            mask_rows[:, :, n - 1, :n] = live
            self.check_logits(out.logits, self.ids, mask_rows)

    @rule(data=st.data(), most=st.booleans())
    def evict(self, data, most):
        """Evict the same drawn number of evictable tokens from each head of a
        layer, or as many as the layer's smallest pool holds."""
        evictable = self.cache.evictable()
        num_layers, num_heads = evictable.shape[:2]
        evicted = {}
        for layer in range(num_layers):
            pools = [np.flatnonzero(evictable[layer, head]).tolist() for head in range(num_heads)]
            limit = min(map(len, pools))
            size = limit if most else data.draw(st.integers(0, limit))
            for head, pool in enumerate(pools):
                chosen = data.draw(st.permutations(pool)) if pool else []
                evicted[(layer, head)] = frozenset(chosen[:size])
        plan = EvictionPlan(num_layers, num_heads, evicted)
        assert self.cache.apply_plan(plan) == sum(map(len, evicted.values()))

    @rule(back=st.integers(0, 4))
    def remove_suffix(self, back):
        start = max(0, self.next_index - back)
        self.cache.remove_suffix(start)
        del self.ids[start:]
        assert self.cache.next_index == start

    # --- calls that must raise ----------------------------------------------

    @precondition(lambda self: self.next_index < self.model.config.max_seq_len)
    @rule(token=st.integers(0, VOCAB - 1), layer=st.integers(0, 1))
    def join_that_raises(self, token, layer):
        """A joining forward that raises in a layer's MLP, after that layer
        wrote its key/value to the slot, commits nothing."""
        n, silu = self.next_index, model_module._silu_of_double
        calls = []

        def failing(g):
            calls.append(g)
            if len(calls) > min(layer, self.model.config.num_layers - 1):
                raise ArithmeticError("injected")
            return silu(g)

        cache = self.cache
        evicted, live = cache.evicted_total, cache.live[:, :, :n].copy()
        keys, values = cache.keys[:, :, :n].tobytes(), cache.values[:, :, :n].tobytes()
        with mock.patch.object(model_module, "_silu_of_double", failing):
            with pytest.raises(ArithmeticError):
                self.model.forward_step(cache, token, n)
        assert (cache.next_index, cache.evicted_total) == (n, evicted)
        assert (cache.live[:, :, :n] == live).all() and not cache.live[:, :, n:].any()
        assert cache.keys[:, :, :n].tobytes() == keys and cache.values[:, :, :n].tobytes() == values

    @rule(kind=st.sampled_from(["past", "below", "early-stop"]), data=st.data())
    def rejected(self, kind, data):
        """A join past next_index, a query-only pass below the last token, or
        "rows" or "kv" for a token that does not join."""
        n, max_seq_len = self.next_index, self.model.config.max_seq_len
        outputs = "logits"
        if kind == "past":
            position = n + data.draw(st.integers(0 if n == max_seq_len else 1, 3))
            outputs = data.draw(st.sampled_from(["logits", "rows", "kv"]))
        elif kind == "below":
            position = data.draw(st.integers(-2, n - 2))
        else:
            position = data.draw(st.integers(-1, n - 1))
            outputs = data.draw(st.sampled_from(["rows", "kv"]))
        error = SequenceTooLong if position >= max_seq_len else ValueError
        self.reject(error, lambda: self.model.forward_step(self.cache, 5, position,
                                                           outputs=outputs))

    @invariant()
    def cache_follows_the_ids(self):
        cache = self.cache
        assert cache.next_index == self.next_index
        assert not cache.live[:, :, self.next_index:].any()


ForwardMachine.TestCase.settings = settings(
    derandomize=True, deadline=None, max_examples=100, stateful_step_count=50,
)
TestForwardStepAgainstReference = ForwardMachine.TestCase
