"""PrefixCacheStore radix-tree semantics + the REPRO_DEBUG_CACHE mutator matrix.

Three suites ride on top of the basic store tests in ``test_kv_cache.py``:

* **LRU over leaves under a token capacity** — ``match`` and ``put``
  refresh recency, shared prefixes are stored once, and over capacity the
  least recent leaf goes, so a unique tail is evicted before the scaffold
  it hangs from;
* **interleaved fork/trim** — zero-copy forks taken at arbitrary trim
  lengths between store operations never perturb the stored segments;
* **debug-guard mutator matrix** — with ``REPRO_DEBUG_CACHE=1`` every
  in-place write class that lint rule R1 recognizes statically
  (subscript store through a k/v key, augmented assignment, ``.fill()``,
  ``np.copyto``, ``out=``) raises at runtime on a forked cache, from a
  plain prefill or from the store, so the env guard and the lint rule
  enforce the same attention contract.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.model import (
    ModelConfig,
    PrefixCacheStore,
    TransformerLM,
    cache_length,
    fork_cache,
)


def small_model(seed=0, vocab=64, max_seq_len=64):
    return TransformerLM(
        ModelConfig(
            vocab_size=vocab, d_model=32, n_layers=2, n_heads=4,
            max_seq_len=max_seq_len,
        ),
        seed=seed,
    )


def snapshot(cache):
    """Deep copy of every cached tensor, for before/after comparisons."""
    return [
        {key: layer[key].copy() for key in ("k", "v")} for layer in cache
    ]


def assert_cache_equal(cache, saved):
    assert len(cache) == len(saved)
    for layer, ref in zip(cache, saved):
        for key in ("k", "v"):
            np.testing.assert_array_equal(layer[key], ref[key])


def stored(store, ids):
    """The stored K/V and logits for exactly ``ids``, via a match."""
    matched = store.match(list(ids) + [63])
    assert matched is not None and matched[1] == len(ids), ids
    return matched[0]


class TestStoreLRU:
    """match() and put() refresh recency; over capacity the least recent
    leaf is evicted."""

    def test_eviction_is_fifo_without_matches(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=6)
        prefixes = [store.put(model.prefill([i, i + 1])) for i in (1, 3, 5, 7)]
        assert len(store) == 3 and store.tokens == 6
        assert store.match([1, 2, 9]) is None  # oldest prompt gone
        for prefix in prefixes[1:]:
            got = stored(store, prefix.token_ids)
            assert_cache_equal(got.cache, snapshot(prefix.cache))

    def test_match_refreshes_lru_position(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=6)
        store.put(model.prefill([1, 2, 3]))
        store.put(model.prefill([4, 5, 6]))
        # touching [1, 2, 3] makes it the most recent leaf ...
        prefix, overlap = store.match([1, 2, 3, 9])
        assert prefix.token_ids == (1, 2, 3) and overlap == 3
        # ... so the next eviction removes the *untouched* prompt instead
        store.put(model.prefill([7, 8, 9]))
        assert store.match([4, 5, 6, 9]) is None
        assert store.match([1, 2, 3, 9])[1] == 3

    def test_repeated_matches_keep_entry_alive_across_evictions(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=6)
        scaffold = store.put(model.prefill([10, 11, 12, 13]))
        for step in range(4):
            store.put(model.prefill([20 + step, 21 + step]))
            got = stored(store, scaffold.token_ids)
            assert_cache_equal(got.cache, snapshot(scaffold.cache))
        assert len(store) == 2
        assert store.evictions == 3

    def test_put_dedupes_identical_prefix(self):
        """Re-putting a stored prompt adds no tokens and evicts nothing."""
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=6)
        store.put(model.prefill([1, 2, 3]))
        store.put(model.prefill([4, 5, 6]))
        again = model.prefill([1, 2, 3])  # identical token ids
        assert store.put(again) is again
        assert (len(store), store.tokens, store.evictions) == (2, 6, 0)
        assert store.match([4, 5, 6, 9])[1] == 3
        assert store.match([1, 2, 3, 9])[1] == 3

    def test_put_dedupe_refreshes_lru_position(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=6)
        store.put(model.prefill([1, 2, 3]))
        store.put(model.prefill([4, 5, 6]))
        store.put(model.prefill([1, 2, 3]))  # refresh: now most recent
        store.put(model.prefill([7, 8, 9]))  # evicts [4,5,6], not [1,2,3]
        assert store.match([4, 5, 6, 9]) is None
        assert store.match([1, 2, 3, 9])[1] == 3
        assert store.evictions == 1

    def test_eviction_counter_and_stats_snapshot(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=4)
        for ids in ([1, 2], [3, 4], [5, 6], [7, 8]):
            store.put(model.prefill(ids))
        assert store.evictions == 2
        assert store.match([7, 8, 9]) is not None
        assert store.match([90, 91]) is None
        assert store.stats() == {
            "tokens": 4,
            "nodes": 2,
            "hits": 1,
            "misses": 1,
            "evictions": 2,
        }

    def test_hits_misses_accounting_interleaved(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=8)
        store.put(model.prefill([1, 2]))
        assert store.match([1, 2, 3]) is not None
        assert store.match([40, 41]) is None
        store.put(model.prefill([5, 6]))
        assert store.match([5, 6, 7]) is not None
        assert store.match([9, 1, 2]) is None  # only a leading run counts
        assert (store.hits, store.misses) == (2, 2)


class TestRadixTree:
    """Shared prefixes are stored once; a unique tail goes before the
    scaffold it hangs from."""

    def test_shared_prefix_is_stored_once(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=64)
        a = store.put(model.prefill([1, 2, 3, 4]))
        b = store.put(model.prefill([1, 2, 5, 6, 7]))
        # [1, 2] is split off and shared by both tails
        assert (store.tokens, len(store)) == (2 + 2 + 3, 3)
        for prefix in (a, b):
            got = stored(store, prefix.token_ids)
            for layer, ref in zip(got.cache, prefix.cache):
                for key in ("k", "v"):
                    np.testing.assert_allclose(
                        layer[key], ref[key], rtol=1e-6, atol=1e-7
                    )
            np.testing.assert_array_equal(got.last_logits, prefix.last_logits)

    def test_match_inside_an_edge_trims_and_has_no_logits(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=64)
        full = store.put(model.prefill([1, 2, 3, 4, 5]))
        prefix, overlap = store.match([1, 2, 3, 9])
        assert overlap == 3 and prefix.last_logits is None
        assert cache_length(prefix.cache) == 3
        assert_cache_equal(
            prefix.cache,
            [{k: layer[k][:, :, :3] for k in ("k", "v")} for layer in full.cache],
        )

    def test_split_keeps_each_prompts_boundary_logits(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=64)
        long = store.put(model.prefill([1, 2, 3, 4]))
        short = store.put(model.prefill([1, 2]))  # ends inside the edge
        assert (store.tokens, len(store)) == (4, 2)
        np.testing.assert_array_equal(
            store.match([1, 2])[0].last_logits, short.last_logits
        )
        np.testing.assert_array_equal(
            store.match([1, 2, 3, 4])[0].last_logits, long.last_logits
        )
        assert store.match([1, 2, 3])[0].last_logits is None

    def test_stored_logits_are_owned_copies(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=64)
        store.put(model.prefill([1, 2, 3]))
        logits = store.match([1, 2, 3])[0].last_logits
        assert logits.flags.owndata and not logits.flags.writeable

    def test_unique_tails_evicted_before_their_scaffold(self):
        model = small_model()
        scaffold = [10, 11, 12, 13, 14, 15]
        store = PrefixCacheStore(capacity_tokens=len(scaffold) + 4)
        for i in range(6):
            store.put(model.prefill(scaffold + [20 + i, 40 + i]))
            assert store.tokens <= store.capacity_tokens
            assert store.match(scaffold + [60])[1] == len(scaffold)
        # the two newest tails are resident, the older ones are gone
        assert store.match(scaffold + [25, 45])[1] == len(scaffold) + 2
        assert store.match(scaffold + [24, 44])[1] == len(scaffold) + 2
        assert store.match(scaffold + [23, 43])[1] == len(scaffold)

    def test_evicting_a_leaf_frees_its_segment(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=4)
        store.put(model.prefill([1, 2, 3, 4]))
        segment = weakref.ref(stored(store, [1, 2, 3, 4]).cache[0]["k"].base)
        assert segment() is not None
        store.put(model.prefill([5, 6]))  # the only leaf, [1..4], goes
        gc.collect()
        assert segment() is None
        assert (store.tokens, len(store)) == (2, 1)

    def test_match_results_are_read_only(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=64)
        store.put(model.prefill([1, 2, 3, 4]))
        store.put(model.prefill([1, 2, 7]))
        for ids in ([1, 2, 3, 4], [1, 2, 7], [1, 2]):
            for layer in store.match(ids)[0].cache:
                assert not layer["k"].flags.writeable
                assert not layer["v"].flags.writeable

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PrefixCacheStore(capacity_tokens=0)


class TestInterleavedForkTrim:
    """Forks at varying trims never disturb stored parents."""

    def test_fork_trim_sequence_leaves_parents_intact(self):
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=9)
        ids_a = [1, 2, 3, 4, 5, 6]
        ids_b = [1, 2, 9, 10]
        store.put(model.prefill(ids_a))
        store.put(model.prefill(ids_b))
        saved_a = snapshot(stored(store, ids_a).cache)
        saved_b = snapshot(stored(store, ids_b).cache)

        # interleave matches and trimmed forks
        forks = []
        for length in (2, 4, 6):
            prefix, overlap = store.match(ids_a[:length] + [50])
            assert overlap == length
            forks.append(prefix.fork(length=length))
        forks.append(store.match(ids_b)[0].fork(length=3))
        # evicts a's tail, the least recently matched leaf, mid-sequence
        store.put(model.prefill([30, 31]))
        assert store.evictions == 1 and store.match(ids_a)[1] == 2

        for length, fork in zip((2, 4, 6, 3), forks):
            assert cache_length(fork) == length
        assert_cache_equal(stored(store, ids_b).cache, saved_b)
        # the forks still read the values they were taken from
        for fork, (saved, length) in zip(
            forks, [(saved_a, 2), (saved_a, 4), (saved_a, 6), (saved_b, 3)]
        ):
            for layer, ref in zip(fork, saved):
                for key in ("k", "v"):
                    np.testing.assert_array_equal(
                        layer[key][0], ref[key][0, :, :length]
                    )

    def test_trimmed_fork_is_zero_copy_view_of_parent_slice(self):
        model = small_model(seed=2)
        ids = [3, 1, 4, 1, 5, 9, 2, 6]
        full = model.prefill(ids)
        trimmed = full.fork(length=5)
        for layer, parent in zip(trimmed, full.cache):
            for key in ("k", "v"):
                np.testing.assert_array_equal(
                    layer[key], parent[key][:, :, :5, :]
                )
                assert np.shares_memory(layer[key], parent[key])

    def test_extending_one_fork_leaves_siblings_and_parent_alone(self):
        model = small_model(seed=1)
        pc = model.prefill([7, 8, 9, 10])
        saved = snapshot(pc.cache)
        left = pc.fork(length=4)
        right = pc.fork(length=2)
        saved_right = snapshot(right)
        model.forward(np.asarray([[11, 12]]), start_pos=4, cache=left)
        assert cache_length(left) == 6
        assert_cache_equal(pc.cache, saved)
        assert_cache_equal(right, saved_right)

    def test_fork_length_beyond_prefix_raises(self):
        model = small_model()
        pc = model.prefill([1, 2, 3])
        with pytest.raises(ValueError):
            pc.fork(length=4)

    def test_store_entries_usable_after_guarded_forks(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=8)
        store.put(model.prefill([1, 2, 3, 4]))
        saved = snapshot(stored(store, [1, 2, 3, 4]).cache)
        fork = store.match([1, 2, 3, 9])[0].fork(length=3)
        assert not fork[0]["k"].flags.writeable
        # the stored prompt is unchanged and still matchable
        assert_cache_equal(stored(store, [1, 2, 3, 4]).cache, saved)


def _layer(cache):
    return cache[0]


def mutate_subscript(layer):
    layer["k"][..., 0] = 0.0  # lint: disable=R1 (intentional violation under test)


def mutate_aug_slot(layer):
    layer["v"] += 1.0  # lint: disable=R1 (intentional violation under test)


def mutate_aug_array(layer):
    k = layer["k"]
    k *= 2.0  # lint: disable=R1 (intentional violation under test)


def mutate_fill(layer):
    layer["k"].fill(0.0)  # lint: disable=R1 (intentional violation under test)


def mutate_copyto(layer):
    np.copyto(layer["v"], 0.0)  # lint: disable=R1 (intentional violation under test)


def mutate_out_kwarg(layer):
    np.negative(layer["k"], out=layer["k"])  # lint: disable=R1 (intentional violation under test)


MUTATORS = [
    pytest.param(mutate_subscript, id="subscript-store"),
    pytest.param(mutate_aug_slot, id="augmented-kv-slot"),
    pytest.param(mutate_aug_array, id="augmented-array"),
    pytest.param(mutate_fill, id="fill-method"),
    pytest.param(mutate_copyto, id="copyto"),
    pytest.param(mutate_out_kwarg, id="out-kwarg"),
]


class TestDebugGuardMutatorMatrix:
    """Every write class R1 flags statically also raises under the guard."""

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_mutator_raises_on_forked_cache(self, monkeypatch, mutate):
        # the fork is a plain slice view: writable without the guard,
        # which isolates the guard as the thing that trips
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        model = small_model()
        pc = model.prefill([1, 2, 3, 4])
        forked = fork_cache(pc.cache, length=3)
        saved = snapshot(pc.cache)
        with pytest.raises(ValueError):
            mutate(_layer(forked))
        # the failed write must not have partially landed in the parent
        assert_cache_equal(pc.cache, saved)

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_mutator_succeeds_silently_without_guard(self, monkeypatch, mutate):
        # control cell: the same writes go through (and corrupt shared
        # state!) when the guard is off — which is exactly why R1 exists
        monkeypatch.delenv("REPRO_DEBUG_CACHE", raising=False)
        model = small_model()
        pc = model.prefill([1, 2, 3, 4])
        forked = fork_cache(pc.cache, length=3)
        mutate(_layer(forked))  # no raise

    def test_guard_accepts_any_truthy_value(self, monkeypatch):
        for on in ("1", "yes", "true", "on", "2"):
            monkeypatch.setenv("REPRO_DEBUG_CACHE", on)
            model = small_model()
            forked = model.prefill([1, 2]).fork()
            assert not forked[0]["k"].flags.writeable, f"value {on!r}"

    def test_trimmed_guarded_fork_is_read_only_at_every_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        model = small_model()
        pc = model.prefill([5, 6, 7, 8])
        forked = fork_cache(pc.cache, length=2)
        for layer in forked:
            for key in ("k", "v"):
                assert not layer[key].flags.writeable


class TestStoreUnderGuard:
    """The same guard holds for forks of the radix store, and turning it
    on changes no serving output."""

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_mutator_raises_on_store_fork(self, monkeypatch, mutate):
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=16)
        store.put(model.prefill([1, 2, 3, 4]))
        store.put(model.prefill([1, 2, 5]))
        saved = snapshot(stored(store, [1, 2, 3, 4]).cache)
        forked = store.match([1, 2, 3, 9])[0].fork()
        with pytest.raises(ValueError):
            mutate(_layer(forked))
        assert_cache_equal(stored(store, [1, 2, 3, 4]).cache, saved)

    def test_stored_segments_intact_after_many_forks(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        model = small_model()
        store = PrefixCacheStore(capacity_tokens=32)
        prompts = ([1, 2, 3, 4, 5, 6], [1, 2, 3, 7, 8], [1, 9, 10])
        for ids in prompts:
            store.put(model.prefill(ids))
        saved = {tuple(ids): snapshot(stored(store, ids).cache) for ids in prompts}
        rng = np.random.default_rng(0)
        for _ in range(40):
            ids = list(prompts[int(rng.integers(len(prompts)))])
            prefix, overlap = store.match(ids + [60])
            length = int(rng.integers(1, overlap + 1))
            fork = prefix.fork(length=length)
            model.forward(np.asarray([[61, 62]]), start_pos=length, cache=fork)
            assert cache_length(fork) == length + 2
        for ids in prompts:
            assert_cache_equal(stored(store, ids).cache, saved[tuple(ids)])

    def test_engine_outputs_unchanged_under_guard(self, monkeypatch):
        from repro.serve import SchedulerConfig, ServeConfig, ServeEngine
        from tests.test_serve import rotating_scaffold_requests

        def run():
            engine = ServeEngine(
                small_model(),
                config=ServeConfig(scheduler=SchedulerConfig(token_budget=100)),
            )
            for request in rotating_scaffold_requests():
                engine.submit(request)
            return [
                (s.output_ids, s.final_logits, s.prefix_hit_tokens)
                for s in engine.drain()
            ]

        monkeypatch.delenv("REPRO_DEBUG_CACHE", raising=False)
        plain = run()
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        guarded = run()
        assert len(plain) == len(guarded) == 30
        for (out_p, logits_p, hit_p), (out_g, logits_g, hit_g) in zip(plain, guarded):
            assert out_p == out_g and hit_p == hit_g
            if logits_p is None:
                assert logits_g is None
            else:
                np.testing.assert_array_equal(logits_p, logits_g)
