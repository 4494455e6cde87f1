"""Plan-cache regression tests.

A cached plan must be indistinguishable from a freshly built one —
identical spectra, identical operation counts — and the memoised
design-time tables must match their from-scratch definitions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.ffts import (
    PruningSpec,
    SplitRadixFFT,
    WaveletFFT,
    bit_reverse_permutation,
    plan_cache_stats,
    radix2_fft,
    split_radix_plan,
    wavelet_fft,
    wavelet_plan,
)
from repro.ffts.plancache import (
    bit_reversal,
    lagrange_denominators,
    split_radix_twiddles,
    twiddle_pair,
)
from repro.lomb import FastLomb, extirpolation_weights
from repro.wavelets import get_filter
from repro.wavelets import freq as wavelet_freq


class TestDesignTables:
    def test_bit_reversal_memoised_and_correct(self):
        perm_a = bit_reverse_permutation(32)
        perm_b = bit_reverse_permutation(32)
        assert perm_a is perm_b  # shared cache entry
        assert not perm_a.flags.writeable
        # definition check: reversing the 5-bit binary representation
        expected = [int(f"{i:05b}"[::-1], 2) for i in range(32)]
        np.testing.assert_array_equal(perm_a, expected)

    def test_radix2_uses_cached_tables(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(radix2_fft(x), np.fft.fft(x), atol=1e-9)

    def test_split_radix_twiddles_match_definition(self):
        w1, w3 = split_radix_twiddles(64)
        k = np.arange(16)
        np.testing.assert_allclose(w1, np.exp(-2j * np.pi * k / 64), atol=1e-15)
        np.testing.assert_allclose(w3, np.exp(-6j * np.pi * k / 64), atol=1e-15)
        assert split_radix_twiddles(64)[0] is w1

    def test_lagrange_denominators_match_factorials(self):
        for order in (2, 3, 4, 7):
            cached = lagrange_denominators(order)
            expected = [
                ((-1.0) ** (order - 1 - c))
                * math.factorial(c)
                * math.factorial(order - 1 - c)
                for c in range(order)
            ]
            np.testing.assert_array_equal(cached, expected)
            assert lagrange_denominators(order) is cached

    def test_extirpolation_weights_use_cached_denominators(self):
        cells, weights = extirpolation_weights(7.3, 64)
        assert np.isclose(weights.sum(), 1.0, rtol=1e-12)
        assert cells.size == weights.size == 4

    def test_twiddle_pair_matches_uncached_responses(self):
        bank = get_filter("db2")
        hl, hh = twiddle_pair(32, bank)
        ref_hl, ref_hh = wavelet_freq.twiddle_pair(32, bank)
        np.testing.assert_allclose(hl, ref_hl, atol=1e-15)
        np.testing.assert_allclose(hh, ref_hh, atol=1e-15)
        assert twiddle_pair(32, bank)[0] is hl


class TestPlanCaches:
    @pytest.mark.parametrize(
        "pruning",
        [
            None,
            PruningSpec.band_only(),
            PruningSpec.paper_mode(3),
            PruningSpec.paper_mode(2, dynamic=True),
        ],
    )
    def test_cached_wavelet_plan_matches_fresh_plan(self, rng, pruning):
        cached = wavelet_plan(128, pruning=pruning)
        fresh = WaveletFFT(128, pruning=pruning)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        out_cached, counts_cached = cached.transform_with_counts(x)
        out_fresh, counts_fresh = fresh.transform_with_counts(x)
        np.testing.assert_array_equal(out_cached, out_fresh)
        assert counts_cached == counts_fresh
        assert cached.static_counts() == fresh.static_counts()

    def test_wavelet_plan_identity(self):
        a = wavelet_plan(64, pruning=PruningSpec.paper_mode(1))
        b = wavelet_plan(64, pruning=PruningSpec.paper_mode(1))
        assert a is b
        assert wavelet_plan(64, pruning=PruningSpec.paper_mode(2)) is not a
        assert wavelet_plan(64, basis="db2", pruning=PruningSpec.paper_mode(1)) is not a

    def test_calibrated_thresholds_are_not_cached(self, rng):
        """Data-derived dynamic thresholds must not grow the plan cache."""
        spec = PruningSpec.paper_mode(3, dynamic=True)
        before = plan_cache_stats()["wavelet_plans"]
        a = wavelet_plan(64, pruning=spec.with_dynamic_threshold(0.123))
        b = wavelet_plan(64, pruning=spec.with_dynamic_threshold(0.123))
        assert plan_cache_stats()["wavelet_plans"] == before
        assert a is not b  # built fresh, but numerically identical
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_array_equal(a.transform(x), b.transform(x))

    def test_split_radix_plan_identity_and_equivalence(self, rng):
        a = split_radix_plan(64)
        assert split_radix_plan(64) is a
        fresh = SplitRadixFFT(64)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_array_equal(a.transform(x), fresh.transform(x))
        assert a.static_counts() == fresh.static_counts()

    def test_wavelet_fft_wrapper_uses_cache(self, rng):
        x = rng.standard_normal(64)
        before = plan_cache_stats()["wavelet_plans"]
        out1 = wavelet_fft(x)
        mid = plan_cache_stats()["wavelet_plans"]
        out2 = wavelet_fft(x)
        after = plan_cache_stats()["wavelet_plans"]
        assert mid >= before
        assert after == mid  # second call resolved from the cache
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_allclose(out1, np.fft.fft(x), atol=1e-8)

    def test_fastlomb_default_backend_is_shared(self):
        a = FastLomb(workspace_size=256)
        b = FastLomb(workspace_size=256)
        assert a.backend is b.backend

    def test_stats_shape(self):
        stats = plan_cache_stats()
        assert {
            "bit_reversal",
            "split_radix_twiddles",
            "lagrange_denominators",
            "twiddle_pairs",
            "keep_masks",
            "wavelet_plans",
            "split_radix_plans",
        } <= set(stats)
        assert all(v >= 0 for v in stats.values())

    def test_shared_plan_serves_systems(self):
        from repro.core.config import PSAConfig
        from repro.core.system import ConventionalPSA, QualityScalablePSA

        config = PSAConfig()
        conv_a = ConventionalPSA(config)
        conv_b = ConventionalPSA(config)
        assert conv_a.backend is conv_b.backend
        prop_a = QualityScalablePSA(config, pruning=PruningSpec.paper_mode(3))
        prop_b = QualityScalablePSA(config, pruning=PruningSpec.paper_mode(3))
        assert prop_a.backend is prop_b.backend


class TestBoundedCache:
    """The LRU layer under the plan caches: bounds, recency, pins."""

    def _make(self, maxsize=3):
        from repro.ffts.plancache import _BoundedCache

        return _BoundedCache(maxsize=maxsize)

    def test_get_put_roundtrip_and_counters(self):
        cache = self._make()
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = self._make(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b is now least recently used
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_pinned_entries_survive_pressure(self):
        cache = self._make(maxsize=1)
        cache.put("keep", 1)
        cache.pin("keep")
        for i in range(5):
            cache.put(f"junk{i}", i)
        assert cache.get("keep") == 1

    def test_pin_unknown_key_is_noop(self):
        cache = self._make()
        cache.pin("absent")
        assert cache.stats()["pinned"] == 0

    def test_pop_discards_pin(self):
        cache = self._make()
        cache.put("a", 1)
        cache.pin("a")
        assert cache.pop("a") == 1
        assert cache.stats()["pinned"] == 0

    def test_clear_empties_everything(self):
        cache = self._make()
        cache.put("a", 1)
        cache.pin("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["pinned"] == 0

    def test_detail_surface_shape(self):
        from repro.ffts.plancache import plan_cache_detail

        detail = plan_cache_detail()
        assert {
            "twiddle_pairs",
            "keep_masks",
            "wavelet_plans",
            "split_radix_plans",
            "provider_plans",
        } <= set(detail)
        for row in detail.values():
            assert {
                "size",
                "maxsize",
                "pinned",
                "hits",
                "misses",
                "evictions",
            } == set(row)

    def test_concurrent_get_and_put_keep_the_cache_consistent(self):
        """Threads racing get/put/eviction raise nothing and count every call.

        Without one lock around the LRU bookkeeping, a ``get`` that found
        its key could lose it to another thread's eviction before
        ``move_to_end`` ran, which raised ``KeyError``.
        """
        import sys
        import threading

        cache = self._make(maxsize=4)
        errors: list[BaseException] = []
        rounds = 4000

        def hammer(seed: int) -> None:
            try:
                for i in range(rounds):
                    key = (seed + i) % 8
                    if cache.get(key) is None:
                        cache.put(key, key)
            except BaseException as exc:  # collected for the assertion
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(k,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 4 * rounds
        assert stats["size"] <= 4

    def test_forked_child_gets_a_free_lock(self):
        """A fork while a parent thread holds the lock leaves the child a free one.

        Pool workers are forked from a process whose other threads use
        the caches; without a fresh lock, the child's first cache access
        would wait forever on a holder that does not exist in it.
        """
        import os

        cache = self._make()
        with cache._lock:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                os._exit(0 if cache._lock.acquire(timeout=5.0) else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_warm_pins_provider_plan(self):
        from repro.ffts.plancache import (
            _PROVIDER_PLANS,
            warm_execution_caches,
        )

        warm_execution_caches(64, provider="numpy")
        assert "numpy" in _PROVIDER_PLANS._pinned
