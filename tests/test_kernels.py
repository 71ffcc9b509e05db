"""Tests for the sampler inner loops in repro.kernels.

Hypothesis property tests for the parity edge cases of the ported loops
(zero draws, exhausted strata, single-record strata, empty groups), the
bootstrap core's bitwise agreement with its float-product reference, the
conservation laws of the integer spreads, and checkpoint roundtrips of
the stratum pool, including states written by older checkpoints.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine.pipeline import StratumPool
from repro.engine.policies import marginal_variance_reduction
from repro.core.types import StratumSample
from repro.kernels import (
    bootstrap_resample_stats,
    bucket_by_stratum,
    floor_spread,
    largest_remainder,
)


# ---------------------------------------------------------------------------
# Parity property tests: edge cases of the ported loops
# ---------------------------------------------------------------------------


@st.composite
def stratum_and_draws(draw):
    """A sorted stratum plus a subset to draw (possibly empty or all)."""
    size = draw(st.integers(min_value=1, max_value=60))
    base = draw(
        st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    stratum = np.sort(np.asarray(base, dtype=np.int64))
    count = draw(st.sampled_from([0, 1, size]) | st.integers(0, size))
    picks = draw(st.permutations(list(range(size))))[:count]
    return stratum, stratum[np.asarray(sorted(picks), dtype=np.int64)]


class TestPoolParity:
    @settings(max_examples=60, deadline=None)
    @given(stratum_and_draws())
    def test_gather_and_mark_match_direct_mask_ops(self, case):
        stratum, drawn = case
        pool = StratumPool([stratum])
        pool.mark_drawn(0, drawn)
        mask = np.ones(stratum.size, dtype=bool)
        mask[np.searchsorted(stratum, drawn)] = False
        np.testing.assert_array_equal(pool.candidates(0), stratum[mask])
        assert pool.remaining[0] == stratum.size - drawn.size

    def test_zero_draws_is_a_noop(self):
        stratum = np.array([3, 7, 11], dtype=np.int64)
        pool = StratumPool([stratum])
        pool.mark_drawn(0, np.empty(0, dtype=np.int64))
        np.testing.assert_array_equal(pool.candidates(0), stratum)
        assert pool.remaining[0] == 3

    def test_exhausting_a_stratum(self):
        stratum = np.array([2, 5, 9], dtype=np.int64)
        pool = StratumPool([stratum])
        pool.mark_drawn(0, stratum)  # count == capacity
        assert pool.candidates(0).size == 0
        assert pool.remaining[0] == 0

    def test_single_record_stratum(self):
        pool = StratumPool([np.array([42], dtype=np.int64)])
        np.testing.assert_array_equal(pool.candidates(0), [42])
        pool.mark_drawn(0, np.array([42], dtype=np.int64))
        assert pool.candidates(0).size == 0
@st.composite
def bucket_case(draw):
    num_strata = draw(st.integers(min_value=1, max_value=6))
    records = draw(st.integers(min_value=1, max_value=50))
    assignment = np.asarray(
        draw(
            st.lists(
                st.integers(0, num_strata - 1),
                min_size=records,
                max_size=records,
            )
        ),
        dtype=np.int64,
    )
    draws = draw(st.integers(min_value=0, max_value=40))
    indices = np.asarray(
        draw(st.lists(st.integers(0, records - 1), min_size=draws, max_size=draws)),
        dtype=np.int64,
    )
    matched = np.asarray(
        draw(st.lists(st.booleans(), min_size=draws, max_size=draws)), dtype=bool
    )
    values = np.asarray(
        draw(
            st.lists(
                st.floats(-50, 50, allow_nan=False),
                min_size=draws,
                max_size=draws,
            )
        ),
        dtype=float,
    )
    return assignment, indices, matched, values, num_strata


def _triples_equal(got, expected):
    assert len(got) == len(expected)
    for (gi, gm, gv), (ei, em, ev) in zip(got, expected):
        np.testing.assert_array_equal(gi, ei)
        np.testing.assert_array_equal(gm, em)
        np.testing.assert_array_equal(
            gv.view(np.uint64) if gv.size else gv,
            ev.view(np.uint64) if ev.size else ev,
        )  # bitwise: NaN masks must match exactly


class TestBucketParity:
    @settings(max_examples=60, deadline=None)
    @given(bucket_case())
    def test_bucketing_matches_boolean_mask_reference(self, case):
        assignment, indices, matched, values, num_strata = case
        got = bucket_by_stratum(
            assignment, indices, matched, values, num_strata
        )
        stratum_of = assignment[indices]
        masked = np.where(matched, values, np.nan)
        expected = [
            (indices[stratum_of == k], matched[stratum_of == k], masked[stratum_of == k])
            for k in range(num_strata)
        ]
        _triples_equal(got, expected)

    def test_empty_draw_log_yields_empty_strata(self):
        got = bucket_by_stratum(
            np.zeros(5, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
            np.empty(0, dtype=float),
            3,
        )
        assert len(got) == 3
        for gi, gm, gv in got:
            assert gi.size == gm.size == gv.size == 0
@st.composite
def weight_vector(draw):
    k = draw(st.integers(min_value=1, max_value=10))
    raw = draw(
        st.lists(
            st.floats(1e-6, 1.0, allow_nan=False), min_size=k, max_size=k
        )
    )
    w = np.asarray(raw, dtype=float)
    return w / w.sum()


class TestIntegerSpreads:
    @settings(max_examples=80, deadline=None)
    @given(weight_vector(), st.integers(min_value=0, max_value=500))
    def test_floor_spread_conserves_the_batch(self, weights, batch):
        counts = floor_spread(weights, batch)
        assert counts.sum() == batch
        # only the argmax stratum is topped up; floors never exceed weight share
        floors = np.floor(weights * batch).astype(np.int64)
        extra = counts - floors
        assert extra.min() >= 0
        assert np.flatnonzero(extra).tolist() in ([], [int(np.argmax(weights))])

    @settings(max_examples=80, deadline=None)
    @given(weight_vector(), st.integers(min_value=0, max_value=500))
    def test_largest_remainder_conserves_the_total(self, weights, total):
        counts = largest_remainder(weights, total)
        assert counts.sum() == total
        assert counts.min() >= 0
@st.composite
def sample_list(draw):
    num_strata = draw(st.integers(min_value=1, max_value=6))
    samples = []
    for k in range(num_strata):
        n = draw(st.integers(min_value=0, max_value=30))
        matches = np.asarray(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        )
        values = np.asarray(
            draw(
                st.lists(
                    st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n
                )
            ),
            dtype=float,
        )
        samples.append(
            StratumSample(
                stratum=k,
                indices=np.arange(n, dtype=np.int64),
                matches=matches,
                values=np.where(matches, values, np.nan),
            )
        )
    return samples


class TestPriorityParity:
    @settings(max_examples=60, deadline=None)
    @given(sample_list())
    def test_priority_is_finite_and_nonnegative(self, samples):
        priority = marginal_variance_reduction(samples)
        assert priority.shape == (len(samples),)
        assert np.all(np.isfinite(priority))
        assert np.all(priority >= 0)

    def test_all_empty_strata_explore_uniformly(self):
        samples = [StratumSample(stratum=k) for k in range(4)]
        np.testing.assert_array_equal(
            marginal_variance_reduction(samples), np.ones(4)
        )


@st.composite
def resample_case(draw):
    """A stratum's match/value columns plus a resample index matrix."""
    n = draw(st.sampled_from([1, 2]) | st.integers(min_value=1, max_value=40))
    matches = np.asarray(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    raw = np.asarray(
        draw(
            st.lists(
                st.floats(-1e6, 1e6) | st.sampled_from([np.nan, np.inf, -np.inf, -0.0]),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=float,
    )
    num_bootstrap = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    resample_idx = np.random.default_rng(seed).integers(
        0, n, size=(num_bootstrap, n)
    )
    return matches, np.where(matches, raw, 0.0), resample_idx


class TestBootstrapResampleParity:
    @settings(max_examples=100, deadline=None)
    @given(resample_case())
    def test_matches_the_float_product_reference(self, case):
        matches, values, resample_idx = case
        # The earlier formula: a float 0/1 gather, summed, and the value
        # gather multiplied by it before the row sum.
        mf = matches.astype(float)
        expected_positives = mf[resample_idx].sum(axis=1)
        with np.errstate(invalid="ignore"):
            expected_sums = (values[resample_idx] * mf[resample_idx]).sum(axis=1)
        with np.errstate(invalid="ignore"):
            positives, sums = bootstrap_resample_stats(matches, values, resample_idx)
        np.testing.assert_array_equal(positives, expected_positives)
        assert (positives / matches.size).tobytes() == (
            expected_positives / matches.size
        ).tobytes()
        assert sums.tobytes() == expected_sums.tobytes()


# ---------------------------------------------------------------------------
# Checkpointing: the pool survives a roundtrip, and older states restore
# ---------------------------------------------------------------------------


class TestPoolPickling:
    def test_roundtrip_preserves_masks(self):
        stratum = np.arange(10, dtype=np.int64)
        pool = StratumPool([stratum])
        pool.mark_drawn(0, np.array([2, 5], dtype=np.int64))
        clone = pickle.loads(pickle.dumps(pool))
        np.testing.assert_array_equal(clone.candidates(0), pool.candidates(0))
        np.testing.assert_array_equal(clone.remaining, pool.remaining)

    def test_pickle_payload_holds_only_data(self):
        pool = StratumPool([np.arange(4, dtype=np.int64)])
        state = pool.__getstate__()
        assert sorted(state) == ["_available", "_strata", "remaining"]
        assert not any(callable(v) for v in state.values())

    def test_legacy_tuple_state_restores(self):
        # The oldest checkpoints pickled __slots__ as a (dict, slots) tuple.
        stratum = np.arange(6, dtype=np.int64)
        legacy_state = (
            None,
            {
                "_strata": [stratum],
                "_available": [np.ones(6, dtype=bool)],
                "remaining": np.array([6], dtype=np.int64),
            },
        )
        pool = StratumPool.__new__(StratumPool)
        pool.__setstate__(legacy_state)
        np.testing.assert_array_equal(pool.candidates(0), stratum)

    def test_state_naming_a_kernel_backend_restores(self):
        # Checkpoints written while pools carried a kernel backend name
        # store it under ``_kernel_backend``; the name is ignored.
        stratum = np.arange(5, dtype=np.int64)
        available = np.array([True, False, True, True, False])
        pool = StratumPool.__new__(StratumPool)
        pool.__setstate__(
            {
                "_strata": [stratum],
                "_available": [available.copy()],
                "remaining": np.array([3], dtype=np.int64),
                "_kernel_backend": "numba",
            }
        )
        np.testing.assert_array_equal(pool.candidates(0), stratum[available])
        np.testing.assert_array_equal(pool.remaining, [3])
        assert pool.__getstate__().keys() == {"_strata", "_available", "remaining"}
