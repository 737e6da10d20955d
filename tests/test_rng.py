import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsig.rng import RngHandle, _smallest_k, derive_seed, mix64, normal_ppf

from helpers import refined_normal_ppf

# Reference splitmix64 outputs for seed 0 (first three words).
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def test_mix64_matches_reference_splitmix_stream():
    words = [mix64((i + 1) * GAMMA & MASK) for i in range(3)]
    assert tuple(words) == SPLITMIX64_SEED0


def test_vectorized_words_match_scalar_mix():
    rng = RngHandle(123456789, 7)
    words = rng.words(257)
    key = rng._key
    expected = [mix64((key + (i + 1) * GAMMA) & MASK) for i in range(257)]
    assert [int(w) for w in words] == expected


def test_same_seed_stream_reproduces_bitwise():
    a = RngHandle(42, 3).uniforms(1000)
    b = RngHandle(42, 3).uniforms(1000)
    assert np.array_equal(a, b)


def test_streams_and_seeds_differ():
    base = RngHandle(42, 0).uniforms(100)
    assert not np.array_equal(base, RngHandle(42, 1).uniforms(100))
    assert not np.array_equal(base, RngHandle(43, 0).uniforms(100))


def test_split_is_a_fresh_handle_on_a_derived_stream():
    parent = RngHandle(7, 5)
    child = parent.split(0)
    assert (child.seed, child.stream) != (parent.seed, parent.stream)
    fresh = RngHandle(child.seed, child.stream)
    assert np.array_equal(parent.split(0).uniforms(50), fresh.uniforms(50))
    assert not np.array_equal(parent.split(1).uniforms(50),
                              RngHandle(child.seed, child.stream).uniforms(50))


def test_derive_seed_distinct_and_deterministic():
    seeds = {derive_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(5, 2, 7) == derive_seed(5, 2, 7)
    assert derive_seed(5, 2, 7) != derive_seed(5, 7, 2)


def test_uniforms_open_interval():
    u = RngHandle(0, 0).uniforms(100_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12 * 100_000)


def test_subset_size_and_membership():
    rng = RngHandle(1, 0)
    s = rng.subset(100, 17)
    assert s.shape == (17,)
    assert np.unique(s).size == 17
    assert s.min() >= 0 and s.max() < 100
    assert np.array_equal(s, np.sort(s))


def test_subset_edge_sizes():
    rng = RngHandle(1, 0)
    assert RngHandle(1, 0).subset(5, 0).size == 0
    assert np.array_equal(RngHandle(1, 0).subset(5, 5), np.arange(5))
    with pytest.raises(ValueError):
        rng.subset(5, 6)


def stable_argsort_subset(u, k):
    """Reference selection rule: the first k entries of a stable argsort."""
    return np.sort(np.argsort(u, kind="stable")[:k])


POOL_AND_K = st.integers(0, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), pool_and_k=POOL_AND_K)
@example(seed=0, pool_and_k=(0, 0))
@example(seed=3, pool_and_k=(50, 0))
@example(seed=3, pool_and_k=(50, 50))
def test_subset_equals_stable_argsort_prefix(seed, pool_and_k):
    pool_size, k = pool_and_k
    u = RngHandle(seed, 7).uniforms(pool_size)
    rng = RngHandle(seed, 7)
    got = rng.subset(pool_size, k)
    assert got.dtype == np.intp
    assert np.array_equal(got, stable_argsort_subset(u, k))
    # exactly pool_size uniforms consumed, whatever k is
    assert np.array_equal(rng.uniforms(3), RngHandle(seed, 7).uniforms(pool_size + 3)[-3:])


def test_smallest_k_breaks_ties_by_lowest_index():
    u = np.array([0.5, 0.2, 0.5, 0.1, 0.5, 0.9, 0.5])
    # 0.1 and 0.2 are below the 4th smallest value 0.5; of the four 0.5s
    # at indices 0, 2, 4, 6 the two lowest fill the remaining slots.
    assert np.array_equal(_smallest_k(u, 4), [0, 1, 2, 3])
    assert np.array_equal(_smallest_k(u, 3), [0, 1, 3])
    assert np.array_equal(_smallest_k(u, 6), [0, 1, 2, 3, 4, 6])
    assert np.array_equal(_smallest_k(np.full(5, 0.25), 2), [0, 1])


@settings(max_examples=300, deadline=None)
@given(u=st.lists(st.sampled_from([0.125, 0.25, 0.5, 0.75]), max_size=40), data=st.data())
def test_smallest_k_ties_match_stable_argsort(u, data):
    u = np.array(u, dtype=np.float64)
    k = data.draw(st.integers(0, u.size), label="k")
    assert np.array_equal(_smallest_k(u, k), stable_argsort_subset(u, k))


def test_normal_ppf_against_erfc_refinement():
    u = np.concatenate([
        np.geomspace(1e-16, 0.02, 200),
        np.linspace(0.021, 0.979, 500),
        1.0 - np.geomspace(1e-16, 0.02, 200),
    ])
    x = normal_ppf(u)
    worst = 0.0
    for ui, xi in zip(u, x):
        truth = refined_normal_ppf(ui, xi)
        worst = max(worst, abs(xi - truth) / (1.0 + abs(truth)))
    assert worst < 4e-9


def test_normal_ppf_symmetry_and_domain():
    # dyadic u makes 1 - u exact, so the mirrored branches match bitwise
    u = np.concatenate([np.arange(1, 64), np.arange(64, 2 ** 19, 4096)]) / 2.0 ** 20
    assert np.array_equal(normal_ppf(u), -normal_ppf(1.0 - u))
    with pytest.raises(ValueError):
        normal_ppf(np.array([0.0]))
    with pytest.raises(ValueError):
        normal_ppf(np.array([1.0]))


def test_normals_moments():
    z = RngHandle(2024, 0).normals(1_000_000)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        RngHandle(0, -1)
    with pytest.raises(ValueError):
        RngHandle(0, 0).split(-1)
    with pytest.raises(ValueError):
        derive_seed(0, -2)
    # seeds are not reduced mod 2**64, so no two seeds alias one stream
    for seed in (-1, MASK + 1):
        with pytest.raises(ValueError, match="seed must lie in"):
            RngHandle(seed)
        with pytest.raises(ValueError, match="seed must lie in"):
            derive_seed(seed, 1)
    assert RngHandle(MASK).seed == MASK and derive_seed(MASK) == MASK
