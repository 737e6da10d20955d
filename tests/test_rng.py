import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsig import cueworld, verify
from dualsig.core import ValidationError
from dualsig.rng import RngHandle, _mix64, _normal_ppf, _smallest_k, derive_seed

from helpers import refined_normal_ppf

# Reference splitmix64 outputs for seed 0 (first three words).
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def test_mix64_matches_reference_splitmix_stream():
    words = [_mix64((i + 1) * GAMMA & MASK) for i in range(3)]
    assert tuple(words) == SPLITMIX64_SEED0


def test_vectorized_words_match_scalar_mix():
    rng = RngHandle(123456789, 7)
    words = rng.words(257)
    key = rng._key
    expected = [_mix64((key + (i + 1) * GAMMA) & MASK) for i in range(257)]
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
    # the child stream is derive_seed of the parent's, up to the largest stream
    for stream, index in ((5, 0), (5, 999), (MASK, 3)):
        child = RngHandle(7, stream).split(index)
        assert (child.seed, child.stream) == (7, derive_seed(stream, index))


def test_derive_seed_distinct_and_deterministic():
    seeds = {derive_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(5, 2, 7) == derive_seed(5, 2, 7)
    assert derive_seed(5, 2, 7) != derive_seed(5, 7, 2)


def test_uniforms_open_interval():
    u = RngHandle(0, 0).uniforms(100_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12 * 100_000)


def test_the_top_word_gives_a_uniform_below_one(monkeypatch):
    # k = 2**53 - 1 would round (k + 0.5) * 2**-53 to 1.0; the lowest word
    # and the next-to-top k keep their values, 2**-54 and 1 - 2**-52
    top = [0, (2**53 - 2) << 11, 2**64 - 1]
    monkeypatch.setattr(RngHandle, "words", lambda self, n: np.array(top, dtype=np.uint64))
    rng = RngHandle(0, 0)
    assert rng.uniforms(3).tolist() == [2.0**-54, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
    assert np.isfinite(rng.normals(3)).all()


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
    with pytest.raises(ValidationError):
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
    x = _normal_ppf(u)
    worst = 0.0
    for ui, xi in zip(u, x):
        truth = refined_normal_ppf(ui, xi)
        worst = max(worst, abs(xi - truth) / (1.0 + abs(truth)))
    assert worst < 4e-9


def test_normal_ppf_symmetry():
    # dyadic u makes 1 - u exact, so the mirrored branches match bitwise
    u = np.concatenate([np.arange(1, 64), np.arange(64, 2 ** 19, 4096)]) / 2.0 ** 20
    assert np.array_equal(_normal_ppf(u), -_normal_ppf(1.0 - u))


# Acklam's coefficients as published, and a masked evaluation that runs the
# central fit on the central entries only and each tail on its own: an
# independent oracle for the bits of ``_normal_ppf``, ``uniforms`` and ``normals``.
ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
            1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
            6.680131188771972e+01, -1.328068155288572e+01)
ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
            -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
            3.754408661907416e+00)
P_LOW = 0.02425


def masked_normal_ppf(p):
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("outside (0, 1)")
    x = np.empty_like(p)
    lo = p < P_LOW
    hi = p > 1.0 - P_LOW
    mid = ~(lo | hi)
    A, B, C, D = ACKLAM_A, ACKLAM_B, ACKLAM_C, ACKLAM_D
    q = p[mid] - 0.5
    r = q * q
    num = (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
    den = ((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0
    x[mid] = num / den
    for mask, sign, tail_p in ((lo, 1.0, p[lo]), (hi, -1.0, 1.0 - p[hi])):
        if not tail_p.size:
            continue
        q = np.sqrt(-2.0 * np.log(tail_p))
        num = ((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5]
        den = (((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0
        x[mask] = sign * (num / den)
    return x


def oracle_draw(rng, start, n, kind):
    """Draws ``start .. start + n`` of ``rng``'s stream from the scalar ``_mix64``."""
    words = np.array([_mix64((rng._key + (start + i + 1) * GAMMA) & MASK) for i in range(n)],
                     dtype=np.uint64)
    if kind == "words":
        return words
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)
    return u if kind == "uniforms" else masked_normal_ppf(u)


def same_bits(got, want):
    return (type(got) is type(want) and got.dtype == want.dtype
            and got.shape == want.shape and got.tobytes() == want.tobytes())


EDGE_P = [2.0 ** -54, 0.5, 1.0 - 2.0 ** -53,
          np.nextafter(P_LOW, 0.0), P_LOW, np.nextafter(P_LOW, 1.0),
          np.nextafter(1.0 - P_LOW, 0.0), 1.0 - P_LOW, np.nextafter(1.0 - P_LOW, 1.0)]


@pytest.mark.parametrize("p", [
    *EDGE_P,
    np.float64(0.01),
    np.asarray(0.99),
    np.array(EDGE_P),
    np.array(EDGE_P[:8]).reshape(2, 4),
    np.array([]),
    np.empty((0, 3)),
], ids=lambda p: f"{type(p).__name__}{list(np.shape(p))}{np.ravel(p)[:1].tolist()}")
def test_normal_ppf_matches_masked_oracle(p):
    # float64 arrays, as RngHandle.uniforms hands it
    p = np.asarray(p, dtype=np.float64)
    before = p.copy()
    got = _normal_ppf(p)
    assert same_bits(got, masked_normal_ppf(p))
    assert isinstance(got, np.ndarray) and got.shape == p.shape
    # the array is read, never written
    assert same_bits(p, before)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, MASK), stream=st.integers(0, 2 ** 40),
       n1=st.integers(0, 600), n2=st.integers(0, 600),
       kind=st.sampled_from(["words", "uniforms", "normals"]))
@example(seed=0, stream=0, n1=0, n2=0, kind="normals")
@example(seed=MASK, stream=0, n1=1, n2=1, kind="words")
def test_draws_split_across_calls_match_one_call_and_the_oracle(seed, stream, n1, n2, kind):
    split = RngHandle(seed, stream)
    first, second = getattr(split, kind)(n1), getattr(split, kind)(n2)
    whole = getattr(RngHandle(seed, stream), kind)(n1 + n2)
    assert same_bits(np.concatenate([first, second]), whole)
    assert same_bits(first, oracle_draw(split, 0, n1, kind))
    assert same_bits(second, oracle_draw(split, n1, n2, kind))


def test_normals_moments():
    z = RngHandle(2024, 0).normals(1_000_000)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_invalid_arguments():
    with pytest.raises(ValidationError):
        RngHandle(0, -1)
    with pytest.raises(ValidationError):
        RngHandle(0, 0).split(-1)
    with pytest.raises(ValidationError):
        derive_seed(0, -2)
    # seeds are not reduced mod 2**64, so no two seeds alias one stream
    for seed, message in ((-1, "seed must be >= 0"), (MASK + 1, "seed must lie in")):
        with pytest.raises(ValidationError, match=message):
            RngHandle(seed)
        with pytest.raises(ValidationError, match=message):
            derive_seed(seed, 1)
    assert RngHandle(MASK).seed == MASK and derive_seed(MASK) == MASK
    # streams are not reduced either: 2**64 used to draw the words of stream 0
    for stream, message in ((-1, "stream must be >= 0"), (MASK + 1, "stream must lie in")):
        with pytest.raises(ValidationError, match=message):
            RngHandle(0, stream)
    assert RngHandle(0, MASK).stream == MASK


@pytest.mark.parametrize("call, args", [
    (RngHandle, (1.5,)),
    (RngHandle, (1.0,)),
    (RngHandle, (0, 2.9)),
    (derive_seed, (1.5, 2)),
    (derive_seed, (1, 2.0)),
    (RngHandle(0).split, (1.5,)),
    (RngHandle(0).words, (2.5,)),
    (RngHandle(0).uniforms, (2.5,)),
    (RngHandle(0).normals, (2.5,)),
    (RngHandle(0).subset, (10.0, 3)),
    (RngHandle(0).subset, (10, 3.0)),
], ids=["seed", "integral_float_seed", "stream", "derive_seed", "derive_index", "split",
        "words", "uniforms", "normals", "subset_pool", "subset_k"])
def test_non_integers_are_rejected_not_truncated(call, args):
    # RngHandle(1.5) drew seed 1's words, and words(2.5) returned 3 words
    with pytest.raises(ValidationError, match="must be an integer"):
        call(*args)


def test_a_rejected_count_draws_nothing():
    rng = RngHandle(4, 1)
    with pytest.raises(ValidationError):
        rng.words(2.5)
    assert rng.words(2).tolist() == RngHandle(4, 1).words(2).tolist()


def test_numpy_integers_act_as_their_values():
    assert (RngHandle(np.uint64(5), np.int64(2)).words(3).tolist()
            == RngHandle(5, 2).words(3).tolist())
    assert derive_seed(np.int64(1), np.int32(2)) == derive_seed(1, 2)
    assert RngHandle(0).subset(np.int64(10), np.int64(3)).tolist() == \
        RngHandle(0).subset(10, 3).tolist()


PLAN = cueworld.SamplingPlan(a=0.3, m=0.5, k=0.25, h_total=0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: cueworld.build_world(100, PLAN, seed=-1), "seed must be >= 0"),
    (lambda: verify.run("gap", n=100, seed=-1, sigma_mult=4.0, tau0=1.0, tau_h=1.0),
     "seed must be >= 0"),
    (lambda: cueworld.concentration_experiment([100], PLAN, reps=2, seed=1.5),
     "seed must be an integer"),
], ids=["build_world", "verify", "concentration_experiment"])
def test_a_bad_library_seed_raises_a_validation_error(call, message):
    # these raised a bare ValueError or TypeError from the generator
    with pytest.raises(ValidationError, match=message):
        call()
