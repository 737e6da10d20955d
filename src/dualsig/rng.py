"""Deterministic, platform-independent pseudorandom streams.

Every stochastic operation in this package draws from :class:`RngHandle`,
never from a platform default generator, so that identical ``(seed, stream)``
pairs reproduce identical samples bit-for-bit on any OS/architecture with
IEEE-754 doubles.

Generator algorithm (fixed; do not change without bumping output versions):

* 64-bit output words are produced counter-style from the splitmix64
  finalizer ``_mix64``:

      word(i) = _mix64(key + (i + 1) * GAMMA   mod 2**64)

  where ``GAMMA = 0x9E3779B97F4A7C15`` and the per-handle key folds seed and
  stream through two extra finalizer rounds:

      key = _mix64(_mix64(seed + GAMMA) ^ _mix64(stream + STREAM_SALT))

  ``_mix64`` is the murmur-style avalanche used by splitmix64
  (xor-shift 30 / multiply 0xBF58476D1CE4E5B9 / xor-shift 27 /
  multiply 0x94D049BB133111EB / xor-shift 31).  With key = 0 the word
  sequence equals the reference splitmix64 stream for seed 0.

* Uniforms in the open interval (0, 1) take the top 53 bits ``k`` of a
  word: ``u = (k + 0.5) * 2**-53``, where the ``+ 0.5`` rounds to even from
  ``k = 2**52`` on, and the 1.0 of ``k = 2**53 - 1`` is clamped to ``1 - 2**-53``.

* Standard normals are the inverse normal CDF ``_normal_ppf`` of those
  uniforms, evaluated with Acklam's rational approximation (|relative
  error| < 1.15e-9).  The evaluation uses only +, -, *, /, sqrt and log in
  a fixed order; sqrt is IEEE-exact and log is the single libm call in the
  pipeline.  The central fit runs in place over the whole array and the two
  tails overwrite their entries, so each element sees the operations of a
  masked evaluation.

* Uniform k-subsets of ``range(n)`` are the indices of the k smallest of n
  i.i.d. uniforms, ties to the lower index, found by selection.  The rule is
  exchangeable and therefore uniform over k-subsets, and it selects the same
  set as the first k entries of a stable argsort.

Derived streams for parallel or repeated work come from :func:`derive_seed`,
which hashes the parent identity with ``_mix64`` so that child streams are
statistically unrelated; :meth:`RngHandle.split` applies it to the stream.
Seeds and streams must lie in ``[0, 2**64)``; neither is reduced mod 2**64,
so no out-of-range value draws the words of an in-range one.  Nor is any
integer argument truncated: every one goes through :func:`dualsig.core.count`,
so a float seed, stream, index or count raises
:class:`dualsig.core.ValidationError`, as a negative one does.

``_mix64`` and ``_normal_ppf`` are the handle's internals: they take only
what the handle has already read, an int and a float64 array of uniforms,
and check neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ValidationError, count

__all__ = ["RngHandle", "derive_seed"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_SALT = 0x632BE59BD9B4E019


def _mix64(z: int) -> int:
    """Splitmix64 finalizer of a nonnegative int, taken mod 2**64."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """Splitmix64 finalizer applied to a uint64 array in place."""
    shifted = np.empty_like(z)
    # uint64 array arithmetic wraps mod 2**64 silently; that wrap is the algorithm.
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _word(value: int, name: str) -> int:
    """``value`` as an int in ``[0, 2**64)``, the range of seeds and streams."""
    out = count(value, name, 0)
    if out > _MASK:
        raise ValidationError(f"{name} must lie in [0, 2**64), got {out}")
    return out


def derive_seed(seed: int, *indices: int) -> int:
    """Fold integer indices into a parent seed, one mix round per index.

    This is the documented split function for per-repetition / per-worker
    substreams: children of distinct index tuples are distinct, and the fold
    composes (``derive_seed(derive_seed(s, i), j) == derive_seed(s, i, j)``)
    so nested experiments can derive further children from a child seed.
    """
    out = _word(seed, "seed")
    for ix in indices:
        out = _mix64(out ^ ((count(ix, "split index", 0) + 1) * _GAMMA & _MASK))
    return out


# Acklam's inverse normal CDF coefficients (central / tail rational fits).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01, 1.0)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00, 1.0)
_P_LOW = 0.02425


def _horner(coefs: tuple[float, ...], t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(...(c[0]*t + c[1])*t + ...)*t + c[-1]`` evaluated into ``out``."""
    np.multiply(t, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= t
    out += coefs[-1]
    return out


def _normal_ppf(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF (Acklam's rational approximation) of a
    float64 array ``p`` strictly inside (0, 1), as a new array of its shape."""
    # The central fit is finite on all of (0, 1); ``out=`` keeps 0-d input an array.
    q = np.subtract(p, 0.5, out=np.empty_like(p))
    r = np.multiply(q, q, out=np.empty_like(p))
    x = _horner(_A, r, np.empty_like(p))
    x *= q
    x /= _horner(_B, r, out=q)

    # 1 - p is exact for p > 1/2 (Sterbenz), so both tails share one path.
    lo = np.flatnonzero(p < _P_LOW)
    hi = np.flatnonzero(p > 1.0 - _P_LOW)
    for tail, sign, tail_p in ((lo, 1.0, p.take(lo)), (hi, -1.0, 1.0 - p.take(hi))):
        t = np.sqrt(-2.0 * np.log(tail_p))
        x.put(tail, sign * (_horner(_C, t, np.empty_like(t)) / _horner(_D, t, np.empty_like(t))))
    return x


def _smallest_k(u: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the ``k`` smallest entries of ``u``.

    Ties at the k-th smallest value go to the lower indices, so the result
    equals ``np.sort(np.argsort(u, kind="stable")[:k])``; a partition finds
    the k-th value in O(n) instead of sorting.
    """
    if k == 0:
        return np.empty(0, dtype=np.intp)
    kth = np.partition(u, k - 1)[k - 1]
    chosen = u <= kth
    extra = int(np.count_nonzero(chosen)) - k
    if extra:
        chosen[np.flatnonzero(u == kth)[-extra:]] = False
    return np.flatnonzero(chosen)


@dataclass
class RngHandle:
    """Counter-based random stream identified by ``(seed, stream)``.

    The handle holds a draw counter; fresh handles with equal ``(seed,
    stream)`` reproduce the same sequence from the start.  ``split(i)``
    yields an unrelated child stream for parallel work.
    """

    seed: int
    stream: int = 0
    _key: int = field(init=False, repr=False)
    _counter: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.seed = _word(self.seed, "seed")
        self.stream = _word(self.stream, "stream")
        self._key = _mix64(_mix64(self.seed + _GAMMA) ^ _mix64(self.stream + _STREAM_SALT))

    def words(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words as a uint64 array."""
        n = count(n, "n", 0)
        state = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        state *= np.uint64(_GAMMA)
        state += np.uint64(self._key)
        return _mix64_array(state)

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` doubles uniform on the open interval (0, 1)."""
        w = self.words(n)
        w >>= np.uint64(11)
        # converts each word to a double in its own buffer and adds 0.5
        u = np.add(w, 0.5, out=w.view(np.float64))
        u *= 2.0 ** -53
        return np.minimum(u, 1.0 - 2.0 ** -53, out=u)

    def normals(self, n: int) -> np.ndarray:
        """Next ``n`` standard normal deviates (one uniform per normal)."""
        return _normal_ppf(self.uniforms(n))

    def subset(self, pool_size: int, k: int) -> np.ndarray:
        """Uniformly random k-subset of ``range(pool_size)``, sorted.

        Consumes exactly ``pool_size`` uniforms.
        """
        pool_size, k = count(pool_size, "pool_size", 0), count(k, "k", 0)
        if k > pool_size:
            raise ValidationError(f"need k <= pool_size, got k={k}, pool={pool_size}")
        return _smallest_k(self.uniforms(pool_size), k)

    def split(self, index: int) -> "RngHandle":
        """Child handle on the stream ``derive_seed(stream, index)``."""
        return RngHandle(self.seed, derive_seed(self.stream, index))
