"""Exact arithmetic in Z[zeta_p] and the pi-adic valuation at pi = 1 - zeta_p.

Elements are integer vectors on the power basis 1, zeta, ..., zeta^(p-2);
the relation zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)) reduces higher
powers.  pi generates the unique prime above p, is totally ramified, and
v(p) = p - 1.  For p = 2 the basis is just {1} and zeta = -1.

Each element holds one read-only numpy vector: int64 when every entry is
below 2^62 in absolute value, else dtype=object (Python ints).  An
operation runs in int64 while a bound on its result stays below 2^62:
max|a| + max|b| for a sum or difference, 2(p-1) max|a| max|b| for a
product (p-1 terms per folded entry, doubled by the reduction of
zeta^(p-1)).  Above the bound the same numpy calls run on dtype=object, so
every result is exact whatever its size, and one that comes out small is
stored as int64 again.
"""

from __future__ import annotations

import functools
import math

from ._numpy import np
from .errors import NotDivisible, NotPrime, NotRational, PrimeMismatch
from .fields import is_prime

#: Valuation of zero.
INFINITY = math.inf

#: A vector is int64 exactly when every entry is below this in absolute value.
INT64_LIMIT = 1 << 62


def _dtype(*bounds: int):
    """int64 when every bound on a result's entries is below INT64_LIMIT,
    else object (exact Python ints)."""
    return np.int64 if max(bounds) < INT64_LIMIT else object


def _norm(vec: np.ndarray) -> int:
    """max |entry| as a Python int; an int64 vec must not hold -2^63."""
    return int(abs(vec).max())


def _vector(values, factor: int = 1) -> np.ndarray:
    """Integers as an int64 vector when factor * max|value| < INT64_LIMIT,
    else as an object vector of Python ints."""
    try:
        vec = np.array(values, dtype=np.int64)
        if factor * max(int(vec.max()), -int(vec.min())) < INT64_LIMIT:  # no abs: -2^63
            return vec
    except OverflowError:
        pass
    return np.array([int(v) for v in values], dtype=object)


def _fold(counts: np.ndarray) -> np.ndarray:
    """Rows of counts on zeta^0..zeta^(p-1) reduced onto the power basis;
    each entry becomes counts[k] - counts[p-1], so the caller's dtype must
    hold twice its largest count."""
    return counts[..., :-1] - counts[..., -1:]


def poly_mul(p: int, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The product of two polynomials in Z[zeta_p][t], each a 2-d array whose
    row i holds the coefficient of t^i on the power basis (a CycInt's vec).

    Both are flattened with row stride 2p (Kronecker substitution
    zeta = X, t = X^(2p)), so one convolution multiplies them; a row of the result
    then splits into its zeta^0..zeta^(p-1) and zeta^p..zeta^(2p-1) halves,
    which fold mod zeta^p = 1.  Each folded entry sums at most
    (p-1) min(len(f), len(g)) products; the operands themselves must fit
    the dtype too.  On dtype=object, where each multiply-add is a Python
    call, trailing zeros are cut first, so a sparse factor such as pi costs
    little there.
    """
    fn, gn = _norm(f), _norm(g)
    dtype = _dtype(2 * (p - 1) * min(len(f), len(g)) * fn * gn, fn, gn)
    rows, stride = len(f) + len(g) - 1, 2 * p
    if not fn or not gn:
        return np.zeros((rows, p - 1), dtype=dtype)

    def flat(a: np.ndarray) -> np.ndarray:
        padded = np.zeros((len(a), stride), dtype=dtype)
        padded[:, : p - 1] = a
        padded = padded.ravel()[: (len(a) - 1) * stride + p - 1]
        return padded[: np.flatnonzero(padded)[-1] + 1] if dtype is object else padded

    full = np.zeros(rows * stride, dtype=dtype)
    prod = np.convolve(flat(f), flat(g))
    full[: len(prod)] = prod
    halves = full.reshape(rows, 2, p)
    return _fold(halves[:, 0] + halves[:, 1])


class CycInt:
    """An element of Z[zeta_p] on the basis 1, zeta, ..., zeta^(p-2).

    ``vec`` is the read-only coefficient vector (module docstring for its
    dtype); ``coeffs`` is the same as a tuple of Python ints, built once.
    """

    __slots__ = ("p", "vec", "_coeffs")

    def __init__(self, p: int, coeffs):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} basis coefficients for p = {p}, got {len(coeffs)}")
        self._set(p, _vector(coeffs))

    def _set(self, p: int, vec: np.ndarray) -> None:
        vec.flags.writeable = False
        self.p = p
        self.vec = vec
        self._coeffs = None

    @classmethod
    def _wrap(cls, p: int, vec: np.ndarray) -> "CycInt":
        """An element from an operation's result; an object vector whose
        entries all fit goes back to int64."""
        if vec.dtype == object and _norm(vec) < INT64_LIMIT:
            vec = vec.astype(np.int64)
        out = object.__new__(cls)
        out._set(p, vec)
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int(cls, p: int, n: int) -> "CycInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def from_root_counts(cls, p: int, counts) -> "CycInt":
        """sum_k counts[k] * zeta^k for exponent counts indexed by 0..p-1."""
        if len(counts) != p:
            raise ValueError(f"need {p} exponent counts")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        return cls._wrap(p, _fold(_vector(counts, 2)))

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls.from_int(p, 0)

    @classmethod
    @functools.lru_cache(maxsize=8)  # a_0 of every L-polynomial
    def one(cls, p: int) -> "CycInt":
        return cls.from_int(p, 1)

    # -- value semantics -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(self.vec.tolist())
        return self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.p == other.p and bool((self.vec == other.vec).all())

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "CycInt") -> None:
        if self.p != other.p:
            raise PrimeMismatch(f"p = {self.p} vs p = {other.p}")

    def _linear(self, other: "CycInt", op) -> "CycInt":
        self._check(other)
        dtype = _dtype(_norm(self.vec) + _norm(other.vec))
        a, b = self.vec.astype(dtype, copy=False), other.vec.astype(dtype, copy=False)
        return CycInt._wrap(self.p, op(a, b))

    def __add__(self, other: "CycInt") -> "CycInt":
        return self._linear(other, np.add)

    def __sub__(self, other: "CycInt") -> "CycInt":
        return self._linear(other, np.subtract)

    def __neg__(self) -> "CycInt":
        return CycInt._wrap(self.p, -self.vec)

    def __mul__(self, other: "CycInt | int") -> "CycInt":
        if isinstance(other, int):
            dtype = _dtype(_norm(self.vec) * abs(other), abs(other))
            return CycInt._wrap(self.p, self.vec.astype(dtype) * other)
        self._check(other)
        return CycInt._wrap(self.p, poly_mul(self.p, self.vec[None], other.vec[None])[0])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.vec.any()

    def __repr__(self) -> str:
        return f"CycInt(p={self.p}, {list(self.coeffs)})"


def zeta_power(p: int, k: int) -> CycInt:
    """zeta_p^k reduced onto the power basis."""
    counts = np.zeros(p, dtype=np.int64)
    counts[k % p] = 1
    return CycInt.from_root_counts(p, counts)


def exact_div_int(a: CycInt, k: int) -> CycInt:
    """a / k when every basis coefficient is divisible by k."""
    if k == 0:
        raise ZeroDivisionError("division by zero")
    vec = a.vec if abs(k) < INT64_LIMIT else a.vec.astype(object)  # |a / k| <= |a|
    bad = np.flatnonzero(vec % k)
    if bad.size:
        raise NotDivisible(f"{a.coeffs[bad[0]]} not divisible by {k}")
    return CycInt._wrap(a.p, vec // k)


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


_LAG_BLOCK = 512  # lags in pi_valuation's first correlation block


@functools.lru_cache(maxsize=8)
def _factorials(p: int) -> tuple[np.ndarray, np.ndarray]:
    """n! and 1/n! mod p for n = 0..p-2, in the dtype of pi_valuation's sums.

    Mod p, (n+1)...(p-1) = (-1)^(p-1-n) (p-1-n)! and (p-1)! = -1 (Wilson),
    so n! (p-1-n)! = (-1)^(p-n) and 1/n! = (-1)^(p-n) (p-1-n)!: no inverse
    is taken."""
    fact = [1]
    for n in range(1, p):
        fact.append(fact[-1] * n % p)
    fact = np.array(fact, dtype=_dtype(p**3))  # 0!, ..., (p-1)!
    inv = fact[:0:-1].copy()  # (p-1-n)! for n = 0..p-2
    neg = slice(1 - p % 2, None, 2)  # (-1)^(p-n) = -1 where n = p + 1 mod 2
    inv[neg] = p - inv[neg]
    fact.flags.writeable = inv.flags.writeable = False  # shared by every caller
    return fact[:-1], inv


def pi_valuation(a: CycInt) -> int | float:
    """v_pi(a) where pi = 1 - zeta, normalized so v_pi(pi) = 1, v_pi(p) = p-1.

    The zeta basis is a Z-basis, so p^t divides a exactly when it divides
    every coefficient; take t maximal.  Then a / p^t mod p is a nonzero
    r(x) = sum r_n x^n in F_p[x] of degree <= p-2, and
    Z[zeta]/p = F_p[x]/(x-1)^(p-1) with pi mapping to 1 - x, so
    v_pi(a / p^t) is the multiplicity j < p-1 of x = 1 as a root of r.
    Hence v_pi(a) = (p-1) t + j.

    j is the first i whose Taylor coefficient b_i = sum_n r_n C(n, i) at
    x = 1 is nonzero mod p.  As n < p, i! b_i = sum_n u_n w_(n-i) with
    u_n = r_n n! and w_m = 1/m! mod p, so a correlation of u with w gives
    the i! b_i: O(p^2) multiply-adds in numpy.  It runs on blocks of lags,
    _LAG_BLOCK first and doubling, and stops at the first block that holds
    j; the first block covers every lag for p <= _LAG_BLOCK + 1.  Its sums
    stay below p^3, so they run in int64 while p^3 < 2^62 (p up to about
    1.6e6).  Returns INFINITY for zero.
    """
    if a.is_zero():
        return INFINITY
    p = a.p
    t = int_valuation(int(np.gcd.reduce(a.vec)), p)
    fact, inv = _factorials(p)
    r = (a.vec // p**t % p).astype(fact.dtype)
    u, n = r * fact % p, p - 1
    start, size = 0, _LAG_BLOCK
    while True:  # r != 0 has degree <= p - 2, so some lag j < n is nonzero
        stop = min(start + size, n)
        window = np.zeros(n - start + stop - start - 1, dtype=u.dtype)
        window[: n - start] = u[start:]  # lag i sums u[i + m] w[m]
        hits = np.flatnonzero(np.correlate(window, inv[: n - start], "valid") % p)
        if hits.size:
            return (p - 1) * t + start + int(hits[0])
        start, size = stop, 2 * size


def as_rational_integer(a: CycInt) -> int:
    """The value of a when it lies in Z, else NotRational."""
    if a.vec[1:].any():
        raise NotRational(f"{a!r} has a nonzero zeta component")
    return int(a.vec[0])
