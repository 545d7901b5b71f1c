"""Exact arithmetic in Z[zeta_p] and the pi-adic valuation at pi = 1 - zeta_p.

Elements are integer vectors on the power basis 1, zeta, ..., zeta^(p-2);
the relation zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)) reduces higher
powers.  pi generates the unique prime above p, is totally ramified, and
v(p) = p - 1.  For p = 2 the basis is just {1} and zeta = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAUnit, NotDivisible, NotRational, PrimeMismatch
from .fields import is_prime
from .errors import NotPrime

#: Valuation of zero.
INFINITY = math.inf


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_p] on the basis 1, zeta, ..., zeta^(p-2)."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")
        if len(self.coeffs) != self.p - 1:
            raise ValueError(
                f"need {self.p - 1} basis coefficients for p = {self.p}, got {len(self.coeffs)}"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int(cls, p: int, n: int) -> "CycInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def from_root_counts(cls, p: int, counts: list[int]) -> "CycInt":
        """sum_k counts[k] * zeta^k for exponent counts indexed by 0..p-1."""
        if len(counts) != p:
            raise ValueError(f"need {p} exponent counts")
        top = counts[p - 1]
        return cls(p, tuple(counts[i] - top for i in range(p - 1)))

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls.from_int(p, 0)

    @classmethod
    def one(cls, p: int) -> "CycInt":
        return cls.from_int(p, 1)

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "CycInt") -> None:
        if self.p != other.p:
            raise PrimeMismatch(f"p = {self.p} vs p = {other.p}")

    def __add__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycInt | int") -> "CycInt":
        if isinstance(other, int):
            return CycInt(self.p, tuple(a * other for a in self.coeffs))
        self._check(other)
        p = self.p
        counts = [0] * p
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    counts[(i + j) % p] += a * b
        return CycInt.from_root_counts(p, counts)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self) -> str:
        return f"CycInt(p={self.p}, {list(self.coeffs)})"


def zeta_power(p: int, k: int) -> CycInt:
    """zeta_p^k reduced onto the power basis."""
    counts = [0] * p
    counts[k % p] = 1
    return CycInt.from_root_counts(p, counts)


def exact_div_int(a: CycInt, k: int) -> CycInt:
    """a / k when every basis coefficient is divisible by k."""
    if k == 0:
        raise ZeroDivisionError("division by zero")
    out = []
    for c in a.coeffs:
        q, r = divmod(c, k)
        if r:
            raise NotDivisible(f"{c} not divisible by {k}")
        out.append(q)
    return CycInt(a.p, tuple(out))


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def pi_valuation(a: CycInt) -> int | float:
    """v_pi(a) where pi = 1 - zeta, normalized so v_pi(pi) = 1, v_pi(p) = p-1.

    The zeta basis is a Z-basis, so p^t divides a exactly when it divides
    every coefficient; take t maximal.  Then a / p^t mod p is a nonzero r(x)
    in F_p[x] of degree <= p-2, and Z[zeta]/p = F_p[x]/(x-1)^(p-1) with pi
    mapping to 1 - x, so v_pi(a / p^t) is the multiplicity j < p-1 of x = 1
    as a root of r.  Hence v_pi(a) = (p-1) t + j, with j found by repeated
    synthetic division by x - 1: O(p j) small-integer work.  Returns
    INFINITY for zero.
    """
    if a.is_zero():
        return INFINITY
    p = a.p
    t = int_valuation(math.gcd(*a.coeffs), p)
    scale = p**t
    r = np.array([c // scale % p for c in a.coeffs], dtype=np.int64)
    j = 0
    while True:
        # b = [b_n, ..., b_0] with b_i = r_i + b_(i+1): b_0 = r(1), and
        # b_1..b_n are the quotient's coefficients; entries stay below p^2
        b = np.cumsum(r[::-1]) % p
        if b[-1]:
            return (p - 1) * t + j
        r = b[-2::-1]
        j += 1


def galois_apply(a: CycInt, c: int) -> CycInt:
    """The automorphism zeta -> zeta^c applied to a; c must be a unit mod p."""
    p = a.p
    if math.gcd(c, p) != 1:
        raise NotAUnit(f"c = {c} is not invertible mod {p}")
    counts = [0] * p
    for i, v in enumerate(a.coeffs):
        counts[(i * c) % p] += v
    return CycInt.from_root_counts(p, counts)


def as_rational_integer(a: CycInt) -> int:
    """The value of a when it lies in Z, else NotRational."""
    if any(c != 0 for c in a.coeffs[1:]):
        raise NotRational(f"{a!r} has a nonzero zeta component")
    return a.coeffs[0]
