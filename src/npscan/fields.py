"""Exact arithmetic in finite fields F_{p^e}.

A field is realized as F_p[x]/(m) where m is the canonical modulus: the
lexicographically smallest monic irreducible polynomial of degree e over
F_p, coefficient tuples compared low-degree-first.  Fixing the modulus
(and a positional element order) makes every downstream artifact --
exponential sums, polygons, CSV rows -- reproducible byte for byte.
So there is one F_{p^e} per (p, e): build_field makes it, and fields,
their elements and polynomials over them are compared by that identity.

Elements are dense coefficient vectors over F_p.  There are no log
tables; nothing here limits field size except the enumeration budget
enforced by whoever iterates a whole field.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

from .errors import BudgetExceeded, FieldMismatch, NoEmbedding, NotPrime

#: Default cap on single-field enumerations (elements touched per call).
DEFAULT_ENUM_BUDGET = 10**8

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=256)  # CycInt checks its p on every construction
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_enum_budget(size: int, budget: int | None = None) -> None:
    """Raise BudgetExceeded if an enumeration of `size` elements is too big."""
    limit = DEFAULT_ENUM_BUDGET if budget is None else budget
    if size > limit:
        raise BudgetExceeded(size, limit)


# ---------------------------------------------------------------------------
# dense int-list polynomial helpers over F_p (module-internal)

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem_by(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    # remainder of a mod b over F_p; b nonzero and trimmed
    r = _trim([c % p for c in a])
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while len(r) > db:
        c = r[-1] * inv % p
        off = len(r) - len(b)
        for i in range(db):
            r[off + i] = (r[off + i] - c * b[i]) % p
        r.pop()  # leading term cancels exactly
        _trim(r)
    return r


def _mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _rem_by(res, mod, p)


def _powmod(base: Sequence[int], exp: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    cur = _rem_by(base, mod, p)
    while exp:
        if exp & 1:
            result = _mulmod(result, cur, mod, p)
        cur = _mulmod(cur, cur, mod, p)
        exp >>= 1
    return result


def _gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    while b:
        a, b = b, _rem_by(a, b, p)
    return a


def _is_irreducible(mod: Sequence[int], p: int) -> bool:
    """gcd(x^{p^k} - x, mod) must be constant for k = 1..deg/2."""
    e = len(mod) - 1
    if e < 1:
        return False
    r = [0, 1]
    for _ in range(e // 2):
        r = _powmod(r, p, mod, p)
        diff = list(r)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _gcd(diff, mod, p)
        if len(g) != 1:
            return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over F_p.

    Candidates are ordered by (c_0, c_1, ..., c_{e-1}); for e >= 2 anything
    with c_0 = 0 is divisible by x, so the scan starts at c_0 = 1.
    """
    start = 0 if e == 1 else p ** (e - 1)
    for idx in range(start, p**e):
        low = [(idx // p ** (e - 1 - i)) % p for i in range(e)]
        cand = low + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible of degree {e} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------


class FieldElement:
    """An element of a FiniteField, a coefficient vector of length e."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FiniteField", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise FieldMismatch(f"cannot combine {self!r} and {other!r}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.field.p
        return FieldElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        f = self.field
        prod = _mulmod(self.coeffs, other.coeffs, f.modulus, f.p)
        return FieldElement(f, tuple(prod) + (0,) * (f.e - len(prod)))

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            raise ValueError("negative exponents are not supported")
        f = self.field
        power = _powmod(self.coeffs, n, f.modulus, f.p)
        return FieldElement(f, tuple(power) + (0,) * (f.e - len(power)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self) -> str:
        return f"FieldElement({list(self.coeffs)} in {self.field!r})"


class FiniteField:
    """F_{p^e} = F_p[x]/(modulus) with a fixed positional element order.

    The modulus is the canonical one, _smallest_irreducible(p, e), and
    fields compare by identity: build_field makes the one instance per
    (p, e) that the program uses, and a field unpickles as that instance.

    Element number k (0 <= k < q) has coefficient vector given by the
    base-p digits of k, least significant digit first.
    """

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = _smallest_irreducible(p, e)
        self._trace_vec: tuple[int, ...] | None = None

    def __reduce__(self):
        return build_field, (self.p, self.e)

    def __repr__(self) -> str:
        return f"F_{self.p}" if self.e == 1 else f"F_{self.p}^{self.e}"

    # -- element constructors ------------------------------------------------

    def element(self, value: int | Sequence[int]) -> FieldElement:
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.e - 1))
        coeffs = [c % self.p for c in value]
        if len(coeffs) > self.e:
            coeffs = _rem_by(coeffs, self.modulus, self.p)
        coeffs += [0] * (self.e - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.e)

    def one(self) -> FieldElement:
        return self.element(1)

    def gen(self) -> FieldElement:
        """The class of x mod modulus (zero when e = 1, since modulus = x)."""
        if self.e == 1:
            return self.zero()
        return FieldElement(self, (0, 1) + (0,) * (self.e - 2))

    def from_index(self, k: int) -> FieldElement:
        if not 0 <= k < self.q:
            raise ValueError(f"index {k} out of range for {self!r}")
        return FieldElement(self, tuple((k // self.p**i) % self.p for i in range(self.e)))

    def elements(self) -> Iterator[FieldElement]:
        """All q elements in positional order; caller minds the budget."""
        for k in range(self.q):
            yield self.from_index(k)

    # -- structure maps ------------------------------------------------------

    def frobenius(self, x: FieldElement) -> FieldElement:
        return x**self.p

    def power_traces(self, n: int) -> tuple[int, ...]:
        """Tr(x^k) for k = 0..n-1, each in 0..p-1.

        Tr(x^k) is the k-th power sum of the modulus's roots, so Newton's
        identities on the modulus x^e + c_1 x^(e-1) + ... + c_e give it:
        P_k = -(c_1 P_(k-1) + ... + c_(k-1) P_1 + k c_k) for k <= e, and
        P_k = -(c_1 P_(k-1) + ... + c_e P_(k-e)) beyond, with P_0 = e.
        """
        p, e = self.p, self.e
        c = [self.modulus[e - j] for j in range(e + 1)]  # c[j] = c_j, c[0] = 1
        sums = [e % p]
        for k in range(1, n):
            acc = k * c[k] if k <= e else 0
            acc += sum(c[j] * sums[k - j] for j in range(1, min(k - 1, e) + 1))
            sums.append(-acc % p)
        return tuple(sums[:n])

    def trace_vector(self) -> tuple[int, ...]:
        """Traces of the power basis 1, x, ..., x^(e-1), each in 0..p-1."""
        if self._trace_vec is None:
            self._trace_vec = self.power_traces(self.e)
        return self._trace_vec

    def trace(self, x: FieldElement) -> int:
        """Absolute trace x + x^p + ... + x^(p^(e-1)), as an int in 0..p-1."""
        if x.field != self:
            raise FieldMismatch(f"{x!r} does not belong to {self!r}")
        tv = self.trace_vector()
        return sum(c * t for c, t in zip(x.coeffs, tv)) % self.p

    def poly(self, coeffs: Sequence[int | FieldElement]) -> "FieldPolynomial":
        return FieldPolynomial(self, tuple(
            c if isinstance(c, FieldElement) else self.element(c) for c in coeffs
        ))


class FieldPolynomial:
    """Dense univariate polynomial over a FiniteField, coefficients ascending."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if c.field != field:
                raise FieldMismatch("coefficient from a different field")
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field != self.field:
            raise FieldMismatch("argument from a different field")
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldPolynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """Coefficient vectors as plain int tuples (for the numpy kernels)."""
        return tuple(c.coeffs for c in self.coeffs)

    def __repr__(self) -> str:
        return f"FieldPolynomial({[list(c.coeffs) for c in self.coeffs]} over {self.field!r})"


@functools.lru_cache(maxsize=None)
def build_field(p: int, e: int) -> FiniteField:
    """The canonical F_{p^e}: the one instance per (p, e), cached."""
    return FiniteField(p, e)


class Embedding:
    """The canonical field homomorphism sub -> sup fixing the prime field.

    It sends the generator of sub to the lexicographically smallest root of
    sub.modulus inside sup (low-degree-first coefficient comparison), so the
    map is deterministic across runs.  Elements of F_p map to themselves, so
    the root is searched for only when an element outside F_p is mapped.
    """

    def __init__(self, sub: FiniteField, sup: FiniteField):
        self.sub = sub
        self.sup = sup

    @functools.cached_property
    def gen_image(self) -> FieldElement:
        sub, sup = self.sub, self.sup
        if sub == sup:
            return sup.gen()
        from . import kernels  # deferred: kernels imports this module

        root = sup.from_index(kernels.find_first_root(sup, sub.modulus))
        # all roots form one Frobenius orbit; pick the smallest for determinism
        orbit = [root]
        for _ in range(sub.e - 1):
            orbit.append(sup.frobenius(orbit[-1]))
        return min(orbit, key=lambda el: el.coeffs)

    @functools.cached_property
    def _gen_powers(self) -> tuple[FieldElement, ...]:
        pows = [self.sup.one()]
        for _ in range(self.sub.e - 1):
            pows.append(pows[-1] * self.gen_image)
        return tuple(pows)

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field != self.sub:
            raise FieldMismatch(f"{x!r} is not in {self.sub!r}")
        if not any(x.coeffs[1:]):
            return self.sup.element(x.coeffs[0])
        acc = self.sup.zero()
        for c, gp in zip(x.coeffs, self._gen_powers):
            if c:
                acc = acc + self.sup.element(c) * gp
        return acc

    def map_poly(self, f: FieldPolynomial) -> FieldPolynomial:
        if f.field != self.sub:
            raise FieldMismatch("polynomial lives in a different field")
        return FieldPolynomial(self.sup, tuple(self(c) for c in f.coeffs))


@functools.lru_cache(maxsize=None)
def embed(sub: FiniteField, sup: FiniteField) -> Embedding:
    """Canonical embedding F_{p^e0} -> F_{p^e1}; requires e0 | e1."""
    if sub.p != sup.p or sup.e % sub.e != 0:
        raise NoEmbedding(f"no embedding {sub!r} -> {sup!r}")
    return Embedding(sub, sup)
