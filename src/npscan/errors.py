"""Exception hierarchy shared across the package.

Every error the library raises on purpose derives from NpscanError, so the
CLI can map failures to stable exit codes: bad input or a bad place is 2,
a blown enumeration budget (BudgetExceeded) is 3, and a theorem-backed
invariant failing on computed data is 4: InvariantViolation and its
subclass InternalDivisibility.  Every other NpscanError exits 2.
"""

from __future__ import annotations


class NpscanError(Exception):
    """Base class for all deliberate failures."""


class NotPrime(NpscanError):
    """A characteristic argument was not a prime number."""


class BudgetExceeded(NpscanError):
    """An enumeration would touch more field elements than the budget allows."""

    def __init__(self, size: int, budget: int):
        super().__init__(f"enumeration of {size} elements exceeds budget {budget}")
        self.size = size
        self.budget = budget


class FieldMismatch(NpscanError):
    """Operands live in different finite fields."""


class CharacteristicMismatch(NpscanError):
    """A character and a field disagree about the characteristic p."""


class NoEmbedding(NpscanError):
    """No field homomorphism exists (degrees do not divide, or p differs)."""


class PrimeMismatch(NpscanError):
    """Cyclotomic integers for different primes p were combined."""


class NotDivisible(NpscanError):
    """Exact integer division failed; signals a logic error upstream."""


class NotRational(NpscanError):
    """A cyclotomic integer expected to be rational has nonzero zeta part."""


class DegreeCharClash(NpscanError):
    """gcd(d, p) != 1, so the degree-(d-1) L-polynomial theory does not apply."""


class BadPlace(NpscanError):
    """The prime p is not a valid place for the rational polynomial f.

    cause is "nonintegral" (a coefficient has p in its denominator) or
    "degree" (p divides deg f).
    """

    def __init__(self, p: int, cause: str, detail: str = ""):
        msg = f"p = {p} is not a good place: {cause}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.p = p
        self.cause = cause


class MissingOrigin(NpscanError):
    """A lower hull was requested for points that do not contain (0, 0)."""


class DomainMismatch(NpscanError):
    """Two polygons do not share a common x-range, or x is out of range."""


class InvariantViolation(NpscanError):
    """A theorem-backed invariant failed on computed data; build-failing."""


class InternalDivisibility(InvariantViolation):
    """A Newton-identity recurrence produced a non-integral coefficient.

    Never expected: the recurrences divide exactly for genuine point counts
    and exponential sums, so this means corrupted input or a bug.
    """
