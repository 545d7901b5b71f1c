"""The Galois action zeta -> zeta^c on Z[zeta_p], a test oracle shared by
test_cyclotomic and test_lfunction (exp_sum and L-coefficients under a
change of character).  It folds on the library's vectors, so the cases that
compare it with the naive exponent map also check that _fold and
CycInt._wrap leave a result in canonical form."""

import math

import numpy as np

from npscan.cyclotomic import CycInt, _dtype, _fold, _norm
from npscan.errors import NpscanError


class NotAUnit(NpscanError):
    """A Galois index c was not invertible mod p."""


def galois_apply(a: CycInt, c: int) -> CycInt:
    """The automorphism zeta -> zeta^c applied to a; c must be a unit mod p."""
    p = a.p
    if math.gcd(c, p) != 1:
        raise NotAUnit(f"c = {c} is not invertible mod {p}")
    counts = np.zeros(p, dtype=_dtype(2 * _norm(a.vec)))
    counts[np.arange(p - 1) * (c % p) % p] = a.vec
    return CycInt._wrap(p, _fold(counts))
