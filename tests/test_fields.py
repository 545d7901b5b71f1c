"""Field tower construction, canonical moduli, trace, Frobenius, embeddings.

The frozen moduli below were derived by hand: candidates are ordered by
(c_0, ..., c_{e-1}) and for degrees 2 and 3 irreducibility over F_p is
equivalent to having no root, so the first root-free candidate wins.
"""

import pytest
from hypothesis import given, settings, strategies as st

from npscan.errors import FieldMismatch, NoEmbedding, NotPrime
from npscan.fields import (
    FieldPolynomial,
    build_field,
    embed,
    is_prime,
)

PRIME_POWERS_SMALL = [
    (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
    (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1),
]


def naive_smallest_irreducible_no_root(p, e):
    """Independent oracle for e in {2, 3}: first candidate without a root."""
    assert e in (2, 3)
    for idx in range(p**e):
        low = [(idx // p ** (e - 1 - i)) % p for i in range(e)]
        cand = low + [1]
        if all(sum(c * pow(x, i, p) for i, c in enumerate(cand)) % p for x in range(p)):
            return tuple(cand)
    raise AssertionError


def test_is_prime():
    assert [n for n in range(2, 60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59
    ]
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**31 - 1)


def test_canonical_moduli_frozen():
    assert build_field(2, 2).modulus == (1, 1, 1)
    assert build_field(2, 3).modulus == (1, 0, 1, 1)
    assert build_field(3, 2).modulus == (1, 0, 1)
    assert build_field(5, 2).modulus == (1, 1, 1)
    assert build_field(3, 3).modulus == (1, 0, 2, 1)
    assert build_field(7, 1).modulus == (0, 1)


@pytest.mark.parametrize("p,e", [(3, 2), (3, 3), (5, 2), (7, 2), (11, 2), (13, 3)])
def test_modulus_matches_no_root_oracle(p, e):
    assert build_field(p, e).modulus == naive_smallest_irreducible_no_root(p, e)


def test_build_field_rejects_bad_args():
    with pytest.raises(NotPrime):
        build_field(6, 1)
    with pytest.raises(ValueError):
        build_field(5, 0)


@pytest.mark.parametrize("p,e", PRIME_POWERS_SMALL)
def test_field_axioms_on_sample(p, e):
    F = build_field(p, e)
    xs = [F.from_index(k) for k in range(min(F.q, 9))]
    for a in xs:
        for b in xs:
            assert a + b == b + a
            assert a * b == b * a
            for c in xs[:4]:
                assert (a + b) * c == a * c + b * c
                assert (a * b) * c == a * (b * c)
    one = F.one()
    for a in xs:
        if not a.is_zero():
            assert a * a ** (F.q - 2) == one  # inverse via Fermat


def test_from_index_roundtrip():
    F = build_field(3, 3)
    seen = {tuple(F.from_index(k).coeffs) for k in range(27)}
    assert len(seen) == 27
    assert F.from_index(0).is_zero()
    assert F.from_index(1) == F.one()
    assert F.from_index(3) == F.gen()


@pytest.mark.parametrize("p,e", PRIME_POWERS_SMALL)
def test_frobenius_is_pth_power_and_additive(p, e):
    F = build_field(p, e)
    for k in range(0, F.q, max(1, F.q // 11)):
        x = F.from_index(k)
        assert F.frobenius(x) == x**p
    a, b = F.from_index(1), F.from_index(F.q - 1)
    assert F.frobenius(a + b) == F.frobenius(a) + F.frobenius(b)


@pytest.mark.parametrize("p,e", PRIME_POWERS_SMALL)
def test_trace_matches_conjugate_sum(p, e):
    F = build_field(p, e)

    def conjugate_sum(x):
        acc, y = F.zero(), x
        for _ in range(e):
            acc = acc + y
            y = F.frobenius(y)
        assert acc.coeffs[1:] == (0,) * (e - 1)  # trace lands in F_p
        return acc.coeffs[0]

    for k in range(0, F.q, max(1, F.q // 13)):
        x = F.from_index(k)
        assert F.trace(x) == conjugate_sum(x)
    # Tr(x^k) up to the degree of a product of two basis elements, as the
    # Zech route's trace form H[i, j] = Tr(x^(i+j)) reads it
    assert F.power_traces(2 * e - 1) == tuple(
        conjugate_sum(F.gen() ** k) for k in range(2 * e - 1)
    )


def test_trace_fibers_are_uniform():
    """Tr is F_p-linear and onto, so each value is hit q/p times."""
    for p, e in PRIME_POWERS_SMALL:
        F = build_field(p, e)
        if F.q > 3000:
            continue
        fibers = [0] * p
        for x in F.elements():
            fibers[F.trace(x)] += 1
        assert fibers == [F.q // p] * p


def test_trace_f9_frozen():
    # modulus x^2 + 1: g^2 = -1, so Tr(g) = g + g^3 = g - g = 0
    F = build_field(3, 2)
    assert F.trace_vector() == (2, 0)


def test_embedding_is_ring_homomorphism():
    sub, sup = build_field(3, 2), build_field(3, 6)
    phi = embed(sub, sup)
    xs = [sub.from_index(k) for k in range(9)]
    for a in xs:
        for b in xs:
            assert phi(a + b) == phi(a) + phi(b)
            assert phi(a * b) == phi(a) * phi(b)
    assert phi(sub.one()) == sup.one()
    # the generator image satisfies the subfield modulus
    img = phi(sub.gen())
    acc = sup.zero()
    for i, c in enumerate(sub.modulus):
        acc = acc + sup.element(c) * img**i
    assert acc.is_zero()


def test_embedding_tower_coherence():
    F2, F4, F16 = build_field(2, 1), build_field(2, 2), build_field(2, 4)
    lo, hi, direct = embed(F2, F4), embed(F4, F16), embed(F2, F16)
    for k in range(2):
        assert direct(F2.from_index(k)) == hi(lo(F2.from_index(k)))


def test_embedding_preserves_trace_composition():
    """Tr_sup = Tr_sub after averaging: Tr_{F_q^2/F_p}(phi(x)) = 2 * ... no;
    for x in the subfield, Tr_sup(x) = (sup.e/sub.e) copies of each conjugate,
    so Tr_sup(phi(x)) = (e1/e0) * Tr_sub(x) mod p."""
    sub, sup = build_field(5, 1), build_field(5, 3)
    phi = embed(sub, sup)
    for k in range(5):
        x = sub.from_index(k)
        assert sup.trace(phi(x)) == (3 * sub.trace(x)) % 5


def test_embedding_of_prime_field_coefficients_needs_no_root(monkeypatch):
    """F_p is fixed by every embedding, so no root of the modulus is sought."""
    from npscan import kernels

    def no_search(*args, **kwargs):
        raise AssertionError("root search")

    monkeypatch.setattr(kernels, "find_first_root", no_search)
    embed.cache_clear()
    sub, sup = build_field(3, 2), build_field(3, 4)
    f = sub.poly([2, 0, 1, 1])
    assert embed(sub, sup).map_poly(f) == sup.poly([2, 0, 1, 1])


def test_no_embedding_when_degrees_incompatible():
    with pytest.raises(NoEmbedding):
        embed(build_field(3, 2), build_field(3, 3))
    with pytest.raises(NoEmbedding):
        embed(build_field(3, 1), build_field(5, 2))


def test_field_mismatch_raises():
    a = build_field(3, 1).one()
    b = build_field(5, 1).one()
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a * b


def test_polynomial_eval_frozen():
    F = build_field(3, 2)
    f = F.poly([1, 0, 1])  # x^2 + 1
    g = F.gen()
    assert f(g).is_zero()  # g is a root of the modulus
    assert f(F.one()) == F.element(2)
    assert F.poly([]).degree == -1
    assert F.poly([0, 0, 0]).is_zero()


def test_polynomial_trims_and_hashes():
    F = build_field(5, 1)
    f = FieldPolynomial(F, [F.element(1), F.element(2), F.zero()])
    assert f.degree == 1
    assert hash(f) == hash(F.poly([1, 2]))
    assert f == F.poly([1, 2, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7**2 - 1), st.integers(0, 7**2 - 1))
def test_mul_commutes_with_embedding_f49(i, j):
    F, G = build_field(7, 2), build_field(7, 4)
    phi = embed(F, G)
    a, b = F.from_index(i), F.from_index(j)
    assert phi(a * b) == phi(a) * phi(b)
