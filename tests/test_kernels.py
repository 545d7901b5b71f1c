"""Dual-route checks for the vectorized kernels.

Every fast path has a slow twin: Horner-block evaluation vs elementwise
Python evaluation, and the Zech route vs both.  Horner and Zech share the
multiplication matrices of _mul_matrices; the independent path is the
pure-Python oracle naive_trace_histogram, which multiplies FieldElements.

Which inputs each route takes:

* naive (the oracle): any polynomial over any field;
* Horner: any polynomial over any field;
* Zech: any polynomial over a field of degree e >= 2; trace_histogram
  sends it every field except F_p and F_{p^2} below ZECH_MIN_Q, which go
  to Horner.
"""

import random
import tracemalloc

import numpy as np
import pytest

from npscan import kernels
from npscan.errors import BudgetExceeded
from npscan.fields import build_field, is_prime


def naive_trace_histogram(fbar):
    """Pure-Python twin of trace_histogram: the independent oracle."""
    field = fbar.field
    hist = [0] * field.p
    for x in field.elements():
        hist[field.trace(fbar(x))] += 1
    return hist


def random_poly(field, degree, rng):
    coeffs = [rng.randrange(field.q) for _ in range(degree)] + [
        rng.randrange(1, field.q)
    ]
    return field.poly([field.from_index(k) for k in coeffs])


@pytest.mark.parametrize("p,e", [(2, 5), (3, 3), (5, 2), (7, 2), (11, 1), (13, 2), (3, 8)])
def test_trace_histogram_matches_naive(p, e):
    rng = random.Random(p * 100 + e)
    F = build_field(p, e)
    for deg in (1, 2, 5):
        f = random_poly(F, deg, rng)
        assert kernels.trace_histogram(f) == naive_trace_histogram(f)


@pytest.mark.parametrize("chunk", [None, 16])
@pytest.mark.parametrize("p,e", [(11, 1), (101, 1), (5, 2), (13, 2), (3, 3), (2, 5), (5, 3)])
def test_horner_matches_naive(monkeypatch, p, e, chunk):
    """Horner on every extension degree, e >= 3 included (trace_histogram
    sends those to the Zech route); _CHUNK = 16 cuts a call into blocks of
    16 // e elements, so each call spans many blocks."""
    if chunk is not None:
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
    rng = random.Random(p * 100 + e)
    F = build_field(p, e)
    for deg in (0, 1, 2, 5):
        f = random_poly(F, deg, rng)
        assert kernels._trace_histogram_horner(f) == naive_trace_histogram(f)
    zero = F.poly([])
    assert kernels._trace_histogram_horner(zero) == naive_trace_histogram(zero)


@pytest.mark.parametrize(
    "p,e", [(2, 8), (3, 5), (5, 4), (7, 3), (3, 1), (4093, 1), (5, 2), (61, 2)]
)
def test_route_below_cutoff_follows_the_extension_degree(monkeypatch, p, e):
    """Below ZECH_MIN_Q, e >= 3 takes the trace form and F_p, F_{p^2} take
    Horner, with coefficients anywhere in F_q; the other route raises."""
    F = build_field(p, e)
    assert F.q < kernels.ZECH_MIN_Q
    rng = random.Random(p * 10 + e)
    polys = [random_poly(F, deg, rng) for deg in (1, 2, 5)]
    expected = [naive_trace_histogram(f) for f in polys]

    def refused(fbar):
        raise AssertionError(f"wrong route for F_{p}^{e}")

    other = "_trace_histogram_horner" if e >= 3 else "_trace_histogram_zech"
    monkeypatch.setattr(kernels, other, refused)
    assert [kernels.trace_histogram(f) for f in polys] == expected


@pytest.mark.parametrize("p,e", [(3, 8), (5, 6), (7, 5), (2, 13), (101, 3)])
def test_zech_and_horner_routes_agree(p, e):
    """Fields past the Zech cutoff: compare the trace-form route against
    the Horner-block route explicitly (these share only _mul_matrices)."""
    rng = random.Random(e)
    F = build_field(p, e)
    assert F.q > kernels.ZECH_MIN_Q
    for deg in (2, 3, 6):
        f = random_poly(F, deg, rng)
        assert kernels._trace_histogram_zech(f) == kernels._trace_histogram_horner(f)


@pytest.mark.parametrize(
    "p,e,route",
    [(4099, 1, "horner"), (65537, 1, "horner"), (67, 2, "zech"), (7, 3, "zech"), (3, 8, "zech")],
)
def test_trace_histogram_route_above_cutoff(monkeypatch, p, e, route):
    """Every F_p goes to Horner, past ZECH_MIN_Q and past 2^15 too; F_{p^2}
    above ZECH_MIN_Q and every e >= 3 go to the trace form.  An F_p
    histogram is checked against a count on Python ints."""
    F = build_field(p, e)
    rng = random.Random(p + e)
    coeffs = [rng.randrange(p) for _ in range(4)] + [1]
    f = F.poly(coeffs)
    if e == 1:
        expected = [0] * p
        for x in range(p):
            expected[sum(c * pow(x, k, p) for k, c in enumerate(coeffs)) % p] += 1
    else:
        expected = oracle_histogram(f)

    def refused(fbar):
        raise AssertionError(f"wrong route for F_{p}^{e}")

    other = "_trace_histogram_zech" if route == "horner" else "_trace_histogram_horner"
    monkeypatch.setattr(kernels, other, refused)
    assert kernels.trace_histogram(f) == expected


def bisected_q_limit(e, terms, ceiling):
    """The largest P^e with terms e (P-1)^2 + (P-1) < ceiling, by bisection
    over [2, 2^32): the oracle for _q_limit's closed form."""
    lo, hi = 2, 2**32
    while hi - lo > 1:
        mid = (lo + hi) // 2
        worst = terms * e * (mid - 1) ** 2 + (mid - 1)
        lo, hi = (mid, hi) if worst < ceiling else (lo, mid)
    return lo**e


def test_q_limit_matches_bisection():
    for ceiling in (1 << 62, 1 << 53, 1 << 24, 1 << 16):
        for e in range(1, 41):
            for terms in range(1, 21):
                expected = bisected_q_limit(e, terms, ceiling)
                assert kernels._q_limit(e, terms, ceiling) == expected, (e, terms, ceiling)


@pytest.mark.parametrize(
    "p,coeffs,terms",
    [(67108879, [0, 0, 1], 1), (38745323, [0, 1, 0, 1, 0, 1], 3)],
    ids=["x^2", "x+x^3+x^5"],
)
def test_zech_float64_bound_fails_loudly(monkeypatch, p, coeffs, terms):
    """Past 2^53 the float64 sums could round: the trace form raises
    BudgetExceeded(q, limit) before its per-field set-up.  The bound is
    K e (p-1)^2 + (p-1) < 2^53, about 4.5e15 / K elements for e = 2; the
    prime just below each field here still passes it."""

    class SetUp(Exception):
        pass

    def setup(field):
        raise SetUp

    monkeypatch.setattr(kernels, "_zech_field", setup)
    limit = kernels._q_limit(2, terms, kernels._FLOAT64_EXACT)
    assert 4.4e15 < limit * terms < 4.6e15
    F = build_field(p, 2)
    assert is_prime(p) and F.q > limit
    with pytest.raises(BudgetExceeded) as exc:
        kernels.trace_histogram(F.poly(coeffs))
    assert (exc.value.size, exc.value.budget) == (F.q, limit)
    below = next(r for r in range(p - 1, 2, -1) if is_prime(r))
    assert below**2 <= limit
    with pytest.raises(SetUp):
        kernels.trace_histogram(build_field(below, 2).poly(coeffs))


@pytest.mark.parametrize("p,e", [(3, 8), (67, 2)])
def test_zech_folded_and_per_element_reductions_match_horner(monkeypatch, p, e):
    """Small p folds raw trace-form sums mod p once; _FOLD_MAX = -1 forces the
    reduction of each entry instead.  Both must give Horner's histogram."""
    rng = random.Random(p + e)
    F = build_field(p, e)
    f = random_poly(F, 5, rng)
    assert 5 * e * (p - 1) ** 2 <= kernels._FOLD_MAX  # the default folds
    horner = kernels._trace_histogram_horner(f)
    assert kernels._trace_histogram_zech(f) == horner
    monkeypatch.setattr(kernels, "_FOLD_MAX", -1)
    assert kernels._trace_histogram_zech(f) == horner


def test_zech_field_setup_reused_across_polynomials():
    """Two polynomials over one field, run back to back, give the histograms
    each gets after the per-field cache is cleared."""
    rng = random.Random(56)
    F = build_field(5, 6)
    polys = [random_poly(F, 3, rng), random_poly(F, 6, rng)]
    kernels._zech_field.cache_clear()
    warm = [kernels._trace_histogram_zech(f) for f in polys]
    cold = []
    for f in polys:
        kernels._zech_field.cache_clear()
        cold.append(kernels._trace_histogram_zech(f))
    assert warm == cold == [kernels._trace_histogram_horner(f) for f in polys]


@pytest.mark.parametrize("chunk", [1, 64, 4 << 20])
def test_zech_term_rows_partly_cached_and_evicted(monkeypatch, chunk):
    """Term degrees repeated and shared between calls: the field set-up is
    cached, the tables are built anew by each call and kept by none, and
    the rows are the powers g^(k*j), j < A, and the histograms match the
    oracle.  _CHUNK runs the block-doubling pass one row at a time, on
    chunks that end mid-table, and on the whole table at once."""
    monkeypatch.setattr(kernels, "_CHUNK", chunk)
    rng = random.Random(chunk)
    for p, e in [(3, 5), (2, 8), (5, 3), (3, 4)]:
        F = build_field(p, e)
        z = kernels._zech_field(F)
        g = kernels._find_generator(F)
        assert z.A * z.B == F.q
        for ks in ([1, 2], [2, 4, 5], [1, 5, 7, 5], [7], [11, 1]):
            rows = kernels._term_rows(F, ks)
            for k, Z in zip(ks, rows):
                assert [list(r) for r in Z] == [list((g ** (k * j)).coeffs) for j in range(z.A)]
            again = kernels._term_rows(F, ks)
            assert not np.shares_memory(rows, again) and (rows == again).all()
            assert kernels._zech_field(F) is z
            coeffs = [0] * (max(ks) + 1)
            for k in ks:
                coeffs[k] = rng.randrange(1, p)
            f = F.poly(coeffs)
            assert kernels._trace_histogram_zech(f) == oracle_histogram(f)


def test_generator_search_runs_once_per_field(monkeypatch):
    calls = []
    search = kernels._find_generator

    def counted(field):
        calls.append(field)
        return search(field)

    monkeypatch.setattr(kernels, "_find_generator", counted)
    kernels._zech_field.cache_clear()
    F, E = build_field(3, 8), build_field(67, 2)
    for f in (F.poly([0, 1, 1]), E.poly([0, 0, 1]), F.poly([2, 0, 0, 1]), E.poly([3, 1])):
        kernels.trace_histogram(f)
    assert calls == [F, E]


def test_zech_takes_coefficients_outside_prime_field():
    """x^2 + g*x over F_{3^8}, g the field generator, through the public entry."""
    F = build_field(3, 8)
    f = F.poly([0, F.gen(), 1])
    assert kernels.trace_histogram(f) == naive_trace_histogram(f)


def test_zech_handles_sparse_and_constant_polys():
    F = build_field(3, 8)
    x7 = F.poly([0] * 7 + [1])
    assert kernels._trace_histogram_zech(x7) == kernels._trace_histogram_horner(x7)
    const = F.poly([F.from_index(11)])
    h = kernels._trace_histogram_zech(const)
    assert sum(h) == F.q and h[F.trace(F.from_index(11))] == F.q
    zero = F.poly([])
    assert kernels._trace_histogram_zech(zero)[0] == F.q


def test_histogram_total_is_field_size():
    F = build_field(7, 3)
    f = F.poly([3, 0, 1, 2])
    assert sum(kernels.trace_histogram(f)) == F.q


def test_eval_blocks_match_direct_eval(monkeypatch):
    F = build_field(3, 2)
    f = F.poly([1, 2, 1])
    for chunk in (4, kernels._CHUNK):  # five blocks of two, then one block
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
        values = {}
        for start, V in kernels.eval_blocks(f):
            values.update((start + i, tuple(int(c) for c in row)) for i, row in enumerate(V))
        assert sorted(values) == list(range(9))
        for k in range(9):
            assert values[k] == f(F.from_index(k)).coeffs


def test_distinct_value_count():
    F = build_field(5, 1)
    assert kernels.distinct_value_count(F.poly([0, 0, 0, 1])) == 5  # x^3 permutes F_5
    assert kernels.distinct_value_count(F.poly([0, 0, 1])) == 3  # squares: 0,1,4


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2), (2, 5)])
def test_kernels_on_zero_and_constant_polynomials(p, e):
    """The zero polynomial is evaluated as the constant 0: one value, a root
    at the first element; a nonzero constant c has one value, no root and
    every trace at Tr(c)."""
    F = build_field(p, e)
    zero, c = F.poly([]), F.element(1)
    const = F.poly([c])
    assert kernels.distinct_value_count(zero) == kernels.distinct_value_count(const) == 1
    assert kernels.find_first_root(F, ()) == 0
    with pytest.raises(ValueError):
        kernels.find_first_root(F, (1,))
    hist = kernels._trace_histogram_horner(const)
    assert hist[F.trace(c)] == F.q and sum(hist) == F.q


def test_find_first_root_matches_scan(monkeypatch):
    F = build_field(3, 4)
    sub = build_field(3, 2)
    idx = kernels.find_first_root(F, sub.modulus)
    monkeypatch.setattr(kernels, "_CHUNK", 16)  # blocks of four elements
    assert idx >= 8 and kernels.find_first_root(F, sub.modulus) == idx
    root = F.from_index(idx)
    acc = F.zero()
    for i, c in enumerate(sub.modulus):
        acc = acc + F.element(c) * root**i
    assert acc.is_zero()
    for k in range(idx):  # nothing earlier is a root
        x = F.from_index(k)
        acc = F.zero()
        for i, c in enumerate(sub.modulus):
            acc = acc + F.element(c) * x**i
        assert not acc.is_zero()
    with pytest.raises(ValueError):
        kernels.find_first_root(F, build_field(3, 3).modulus)


def test_find_generator_has_full_order():
    """The search returns the smallest element of order q - 1, as brute force does."""

    def order(x, one):
        n, y = 1, x
        while y != one:
            n, y = n + 1, y * x
        return n

    for p, e in [(2, 2), (3, 2), (5, 2), (7, 2), (3, 3), (2, 6), (5, 3), (2, 7)]:
        F = build_field(p, e)
        brute = next(
            F.from_index(k) for k in range(1, F.q) if order(F.from_index(k), F.one()) == F.q - 1
        )
        assert kernels._find_generator(F) == brute


@pytest.mark.parametrize("p,e", [(3, 8), (67, 2)])
def test_find_generator_is_smallest_by_prime_factors(p, e):
    """Past 2^12 with e > 1: x has order q - 1 exactly when x^((q-1)/l) != 1 for
    every prime l | q - 1, checked here with FieldElement powers."""
    F = build_field(p, e)
    assert F.q >= kernels.ZECH_MIN_Q
    ells = [ell for ell in range(2, F.q) if (F.q - 1) % ell == 0 and is_prime(ell)]

    def full(x):
        return all(x ** ((F.q - 1) // ell) != F.one() for ell in ells)

    g = kernels._find_generator(F)
    k = sum(c * p**i for i, c in enumerate(g.coeffs))
    assert full(g) and not any(full(F.from_index(j)) for j in range(1, k))


def test_distinct_value_count_peaks_below_8_bytes_per_element():
    """The image is counted with one flag byte per element, set block by
    block: no q-long table of int64 codes is built or sorted.  x^2 + x is
    a square minus 1/4 in odd characteristic, so its image holds (q+1)/2
    elements."""
    F = build_field(1009, 2)
    f = F.poly([0, 1, 1])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        count = kernels.distinct_value_count(f)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert count == (F.q + 1) // 2
    assert peak < 8 * F.q


def test_element_block_matches_from_index():
    F = build_field(5, 3)
    blk = kernels._element_block(F, 17, 40)
    for row, k in zip(blk, range(17, 40)):
        assert tuple(int(v) for v in row) == F.from_index(k).coeffs


def test_int64_bound_fails_loudly():
    """F_p at p = 2^31 + 11 is the first prime field past the int64 bound."""
    fbar = build_field(2147483659, 1).poly([0, 0, 0, 1])
    with pytest.raises(BudgetExceeded):
        kernels.eval_blocks(fbar)  # on the call, before any block
    with pytest.raises(BudgetExceeded):
        kernels.trace_histogram(fbar)
    with pytest.raises(BudgetExceeded):
        kernels.distinct_value_count(fbar)  # through eval_blocks' guard
    # the largest F_p inside the bound still evaluates
    assert next(kernels.eval_blocks(build_field(2147483647, 1).poly([1])))[0] == 0


# ---------------------------------------------------------------------------
# The trace-form route's Frobenius shortcuts against the independent routes:
# the half product (even e, coefficients fixed by sigma = x -> x^(p^(e/2))),
# the full product, and terms of degree p j merged into degree j.


def oracle_histogram(f):
    """naive for small fields, Horner (no Frobenius shortcut) beyond."""
    if f.field.q <= 3000:
        return naive_trace_histogram(f)
    return kernels._trace_histogram_horner(f)


def subfield_element(F, rng):
    """y + sigma(y): an element of F_{p^(e/2)} inside F_{p^e}, e even."""
    y = F.from_index(rng.randrange(F.q))
    return y + y ** (F.p ** (F.e // 2))


def spy_symmetric(monkeypatch):
    seen = []
    exact = kernels._symmetric

    def spy(field, terms):
        seen.append(exact(field, terms))
        return seen[-1]

    monkeypatch.setattr(kernels, "_symmetric", spy)
    return seen


@pytest.mark.parametrize(
    "p,e", [(2, 6), (3, 4), (2, 8), (5, 4), (3, 8), (7, 4), (2, 12), (101, 2), (3, 10)]
)
def test_zech_half_product_on_subfield_coefficients(monkeypatch, p, e):
    """Even e, every coefficient in F_p or F_{p^(e/2)}: the half product runs.
    F_{101^2} with d >= 4 sums past _FOLD_MAX, so it reduces each entry."""
    seen = spy_symmetric(monkeypatch)
    rng = random.Random(p * 31 + e)
    F = build_field(p, e)
    polys = [F.poly([rng.randrange(p) for _ in range(d)] + [1]) for d in (1, 4, 7)]
    polys.append(F.poly([subfield_element(F, rng) for _ in range(4)] + [1]))
    polys.append(F.poly([subfield_element(F, rng), subfield_element(F, rng), 0, 2]))
    for f in polys:
        hist = kernels._trace_histogram_zech(f)
        assert hist == oracle_histogram(f) and sum(hist) == F.q
    assert len(seen) >= len(polys) - 1 and all(seen)  # one may merge to a constant


@pytest.mark.parametrize("p,e", [(2, 6), (3, 4), (5, 4), (3, 8), (101, 2)])
def test_zech_full_product_on_other_coefficients(monkeypatch, p, e):
    """Even e with a coefficient outside F_{p^(e/2)}: T is not symmetric."""
    seen = spy_symmetric(monkeypatch)
    rng = random.Random(p * 37 + e)
    F = build_field(p, e)
    g = F.gen()  # generates F_{p^e}, so sigma moves it
    assert g ** (p ** (e // 2)) != g
    polys = [F.poly([1, g, 0, 1]), F.poly([rng.randrange(p) for _ in range(5)] + [g])]
    for f in polys:
        hist = kernels._trace_histogram_zech(f)
        assert hist == oracle_histogram(f) and sum(hist) == F.q
    assert seen == [False] * len(polys)


ODD_GRID = [
    (p, e)
    for p in (2, 3, 5, 7, 13)
    for e in (3, 5, 7, 9, 11, 13)
    if p**e <= 4 * 10**5
]


@pytest.mark.parametrize("p,e", ODD_GRID)
def test_zech_odd_degree_grid(monkeypatch, p, e):
    """Odd e: A = p B rows against B columns, both factors from one table.
    _CHUNK is shrunk to blocks of 3 rows for p = 2 and 2 rows otherwise, so
    blocks end mid-table and the last one is short, and the last entry
    (A-1, B-1), x = 1 a second time, is cut from it."""
    rng = random.Random(p * 41 + e)
    F = build_field(p, e)
    polys = []
    for deg in (1, 3, 6):
        polys.append(F.poly([rng.randrange(p) for _ in range(deg)] + [1]))
        polys.append(random_poly(F, deg, rng))
    expected = [oracle_histogram(f) for f in polys]
    B = p ** (e // 2)
    rows = 3 if p == 2 else 2
    assert (p * B) % rows
    monkeypatch.setattr(kernels, "_CHUNK", rows * B)
    assert [kernels._trace_histogram_zech(f) for f in polys] == expected


@pytest.mark.parametrize(
    "p,e,coeffs,merged",
    [
        (2, 6, [0, 1, 1, 0, 1, 0, 0, 0, 1], [(1, 0)]),  # x + x^2 + x^4 + x^8: 4x = 0
        (2, 12, [1, 1, 1], []),  # x + x^2 = x + x = 0: Tr(f) is Tr(1) everywhere
        (3, 4, [2, 1, 0, 2], []),  # x + 2 x^3 -> 3x = 0
        (3, 8, [0, 2, 1, 1, 0, 0, 0, 0, 0, 1], [(1, 1), (2, 1)]),  # x^3, x^9 -> x
        (3, 6, [0, 0, 1, 0, 0, 0, 1, 1], [(2, 2), (7, 1)]),  # x^6 -> x^2
        (2, 11, [0, 1, 1, 1, 1, 0, 1, 1], [(1, 1), (7, 1)]),  # x^2, x^4 -> x; x^6 -> x^3
    ],
)
def test_zech_merges_terms_of_degree_divisible_by_p(p, e, coeffs, merged):
    """d > p: Tr(c x^(p j)) = Tr(c^(1/p) x^j) folds terms down; terms that
    cancel leave a constant, which still fills all q elements."""
    F = build_field(p, e)
    f = F.poly(coeffs)
    terms = kernels._merged_terms(f)
    assert [(k, c.coeffs[0]) for k, c in terms] == [m for m in merged if m[1]]
    assert all(not any(c.coeffs[1:]) for _, c in terms)
    assert kernels._trace_histogram_zech(f) == oracle_histogram(f)


def test_zech_merge_takes_the_pth_root_of_other_coefficients():
    """c x^3 over F_{3^4} merges into c^(1/3) x = c^27 x; with c^27 x - c^(1/3) x
    added the polynomial's trace is Tr(c_0) everywhere."""
    F = build_field(3, 4)
    c = F.gen()
    root = c**27
    assert root**3 == c
    f = F.poly([F.one(), F.zero() - root, 0, c])
    assert kernels._merged_terms(f) == []
    hist = kernels._trace_histogram_zech(f)
    assert hist == naive_trace_histogram(f)
    assert hist[F.trace(F.one())] == F.q
    g = F.poly([0, 1, 0, c])
    assert kernels._merged_terms(g) == [(1, F.one() + root)]
    assert kernels._trace_histogram_zech(g) == naive_trace_histogram(g)


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("p,e", [(2, 6), (3, 4), (5, 4), (3, 6), (7, 4), (2, 7), (5, 3)])
def test_zech_counts_x_equal_one_once(monkeypatch, p, e, chunk):
    """For every e, A B = q: the last entry (A-1, B-1) is k = q - 1, which is
    x = 1 again.  f = x^(q-1) is 1 on F_q^* and 0 at 0, so its histogram is
    known; a second x = 1 would make it sum to q + 1.  _CHUNK = 7 puts
    (A-1, A-1) in a row block of its own."""
    if chunk is not None:
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
    F = build_field(p, e)
    expected = [0] * p
    expected[0] += 1
    expected[F.trace(F.one())] += F.q - 1
    assert kernels._trace_histogram_zech(F.poly([0] * (F.q - 1) + [1])) == expected
    f = F.poly([1, 1])
    assert kernels._trace_histogram_zech(f) == oracle_histogram(f)


@pytest.mark.parametrize("chunk,fold", [(40, None), (None, -1)])
def test_zech_half_product_blocks_and_reductions(monkeypatch, chunk, fold):
    """The half product across many row blocks, and with each entry reduced
    mod p instead of folded."""
    for name, value in (("_CHUNK", chunk), ("_FOLD_MAX", fold)):
        if value is not None:
            monkeypatch.setattr(kernels, name, value)
    seen = spy_symmetric(monkeypatch)
    rng = random.Random(12)
    for p, e in ((3, 6), (2, 8), (7, 4), (67, 2)):
        F = build_field(p, e)
        f = F.poly([rng.randrange(p) for _ in range(6)] + [1])
        assert kernels._trace_histogram_zech(f) == oracle_histogram(f)
    assert all(seen)


def test_zech_power_tables_fill_their_kept_dtype():
    """The tables of x^7 + x over F_{463^3}, the largest field for two-byte
    tables under the default budget, peak at no more than twice their own
    bytes: they are filled in uint16 chunk by chunk, never held whole in
    int64.  A cold histogram call leaves less than one table's bytes
    allocated after it returns: the tables live for one call."""
    F = build_field(463, 3)
    f = F.poly([0, 1, 0, 0, 0, 0, 0, 1])
    table = 463**2 * 3 * 2  # A = 463^2 rows of 3 two-byte digits
    kernels._zech_field.cache_clear()
    tracemalloc.start()
    try:
        hist = kernels._trace_histogram_zech(f)
        left = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tables = kernels._term_rows(F, [1, 7])
        peak = tracemalloc.get_traced_memory()[1] - left
    finally:
        tracemalloc.stop()
    assert sum(hist) == F.q
    assert left < table
    assert tables.dtype == np.uint16 and tables.nbytes == 2 * table
    assert peak <= 2 * tables.nbytes
