"""Truth tables, bit vectors, generators, ANF, and the text formats."""

import itertools
import re
import string
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentspectra import (
    AnfPolynomial,
    BitVector,
    TruthTable,
    dot,
    from_anf,
    make_affine,
    make_constant,
    make_inner_product_bent,
    make_mm_bent,
    random_function,
    render_bars,
    shuffle_search_bent,
    to_anf,
)
from bentspectra import boolfn
from bentspectra.boolfn import (_BLOCK_ENTRIES, _MAX_WORKERS, MAX_ARITY, _SCRATCH,
                                 _bits_from_binary, _bits_from_hex, _butterfly, _check_arity,
                                 _random_columns, _xor_pair)
from bentspectra.djsim import _hadamard_pair
from bentspectra.walsh import _sum_diff


@st.composite
def truth_tables(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (1 << n)) - 1))
    return TruthTable.from_int(n, mask)


# ---------------------------------------------------------------------------
# BitVector and dot
# ---------------------------------------------------------------------------


def test_bitvector_validation():
    v = BitVector(4, 9)
    assert (v.bit(0), v.bit(1), v.bit(2), v.bit(3)) == (1, 0, 0, 1)
    assert int(v) == 9
    with pytest.raises(ValueError):
        BitVector(4, 16)
    with pytest.raises(ValueError):
        BitVector(0, 0)
    with pytest.raises(ValueError):
        BitVector(4, -1)
    with pytest.raises(ValueError):
        v.bit(4)


def test_bitvector_is_an_index():
    assert "abcd"[BitVector(2, 3)] == "d"
    assert np.arange(10, 14)[BitVector(2, 1)] == 11


@pytest.mark.parametrize("build", [
    lambda: TruthTable(2.7, [0, 1, 1, 0]),
    lambda: TruthTable(2.0, [0, 1, 1, 0]),
    lambda: TruthTable("2", [0, 1, 1, 0]),
    lambda: TruthTable(np.float64(2), [0, 1, 1, 0]),
    lambda: make_constant(3.9, 1),
    lambda: BitVector(4.5, 3),
    lambda: random_function(None, np.random.default_rng(0)),
], ids=["float", "integral-float", "string", "numpy-float", "make-constant", "bitvector",
        "none"])
def test_arity_must_be_an_integer(build):
    with pytest.raises(ValueError, match=r"^arity must be in \[1, 24\], got "):
        build()


def test_numpy_integer_arities_are_accepted():
    tt = TruthTable(np.int64(2), [0, 1, 1, 0])
    assert tt == TruthTable(2, [0, 1, 1, 0]) and type(tt.n) is int
    assert make_constant(np.uint8(3), 1).n == 3
    assert BitVector(np.int32(4), 9).bit(3) == 1


@pytest.mark.parametrize("build, message", [
    (lambda: TruthTable(2, [0, 0, 1, 1])(1.9), "x must be an integer, got 1.9"),
    (lambda: make_affine(4, 9.7), "k must be an integer, got 9.7"),
    (lambda: make_mm_bent(1.5, [0, 1]), "half-arity must be an integer, got 1.5"),
    (lambda: BitVector(4, 9.5), "value must be an integer, got 9.5"),
], ids=["eval", "make-affine", "make-mm-bent", "bitvector"])
def test_values_must_be_integers(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_values_are_accepted():
    v = BitVector(np.int64(4), np.uint8(9))
    assert v == BitVector(4, 9) and type(v.n) is int and type(v.value) is int
    assert TruthTable(2, [0, 0, 1, 1])(np.int64(2)) == 1
    assert make_affine(4, np.int32(9)) == make_affine(4, 9)
    assert make_mm_bent(np.int64(1), [1, 0]) == make_mm_bent(1, [1, 0])


@pytest.mark.parametrize("build, message", [
    (lambda: TruthTable.from_int(2, 3.0), "mask must be an integer, got 3.0"),
    (lambda: TruthTable.from_function(2, lambda x: 2), "table entries must be 0 or 1"),
    (lambda: BitVector(3, 5).bit(1.0), "bit index must be an integer, got 1.0"),
    (lambda: make_constant(3, 2), "c must be 0 or 1, got 2"),
    (lambda: make_constant(2, -1), "c must be 0 or 1, got -1"),
    (lambda: make_constant(3, 0.9), "c must be an integer, got 0.9"),
    (lambda: make_affine(3, 1, 3), "c must be 0 or 1, got 3"),
    (lambda: make_affine(3, 1, 1.5), "c must be an integer, got 1.5"),
    (lambda: make_mm_bent(1, [0.5, 1.5]), "pi entries change value when cast to int64"),
    (lambda: shuffle_search_bent(4, np.random.default_rng(0), 2.9),
     "max_iters must be an integer, got 2.9"),
    (lambda: render_bars([1.0, 2.0], title=123), "render_bars title must be a string, got 123"),
], ids=["from-int", "from-function", "bit", "constant-2", "constant-minus-1", "constant-float",
        "affine-3", "affine-float", "mm-bent-pi", "max-iters", "bars-title"])
def test_generator_arguments_are_checked_not_truncated(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_generator_arguments_are_accepted():
    assert TruthTable.from_int(2, np.int64(3)) == TruthTable.from_int(2, 3)
    assert BitVector(3, 5).bit(np.uint8(2)) == 1
    assert make_constant(3, np.int64(1)) == make_constant(3, 1)
    assert make_affine(3, 1, np.uint8(1)) == make_affine(3, 1, 1)
    assert make_mm_bent(1, np.array([1, 0], np.uint8)) == make_mm_bent(1, [1, 0])
    assert make_mm_bent(1, [1.0, 0.0]) == make_mm_bent(1, [1, 0])  # a lossless cast
    assert TruthTable.from_function(2, lambda x: np.uint8(x == 3)) == TruthTable.from_int(2, 8)
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    assert shuffle_search_bent(4, rng_a, np.int64(3)) == shuffle_search_bent(4, rng_b, 3)


def test_dot_examples():
    assert dot(BitVector(4, 9), BitVector(4, 9)) == 0  # 1 XOR 1
    assert dot(BitVector(4, 9), BitVector(4, 1)) == 1
    for x in range(16):
        assert dot(BitVector(4, 0), BitVector(4, x)) == 0
    with pytest.raises(ValueError):
        dot(BitVector(4, 9), BitVector(3, 1))


def test_dot_is_parity_of_and():
    for k, x in itertools.product(range(8), repeat=2):
        expected = sum(((k >> j) & 1) * ((x >> j) & 1) for j in range(3)) % 2
        assert dot(BitVector(3, k), BitVector(3, x)) == expected


# ---------------------------------------------------------------------------
# TruthTable basics
# ---------------------------------------------------------------------------


def test_eval_examples():
    ones = make_constant(3, 1)
    for x in range(8):
        assert ones.eval(x) == 1
    and2 = TruthTable(2, [0, 0, 0, 1])  # f = x0 AND x1
    assert and2.eval(3) == 1
    assert and2.eval(2) == 0
    assert and2.eval(BitVector(2, 3)) == 1
    with pytest.raises(ValueError):
        and2.eval(BitVector(3, 3))
    with pytest.raises(ValueError):
        and2.eval(4)


def test_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 2, 0])
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 0])
    with pytest.raises(ValueError):
        TruthTable(0, [])
    with pytest.raises(ValueError):
        TruthTable(MAX_ARITY + 1, [0])
    with pytest.raises(AttributeError):
        make_constant(2, 0).n = 3


def test_bits_are_read_only():
    tt = make_constant(2, 0)
    with pytest.raises(ValueError):
        tt.bits[0] = 1


def test_int_round_trip():
    tt = TruthTable.from_int(2, 0b1000)
    assert tt.bits.tolist() == [0, 0, 0, 1]
    assert tt.to_int() == 0b1000
    for mask in range(16):
        assert TruthTable.from_int(2, mask).to_int() == mask
    for mask in (-1, 16):
        with pytest.raises(ValueError, match="mask out of range for a 4-entry table"):
            TruthTable.from_int(2, mask)


def test_from_function():
    tt = TruthTable.from_function(2, lambda x: (x & 1) & (x >> 1))
    assert tt == TruthTable(2, [0, 0, 0, 1])


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_make_constant():
    assert make_constant(2, 0).bits.tolist() == [0, 0, 0, 0]
    assert make_constant(2, 1).bits.tolist() == [1, 1, 1, 1]
    assert make_constant(4, 0).bits.tolist() == [0] * 16
    with pytest.raises(ValueError):
        make_constant(0, 0)
    with pytest.raises(ValueError):
        make_constant(MAX_ARITY + 1, 0)


def test_make_affine_k9():
    tt = make_affine(4, 9, 0)
    for x in range(16):
        assert tt.eval(x) == ((x & 1) ^ ((x >> 3) & 1))
    assert tt.weight() == 8  # balanced for k != 0


def test_make_affine_degenerate_and_xor():
    assert make_affine(4, 0, 1) == make_constant(4, 1)
    assert make_affine(2, 3, 0).bits.tolist() == [0, 1, 1, 0]
    with pytest.raises(ValueError):
        make_affine(4, BitVector(3, 1), 0)
    with pytest.raises(ValueError):
        make_affine(4, 16, 0)


def test_make_affine_matches_dot():
    for k, c in itertools.product(range(8), (0, 1)):
        tt = make_affine(3, k, c)
        for x in range(8):
            assert tt.eval(x) == dot(BitVector(3, k), BitVector(3, x)) ^ c


def test_inner_product_bent_small():
    assert make_inner_product_bent(2).bits.tolist() == [0, 0, 0, 1]
    # independent count of inputs with (x0&x1) ^ (x2&x3) = 1
    expected = sum(
        ((x & 1) & ((x >> 1) & 1)) ^ (((x >> 2) & 1) & ((x >> 3) & 1))
        for x in range(16)
    )
    assert expected == 6
    assert make_inner_product_bent(4).weight() == 6
    with pytest.raises(ValueError):
        make_inner_product_bent(3)
    with pytest.raises(ValueError):
        make_inner_product_bent(0)


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_inner_product_bent_matches_per_pair_definition(n):
    want = [sum((x >> (2 * i)) & (x >> (2 * i + 1)) & 1 for i in range(n // 2)) % 2
            for x in range(1 << n)]
    assert make_inner_product_bent(n).bits.tolist() == want


def test_mm_bent_reduces_to_and():
    assert make_mm_bent(1, [0, 1]) == make_inner_product_bent(2)


def test_mm_bent_identity_is_ip_up_to_bit_swap():
    # with x the low half, identity pi pairs bit i with bit i + n/2, so the
    # table matches the inner-product function after swapping bits 1 and 2
    mm = make_mm_bent(2, [0, 1, 2, 3])
    ip = make_inner_product_bent(4)
    swap = lambda x: (x & 0b1001) | ((x & 2) << 1) | ((x & 4) >> 1)
    assert all(mm.eval(x) == ip.eval(swap(x)) for x in range(16))
    assert mm != ip  # the pairing differs entry-wise


def test_mm_bent_validation():
    with pytest.raises(ValueError):
        make_mm_bent(2, [0, 1, 2, 2])
    with pytest.raises(ValueError):
        make_mm_bent(2, [0, 1, 2])
    with pytest.raises(ValueError):
        make_mm_bent(2, [0, 1, 2, 3], g=make_constant(3, 0))
    with pytest.raises(ValueError):
        make_mm_bent(0, [0])


def test_mm_bent_with_g_offset():
    # g enters as a pure XOR offset per y-block
    g = TruthTable(2, [1, 0, 1, 1])
    plain = make_mm_bent(2, [2, 0, 3, 1])
    offset = make_mm_bent(2, [2, 0, 3, 1], g=g)
    for x in range(16):
        assert offset.eval(x) == plain.eval(x) ^ g.eval(x >> 2)


@pytest.mark.parametrize("n", range(1, 21))
def test_generators_match_the_int64_index_formulas(n):
    # each generator against the formula it once evaluated on 2^n int64
    # indices; odd n splits into unequal halves, and n = 2 mod 4 splits the
    # inner product below n/2 (at lo = 0 for n = 2)
    rng = np.random.default_rng(n)
    idx = np.arange(1 << n, dtype=np.int64)

    def parity(a):
        return (np.bitwise_count(a) & 1).astype(np.uint8)

    for k, c in itertools.product((0, 1, (1 << n) - 1, int(rng.integers(1 << n))), (0, 1)):
        assert make_affine(n, k, c).bits.tobytes() == (parity(idx & k) ^ c).tobytes(), (k, c)
    for c in (0, 1):
        assert make_constant(n, c).bits.tobytes() == np.full(1 << n, c, np.uint8).tobytes()
    if n % 2:
        return
    want = parity(idx & (idx >> 1) & ((1 << n) // 3))
    assert make_inner_product_bent(n).bits.tobytes() == want.tobytes()
    half = n // 2
    pi, g = rng.permutation(1 << half), random_function(half, rng)
    x, y = idx & ((1 << half) - 1), idx >> half
    assert make_mm_bent(half, pi).bits.tobytes() == parity(x & pi[y]).tobytes()
    want = parity(x & pi[y]) ^ g.bits[y]
    assert make_mm_bent(half, pi, g).bits.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, bound", [
    # the table and its half-width rows: 0.269 MiB measured (4.25 MiB before)
    ("affine", (1 << 18) + (32 << 10)),
    # the table and the 2^9-entry half table: 0.270 MiB (4.50 MiB before)
    ("ip-bent", (1 << 18) + (32 << 10)),
    # the table, written as the outer XOR of quarter-width parity rows: 0.296 MiB
    # (0.755 MiB with the full uint16 masks pi(y) & x, 8.25 MiB before)
    ("mm-bent", (1 << 18) + (48 << 10)),
])
def test_generator_memory_at_n18_is_the_table_and_its_half_width_rows(kind, bound):
    rng = np.random.default_rng(18)
    pi, g = rng.permutation(1 << 9), random_function(9, rng)
    make = {"affine": lambda: make_affine(18, 0b101101110010110101, 1),
            "ip-bent": lambda: make_inner_product_bent(18),
            "mm-bent": lambda: make_mm_bent(9, pi, g)}[kind]
    tracemalloc.start()
    try:
        make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


def test_random_function_reproducible():
    a = random_function(4, np.random.default_rng(1234))
    b = random_function(4, np.random.default_rng(1234))
    c = random_function(4, np.random.default_rng(1235))
    assert a == b
    assert a != c
    assert random_function(1, np.random.default_rng(0)).n == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_random_blocks_are_successive_random_functions(n):
    rng = np.random.default_rng(n)
    blocks = [_random_columns(n, count, rng) for count in (3, 5)]
    assert all(block.flags.c_contiguous for block in blocks)
    rng = np.random.default_rng(n)
    singles = [random_function(n, rng).bits for _ in range(8)]
    rng = np.random.default_rng(n)
    draws = [rng.integers(0, 2, size=1 << n, dtype=np.uint8) for _ in range(8)]
    assert np.array_equal(np.hstack(blocks), np.stack(singles, axis=1))
    assert np.array_equal(np.hstack(blocks), np.stack(draws, axis=1))


def test_shuffle_search_finds_bent_at_n4():
    from bentspectra import is_bent

    result = shuffle_search_bent(4, np.random.default_rng(42), 100_000)
    assert result.table is not None
    assert 1 <= result.iterations <= 100_000
    assert result.table.weight() == 6
    assert is_bent(result.table)


def test_shuffle_search_n2_flat_magnitude():
    from bentspectra import fwht

    result = shuffle_search_bent(2, np.random.default_rng(0), 100)
    assert result.table is not None
    assert np.abs(fwht(result.table).coeffs).tolist() == [2, 2, 2, 2]


def test_shuffle_search_bounded_iterations():
    result = shuffle_search_bent(6, np.random.default_rng(0), 1)
    assert result.table is None
    assert result.iterations == 1


def test_shuffle_search_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        shuffle_search_bent(3, rng, 10)
    with pytest.raises(ValueError):
        shuffle_search_bent(4, rng, 0)


def test_shuffle_preserves_weight():
    # every candidate is a permutation of the weight-correct seed table
    for seed in range(5):
        result = shuffle_search_bent(4, np.random.default_rng(seed), 100_000)
        assert result.table is not None and result.table.weight() == 6


# ---------------------------------------------------------------------------
# ANF
# ---------------------------------------------------------------------------


def test_anf_known_polynomials():
    zero = to_anf(make_constant(4, 0))
    assert zero.monomials() == () and zero.degree == 0
    one = to_anf(make_constant(4, 1))
    assert one.monomials() == (0,) and one.degree == 0
    aff = to_anf(make_affine(4, 9, 0))
    assert aff.monomials() == (1, 8) and aff.degree == 1
    ip = to_anf(make_inner_product_bent(4))
    assert ip.monomials() == (3, 12) and ip.degree == 2


def test_affine_always_degree_le_1():
    for n in (1, 2, 3, 4):
        for k, c in itertools.product(range(1 << n), (0, 1)):
            assert to_anf(make_affine(n, k, c)).degree <= 1


def test_anf_round_trip_exhaustive_small():
    for n in (1, 2, 3):
        for mask in range(1 << (1 << n)):
            tt = TruthTable.from_int(n, mask)
            assert from_anf(to_anf(tt)) == tt


def test_anf_against_direct_evaluation():
    # evaluating the XOR-of-monomials form must reproduce the table
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        tt = random_function(n, rng)
        anf = to_anf(tt)
        for x in range(1 << n):
            value = 0
            for m in anf.monomials():
                value ^= int((x & m) == m)
            assert value == tt.eval(x)


@given(truth_tables(max_n=8))
@settings(max_examples=150, deadline=None)
def test_anf_round_trip_property(tt):
    anf = to_anf(tt)
    assert from_anf(anf) == tt
    assert anf.degree <= tt.n
    assert (anf.degree == 0) == (tt.weight() in (0, 1 << tt.n))


def test_anf_round_trip_n12_randomized():
    rng = np.random.default_rng(99)
    for _ in range(10):
        tt = random_function(12, rng)
        assert from_anf(to_anf(tt)) == tt


def test_anf_degree_is_largest_monomial():
    rng = np.random.default_rng(13)
    polys = [AnfPolynomial(n, np.eye(1, 1 << n, 0, dtype=np.uint8)[0] * c)
             for n in (1, 4, 20) for c in (0, 1)]  # zero and one
    for n in [*range(1, 13), 20]:
        size = 1 << n
        polys.append(AnfPolynomial(n, rng.integers(0, 2, size, dtype=np.uint8)))
        polys.append(AnfPolynomial(n, (rng.random(size) < 4 / size).astype(np.uint8)))
        polys.append(to_anf(random_function(n, rng)))
    for a in polys:
        assert a.degree == max((m.bit_count() for m in a.monomials()), default=0)
    assert [a.degree for a in polys[:6]] == [0] * 6


def _subset_xor(bits):
    """coefficients[m], the XOR of f(x) over the x whose set bits lie within m, in pure Python."""
    coefficients = []
    for m in range(len(bits)):
        value, x = 0, m
        while True:  # x runs over the submasks of m, ending at 0
            value ^= bits[x]
            if not x:
                break
            x = (x - 1) & m
        coefficients.append(value)
    return coefficients


@pytest.mark.parametrize("n", range(1, 11))  # a padded word below n = 6, one at 6, two at 7
def test_to_anf_matches_the_subset_xor_reference(n):
    rng = np.random.default_rng(n)
    top = TruthTable.from_int(n, 1 << ((1 << n) - 1))  # x_0 x_1 ... x_{n-1}
    for tt in (random_function(n, rng), make_affine(n, (1 << n) - 1, 1), top):
        anf = to_anf(tt)
        assert anf.coefficients.tolist() == _subset_xor(tt.bits.tolist())
        assert from_anf(anf) == tt


def test_degree_of_every_single_monomial_is_its_popcount():
    for n in range(1, 11):
        for m in range(1 << n):
            coefficients = np.zeros(1 << n, np.uint8)
            coefficients[m] = 1
            assert AnfPolynomial(n, coefficients).degree == m.bit_count(), (n, m)


def test_anf_coefficient_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = AnfPolynomial(4, rng.integers(0, 2, 16, dtype=np.uint8))
        assert to_anf(from_anf(a)) == a


def test_anf_coefficients_are_bits():
    with pytest.raises(ValueError, match="coefficients must be 0 or 1"):
        AnfPolynomial(2, [0, 2, 1, 0])


# ---------------------------------------------------------------------------
# The butterfly
# ---------------------------------------------------------------------------


def reference_butterfly(a, pair):
    """The one-loop butterfly: every level in place over the whole array."""
    size, width = a.shape[-2:]
    h = 1
    while h < size:
        m = a.reshape(-1, 2, h * width)
        pair(m[:, 0, :], m[:, 1, :])
        h <<= 1


def _butterfly_input(pair, shape, seed):
    """Values each pair meets in the package: bits, +-1 signs, reals with signed zeros."""
    rng = np.random.default_rng(seed)
    if pair is _xor_pair:
        return rng.integers(0, 2, shape, dtype=np.uint8)
    if pair is _sum_diff:
        return (1 - 2 * rng.integers(0, 2, shape)).astype(np.int32)
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.25] = 0.0
    a[rng.random(shape) < 0.25] = -0.0
    return a


def _assert_butterflies_match(pair, shape, seed):
    a = _butterfly_input(pair, shape, seed)
    expected = a.copy()
    reference_butterfly(expected, pair)
    _butterfly(a, pair)
    assert a.tobytes() == expected.tobytes(), shape


#: Entries above which a grid case is left out, to keep the suite fast.  This
#: drops the widths near G and the scratch edge at m >= 11, mostly with the
#: leading axis; the same widths run at smaller m.
_GRID_ENTRIES = 1 << 21


@pytest.mark.parametrize("pair", [_sum_diff, _hadamard_pair, _xor_pair])
@pytest.mark.parametrize("m", range(1, 17))
def test_butterfly_matches_one_loop_bit_for_bit(pair, m):
    group = 1 << (m // 2)
    # widths around G = 2^(m//2) and around the last one whose groups fit the
    # scratch block twice
    edge = _SCRATCH // (2 * group)
    widths = sorted({1, 3, 8, group - 1, group, group + 1, edge, edge + 1} - {0})
    for width in widths:
        for lead in ((), (2,)):
            shape = (*lead, 1 << m, width)
            if np.prod(shape) <= _GRID_ENTRIES:
                _assert_butterflies_match(pair, shape, seed=m * 1000 + width)


@pytest.mark.parametrize("pair", [_sum_diff, _hadamard_pair, _xor_pair])
@pytest.mark.parametrize("m", range(1, 9))
def test_butterfly_matches_one_loop_on_verify_blocks(pair, m):
    # verify --random runs (2^m, _BLOCK_ENTRIES / 2^m) blocks: B from 2^10 up to
    # 2^17 columns, at least G = 2^(m//2), so a high block may be one column wide
    for lead in ((), (2,)):
        _assert_butterflies_match(pair, (*lead, 1 << m, _BLOCK_ENTRIES >> m), seed=m)


@pytest.mark.parametrize("pair", [_sum_diff, _hadamard_pair, _xor_pair])
def test_butterfly_matches_one_loop_at_n20(pair):
    _assert_butterflies_match(pair, (1 << 20, 1), seed=20)


@pytest.mark.parametrize("pair", [_sum_diff, _hadamard_pair, _xor_pair])
@pytest.mark.parametrize("m", range(1, 15))
def test_butterfly_runs_each_leading_slice_on_its_own(pair, m):
    for width in (1, 9):
        a = _butterfly_input(pair, (3, 1 << m, width), seed=m * 100 + width)
        expected = a.copy()
        for sub in expected:
            _butterfly(sub, pair)
        _butterfly(a, pair)
        assert a.tobytes() == expected.tobytes(), width


@pytest.mark.parametrize("pair", [_sum_diff, _hadamard_pair, _xor_pair])
@pytest.mark.parametrize("m", [20, 21])
@pytest.mark.parametrize("width", [1, 3])
def test_threaded_butterfly_matches_one_loop_bit_for_bit(monkeypatch, pair, m, width):
    # at odd m a slice has twice as many groups as a group has rows; three
    # workers get uneven shares of the blocks, and on a 2-core host more
    # workers than cores, switching often.  Slices run on their own, so the
    # first slice of the reference is the reference of the first slice.
    a = _butterfly_input(pair, (2, 1 << m, width), seed=m * 10 + width)
    expected = a.copy()
    reference_butterfly(expected, pair)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(boolfn, "_WORKERS", workers)
            for given, want in ((a[0], expected[0]), (a, expected)):
                b = given.copy()
                _butterfly(b, pair)
                # the bits as unsigned integers: -0.0 differs from 0.0, and no
                # full-size bytes copy is made
                bits = f"u{b.itemsize}"
                assert np.array_equal(b.view(bits), want.view(bits)), (workers, b.shape)
    finally:
        sys.setswitchinterval(interval)


def _threads_used(monkeypatch, shape):
    """The most threads that ran shares of one pass of the butterfly on ``shape``."""
    monkeypatch.setattr(boolfn, "_WORKERS", 3)
    in_threads, counts = boolfn._in_threads, []

    def counting(run, args):
        # the Thread objects themselves, held until the pass ends, so a worker that
        # starts after another has exited cannot count as it, as a reused
        # get_ident() value could
        threads = set()

        def recording(*a):
            threads.add(threading.current_thread())
            run(*a)

        in_threads(recording, args)
        counts.append(len(threads))

    monkeypatch.setattr(boolfn, "_in_threads", counting)
    _butterfly(np.ones(shape, np.int32), _sum_diff)
    return max(counts)


def test_only_slices_of_2_20_entries_use_threads(monkeypatch):
    assert _threads_used(monkeypatch, (1 << 20, 1)) == 3
    assert _threads_used(monkeypatch, (1 << 14, 64)) == 3
    assert _threads_used(monkeypatch, (4, 1 << 18, 1)) == 1  # verify's blocks, four slices
    assert _threads_used(monkeypatch, (1 << 14, 16)) == 1


def test_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(boolfn, "_WORKERS", 3)
    before = threading.active_count()

    def failing(x, y, t=None):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        _sum_diff(x, y, t)

    with pytest.raises(RuntimeError, match="^worker failed$"):
        _butterfly(np.ones((1 << 20, 1), np.int32), failing)
    assert threading.active_count() == before


def test_butterfly_leaves_numpys_buffer_size_and_error_modes_as_it_found_them(monkeypatch):
    monkeypatch.setattr(boolfn, "_WORKERS", 3)
    seen = set()

    def recording(x, y, t=None):
        seen.add(np.getbufsize())
        _sum_diff(x, y, t)

    def failing_on(main):
        def pair(x, y, t=None):
            if (threading.current_thread() is threading.main_thread()) == main:
                raise RuntimeError("pair failed")
            _sum_diff(x, y, t)
        return pair

    with np.errstate(over="raise", under="warn"):
        np.setbufsize(4096)
        before = np.getbufsize(), np.geterr()
        _butterfly(np.ones((1 << 20, 1), np.int32), recording)
        # each pass's blocks are (1024, 128) here, so its shortest run is 128
        assert seen == {128}
        assert (np.getbufsize(), np.geterr()) == before
        for main in (True, False):
            with pytest.raises(RuntimeError, match="^pair failed$"):
                _butterfly(np.ones((1 << 20, 1), np.int32), failing_on(main))
            assert (np.getbufsize(), np.geterr()) == before, main


def test_threaded_butterfly_memory_is_the_workers_buffers(monkeypatch):
    monkeypatch.setattr(boolfn, "_WORKERS", _MAX_WORKERS)
    column = np.random.default_rng(0).standard_normal((1 << 20, 1))
    tracemalloc.start()
    try:
        _butterfly(column, _hadamard_pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each worker's scratch block and its pair temporary of half that size;
    # numpy's ufunc buffers, cut to a block's shortest run, fit the slack
    per_worker = _SCRATCH + _SCRATCH // 2
    assert peak <= _MAX_WORKERS * per_worker * column.itemsize + (64 << 10)


@pytest.mark.parametrize("shape, workers, block", [
    ((2, 1 << 19), 1, 1 << 20),  # m = 1: one high block of one column, no low level
    ((4, 1 << 18), 2, 1 << 19),  # m = 2: two blocks of one column in either pass
])
def test_pass_with_few_blocks_allocates_only_its_workers_buffers(monkeypatch, shape, workers,
                                                                block):
    monkeypatch.setattr(boolfn, "_WORKERS", 3)
    wide = np.random.default_rng(0).standard_normal(shape)
    tracemalloc.start()
    try:
        _butterfly(wide, _hadamard_pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_worker = block + block // 2
    assert peak <= workers * per_worker * wide.itemsize + (64 << 10)


@pytest.mark.parametrize("m", range(2, 13))
def test_butterfly_memory_on_verify_blocks_is_one_workers_buffers(m):
    # a block of verify's _BLOCK_ENTRIES entries runs on one worker, whose
    # scratch block and pair temporary, clamped to the block, hold every column
    # block of both passes
    block = np.random.default_rng(m).standard_normal((1 << m, _BLOCK_ENTRIES >> m))
    tracemalloc.start()
    try:
        _butterfly(block, _hadamard_pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scratch = min(_SCRATCH, _BLOCK_ENTRIES)
    per_worker = scratch + scratch // 2
    assert peak <= per_worker * block.itemsize + (64 << 10)


@pytest.mark.parametrize("m", [4, 8, 12, 16])
def test_one_block_pass_runs_in_place_memory_is_its_pair_temporary(m):
    # verify's high pass: the (2^m / G, G, B) slice fits one block, which is the
    # C-contiguous view itself, so no scratch copy of it is made
    group = 1 << m // 2
    block = np.random.default_rng(m).standard_normal((1 << m, _BLOCK_ENTRIES >> m))
    view = block.reshape(-1, group, block.shape[1])
    # the same entries in a strided array take the copying path
    strided = np.empty((*view.shape[:2], 2 * view.shape[2]))[:, :, ::2]
    strided[...] = view
    boolfn._blocked_pass(strided, _hadamard_pair)
    tracemalloc.start()
    try:
        boolfn._blocked_pass(view, _hadamard_pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= view.size // 2 * view.itemsize + (64 << 10), peak
    assert np.array_equal(view.view("u8"), strided.view("u8"))


def test_to_anf_memory_is_its_coefficients_and_the_degree_scan():
    tt = random_function(18, np.random.default_rng(18))
    tracemalloc.start()
    try:
        to_anf(tt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the uint8 coefficients, kept by the polynomial, and the degree scan's
    # 2^12 packed words, 1/8 of them; the scan's per-word temporaries (a masked
    # word, its bool and the uint8 top and popcount, 11 B a word) fit 48 KiB.
    # The transform's words, packed bytes and butterfly buffers, 1/8 each or
    # less, are freed before the coefficients are scanned
    assert peak <= (1 + 1 / 8) * (1 << 18) + (48 << 10), peak


def test_from_anf_memory_is_its_entries_and_the_packed_words():
    anf = to_anf(random_function(18, np.random.default_rng(18)))
    tracemalloc.start()
    try:
        from_anf(anf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the uint8 entries, unpacked while the 2^12 words, 1/8 of them, are held;
    # the packed bytes and the butterfly's buffers are freed before
    assert peak <= (1 + 1 / 8) * (1 << 18) + (16 << 10), peak


def test_butterfly_refuses_non_contiguous_arrays():
    block = np.asfortranarray(np.arange(8, dtype=np.int32).reshape(4, 2))
    with pytest.raises(ValueError, match="C-contiguous"):
        _butterfly(block, _sum_diff)
    assert np.array_equal(block, np.arange(8).reshape(4, 2))  # untouched
    strided = np.arange(16, dtype=np.int32).reshape(8, 2)[::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        _butterfly(strided, _sum_diff)
    assert np.array_equal(strided, np.arange(16).reshape(8, 2)[::2])


def test_butterfly_extra_memory_is_small():
    column = np.random.default_rng(0).standard_normal((1 << 20, 1))
    tracemalloc.start()
    try:
        _butterfly(column, _hadamard_pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the pair's own difference buffer holds half the column at the top level
    assert peak - column.nbytes // 2 <= 2 << 20


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def test_binary_string_round_trip():
    tt = make_inner_product_bent(4)
    assert tt.to_binary() == "0001000100011110"
    assert TruthTable.from_string(tt.to_binary()) == tt


def test_hex_string_layout():
    # earliest index in the most significant bit of the nibble
    tt = TruthTable(2, [0, 0, 0, 1])
    assert tt.to_hex() == "1"
    tt = TruthTable(2, [1, 0, 0, 0])
    assert tt.to_hex() == "8"
    tt = TruthTable(3, [1, 1, 1, 1, 0, 0, 0, 1])
    assert tt.to_hex() == "f1"
    with pytest.raises(ValueError, match="hex form needs at least 4 table entries"):
        TruthTable(1, [0, 1]).to_hex()


def test_hex_round_trip_various_n():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 6, 9):
        tt = random_function(n, rng)
        assert TruthTable.from_string(tt.to_hex(), n=n) == tt


def test_text_prefers_binary_then_hex():
    assert make_constant(6, 0).text() == "0" * 64
    assert make_constant(7, 0).text() == "0" * 32  # hex


def test_format_disambiguation():
    # all-0/1 strings of power-of-two length read as binary by default
    assert TruthTable.from_string("0110").n == 2
    # an explicit n forces the hex reading
    tt = TruthTable.from_string("0110", n=4)
    assert tt.n == 4
    assert tt.bits.tolist() == [0,0,0,0, 0,0,0,1, 0,0,0,1, 0,0,0,0]
    assert TruthTable.from_string("ff", n=3) == make_constant(3, 1)


def test_json_round_trip():
    tt = make_affine(4, 9, 1)
    assert TruthTable.from_string(tt.to_json()) == tt
    assert TruthTable.from_json('{"n": 2, "tt": "0110"}').bits.tolist() == [0, 1, 1, 0]
    with pytest.raises(ValueError):
        TruthTable.from_json('{"n": 3, "tt": "0110"}')
    with pytest.raises(ValueError):
        TruthTable.from_json('{"tt": "0110"}')
    with pytest.raises(ValueError):
        TruthTable.from_string('{"n": 2, "tt": "0110"}', n=3)


def test_malformed_strings_rejected():
    for bad in ("", "012", "01 10", "0101010", "zz", "abc"):
        with pytest.raises(ValueError):
            TruthTable.from_string(bad)
    # a single hex character is a legitimate n=2 table
    assert TruthTable.from_string("1") == TruthTable(2, [0, 0, 0, 1])
    with pytest.raises(ValueError):
        TruthTable.from_string("0110", n=3)
    with pytest.raises(ValueError):
        TruthTable.from_string("0" * (1 << (MAX_ARITY + 1)))


@given(truth_tables(max_n=7))
@settings(max_examples=100, deadline=None)
def test_text_round_trip_property(tt):
    assert TruthTable.from_string(tt.text(), n=tt.n) == tt
    assert TruthTable.from_string(tt.to_binary()) == tt
    if tt.n >= 2:
        assert TruthTable.from_string(tt.to_hex(), n=tt.n) == tt


def reference_from_string(text, n=None):
    """``TruthTable.from_string`` with one binary and one hex branch per case of n."""
    text = text.strip()
    if not text:
        raise ValueError("empty truth-table string")
    if text.startswith("{"):
        return TruthTable.from_json(text, n=n)
    length = len(text)
    is_binary = set(text) <= {"0", "1"}
    is_hex = set(text) <= set(string.hexdigits)
    if n is not None:
        n = _check_arity(n)
        size = 1 << n
        if length == size and is_binary:
            return TruthTable(n, _bits_from_binary(text))
        if length * 4 == size and is_hex:
            return TruthTable(n, _bits_from_hex(text, size))
        raise ValueError(
            f"string of length {length} is neither a binary (length {size}) "
            f"nor a hex (length {size // 4}) table for n = {n}"
        )
    if is_binary and length >= 2 and length & (length - 1) == 0:
        n = length.bit_length() - 1
        _check_arity(n)
        return TruthTable(n, _bits_from_binary(text))
    if is_hex and (length * 4) & (length * 4 - 1) == 0:
        n = (length * 4).bit_length() - 1
        _check_arity(n)
        return TruthTable(n, _bits_from_hex(text, 1 << n))
    raise ValueError(f"malformed truth-table string: {text[:32]!r}...")


def _assert_parses_like_reference(text, n):
    try:
        want = reference_from_string(text, n)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            TruthTable.from_string(text, n)
        assert str(info.value) == str(exc)
        return
    assert TruthTable.from_string(text, n) == want


@given(
    st.one_of(
        st.text(alphabet="01", min_size=1, max_size=64),
        st.text(alphabet="0123456789abcdefABCDEF", min_size=1, max_size=64),
        st.text(alphabet="01fFgx {}\t\n", min_size=1, max_size=64),
        st.text(min_size=1, max_size=64),
    ),
    st.one_of(st.none(), st.integers(1, 8)),
)
@settings(max_examples=2000, deadline=None)
def test_from_string_matches_two_branch_reference(text, n):
    _assert_parses_like_reference(text, n)


@pytest.mark.parametrize("text, n", [
    ("0" * (1 << (MAX_ARITY + 1)), None),  # binary of 2^25 entries
    ("f" * (1 << (MAX_ARITY - 1)), None),  # hex of 2^25 bits
    ("0" * 4, 0), ("0" * 4, MAX_ARITY + 1), (" 0110\n", None), ("1", None), ("01", 1),
], ids=["binary-2^25", "hex-2^25", "n-0", "n-25", "padded", "one-hex-digit", "n-1"])
def test_from_string_matches_reference_at_the_arity_limits(text, n):
    _assert_parses_like_reference(text, n)


@pytest.mark.parametrize("text, message", [
    ('{"n": null, "tt": "0110"}', "integer n, got None"),
    ('{"n": [2], "tt": "0110"}', r"integer n, got \[2\]"),
    ('{"n": 1e400, "tt": "0110"}', "integer n, got inf"),
    ('{"n": 2.9, "tt": "0110"}', "integer n, got 2.9"),
    ('{"n": 2.0, "tt": "0110"}', "integer n, got 2.0"),
    ('{"n": true, "tt": "01"}', "integer n, got True"),
    ('{"n": "2", "tt": "0110"}', "integer n, got '2'"),
    ('{"n": 2, "tt": 6}', "string tt, got 6"),
    ('{"n": 2, "tt": null}', "string tt, got None"),
    ('{"n": 2, "tt": ["0110"]}', "string tt"),
])
def test_json_table_needs_integer_n_and_string_tt(text, message):
    with pytest.raises(ValueError, match=message):
        TruthTable.from_json(text)
    with pytest.raises(ValueError, match=message):
        TruthTable.from_string(text)


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"n": 2, "tt": ' + "[" * 100_000,
    '{"n": 2, "tt": "0110", "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["top-level", "unclosed-tt", "closed-extra-key"])
def test_deeply_nested_json_table_is_a_value_error(text):
    with pytest.raises(ValueError, match="^malformed truth-table JSON: "):
        TruthTable.from_json(text)
    if text.startswith("{"):
        with pytest.raises(ValueError, match="^malformed truth-table JSON: "):
            TruthTable.from_string(text)


@pytest.mark.parametrize("text", ['{"n": 2', '{"n": ' + "1" * 5000 + ', "tt": "0110"}'],
                         ids=["unclosed", "int-past-the-digit-limit"])
def test_undecodable_json_table_names_the_table(text):
    with pytest.raises(ValueError, match="^malformed truth-table JSON: "):
        TruthTable.from_string(text)
