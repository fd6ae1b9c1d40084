"""Walsh transforms (naive vs butterfly), classification, and duals."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentspectra import (
    BitVector,
    Classification,
    TruthTable,
    WalshSpectrum,
    classify,
    dual_bent,
    fwht,
    is_bent,
    make_affine,
    make_constant,
    make_inner_product_bent,
    make_mm_bent,
    random_function,
    shuffle_search_bent,
    walsh_naive,
)
from bentspectra import cli, djsim, walsh
from bentspectra.boolfn import _BLOCK_ENTRIES, _SCRATCH, MAX_ARITY, _random_columns
from bentspectra.walsh import _character_matrix, _classify_columns, _fwht_columns, _naive_columns

#: Largest n at which the full-matrix ``reference_naive_columns`` runs; its
#: 4^n-entry index matrix alone takes 32 MiB at n = 12 and 8 GiB at n = 16.
REFERENCE_MAX_N = 12


def walsh_bruteforce(tt):
    """Pure-Python triple loop, fully independent of the numpy paths."""
    size = 1 << tt.n
    out = []
    for p in range(size):
        total = 0
        for x in range(size):
            parity = tt.eval(x) ^ ((p & x).bit_count() & 1)
            total += -1 if parity else 1
        out.append(total)
    return out


def reference_classify(n, coeffs):
    """Scalar classifier over one spectrum, reading every coefficient."""
    size = 1 << n
    magnitudes = np.abs(coeffs)
    max_abs = int(magnitudes.max())

    full = np.flatnonzero(magnitudes == size)
    is_affine = full.size == 1
    affine_k = affine_c = None
    if is_affine:
        k = int(full[0])
        affine_k = BitVector(n, k)
        affine_c = 1 if int(coeffs[k]) < 0 else 0

    return Classification(
        n=n,
        is_constant=int(magnitudes[0]) == size,
        is_balanced=int(coeffs[0]) == 0,
        is_linear=is_affine and affine_c == 0,
        is_affine=is_affine,
        is_bent=n % 2 == 0 and bool(np.all(magnitudes == 1 << (n // 2))),
        affine_k=affine_k,
        affine_c=affine_c,
        nonlinearity=(size >> 1) - max_abs // 2,
    )


def reference_naive_columns(n, bits):
    """The literal sum through the whole int8 character matrix, cast per float64 chunk."""
    idx = np.arange(1 << n, dtype=np.uint16)
    chi = np.bitwise_count(idx[:, None] & idx[None, :]).view(np.int8)
    chi &= 1
    chi *= -2
    chi += 1
    signs = 1 - 2 * bits.astype(np.float64)
    out = np.empty(signs.shape)
    step = max(1, (1 << 22) >> n)
    for lo in range(0, 1 << n, step):
        out[lo : lo + step] = chi[lo : lo + step].astype(np.float64) @ signs
    return out


def reference_shuffle_search(n, rng, max_iters):
    """One permutation, table and spectrum per candidate, as (table, iterations)."""
    size = 1 << n
    seed = np.zeros(size, dtype=np.uint8)
    seed[: (1 << (n - 1)) - (1 << (n // 2 - 1))] = 1
    for iteration in range(1, max_iters + 1):
        candidate = TruthTable(n, seed[rng.permutation(size)])
        if reference_classify(n, fwht(candidate).coeffs).is_bent:
            return candidate, iteration
    return None, max_iters


@st.composite
def truth_tables(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (1 << n)) - 1))
    return TruthTable.from_int(n, mask)


# ---------------------------------------------------------------------------
# Transform correctness
# ---------------------------------------------------------------------------


def test_naive_matches_bruteforce_exhaustive_n2():
    for mask in range(16):
        tt = TruthTable.from_int(2, mask)
        assert walsh_naive(tt).coeffs.tolist() == walsh_bruteforce(tt)


def test_fwht_matches_naive_exhaustive_small():
    for n in (1, 2, 3):
        for mask in range(1 << (1 << n)):
            tt = TruthTable.from_int(n, mask)
            assert fwht(tt) == walsh_naive(tt)


@given(truth_tables())
@settings(max_examples=200, deadline=None)
def test_fwht_matches_naive_property(tt):
    assert fwht(tt) == walsh_naive(tt)


@given(truth_tables())
@settings(max_examples=200, deadline=None)
def test_spectrum_invariants(tt):
    coeffs = fwht(tt).coeffs.astype(np.int64)
    size = 1 << tt.n
    assert int((coeffs**2).sum()) == size * size  # Parseval
    assert int(coeffs[0]) == size - 2 * tt.weight()
    assert np.all(np.abs(coeffs) <= size)
    assert np.all(coeffs % 2 == size % 2)  # same parity as 2^n


def test_known_spectra():
    assert walsh_naive(make_constant(2, 0)).coeffs.tolist() == [4, 0, 0, 0]
    assert fwht(make_constant(4, 1)).coeffs.tolist() == [-16] + [0] * 15
    and2 = TruthTable(2, [0, 0, 0, 1])
    assert walsh_naive(and2).coeffs.tolist() == [2, 2, 2, -2]
    spec = walsh_naive(make_affine(4, 9, 0)).coeffs
    assert spec[9] == 16 and np.count_nonzero(spec) == 1
    assert np.all(np.abs(fwht(make_inner_product_bent(4)).coeffs) == 4)


def test_naive_arity_cap():
    tt = random_function(21, np.random.default_rng(21))
    assert walsh_naive(tt) == fwht(tt)  # past the old cap of 12 and the statevector one of 20
    with pytest.raises(ValueError):
        walsh_naive(make_constant(MAX_ARITY + 1, 0))


def _literal_sum_columns(n, count, seed):
    """Random table columns, the first ones constant and affine (W of 0 and +-2^n)."""
    rng = np.random.default_rng(seed)
    special = [make_constant(n, 0), make_constant(n, 1), make_affine(n, (1 << n) - 1, 1)]
    bits = rng.integers(0, 2, (1 << n, count), dtype=np.uint8)
    for col, tt in enumerate(special[:count]):
        bits[:, col] = tt.bits
    return bits


@pytest.mark.parametrize("count", [1, 3, 64])
@pytest.mark.parametrize("n", range(1, REFERENCE_MAX_N + 1))
def test_naive_columns_bit_identical_to_reference(n, count):
    bits = _literal_sum_columns(n, count, n)
    got = _naive_columns(n, bits)
    assert got.dtype == np.int32 and got.shape == bits.shape
    assert got.astype(np.float64).tobytes() == reference_naive_columns(n, bits).tobytes()


@pytest.mark.parametrize("n, count", [(n, count) for n in range(REFERENCE_MAX_N + 1, 21)
                                      for count in (1, 2)] + [(MAX_ARITY, 1)])
def test_naive_columns_equal_the_butterfly_past_the_reference(n, count):
    bits = _literal_sum_columns(n, count, n)  # at n = 24 a constant column: W(0) = 2^24
    got = _naive_columns(n, bits)
    assert got.dtype == np.int32 and got.shape == bits.shape
    assert np.array_equal(got, _fwht_columns(bits))


@pytest.mark.parametrize("m", range(9))  # every bit group size the literal sum uses
def test_character_factor_entries(m):
    size = 1 << m
    expected = [[-1 if (p & x).bit_count() & 1 else 1 for x in range(size)] for p in range(size)]
    chi = _character_matrix(m)
    assert chi.dtype == np.float32 and not chi.flags.writeable
    assert chi.tolist() == expected


def test_naive_memory_holds_no_quadratic_buffer():
    tt = random_function(12, np.random.default_rng(0))
    walsh_naive(make_constant(2, 0))  # numpy and the module are warm, the factors are not
    _character_matrix.cache_clear()
    tracemalloc.start()
    try:
        walsh_naive(tt)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the factors and a few 2^12-entry sign and product blocks (about 0.13 MiB
    # measured); the whole int8 matrix alone would be 16 MiB
    assert peak < 1 << 20, peak
    assert current < 1 << 20, current  # only the 64 x 64 factors stay cached


def test_naive_memory_at_n20_is_two_float32_blocks_and_small_factors():
    tt = random_function(20, np.random.default_rng(0))
    walsh_naive(make_constant(2, 0))
    _character_matrix.cache_clear()
    tracemalloc.start()
    try:
        walsh_naive(tt)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two 4 MiB blocks alive at a time: a float32 product beside the signs,
    # or the last product beside its int32 cast (8.08 MiB measured)
    assert peak < 9 << 20, peak
    assert current < 1 << 18, current  # the 64 x 64 and 128 x 128 factors (0.079 MiB measured)


def _spoiled_butterfly(real):
    """The shared butterfly, then its largest (p, table) entry negated.

    The ancilla route's (2, 2^n, B) state is negated in both halves alike, so
    every route keeps the range, parity, Parseval and normalization checks
    satisfied and only the comparison with the literal sum can catch it.
    """

    def butterfly(a, pair):
        real(a, pair)
        mags = np.abs(a).reshape(-1, *a.shape[-2:]).max(axis=0)
        p, col = np.unravel_index(int(mags.argmax()), mags.shape)
        a[..., p, col] *= -1

    return butterfly


@pytest.mark.parametrize("n, count", [(10, 4), (16, 2)])
def test_literal_sum_independent_of_the_butterfly(monkeypatch, capsys, n, count):
    bits = _literal_sum_columns(n, count, 0)
    if n <= REFERENCE_MAX_N:
        expected = reference_naive_columns(n, bits)
    else:  # the unspoiled butterfly, as float64 integers
        expected = _fwht_columns(bits).astype(np.float64)
    # verify draws its tables in one block; the spoil negates the first largest |W|
    drawn = np.abs(_fwht_columns(_random_columns(n, count, np.random.default_rng(0))))
    p, table = np.unravel_index(int(drawn.argmax()), drawn.shape)
    spoiled = _spoiled_butterfly(walsh._butterfly)
    monkeypatch.setattr(walsh, "_butterfly", spoiled)
    monkeypatch.setattr(djsim, "_butterfly", spoiled)
    assert not np.array_equal(_fwht_columns(bits), expected)  # the spoil takes effect
    assert _naive_columns(n, bits).astype(np.float64).tobytes() == expected.tobytes()
    assert cli.main(["verify", "--random", str(count), "--n", str(n)]) == 3
    out, err = capsys.readouterr()
    assert out.startswith(f"verified {count} table(s) at n={n}: ") and out.endswith(" (FAIL)\n")
    assert err.count("\n") == 1 and err.startswith("error: amplitude routes disagree")
    assert " route off the literal sum by " in err
    assert err.endswith(f" on table {table} at p={p}\n")


def test_spectrum_checks_do_not_wrap():
    # np.abs(-2^31) is -2^31 in int32, and four int64 squares 2^62 sum to 0 (mod 2^64)
    with pytest.raises(ValueError, match=r"must be in \[-8, 8\]"):
        WalshSpectrum(3, [-2**31] * 4 + [4] * 4)
    # 2^20 + 1 squares 4^22 sum to 2^64 + 4^22, which int64 wraps to 4^22
    w = np.zeros(1 << 22, np.int32)
    w[: (1 << 20) + 1] = 1 << 22
    with pytest.raises(ValueError, match="Parseval"):
        WalshSpectrum(22, w)


@pytest.mark.parametrize("n", [1, 5, 12, 17])
def test_square_sums_are_the_exact_integer_sums(n):
    # 2^n squares of at most 4^n sum to at most 8^n <= 2^51, so the float64
    # einsum must equal the int64 sum exactly
    w = np.random.default_rng(n).integers(-(1 << n), (1 << n) + 1, (1 << n, 3), dtype=np.int32)
    w[:, 2] = 1 << n
    assert walsh._square_sums(w).tolist() == (w.astype(np.int64) ** 2).sum(axis=0).tolist()
    assert walsh._square_sums(w[:, 0]) == (w[:, 0].astype(np.int64) ** 2).sum()


def test_spectrum_validation_makes_no_full_size_temporary():
    w = fwht(random_function(20, np.random.default_rng(20))).coeffs
    tracemalloc.start()
    try:
        WalshSpectrum(20, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the frozen copy, plus the float64 sum's small cast buffers (about 0.13 MiB)
    assert peak - w.nbytes < 1 << 20, peak


def test_fwht_memory_is_its_spectrum_and_one_workers_buffers():
    tt = random_function(18, np.random.default_rng(18))
    tracemalloc.start()
    try:
        fwht(tt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the int32 signs, transformed in place and kept by the spectrum, and one
    # butterfly worker's scratch block and pair temporary
    assert peak <= 4 * ((1 << 18) + _SCRATCH + _SCRATCH // 2) + (64 << 10), peak


def test_spectrum_validation():
    with pytest.raises(ValueError):
        WalshSpectrum(2, [0, 0, 0])
    with pytest.raises(ValueError):
        WalshSpectrum(2, [8, 0, 0, 0])  # out of range
    with pytest.raises(ValueError):
        WalshSpectrum(2, [2**40, 0, 0, 0])  # out of int32 range
    with pytest.raises(ValueError):
        WalshSpectrum(2, [3, 1, 1, 1])  # odd coefficients
    with pytest.raises(ValueError):
        WalshSpectrum(2, [2, 0, 0, 0])  # Parseval violation
    assert WalshSpectrum(2, [2, 2, 2, -2]).coeffs.tolist() == [2, 2, 2, -2]
    spec = fwht(make_constant(2, 0))
    with pytest.raises(ValueError):
        spec.coeffs[0] = 0
    with pytest.raises(AttributeError):
        spec.n = 3


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_affine_with_offset():
    result = classify(fwht(make_affine(4, 9, 1)))
    assert result.is_affine and not result.is_linear
    assert result.affine_k == BitVector(4, 9)
    assert result.affine_c == 1
    assert result.is_balanced and not result.is_bent and not result.is_constant
    assert result.nonlinearity == 0


def test_classify_bent():
    result = classify(fwht(make_inner_product_bent(4)))
    assert result.is_bent
    assert not (result.is_balanced or result.is_affine or result.is_constant)
    assert result.affine_k is None and result.affine_c is None
    assert result.nonlinearity == 6  # 2^(n-1) - 2^(n/2 - 1)


def test_classify_constants():
    zero = classify(fwht(make_constant(4, 0)))
    assert zero.is_constant and zero.is_affine and zero.is_linear
    assert zero.affine_k == BitVector(4, 0) and zero.affine_c == 0
    one = classify(fwht(make_constant(4, 1)))
    assert one.is_constant and one.is_affine and not one.is_linear
    assert one.affine_k == BitVector(4, 0) and one.affine_c == 1


def _affine_tables_by_formula(n):
    """All 2^{n+1} affine tables built from the raw definition."""
    tables = {}
    for k in range(1 << n):
        for c in (0, 1):
            bits = tuple((((k & x).bit_count() & 1) ^ c) for x in range(1 << n))
            tables[bits] = (k, c)
    return tables


def test_classify_balanced_non_affine_table():
    # brute-force search over weight-8 n=4 tables, affinity checked against
    # the full formula-built affine list, independent of the classifier
    affine = _affine_tables_by_formula(4)
    found = None
    for positions in itertools.combinations(range(16), 8):
        bits = tuple(1 if i in positions else 0 for i in range(16))
        if bits not in affine:
            found = TruthTable(4, bits)
            break
    assert found is not None
    result = classify(fwht(found))
    assert result.is_balanced
    assert not result.is_affine and not result.is_bent


def test_classify_recovers_affine_parameters_exhaustively():
    for n in range(1, 7):
        for k in range(1 << n):
            for c in (0, 1):
                result = classify(fwht(make_affine(n, k, c)))
                assert result.is_affine
                if k == 0:
                    # constant: recovered as k = 0 with c preserved
                    assert result.affine_k == BitVector(n, 0)
                    assert result.affine_c == c
                    assert result.is_constant
                else:
                    assert result.affine_k == BitVector(n, k)
                    assert result.affine_c == c
                    assert result.is_linear == (c == 0)


def test_classify_flag_implications_property():
    rng = np.random.default_rng(17)
    samples = [random_function(n, rng) for n in (2, 3, 4, 5, 6) for _ in range(50)]
    samples += [make_inner_product_bent(4), make_constant(3, 1), make_affine(5, 19, 1)]
    for tt in samples:
        r = classify(fwht(tt))
        if r.is_linear:
            assert r.is_affine and r.affine_c == 0
        if r.is_constant:
            assert r.is_affine and r.affine_k.value == 0
        if r.is_bent:
            assert tt.n % 2 == 0
            assert not r.is_balanced and not r.is_affine
        assert r.nonlinearity == (1 << (tt.n - 1)) - int(np.abs(fwht(tt).coeffs).max()) // 2


def _assert_classify_matches_reference(tt):
    spec = fwht(tt)
    result, expected = classify(spec), reference_classify(tt.n, spec.coeffs)
    assert result == expected
    for name, value in vars(expected).items():
        assert type(getattr(result, name)) is type(value), name


def test_classify_matches_reference_exhaustive_small():
    for n in (1, 2, 3):
        for mask in range(1 << (1 << n)):
            _assert_classify_matches_reference(TruthTable.from_int(n, mask))


def test_classify_columns_match_reference_on_n4_census():
    masks = np.arange(1 << 16, dtype=np.uint32)
    bits = ((masks[None, :] >> np.arange(16, dtype=np.uint32)[:, None]) & 1).astype(np.uint8)
    spectra = _fwht_columns(bits)
    columns = _classify_columns(4, spectra)
    expected = [reference_classify(4, spectra[:, j]) for j in range(1 << 16)]
    for name, col in columns.items():
        want = [getattr(r, name) for r in expected]
        if name in ("affine_k", "affine_c"):
            want = [-1 if v is None else int(v) for v in want]
        assert col.tolist() == want, name
    assert int(columns["is_bent"].sum()) == 896


def reference_as_dict(c):
    """``Classification.as_dict`` with every key written out."""
    return {
        "is_constant": c.is_constant,
        "is_balanced": c.is_balanced,
        "is_linear": c.is_linear,
        "is_affine": c.is_affine,
        "is_bent": c.is_bent,
        "affine_k": None if c.affine_k is None else c.affine_k.value,
        "affine_c": c.affine_c,
        "nonlinearity": c.nonlinearity,
    }


def test_as_dict_matches_literal_dict():
    masks = np.arange(1 << 16, dtype=np.uint32)
    bits = ((masks[None, :] >> np.arange(16, dtype=np.uint32)[:, None]) & 1).astype(np.uint8)
    columns = _classify_columns(4, _fwht_columns(bits))
    n4 = np.flatnonzero(columns["is_bent"] | columns["is_affine"])
    assert n4.size == 896 + 32
    tables = [TruthTable.from_int(3, m) for m in range(1 << 8)]
    tables += [TruthTable.from_int(4, int(m)) for m in n4]
    for tt in tables:
        c = classify(fwht(tt))
        got, want = list(c.as_dict().items()), list(reference_as_dict(c).items())
        assert [(k, type(v), v) for k, v in got] == [(k, type(v), v) for k, v in want]


def test_classify_matches_reference_random_tables():
    rng = np.random.default_rng(23)
    for n in range(5, 13):
        for _ in range(20):
            _assert_classify_matches_reference(random_function(n, rng))


def test_classify_matches_reference_on_the_zoo():
    rng = np.random.default_rng(29)
    zoo = [make_constant(n, c) for n in range(1, 21) for c in (0, 1)]
    zoo += [make_affine(n, k, c) for n in range(1, 7) for k in range(1 << n) for c in (0, 1)]
    for n in range(2, 21, 2):
        half = n // 2
        zoo.append(make_inner_product_bent(n))
        zoo.append(make_mm_bent(half, rng.permutation(1 << half), random_function(half, rng)))
    for tt in zoo:
        _assert_classify_matches_reference(tt)


def test_no_bent_functions_at_odd_arity():
    for n in (1, 3):
        for mask in range(1 << (1 << n)):
            assert not classify(fwht(TruthTable.from_int(n, mask))).is_bent


def test_bent_census_n2():
    # n=2: exactly the 8 tables of weight 1 or 3 are bent
    bent = [m for m in range(16) if classify(fwht(TruthTable.from_int(2, m))).is_bent]
    expected = [m for m in range(16) if bin(m).count("1") in (1, 3)]
    assert bent == expected


# ---------------------------------------------------------------------------
# Duals
# ---------------------------------------------------------------------------


def test_dual_of_inner_product_is_itself():
    tt = make_inner_product_bent(4)
    assert dual_bent(fwht(tt)) == tt


def test_dual_involution_on_mm_instances():
    rng = np.random.default_rng(5)
    for _ in range(20):
        tt = make_mm_bent(2, rng.permutation(4), random_function(2, rng))
        dual = dual_bent(fwht(tt))
        assert is_bent(dual)
        assert dual_bent(fwht(dual)) == tt


def test_dual_rejects_non_bent():
    with pytest.raises(ValueError):
        dual_bent(fwht(make_constant(4, 0)))
    with pytest.raises(ValueError):
        dual_bent(fwht(make_constant(3, 0)))


def test_is_bent_helper():
    assert is_bent(make_inner_product_bent(6))
    assert not is_bent(make_affine(4, 9, 0))
    assert not is_bent(make_constant(3, 0))  # odd arity short-circuits


# ---------------------------------------------------------------------------
# Shuffle search
# ---------------------------------------------------------------------------

SHUFFLE_BLOCK_N6 = _BLOCK_ENTRIES >> 6


def test_shuffle_search_matches_reference():
    for n in (2, 4):
        for seed in range(10):
            table, iterations = shuffle_search_bent(n, np.random.default_rng(seed), 100_000)
            assert (table, iterations) == reference_shuffle_search(
                n, np.random.default_rng(seed), 100_000
            )


@pytest.mark.parametrize(
    "max_iters", [1, SHUFFLE_BLOCK_N6 - 1, SHUFFLE_BLOCK_N6, SHUFFLE_BLOCK_N6 + 1]
)
def test_shuffle_search_stops_at_max_iters(max_iters):
    rng = np.random.default_rng(3)
    assert shuffle_search_bent(6, rng, max_iters) == (None, max_iters)
    # exactly max_iters permutations were drawn
    expected = np.random.default_rng(3)
    for _ in range(max_iters):
        expected.permutation(64)
    assert rng.integers(1 << 62) == expected.integers(1 << 62)


def test_shuffle_search_memory_independent_of_max_iters():
    def peak(max_iters):
        shuffle_search_bent(6, np.random.default_rng(0), max_iters)  # warm up
        tracemalloc.start()
        try:
            shuffle_search_bent(6, np.random.default_rng(0), max_iters)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8 * SHUFFLE_BLOCK_N6) <= peak(SHUFFLE_BLOCK_N6) + 64 * 1024
