"""Acceptance criteria, one test per criterion.

Each test prints one ``ACCEPTANCE nn PASS/FAIL`` line (visible with
``pytest tests/test_acceptance.py -v -s``).  Tolerances are pinned here:
the integer Walsh route is checked exactly, floating routes at 1e-12.
"""

import functools
import time

import numpy as np
import pytest

from bentspectra import (
    TruthTable,
    amplitudes_direct,
    amplitudes_from_walsh,
    classify,
    fwht,
    make_affine,
    make_constant,
    make_inner_product_bent,
    make_mm_bent,
    probabilities,
    random_function,
    sample_measurements,
    shuffle_search_bent,
    simulate_circuit,
    simulate_with_ancilla,
    walsh_naive,
)
from bentspectra.walsh import _classify_columns, _fwht_columns

ROUTE_TOL = 1e-12
CHI2_LIMIT = 37.7  # chi-square(15) at the 0.999 quantile


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} FAIL  {desc}")
                raise
            print(f"\nACCEPTANCE {num:02d} PASS  {desc}")

        return wrapper

    return decorate


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _four_routes(tt):
    return (
        amplitudes_from_walsh(fwht(tt)).amps,
        amplitudes_direct(tt).amps,
        simulate_circuit(tt).amps,
        simulate_with_ancilla(tt).amps,
    )


# -- shared sweeps ----------------------------------------------------------


@pytest.fixture(scope="module")
def exhaustive_small():
    """Every function on 1, 2 and 3 bits: 4 + 16 + 256 tables."""
    return [
        TruthTable.from_int(n, mask)
        for n in (1, 2, 3)
        for mask in range(1 << (1 << n))
    ]


@pytest.fixture(scope="module")
def random_tables():
    """1000 uniform random tables at each n in 4..10 (fixed seed)."""
    rng = np.random.default_rng(20260809)
    return {n: [random_function(n, rng) for _ in range(1000)] for n in range(4, 11)}


def _build_census16():
    """Bit matrix and batched integer spectra of all 65536 n=4 tables."""
    v = np.arange(1 << 16, dtype=np.int64)
    bits = ((v[:, None] >> np.arange(16)) & 1).astype(np.int8)
    spectra = (1 - 2 * bits).astype(np.int32)
    h = 1
    while h < 16:
        m = spectra.reshape(spectra.shape[0], -1, 2, h)
        x = m[:, :, 0, :]
        y = m[:, :, 1, :]
        diff = x - y
        x += y
        y[:] = diff
        h <<= 1
    return bits, spectra


@pytest.fixture(scope="module")
def census16():
    return _build_census16()


# -- criteria ---------------------------------------------------------------


@criterion(1, "flat spectrum of the n=4 inner-product bent function")
def test_criterion_01_flat_spectrum():
    tt = make_inner_product_bent(4)
    probs = probabilities(amplitudes_from_walsh(fwht(tt)))
    assert np.array_equal(probs, np.full(16, 1.0 / 16.0))  # exact in the integer route
    for route in (simulate_circuit, simulate_with_ancilla):
        assert np.abs(probabilities(route(tt)) - 1.0 / 16.0).max() <= ROUTE_TOL
    elapsed = _best_of(lambda: _four_routes(tt))
    assert elapsed < 1e-3, f"n=4 routes took {elapsed * 1e3:.3f} ms"


@criterion(2, "monochromatic output at k=9 for the linear case")
def test_criterion_02_linear_k9():
    tt = make_affine(4, 9, 0)
    probs = probabilities(amplitudes_from_walsh(fwht(tt)))
    expected = np.zeros(16)
    expected[9] = 1.0
    assert np.array_equal(probs, expected)  # exact in the integer route
    for route in (simulate_circuit, simulate_with_ancilla):
        assert np.abs(probabilities(route(tt)) - expected).max() <= ROUTE_TOL
    elapsed = _best_of(lambda: _four_routes(tt))
    assert elapsed < 1e-3, f"n=4 routes took {elapsed * 1e3:.3f} ms"


@criterion(3, "constant functions collapse onto outcome 0 with sign (-1)^c")
def test_criterion_03_constant_case():
    for n in (2, 4, 6):
        for c in (0, 1):
            tt = make_constant(n, c)
            sign = -1.0 if c else 1.0
            for exact_route in (
                amplitudes_from_walsh(fwht(tt)).amps,
                amplitudes_direct(tt).amps,
            ):
                assert exact_route[0] == sign
                assert np.count_nonzero(exact_route) == 1
            for route in (simulate_circuit, simulate_with_ancilla):
                amps = route(tt).amps
                assert abs(amps[0] - sign) <= ROUTE_TOL
                assert np.abs(amps[1:]).max() <= ROUTE_TOL
                assert abs(probabilities(route(tt))[0] - 1.0) <= ROUTE_TOL


@criterion(4, "n=2 spectrum of x0 AND x1 is [2, 2, 2, -2]")
def test_criterion_04_n2_anchor():
    tt = TruthTable(2, [0, 0, 0, 1])
    assert fwht(tt).coeffs.tolist() == [2, 2, 2, -2]
    assert walsh_naive(tt).coeffs.tolist() == [2, 2, 2, -2]
    assert make_inner_product_bent(2) == tt


@criterion(5, "fwht equals walsh_naive: exhaustive n<=3 plus 1000/n random n=4..10")
def test_criterion_05_transform_oracle(exhaustive_small, random_tables):
    mismatches = 0
    for tt in exhaustive_small:
        if fwht(tt) != walsh_naive(tt):
            mismatches += 1
    for tables in random_tables.values():
        for tt in tables:
            if fwht(tt) != walsh_naive(tt):
                mismatches += 1
    assert mismatches == 0


@criterion(6, "four amplitude routes agree within 1e-12 (n<=3 all, 100/n random)")
def test_criterion_06_route_equivalence(exhaustive_small, random_tables):
    start = time.perf_counter()
    for tt in exhaustive_small:
        walsh_route, direct, circuit, ancilla = _four_routes(tt)
        for route in (walsh_route, circuit, ancilla):
            assert np.abs(route - direct).max() <= ROUTE_TOL
    for n in range(4, 11):
        for tt in random_tables[n][:100]:
            walsh_route, direct, circuit, ancilla = _four_routes(tt)
            for route in (walsh_route, circuit, ancilla):
                assert np.abs(route - direct).max() <= ROUTE_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"route sweep took {elapsed:.1f} s"


@criterion(7, "n=4 census: 896 bent, weights {6, 10}, none balanced/affine; none at n=3")
def test_criterion_07_census():
    start = time.perf_counter()
    bits, spectra = _build_census16()
    magnitudes = np.abs(spectra)
    bent = np.all(magnitudes == 4, axis=1)
    assert int(bent.sum()) == 896

    weights = bits[bent].sum(axis=1)
    assert set(np.unique(weights).tolist()) == {6, 10}
    assert np.all(spectra[bent, 0] != 0)  # none balanced
    assert np.all(magnitudes[bent].max(axis=1) < 16)  # none affine

    # the library classifier agrees with the batched enumeration
    bent_masks = np.flatnonzero(bent)
    for mask in bent_masks:
        assert classify(fwht(TruthTable.from_int(4, int(mask)))).is_bent
    probe = np.random.default_rng(5).choice(np.flatnonzero(~bent), 2000, replace=False)
    for mask in probe:
        result = classify(fwht(TruthTable.from_int(4, int(mask))))
        assert not result.is_bent

    for mask in range(256):  # exhaustive n=3: bent requires even arity
        assert not classify(fwht(TruthTable.from_int(3, mask))).is_bent

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"census took {elapsed:.1f} s"


@criterion(7, "n=4 census through the library engine: the oracle's 896 bent, nonlinearity 6")
def test_criterion_07_census_engine(census16):
    bits, spectra = census16
    oracle_bent = np.all(np.abs(spectra) == 4, axis=1)
    start = time.perf_counter()
    columns = _classify_columns(4, _fwht_columns(np.ascontiguousarray(bits.T)))
    elapsed = time.perf_counter() - start
    assert np.array_equal(columns["is_bent"], oracle_bent)
    assert int(columns["is_bent"].sum()) == 896
    assert np.all(columns["nonlinearity"][oracle_bent] == 6)
    assert elapsed < 0.5, f"engine census took {elapsed * 1e3:.0f} ms"


@criterion(8, "normalization: amplitude norms equal 1 within 1e-12 everywhere")
def test_criterion_08_normalization(exhaustive_small, random_tables, census16):
    for tt in exhaustive_small:
        for amps in _four_routes(tt):
            assert abs(float(amps @ amps) - 1.0) <= ROUTE_TOL
    for n in range(4, 11):
        for i, tt in enumerate(random_tables[n]):
            amps = amplitudes_from_walsh(fwht(tt)).amps
            assert abs(float(amps @ amps) - 1.0) <= ROUTE_TOL
            if i < 100:
                for route in (simulate_circuit, simulate_with_ancilla, amplitudes_direct):
                    a = route(tt).amps
                    assert abs(float(a @ a) - 1.0) <= ROUTE_TOL
    _, spectra = census16
    norms = ((spectra.astype(np.float64) / 16.0) ** 2).sum(axis=1)
    assert float(np.abs(norms - 1.0).max()) <= ROUTE_TOL


@criterion(9, "Parseval: integer coefficient squares sum to 4^n everywhere")
def test_criterion_09_parseval(exhaustive_small, random_tables, census16):
    for tt in exhaustive_small:
        coeffs = fwht(tt).coeffs.astype(np.int64)
        assert int((coeffs**2).sum()) == 4**tt.n
    for n in range(4, 11):
        for tt in random_tables[n]:
            coeffs = fwht(tt).coeffs.astype(np.int64)
            assert int((coeffs**2).sum()) == 4**n
    _, spectra = census16
    sums = (spectra.astype(np.int64) ** 2).sum(axis=1)
    assert np.all(sums == 256)


@criterion(10, "generators: 100 MM instances bent at n=4,6,8; shuffle finds bent at n=4")
def test_criterion_10_generator_soundness():
    rng = np.random.default_rng(77)
    for n in (4, 6, 8):
        half = n // 2
        for _ in range(100):
            tt = make_mm_bent(half, rng.permutation(1 << half), random_function(half, rng))
            assert np.all(np.abs(fwht(tt).coeffs) == (1 << half))

    found = 0
    for seed in range(100):
        result = shuffle_search_bent(4, np.random.default_rng(seed), 100_000)
        if result.table is not None:
            assert np.all(np.abs(fwht(result.table).coeffs) == 4)
            found += 1
    assert found >= 99, f"shuffle search found bent tables for only {found}/100 seeds"


@criterion(11, "sampler: chi-square over 16 bins below 37.7 for >= 97/100 seeds")
def test_criterion_11_sampler_statistics():
    amps = amplitudes_from_walsh(fwht(make_inner_product_bent(4)))
    shots = 10**6
    expected = shots / 16.0
    passing = 0
    for seed in range(100):
        hist = sample_measurements(amps, shots, np.random.default_rng(seed))
        stat = float(((hist.counts - expected) ** 2 / expected).sum())
        if stat < CHI2_LIMIT:
            passing += 1
    assert passing >= 97, f"chi-square below {CHI2_LIMIT} for only {passing}/100 seeds"


@criterion(12, "performance: fwht n=20 < 200 ms, statevector n=20 < 2 s")
def test_criterion_12_performance():
    tt = random_function(20, np.random.default_rng(1))
    fwht(tt)  # warm-up
    t_fwht = _best_of(lambda: fwht(tt), repeats=3)
    assert t_fwht < 0.2, f"fwht n=20 took {t_fwht * 1e3:.0f} ms"

    simulate_circuit(tt)  # warm-up
    t_circuit = _best_of(lambda: simulate_circuit(tt), repeats=3)
    assert t_circuit < 2.0, f"simulate_circuit n=20 took {t_circuit:.2f} s"
