"""Output-amplitude routes, normalization, flatness, and sampling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentspectra import (
    Amplitudes,
    MeasurementHistogram,
    TruthTable,
    amplitudes_direct,
    amplitudes_from_walsh,
    classify,
    fwht,
    make_affine,
    make_constant,
    make_inner_product_bent,
    probabilities,
    random_function,
    sample_measurements,
    simulate_circuit,
    simulate_with_ancilla,
)
from bentspectra.djsim import ANCILLA_MAX_N, STATEVECTOR_MAX_N, _SAMPLE_CHUNK
from bentspectra.walsh import NAIVE_MAX_N

ROUTE_TOL = 1e-12


def all_routes(tt):
    return (
        amplitudes_direct(tt).amps,
        amplitudes_from_walsh(fwht(tt)).amps,
        simulate_circuit(tt).amps,
        simulate_with_ancilla(tt).amps,
    )


@st.composite
def truth_tables(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (1 << n)) - 1))
    return TruthTable.from_int(n, mask)


# ---------------------------------------------------------------------------
# Individual routes
# ---------------------------------------------------------------------------


def test_direct_known_values():
    amps = amplitudes_direct(make_constant(4, 0)).amps
    assert amps[0] == 1.0 and np.all(amps[1:] == 0.0)

    amps = amplitudes_direct(make_affine(4, 9, 0)).amps
    assert amps[9] == 1.0 and np.count_nonzero(amps) == 1

    amps = amplitudes_direct(make_inner_product_bent(4)).amps
    assert np.all(np.abs(amps) == 0.25)


def test_from_walsh_scaling():
    assert amplitudes_from_walsh(fwht(make_constant(2, 0))).amps.tolist() == [1, 0, 0, 0]
    and2 = TruthTable(2, [0, 0, 0, 1])
    assert amplitudes_from_walsh(fwht(and2)).amps.tolist() == [0.5, 0.5, 0.5, -0.5]


def test_circuit_global_phase():
    amps = simulate_circuit(make_constant(2, 1)).amps
    assert abs(amps[0] + 1.0) < ROUTE_TOL
    assert np.all(np.abs(amps[1:]) < ROUTE_TOL)


def test_circuit_affine_n6():
    tt = make_affine(6, 33, 1)
    reference = amplitudes_from_walsh(fwht(tt)).amps
    assert reference[33] == -1.0
    assert np.abs(simulate_circuit(tt).amps - reference).max() < ROUTE_TOL


def test_ancilla_known_outcomes():
    probs = probabilities(simulate_with_ancilla(make_constant(4, 0)))
    assert abs(probs[0] - 1.0) < ROUTE_TOL
    probs = probabilities(simulate_with_ancilla(make_affine(4, 9, 0)))
    assert abs(probs[9] - 1.0) < ROUTE_TOL


def test_route_caps():
    with pytest.raises(ValueError):
        simulate_circuit(make_constant(STATEVECTOR_MAX_N + 1, 0))
    with pytest.raises(ValueError):
        simulate_with_ancilla(make_constant(ANCILLA_MAX_N + 1, 0))
    with pytest.raises(ValueError):
        amplitudes_direct(make_constant(NAIVE_MAX_N + 1, 0))


# ---------------------------------------------------------------------------
# Cross-route equivalence
# ---------------------------------------------------------------------------


def test_routes_agree_exhaustive_small():
    for n in (1, 2, 3):
        for mask in range(1 << (1 << n)):
            tt = TruthTable.from_int(n, mask)
            direct, via_walsh, circuit, ancilla = all_routes(tt)
            assert np.array_equal(direct, via_walsh)  # both exact
            assert np.abs(circuit - direct).max() < ROUTE_TOL
            assert np.abs(ancilla - direct).max() < ROUTE_TOL


@given(truth_tables(max_n=8))
@settings(max_examples=100, deadline=None)
def test_routes_agree_property(tt):
    direct, via_walsh, circuit, ancilla = all_routes(tt)
    for route in (via_walsh, circuit, ancilla):
        assert np.abs(route - direct).max() < ROUTE_TOL


def test_routes_agree_n10_random():
    rng = np.random.default_rng(31)
    for _ in range(5):
        tt = random_function(10, rng)
        direct, via_walsh, circuit, ancilla = all_routes(tt)
        for route in (via_walsh, circuit, ancilla):
            assert np.abs(route - direct).max() < ROUTE_TOL


@given(truth_tables(max_n=8))
@settings(max_examples=100, deadline=None)
def test_normalization_every_route(tt):
    for amps in all_routes(tt):
        assert abs(float(amps @ amps) - 1.0) < ROUTE_TOL


def test_flatness_iff_bent():
    # integer route: bent means exactly flat |amplitudes|
    for mask in range(1 << 16):
        if mask % 97:  # sampled sweep keeps this test quick
            continue
        tt = TruthTable.from_int(4, mask)
        amps = amplitudes_from_walsh(fwht(tt)).amps
        flat = float(np.abs(amps).max() - np.abs(amps).min()) == 0.0
        assert flat == classify(fwht(tt)).is_bent
    tt = make_inner_product_bent(4)
    for amps in all_routes(tt):
        spread = float(np.abs(amps).max() - np.abs(amps).min())
        assert spread < ROUTE_TOL


def test_monochromatic_iff_affine():
    rng = np.random.default_rng(23)
    samples = [make_affine(4, k, c) for k in range(16) for c in (0, 1)]
    samples += [random_function(4, rng) for _ in range(50)]
    for tt in samples:
        r = classify(fwht(tt))
        amps = amplitudes_from_walsh(fwht(tt)).amps
        if r.is_affine:
            k = r.affine_k.value
            assert abs(amps[k]) == 1.0
            assert np.count_nonzero(amps) == 1
        else:
            assert np.abs(amps).max() < 1.0


# ---------------------------------------------------------------------------
# Probabilities and sampling
# ---------------------------------------------------------------------------


def test_probabilities_examples():
    amps = Amplitudes(2, [0.5, 0.5, 0.5, -0.5])
    assert probabilities(amps).tolist() == [0.25, 0.25, 0.25, 0.25]
    probs = probabilities(amplitudes_from_walsh(fwht(make_inner_product_bent(4))))
    assert probs.tolist() == [0.0625] * 16
    assert abs(probs.sum() - 1.0) < ROUTE_TOL


def test_sampling_zero_shots():
    amps = amplitudes_from_walsh(fwht(make_constant(2, 0)))
    hist = sample_measurements(amps, 0, np.random.default_rng(0))
    assert hist.shots == 0 and hist.counts.tolist() == [0, 0, 0, 0]


def test_sampling_degenerate_distribution():
    amps = amplitudes_from_walsh(fwht(make_affine(4, 9, 0)))
    hist = sample_measurements(amps, 10_000, np.random.default_rng(1))
    assert hist.counts[9] == 10_000 and hist.shots == 10_000


def test_sampling_binomial_concentration():
    amps = amplitudes_from_walsh(fwht(make_inner_product_bent(4)))
    hist = sample_measurements(amps, 10**6, np.random.default_rng(2))
    sigma = np.sqrt(10**6 * (1 / 16) * (15 / 16))
    assert hist.counts.sum() == 10**6
    assert np.all(np.abs(hist.counts - 62_500) <= 5 * sigma)


def test_sampling_deterministic_per_seed():
    amps = amplitudes_from_walsh(fwht(make_inner_product_bent(4)))
    a = sample_measurements(amps, 5000, np.random.default_rng(7)).counts
    b = sample_measurements(amps, 5000, np.random.default_rng(7)).counts
    c = sample_measurements(amps, 5000, np.random.default_rng(8)).counts
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def reference_sample_counts(amps, shots, seed):
    """Every draw at once, one binary search per draw."""
    cdf = np.cumsum(probabilities(amps))
    draws = np.random.default_rng(seed).random(shots) * cdf[-1]
    return np.bincount(np.searchsorted(cdf, draws, side="right"), minlength=1 << amps.n)


@pytest.mark.parametrize("tt", [
    random_function(5, np.random.default_rng(4)),
    make_inner_product_bent(6),
    make_affine(3, 5, 1),
], ids=["random", "bent", "affine"])
def test_chunked_sampler_matches_unchunked_draws(tt):
    amps = amplitudes_from_walsh(fwht(tt))
    for shots in (0, 1, 999, _SAMPLE_CHUNK - 1, _SAMPLE_CHUNK, 2 * _SAMPLE_CHUNK + 3):
        for seed in (0, 1, 2**40 + 7):
            counts = sample_measurements(amps, shots, np.random.default_rng(seed)).counts
            assert np.array_equal(counts, reference_sample_counts(amps, shots, seed)), \
                (shots, seed)


def test_sampler_memory_does_not_grow_with_shots():
    amps = amplitudes_from_walsh(fwht(make_inner_product_bent(4)))
    shots = 6 * _SAMPLE_CHUNK
    tracemalloc.start()
    try:
        sample_measurements(amps, shots, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * _SAMPLE_CHUNK  # one chunk of float64 draws, plus slack


def test_sampling_validation():
    amps = amplitudes_from_walsh(fwht(make_constant(2, 0)))
    with pytest.raises(ValueError):
        sample_measurements(amps, -1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        MeasurementHistogram(2, [1, 0, 0, 0], 2)
    with pytest.raises(ValueError):
        MeasurementHistogram(2, [1, 0, 0], 1)


def test_amplitudes_must_be_normalized():
    with pytest.raises(ValueError):
        Amplitudes(2, [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        Amplitudes(2, [0.0, 0.0, 0.0, 0.0])
    assert Amplitudes(2, [0.5, 0.5, 0.5, -0.5]).norm_squared() == 1.0
