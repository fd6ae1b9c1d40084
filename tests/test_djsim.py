"""Output-amplitude routes, normalization, flatness, and sampling."""

import json
import re
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
from bentspectra import boolfn, djsim
from bentspectra.boolfn import _SCRATCH, MAX_ARITY, _butterfly, _random_columns
from bentspectra.djsim import (
    ANCILLA_MAX_N,
    STATEVECTOR_MAX_N,
    _SQRT1_2,
    _ancilla_columns,
    _circuit_columns,
    _hadamard_pair,
    _scaled_spectra,
)
from bentspectra.spectra import export_histogram_json
from bentspectra.walsh import _fwht_columns, _naive_columns

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
    assert STATEVECTOR_MAX_N == ANCILLA_MAX_N == MAX_ARITY
    tt = random_function(21, np.random.default_rng(21))  # past the old caps of 12 and 20
    expected = amplitudes_from_walsh(fwht(tt)).amps
    assert np.array_equal(amplitudes_direct(tt).amps, expected)
    for route in (simulate_circuit, simulate_with_ancilla):
        assert np.abs(route(tt).amps - expected).max() < ROUTE_TOL
    with pytest.raises(ValueError):
        make_constant(MAX_ARITY + 1, 0)  # no table, so no route, past MAX_ARITY


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


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_column_bodies_match_single_tables_bit_for_bit(n):
    bits = _random_columns(n, 9, np.random.default_rng(n))
    w = _fwht_columns(bits)
    blocks = {
        amplitudes_direct: _scaled_spectra(n, _naive_columns(n, bits)),
        simulate_circuit: _circuit_columns(n, bits),
        simulate_with_ancilla: _ancilla_columns(n, bits),
    }
    scaled = _scaled_spectra(n, w)
    for b in range(bits.shape[1]):
        tt = TruthTable(n, bits[:, b])
        assert np.array_equal(w[:, b], fwht(tt).coeffs)
        assert np.array_equal(scaled[:, b], amplitudes_from_walsh(fwht(tt)).amps)
        for route, block in blocks.items():
            assert np.array_equal(block[:, b], route(tt).amps), route.__name__


@pytest.mark.parametrize("scratch", [False, True])
def test_hadamard_pair_scales_the_rounded_sum_and_difference(scratch):
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 4096))
    x[::7], y[::5] = -0.0, 0.0
    want = (x + y) * _SQRT1_2, (x - y) * _SQRT1_2
    _hadamard_pair(x, y, np.empty_like(x) if scratch else None)
    assert (x.tobytes(), y.tobytes()) == (want[0].tobytes(), want[1].tobytes())


def reference_circuit_columns(n, bits):
    """Gate by gate: |0..0>, H^n, the phase oracle, H^n."""
    state = np.zeros(bits.shape, dtype=np.float64)
    state[0] = 1.0
    _butterfly(state, _hadamard_pair)
    state *= 1.0 - 2.0 * bits
    _butterfly(state, _hadamard_pair)
    return state


def reference_ancilla_columns(n, bits):
    """Gate by gate: |0..0, 1>, H^(n+1), the bit-flip oracle, H^n on both halves."""
    size = 1 << n
    state = np.zeros((size << 1, bits.shape[1]), dtype=np.float64)
    state[size] = 1.0
    _butterfly(state, _hadamard_pair)
    low, high = state[:size], state[size:]
    flip = bits.astype(bool)
    low[:], high[:] = np.where(flip, high, low), np.where(flip, low, high)
    _butterfly(state.reshape(2, size, -1), _hadamard_pair)
    return (low - high) * _SQRT1_2


@pytest.mark.parametrize("n, width", [(n, width) for n in range(1, 15) for width in (1, 9)]
                         + [(20, 1)])
def test_statevector_bodies_match_gate_by_gate_bit_for_bit(n, width):
    bits = _random_columns(n, width, np.random.default_rng(n * 10 + width))
    bits[:, 0] = 0  # a constant table: exact zeros, whose signs must match too
    assert _circuit_columns(n, bits).tobytes() == reference_circuit_columns(n, bits).tobytes()
    assert _ancilla_columns(n, bits).tobytes() == reference_ancilla_columns(n, bits).tobytes()


def test_ancilla_route_transforms_both_ancilla_halves(monkeypatch):
    # after the oracle |x,1> is the negation of |x,0>; transforming it anyway
    # keeps this route independent of the circuit route
    halves = []

    def recording(a, pair):
        halves.append((a, a.copy()))
        _butterfly(a, pair)

    monkeypatch.setattr(djsim, "_butterfly", recording)
    _ancilla_columns(3, _random_columns(3, 5, np.random.default_rng(0)))
    assert [a.shape for a, _ in halves] == [(8, 5), (8, 5)]
    (low, low_given), (high, high_given) = halves
    assert not np.shares_memory(low, high)
    assert np.array_equal(high_given, -low_given) and np.all(low_given != 0)


#: Room for array headers and other small objects beside the float64 buffers.
_SMALL = 64 << 10
#: Entries of one butterfly worker's buffers: its scratch block and its pair temporary.
_WORKER = _SCRATCH + _SCRATCH // 2


def _route_peak(route, arg):
    """tracemalloc's peak while ``route(arg)`` runs."""
    tracemalloc.start()
    try:
        route(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _table(n):
    return random_function(n, np.random.default_rng(n))


def test_circuit_route_memory_is_its_state_and_one_workers_buffers():
    # the Amplitudes keep the state itself; the norm check adds no array
    assert _route_peak(simulate_circuit, _table(18)) <= 8 * ((1 << 18) + _WORKER) + _SMALL


def test_ancilla_route_memory_is_its_two_halves_and_one_workers_buffers():
    # the high half is freed after the projection, and the low one is the result
    assert _route_peak(simulate_with_ancilla, _table(18)) <= 8 * ((2 << 18) + _WORKER) + _SMALL


def test_threaded_circuit_route_memory_is_its_state_and_the_workers_buffers(monkeypatch):
    monkeypatch.setattr(boolfn, "_WORKERS", boolfn._MAX_WORKERS)
    assert (_route_peak(simulate_circuit, _table(20))
            <= 8 * ((1 << 20) + boolfn._MAX_WORKERS * _WORKER) + _SMALL)


def test_walsh_route_memory_is_its_scaled_spectrum():
    # the spectrum is cast once and scaled in place, and the Amplitudes keep it
    assert _route_peak(amplitudes_from_walsh, fwht(_table(18))) <= 8 * (1 << 18) + _SMALL


def test_verify_block_memory_is_the_table_w_the_ancilla_halves_and_one_workers_buffers():
    # verify --random's n = 12 block: beside the uint8 tables, the literal
    # sum's int32 W, the ancilla route's two float64 halves and one worker's
    # buffers, clamped to the block, with no float64 copy of the literal sum
    # (2.01 MiB measured with 2^16-entry blocks)
    n, count = 12, boolfn._tables_per_block(12)
    bits = _random_columns(n, count, np.random.default_rng(12))
    peak = _route_peak(lambda bits: djsim._worst_deviation(n, 0, bits), bits)
    scratch = min(_SCRATCH, boolfn._BLOCK_ENTRIES)
    worker = scratch + scratch // 2
    assert peak <= bits.size * (1 + 4 + 2 * 8) + 8 * worker + _SMALL, peak


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


@pytest.mark.parametrize("shots", [-1, 1 << 63, 10**40])
def test_sampling_refuses_shots_an_int64_counter_cannot_hold(shots):
    amps = amplitudes_from_walsh(fwht(make_constant(2, 0)))
    with pytest.raises(ValueError, match=r"^shots must be in \[0, 2\^63 - 1\], got -?\d+$"):
        sample_measurements(amps, shots, np.random.default_rng(0))


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


@pytest.mark.parametrize("tt", [
    random_function(5, np.random.default_rng(4)),
    make_inner_product_bent(6),
    make_affine(3, 5, 1),
], ids=["random", "bent", "affine"])
def test_sampler_fits_the_measurement_distribution(tt):
    amps = amplitudes_from_walsh(fwht(tt))
    prob = probabilities(amps)
    support = prob > 0
    shots = 10**6
    for seed in (0, 1, 2**40 + 7):
        counts = sample_measurements(amps, shots, np.random.default_rng(seed)).counts
        assert counts.sum() == shots and not counts[~support].any(), seed
        expected = shots * prob[support]
        stat = float(((counts[support] - expected) ** 2 / expected).sum())
        df = int(support.sum()) - 1
        # chi-square(df) has mean df and variance 2 df; 8 sigma is far in its tail
        assert stat <= df + 8 * np.sqrt(2 * df), (seed, stat)
        if df == 0:
            assert counts[5] == shots  # the affine table: every draw lands on k = 5


def test_sampler_memory_does_not_grow_with_shots():
    amps = amplitudes_from_walsh(fwht(make_inner_product_bent(4)))
    tracemalloc.start()
    try:
        hist = sample_measurements(amps, 1 << 62, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.counts.sum() == 1 << 62
    assert peak < 16 * 1024  # a few 16-entry arrays, whatever the shot count


def test_sampler_memory_is_the_probabilities_and_the_counts():
    # the probabilities are normalized in place and the histogram keeps the
    # multinomial counts, so two 2^n-entry arrays are alive at once
    amps = simulate_circuit(random_function(18, np.random.default_rng(18)))
    tracemalloc.start()
    try:
        hist = sample_measurements(amps, 10**6, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 << 18) + _SMALL
    p = probabilities(amps)
    assert np.array_equal(hist.counts, np.random.default_rng(0).multinomial(10**6, p / p.sum()))


@pytest.mark.parametrize("build, message", [
    (lambda amps: sample_measurements(amps, 10.9, np.random.default_rng(0)),
     "shots must be an integer, got 10.9"),
    (lambda amps: sample_measurements(amps, "5", np.random.default_rng(0)),
     "shots must be an integer, got '5'"),
    (lambda amps: MeasurementHistogram(2, [10, 0, 0, 0], 10.0),
     "shots must be an integer, got 10.0"),
    (lambda amps: export_histogram_json(sample_measurements(amps, 10, np.random.default_rng(0)),
                                        seed=2.5),
     "histogram seed must be an integer, got 2.5"),
], ids=["shots-float", "shots-str", "histogram-shots-float", "histogram-seed-float"])
def test_shots_and_histogram_seeds_are_integers(build, message):
    amps = amplitudes_from_walsh(fwht(make_constant(2, 0)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(amps)


def test_numpy_integer_shots_and_seeds_are_accepted():
    amps = amplitudes_from_walsh(fwht(make_constant(2, 0)))
    hist = sample_measurements(amps, np.int64(5), np.random.default_rng(0))
    assert type(hist.shots) is int and hist.counts.tolist() == [5, 0, 0, 0]
    assert MeasurementHistogram(2, [5, 0, 0, 0], np.uint8(5)) == hist
    assert json.loads(export_histogram_json(hist, seed=np.int32(2)))["seed"] == 2


def test_sampling_validation():
    amps = amplitudes_from_walsh(fwht(make_constant(2, 0)))
    with pytest.raises(ValueError):
        sample_measurements(amps, -1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        MeasurementHistogram(2, [1, 0, 0, 0], 2)
    with pytest.raises(ValueError):
        MeasurementHistogram(2, [1, 0, 0], 1)
    with pytest.raises(ValueError, match="counts must be non-negative"):
        MeasurementHistogram(2, [3, -1, 0, 0], 2)


def test_amplitudes_must_be_normalized():
    with pytest.raises(ValueError):
        Amplitudes(2, [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        Amplitudes(2, [0.0, 0.0, 0.0, 0.0])
    assert Amplitudes(2, [0.5, 0.5, 0.5, -0.5]).norm_squared() == 1.0
