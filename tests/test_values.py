"""The six array-backed value types: immutability, equality, lossless construction, validators."""

import tracemalloc

import numpy as np
import pytest

from bentspectra import (
    Amplitudes,
    AnfPolynomial,
    MeasurementHistogram,
    TruthTable,
    WalshSpectrum,
    amplitudes_direct,
    amplitudes_from_walsh,
    dual_bent,
    from_anf,
    fwht,
    make_affine,
    make_constant,
    make_inner_product_bent,
    make_mm_bent,
    make_report,
    random_function,
    sample_measurements,
    simulate_circuit,
    simulate_with_ancilla,
    to_anf,
    walsh_naive,
)
from bentspectra.boolfn import _check_bits, _random_columns
from bentspectra.djsim import _check_normalized, _scaled_spectra
from bentspectra.walsh import _check_spectra, _fwht_columns

VALUES = {
    "TruthTable": (lambda: TruthTable(2, [0, 1, 1, 0]), ("bits",)),
    "AnfPolynomial": (lambda: AnfPolynomial(2, [0, 1, 1, 0]), ("coefficients",)),
    "WalshSpectrum": (lambda: WalshSpectrum(2, [2, 2, 2, -2]), ("coeffs",)),
    "Amplitudes": (lambda: Amplitudes(2, [0.5, 0.5, 0.5, -0.5]), ("amps",)),
    "MeasurementHistogram": (lambda: MeasurementHistogram(2, [1, 2, 3, 4], 10), ("counts",)),
    "SpectrumReport": (lambda: make_report(TruthTable(2, [0, 0, 0, 1])),
                       ("walsh", "amplitudes", "probabilities")),
}


@pytest.mark.parametrize("make, arrays", VALUES.values(), ids=VALUES.keys())
def test_values_are_frozen(make, arrays):
    value = make()
    for name in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    for name in arrays:
        arr = getattr(value, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[1]


@pytest.mark.parametrize("make", [make for make, _ in VALUES.values()], ids=VALUES.keys())
def test_equal_values_hash_alike(make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a.__eq__(object()) is NotImplemented and a != object()


def test_values_of_different_types_are_never_equal():
    values = [make() for make, _ in VALUES.values()]  # the table and the ANF share n and entries
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) == (i == j), (a, b)


def test_values_differing_in_one_field_are_unequal():
    tt = TruthTable(2, [0, 0, 0, 1])
    assert TruthTable(2, [0, 0, 1, 0]) != tt
    assert MeasurementHistogram(2, [1, 2, 3, 4], 10) != MeasurementHistogram(2, [2, 1, 3, 4], 10)
    assert make_report(tt, "g", 1) != make_report(tt, "g", 2)
    assert make_report(tt, "g", 1) != make_report(tt, "h", 1)
    assert len({make_report(tt, "g", 1), make_report(tt, "g", 1), make_report(tt)}) == 2


def test_signed_zeros_are_one_value():
    neg, pos = Amplitudes(1, [-0.0, 1.0]), Amplitudes(1, [0.0, 1.0])
    assert neg.amps.tobytes() != pos.amps.tobytes()
    assert neg == pos and hash(neg) == hash(pos)


def test_a_set_of_equal_tables_holds_one():
    tables = {TruthTable(3, [0, 1, 1, 0, 1, 0, 0, 1]) for _ in range(4)}
    tables.add(TruthTable.from_int(3, 0b10010110))
    assert len(tables) == 1


def test_reprs():
    assert repr(TruthTable(2, [0, 1, 1, 0])) == "TruthTable(n=2, tt='0110')"
    assert repr(TruthTable(8, [1] * 256)) == f"TruthTable(n=8, tt='{'f' * 32}...')"
    assert repr(AnfPolynomial(2, [0, 1, 1, 1])) == (
        "AnfPolynomial(n=2, degree=2, monomials=(1, 2, 3))")
    assert repr(WalshSpectrum(2, [2, 2, 2, -2])) == "WalshSpectrum(n=2, coeffs=[2, 2, 2, -2])"
    assert repr(WalshSpectrum(4, [16] + [0] * 15)) == (
        "WalshSpectrum(n=4, coeffs=[16, 0, 0, 0, 0, 0, 0, 0, ...])")
    assert repr(Amplitudes(2, [0.5, 0.5, 0.5, -0.5])) == "Amplitudes(n=2, norm2=1.000000000000)"
    assert repr(MeasurementHistogram(2, [1, 2, 3, 4], 10)) == "MeasurementHistogram(n=2, shots=10)"
    assert repr(make_report(TruthTable(2, [0, 0, 0, 1]), "g")) == (
        "SpectrumReport(n=2, generator='g')")


def test_report_computes_its_float_columns_on_access():
    report = make_report(random_function(6, np.random.default_rng(2)))
    a = report.walsh / 64.0
    for name, expected in (("amplitudes", a), ("probabilities", a * a)):
        first, second = getattr(report, name), getattr(report, name)
        assert first is not second and not first.flags.writeable
        assert first.tobytes() == second.tobytes() == expected.tobytes()


def test_report_keeps_only_its_walsh_column():
    tt = random_function(20, np.random.default_rng(1))
    tracemalloc.start()
    try:
        report = make_report(tt)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.walsh.nbytes == 4 << 20
    assert kept <= (4 << 20) + (64 << 10)  # the int32 W column; 20 MiB with stored floats


@pytest.mark.parametrize("build", [
    lambda: WalshSpectrum(2, np.array([2**32 + 4, 0, 0, 0])),
    lambda: WalshSpectrum(2, np.array([2**64 - 2, 2, 2, 2**64 - 2], dtype=np.uint64)),
    lambda: WalshSpectrum(2, [2**70, 0, 0, 0]),
    lambda: WalshSpectrum(2, [4.5, 0, 0, 0]),
    lambda: TruthTable(1, np.array([256, 1])),
    lambda: TruthTable(1, np.array([-1, 1])),
    lambda: TruthTable(1, [0.7, 1]),
    lambda: TruthTable(1, [np.nan, 1]),
    lambda: TruthTable(1, [np.inf, 1]),
    lambda: TruthTable(1, [1e300, 1]),
    lambda: TruthTable(1, np.array([0j, 1])),
    lambda: TruthTable(1, ["0", "1"]),
    lambda: AnfPolynomial(1, np.array([257, 0])),
    lambda: MeasurementHistogram(1, [1.5, 1.5], 2),
    lambda: MeasurementHistogram(1, [1, 1], 2.5),
    lambda: MeasurementHistogram(1, [1e19, 0], 1e19),
    lambda: Amplitudes(1, [np.nan, np.nan]),
    lambda: Amplitudes(1, np.array([0.6 + 0.8j, 0])),
], ids=["walsh-int64-wraps", "walsh-uint64-wraps", "walsh-huge-int", "walsh-fraction",
        "bits-wrap", "bits-negative", "bits-fraction", "bits-nan", "bits-inf", "bits-huge",
        "bits-complex", "bits-strings", "anf-wraps", "counts-fraction", "shots-fraction",
        "counts-huge", "amps-nan", "amps-complex"])
def test_lossy_inputs_raise(build):
    with pytest.raises(ValueError):
        build()


def test_lossless_inputs_build_the_same_value():
    bits = TruthTable(2, [0, 1, 1, 0])
    assert TruthTable(2, np.array([False, True, True, False])) == bits
    assert TruthTable(2, [0, 1.0, 1, 0]) == bits
    assert TruthTable(2, np.array([0, 1, 1, 0], dtype=np.int64)) == bits
    assert AnfPolynomial(2, np.array([0.0, 1.0, 1.0, 0.0])) == AnfPolynomial(2, [0, 1, 1, 0])
    spec = WalshSpectrum(2, [2, 2, 2, -2])
    assert WalshSpectrum(2, np.array([2, 2, 2, -2], dtype=np.int64)) == spec
    assert WalshSpectrum(2, [2.0, 2.0, 2.0, -2.0]) == spec
    hist = MeasurementHistogram(1, np.array([1.0, 2.0]), 3)
    assert hist.counts.tolist() == [1, 2] and hist.shots == 3
    assert Amplitudes(1, [1, 0]).amps.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("build, given, name", [
    (lambda a: TruthTable(2, a), np.array([0, 1, 1, 0], np.uint8), "bits"),
    (lambda a: AnfPolynomial(2, a), np.array([0, 1, 1, 0], np.uint8), "coefficients"),
    (lambda a: WalshSpectrum(2, a), np.array([2, 2, 2, -2], np.int32), "coeffs"),
    (lambda a: Amplitudes(2, a), np.array([0.5, 0.5, 0.5, -0.5]), "amps"),
    (lambda a: MeasurementHistogram(2, a, 10), np.array([1, 2, 3, 4], np.int64), "counts"),
], ids=["TruthTable", "AnfPolynomial", "WalshSpectrum", "Amplitudes", "MeasurementHistogram"])
def test_constructors_copy_the_callers_array(build, given, name):
    # the caller's array already has the stored dtype, so no cast forces a copy
    value = build(given)
    expected, digest = build(given.copy()), hash(value)
    stored = getattr(value, name)
    assert stored.dtype == given.dtype and not np.shares_memory(stored, given)
    given[-1] += 1
    assert value == expected and hash(value) == digest
    assert np.array_equal(getattr(value, name), getattr(expected, name))


@pytest.mark.parametrize("check, name, edit", [
    (_check_bits, "bits", lambda v: 2),
    (_check_spectra, "w", lambda v: 9),  # out of range
    (_check_spectra, "w", lambda v: v + 1),  # wrong parity
    (_check_spectra, "w", lambda v: v - 2 if v > 0 else v + 2),  # Parseval
    (_check_normalized, "amps", lambda v: v + 1e-3),
    (_check_normalized, "amps", lambda v: np.nan),
], ids=["bit-2", "w-range", "w-parity", "w-parseval", "amps-norm", "amps-nan"])
def test_block_validators_check_every_column(check, name, edit):
    bits = _random_columns(3, 4, np.random.default_rng(0))
    w = _fwht_columns(bits)
    block = {"bits": bits, "w": w, "amps": _scaled_spectra(3, w)}[name]
    args = (3,) if check is _check_spectra else ()
    check(*args, block)  # the valid block passes
    block = block.copy()
    block[0, -1] = edit(block[0, -1])  # spoil the last column only
    with pytest.raises(ValueError):
        check(*args, block)


_TABLE = random_function(6, np.random.default_rng(6))
_BENT = make_inner_product_bent(6)

#: Every public function whose value type keeps the buffer the function has just made.
ADOPTING = {
    "fwht": (fwht, _TABLE),
    "walsh_naive": (walsh_naive, _TABLE),
    "amplitudes_direct": (amplitudes_direct, _TABLE),
    "amplitudes_from_walsh": (amplitudes_from_walsh, fwht(_TABLE)),
    "simulate_circuit": (simulate_circuit, _TABLE),
    "simulate_with_ancilla": (simulate_with_ancilla, _TABLE),
    "to_anf": (to_anf, _TABLE),
    "from_anf": (from_anf, to_anf(_TABLE)),
    "make_constant": (make_constant, 6, 1),
    "make_affine": (make_affine, 6, 5, 1),
    "make_inner_product_bent": (make_inner_product_bent, 6),
    "make_mm_bent": (make_mm_bent, 3, np.array([3, 1, 0, 2, 7, 4, 6, 5]),
                     random_function(3, np.random.default_rng(3))),
    "random_function": (random_function, 6, np.random.default_rng(6)),
    "dual_bent": (dual_bent, fwht(_BENT)),
    "sample_measurements": (sample_measurements, simulate_circuit(_TABLE), 1000,
                            np.random.default_rng(0)),
}


def _arrays(value) -> list:
    """An array argument itself, or the arrays a value type stores."""
    if isinstance(value, np.ndarray):
        return [value]
    fields = [getattr(value, name) for name in getattr(type(value), "__slots__", ())]
    return [field for field in fields if isinstance(field, np.ndarray)]


@pytest.mark.parametrize("call", ADOPTING.values(), ids=ADOPTING.keys())
def test_adopted_buffers_are_never_the_arguments(call):
    function, *args = call
    result = function(*args)
    kept = _arrays(result)
    assert kept and all(not array.flags.writeable for array in kept)
    for given in (array for arg in args for array in _arrays(arg)):
        for array in kept:
            assert not np.shares_memory(array, given), function.__name__
