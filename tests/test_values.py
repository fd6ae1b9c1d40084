"""The six array-backed value types: immutability and lossless construction."""

import numpy as np
import pytest

from bentspectra import (
    Amplitudes,
    AnfPolynomial,
    MeasurementHistogram,
    TruthTable,
    WalshSpectrum,
    make_report,
)

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
    hist = MeasurementHistogram(1, np.array([1.0, 2.0]), 3.0)
    assert hist.counts.tolist() == [1, 2] and hist.shots == 3
    assert Amplitudes(1, [1, 0]).amps.tolist() == [1.0, 0.0]
