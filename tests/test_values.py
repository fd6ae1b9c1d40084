"""The six array-backed value types: immutability, lossless construction, validators."""

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
