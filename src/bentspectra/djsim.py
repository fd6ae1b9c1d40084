"""Classical simulation of the Deutsch-Jozsa output state.

The n-qubit output amplitude at p is

    psi(p) = (1 / 2^n) * sum over x of (-1)^(f(x) XOR p.x),

i.e. the Walsh spectrum of f scaled by 2^-n.  Every amplitude is real: the
circuit is H^n, a +-1 phase oracle, H^n, none of which leaves the real
line.  Amplitudes are dyadic rationals, exactly representable in float64
up to n = 20, so the independent routes below agree to within butterfly
rounding (~1e-15) and are checked against each other at 1e-12:

* ``amplitudes_direct``      - literal sum, O(4^n);
* ``amplitudes_from_walsh``  - integer spectrum scaled by 2^-n;
* ``simulate_circuit``       - n-qubit statevector with a phase oracle;
* ``simulate_with_ancilla``  - (n+1)-qubit statevector with a bit-flip
  oracle and the ancilla prepared in |->, discarded at the end.

Everything here is a pure function; the cost is O(n 2^n) or worse, so no
quantum query advantage is claimed or implied.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .boolfn import TruthTable, _butterfly, _check_arity, _check_bits, _Frozen, _frozen_array
from .walsh import WalshSpectrum, _check_spectra, _fwht_columns, _naive_columns

#: Statevector caps: one float64 buffer of 2^n (plus 2^{n+1} for the
#: ancilla route) entries.
STATEVECTOR_MAX_N = 20
ANCILLA_MAX_N = 20

#: Fewest draws ``sample_measurements`` holds at once (8 MiB of float64).
_SAMPLE_CHUNK = 1 << 20

_SQRT1_2 = 1.0 / math.sqrt(2.0)


_NORM_TOL = 1e-12


def _check_normalized(amps: np.ndarray) -> None:
    """Squares sum to 1 within 1e-12, per table column of a (2^n, B) block too."""
    if not np.all(np.abs((amps * amps).sum(axis=0) - 1.0) <= _NORM_TOL):  # NaN fails too
        raise ValueError("amplitudes are not normalized")


class Amplitudes(_Frozen):
    """Real output amplitudes of the n-qubit circuit, entry p = psi(p).

    Construction enforces normalization: the squares sum to 1 within 1e-12.
    """

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: Sequence[float] | np.ndarray):
        n = _check_arity(n)
        arr = _frozen_array(amps, n, np.float64, "amplitudes")
        _check_normalized(arr)
        self._set(n=n, amps=arr)

    def norm_squared(self) -> float:
        return float(np.dot(self.amps, self.amps))

    def __repr__(self) -> str:
        return f"Amplitudes(n={self.n}, norm2={self.norm_squared():.12f})"


class MeasurementHistogram(_Frozen):
    """Counts per outcome from repeated simulated measurements."""

    __slots__ = ("n", "counts", "shots")

    def __init__(self, n: int, counts: Sequence[int] | np.ndarray, shots: int):
        n = _check_arity(n)
        arr = _frozen_array(counts, n, np.int64, "counters")
        if arr.min(initial=0) < 0:
            raise ValueError("counts must be non-negative")
        if int(arr.sum()) != shots:
            raise ValueError("counts must sum to the number of shots")
        self._set(n=n, counts=arr, shots=int(shots))

    def __repr__(self) -> str:
        return f"MeasurementHistogram(n={self.n}, shots={self.shots})"


# Each route's body maps a (2^n, B) block of table columns to unvalidated
# amplitude columns; the public function runs it on one column.


def _direct_columns(n: int, bits: np.ndarray) -> np.ndarray:
    return _naive_columns(n, bits) / (1 << n)


def amplitudes_direct(tt: TruthTable) -> Amplitudes:
    """Literal evaluation of the amplitude sum in float64, O(4^n).

    Independent of both the butterfly transform and the statevector
    pipeline; every partial sum is an integer of at most 2^n in magnitude,
    so the result is exact despite the floating point.
    """
    return Amplitudes(tt.n, _direct_columns(tt.n, tt.bits[:, None])[:, 0])


def _scaled_spectra(n: int, w: np.ndarray) -> np.ndarray:
    return w.astype(np.float64) / (1 << n)


def amplitudes_from_walsh(spec: WalshSpectrum) -> Amplitudes:
    """psi(p) = W(p) / 2^n, exact up to one float64 division."""
    return Amplitudes(spec.n, _scaled_spectra(spec.n, spec.coeffs[:, None])[:, 0])


def _hadamard_pair(x: np.ndarray, y: np.ndarray) -> None:
    diff = (x - y) * _SQRT1_2
    x += y
    x *= _SQRT1_2
    y[:] = diff


def _circuit_columns(n: int, bits: np.ndarray) -> np.ndarray:
    if n > STATEVECTOR_MAX_N:
        raise ValueError(f"statevector route supports n <= {STATEVECTOR_MAX_N}, got {n}")
    state = np.zeros(bits.shape, dtype=np.float64)
    state[0] = 1.0
    _butterfly(state, _hadamard_pair)
    state *= 1.0 - 2.0 * bits
    _butterfly(state, _hadamard_pair)
    return state


def simulate_circuit(tt: TruthTable) -> Amplitudes:
    """n-qubit statevector run: |0..0> -> H^n -> phase oracle -> H^n.

    The phase oracle multiplies the basis amplitude at x by (-1)^f(x); the
    final statevector is real and returned as the output amplitudes.
    """
    return Amplitudes(tt.n, _circuit_columns(tt.n, tt.bits[:, None])[:, 0])


def _ancilla_columns(n: int, bits: np.ndarray) -> np.ndarray:
    if n > ANCILLA_MAX_N:
        raise ValueError(f"ancilla route supports n <= {ANCILLA_MAX_N}, got {n}")
    size = 1 << n
    state = np.zeros((size << 1, bits.shape[1]), dtype=np.float64)
    state[size] = 1.0  # |0^n> on the input register, |1> on the ancilla
    _butterfly(state, _hadamard_pair)

    low, high = state[:size], state[size:]
    flip = bits.astype(bool)
    low[:], high[:] = np.where(flip, high, low), np.where(flip, low, high)

    _butterfly(state.reshape(2, size, -1), _hadamard_pair)  # H on qubits 0..n-1
    return (low - high) * _SQRT1_2


def simulate_with_ancilla(tt: TruthTable) -> Amplitudes:
    """(n+1)-qubit run with a bit-flip oracle |x, b> -> |x, b XOR f(x)>.

    The ancilla (highest qubit) starts in |1>, is mapped to |-> by the
    initial Hadamard layer, and absorbs the oracle as a phase kickback.
    Discarding it projects onto |->; the surviving n-qubit amplitudes equal
    the phase-oracle route to within rounding.
    """
    return Amplitudes(tt.n, _ancilla_columns(tt.n, tt.bits[:, None])[:, 0])


def _worst_deviation(n: int, first: int, bits: np.ndarray) -> tuple[float, str, int, int]:
    """Largest |route - literal sum| over the tables first, first + 1, ... in ``bits``.

    Returns it with its route, table and outcome p.  Every value check that
    ``TruthTable``, ``WalshSpectrum`` and ``Amplitudes`` make runs on every column.
    """
    _check_bits(bits)
    w = _fwht_columns(bits)
    _check_spectra(n, w)
    direct = _direct_columns(n, bits)
    routes = {
        "walsh": _scaled_spectra(n, w),
        "circuit": _circuit_columns(n, bits),
        "ancilla": _ancilla_columns(n, bits),
    }
    for amps in (direct, *routes.values()):
        _check_normalized(amps)
    dev = np.stack([np.abs(amps - direct) for amps in routes.values()])
    route, p, col = np.unravel_index(int(dev.argmax()), dev.shape)
    return float(dev[route, p, col]), list(routes)[route], first + int(col), int(p)


def probabilities(a: Amplitudes) -> np.ndarray:
    """Measurement distribution: entry p is psi(p)^2."""
    return a.amps * a.amps


def sample_measurements(
    a: Amplitudes, shots: int, rng: np.random.Generator
) -> MeasurementHistogram:
    """Draw ``shots`` outcomes by inverse-CDF sampling of the distribution.

    A draw d lands on the first outcome k with d < cdf[k].  The draws are
    taken in chunks of at least 2^n, sorted, and counted per outcome by
    one binary search of each cdf entry into the chunk, so memory is
    O(2^n) whatever the shot count.  Chained ``rng.random`` calls continue
    one stream, so a fixed generator state reproduces the histogram bit
    for bit, the same as drawing every shot at once and searching each.
    """
    shots = int(shots)
    if shots < 0:
        raise ValueError(f"shots must be non-negative, got {shots}")
    size = 1 << a.n
    cdf = np.cumsum(probabilities(a))
    chunk = max(size, _SAMPLE_CHUNK)
    counts = np.zeros(size, dtype=np.int64)
    buffer = np.empty(min(chunk, shots))
    for done in range(0, shots, chunk):
        draws = buffer[: min(chunk, shots - done)]
        rng.random(out=draws)
        draws *= cdf[-1]
        draws.sort()
        below = np.searchsorted(draws, cdf, side="left")
        counts[0] += below[0]
        counts[1:] += np.diff(below)
        counts[-1] += draws.size - below[-1]  # draws at or past cdf[-1]
    return MeasurementHistogram(a.n, counts, shots)
