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

from .boolfn import TruthTable, _check_arity
from .walsh import WalshSpectrum, _character_matrix

#: Statevector caps: one float64 buffer of 2^n (plus 2^{n+1} for the
#: ancilla route) entries.
STATEVECTOR_MAX_N = 20
ANCILLA_MAX_N = 20
_DIRECT_MAX_N = 12  # shares the O(4^n) character matrix with walsh_naive

#: Fewest draws ``sample_measurements`` holds at once (8 MiB of float64).
_SAMPLE_CHUNK = 1 << 20

_SQRT1_2 = 1.0 / math.sqrt(2.0)


_NORM_TOL = 1e-12


class Amplitudes:
    """Real output amplitudes of the n-qubit circuit, entry p = psi(p).

    Construction enforces normalization: the squares sum to 1 within 1e-12.
    """

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: Sequence[float] | np.ndarray):
        n = _check_arity(n)
        arr = np.asarray(amps, dtype=np.float64).copy()
        if arr.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes, got {arr.shape}")
        if abs(float(arr @ arr) - 1.0) > _NORM_TOL:
            raise ValueError("amplitudes are not normalized")
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amps", arr)

    def __setattr__(self, key, value):
        raise AttributeError("Amplitudes is immutable")

    def norm_squared(self) -> float:
        return float(np.dot(self.amps, self.amps))

    def __repr__(self) -> str:
        return f"Amplitudes(n={self.n}, norm2={self.norm_squared():.12f})"


class MeasurementHistogram:
    """Counts per outcome from repeated simulated measurements."""

    __slots__ = ("n", "counts", "shots")

    def __init__(self, n: int, counts: Sequence[int] | np.ndarray, shots: int):
        n = _check_arity(n)
        arr = np.asarray(counts, dtype=np.int64).copy()
        if arr.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} counters, got {arr.shape}")
        if arr.min(initial=0) < 0:
            raise ValueError("counts must be non-negative")
        if int(arr.sum()) != int(shots):
            raise ValueError("counts must sum to the number of shots")
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "shots", int(shots))

    def __setattr__(self, key, value):
        raise AttributeError("MeasurementHistogram is immutable")

    def __repr__(self) -> str:
        return f"MeasurementHistogram(n={self.n}, shots={self.shots})"


def amplitudes_direct(tt: TruthTable) -> Amplitudes:
    """Literal evaluation of the amplitude sum in float64, O(4^n).

    Independent of both the butterfly transform and the statevector
    pipeline; all partial sums are integers below 2^53, so the result is
    exact despite the floating point.
    """
    if tt.n > _DIRECT_MAX_N:
        raise ValueError(f"amplitudes_direct supports n <= {_DIRECT_MAX_N}, got {tt.n}")
    size = 1 << tt.n
    chi = _character_matrix(tt.n)
    signs = (1 - 2 * tt.bits.astype(np.float64)) / size
    out = np.empty(size, dtype=np.float64)
    step = max(1, (1 << 22) >> tt.n)
    for lo in range(0, size, step):
        out[lo : lo + step] = chi[lo : lo + step].astype(np.float64) @ signs
    return Amplitudes(tt.n, out)


def amplitudes_from_walsh(spec: WalshSpectrum) -> Amplitudes:
    """psi(p) = W(p) / 2^n, exact up to one float64 division."""
    return Amplitudes(spec.n, spec.coeffs.astype(np.float64) / (1 << spec.n))


def _hadamard_each_qubit(state: np.ndarray, qubits: int) -> None:
    """Apply H to qubits 0..qubits-1 of a little-endian statevector."""
    for q in range(qubits):
        m = state.reshape(-1, 2, 1 << q)
        x = m[:, 0, :]
        y = m[:, 1, :]
        diff = (x - y) * _SQRT1_2
        x += y
        x *= _SQRT1_2
        y[:] = diff


def simulate_circuit(tt: TruthTable) -> Amplitudes:
    """n-qubit statevector run: |0..0> -> H^n -> phase oracle -> H^n.

    The phase oracle multiplies the basis amplitude at x by (-1)^f(x); the
    final statevector is real and returned as the output amplitudes.
    """
    n = tt.n
    if n > STATEVECTOR_MAX_N:
        raise ValueError(f"statevector route supports n <= {STATEVECTOR_MAX_N}, got {n}")
    state = np.zeros(1 << n, dtype=np.float64)
    state[0] = 1.0
    _hadamard_each_qubit(state, n)
    state *= 1.0 - 2.0 * tt.bits
    _hadamard_each_qubit(state, n)
    return Amplitudes(n, state)


def simulate_with_ancilla(tt: TruthTable) -> Amplitudes:
    """(n+1)-qubit run with a bit-flip oracle |x, b> -> |x, b XOR f(x)>.

    The ancilla (highest qubit) starts in |1>, is mapped to |-> by the
    initial Hadamard layer, and absorbs the oracle as a phase kickback.
    Discarding it projects onto |->; the surviving n-qubit amplitudes equal
    the phase-oracle route to within rounding.
    """
    n = tt.n
    if n > ANCILLA_MAX_N:
        raise ValueError(f"ancilla route supports n <= {ANCILLA_MAX_N}, got {n}")
    size = 1 << n
    state = np.zeros(size << 1, dtype=np.float64)
    state[size] = 1.0  # |0^n> on the input register, |1> on the ancilla
    _hadamard_each_qubit(state, n + 1)

    low, high = state[:size], state[size:]
    flip = tt.bits.astype(bool)
    swapped = low[flip].copy()
    low[flip] = high[flip]
    high[flip] = swapped

    _hadamard_each_qubit(state, n)
    return Amplitudes(n, (low - high) * _SQRT1_2)


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
