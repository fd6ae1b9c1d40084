"""Classical simulation of the Deutsch-Jozsa output state.

The n-qubit output amplitude at p is

    psi(p) = (1 / 2^n) * sum over x of (-1)^(f(x) XOR p.x),

i.e. the Walsh spectrum of f scaled by 2^-n.  Every amplitude is real: the
circuit is H^n, a +-1 phase oracle, H^n, none of which leaves the real
line.  Amplitudes are dyadic rationals W / 2^n with |W| <= 2^n, exactly
representable in float64 at every arity up to ``MAX_ARITY`` = 24, so the
independent routes below agree to within butterfly rounding (~1e-15), and
``verify`` measures each against the literal sum's exact int32 W at 1e-12:

* ``amplitudes_direct``      - literal sum, one bit group at a time, 4^n up to
  n = 8 and about k 2^n 2^ceil(n/k) for k = ceil(n/8) groups above;
* ``amplitudes_from_walsh``  - integer spectrum scaled by 2^-n;
* ``simulate_circuit``       - n-qubit statevector with a phase oracle;
* ``simulate_with_ancilla``  - (n+1)-qubit statevector with a bit-flip
  oracle and the ancilla prepared in |->, discarded at the end.

Both statevector routes prepare the first Hadamard layer in closed form: on
a basis state it yields one constant magnitude, which is computed with the
butterfly's own rounding, so the state equals the gate-by-gate one bit for
bit.  The oracle and the final Hadamard layer are applied as gates.

A measurement yields p with probability psi(p)^2; ``sample_measurements``
draws the counts of many as one multinomial, O(2^n) whatever their number.

Everything here is a pure function; the cost is O(n 2^n) or worse, so no
quantum query advantage is claimed or implied.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Sequence

import numpy as np

from .boolfn import (MAX_ARITY, TruthTable, _butterfly, _check_arity, _check_bits, _Fresh,
                     _Frozen, _frozen_array, _index, _short_repr, _signs)
from .walsh import WalshSpectrum, _check_spectra, _fwht_columns, _naive_columns, _square_sums

#: Statevector caps, every arity a table can have: one float64 buffer of 2^n
#: entries (128 MiB at n = 24), or two, one per ancilla value, for the ancilla route.
STATEVECTOR_MAX_N = MAX_ARITY
ANCILLA_MAX_N = MAX_ARITY

_SQRT1_2 = 1.0 / math.sqrt(2.0)


_NORM_TOL = 1e-12


def _check_normalized(amps: np.ndarray) -> None:
    """Squares sum to 1 within 1e-12, per table column of a (2^n, B) block too."""
    if not np.all(np.abs(_square_sums(amps) - 1.0) <= _NORM_TOL):  # NaN fails too
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
        shots = _index(shots, "shots")
        arr = _frozen_array(counts, n, np.int64, "counters")
        if arr.min(initial=0) < 0:
            raise ValueError("counts must be non-negative")
        if int(arr.sum()) != shots:
            raise ValueError("counts must sum to the number of shots")
        self._set(n=n, counts=arr, shots=shots)

    def __repr__(self) -> str:
        return f"MeasurementHistogram(n={self.n}, shots={self.shots})"


# Each route's body maps a (2^n, B) block of table columns to unvalidated
# amplitude columns; the public function runs it on one column.


def _scaled_spectra(n: int, w: np.ndarray) -> np.ndarray:
    amps = w.astype(np.float64)
    amps /= 1 << n
    return amps


def amplitudes_direct(tt: TruthTable) -> Amplitudes:
    """Literal evaluation of the amplitude sum, one bit group at a time, at every arity.

    Independent of both the butterfly transform and the statevector
    pipeline; ``walsh._naive_columns`` sums in float32, and every partial sum
    is an integer of at most 2^n in magnitude, so W and W / 2^n are exact.
    """
    w = _naive_columns(tt.n, tt.bits[:, None])
    return Amplitudes(tt.n, _Fresh(_scaled_spectra(tt.n, w)[:, 0]))


def amplitudes_from_walsh(spec: WalshSpectrum) -> Amplitudes:
    """psi(p) = W(p) / 2^n, exact up to one float64 division."""
    return Amplitudes(spec.n, _Fresh(_scaled_spectra(spec.n, spec.coeffs[:, None])[:, 0]))


def _hadamard_pair(x: np.ndarray, y: np.ndarray, t: np.ndarray | None = None) -> None:
    """One Hadamard level on the halves: x, y <- (x + y) S, (x - y) S, with S = 1/sqrt(2).

    ``t`` holds x - y while ``x`` changes.  Each output is the rounded sum or
    difference times S, rounded once more.
    """
    t = np.subtract(x, y, out=t)
    x += y
    x *= _SQRT1_2
    np.multiply(t, _SQRT1_2, out=y)


def _signed_layer(levels: int, bits: np.ndarray) -> np.ndarray:
    """(-1)^f(x) times the constant entry v of H^levels on a basis state, as a new float64 array.

    The butterfly maps a constant entry v to (v + 0) * S and (v - 0) * S at
    each level, so v is the running product of ``levels`` factors S = 1/sqrt(2),
    rounded as the gate-by-gate route rounds it.
    """
    v = 1.0
    for _ in range(levels):
        v *= _SQRT1_2
    return _signs(bits, np.float64, v)


def _circuit_columns(n: int, bits: np.ndarray) -> np.ndarray:
    state = _signed_layer(n, bits)
    _butterfly(state, _hadamard_pair)
    return state


def simulate_circuit(tt: TruthTable) -> Amplitudes:
    """n-qubit statevector run: |0..0> -> H^n -> phase oracle -> H^n.

    H^n|0..0> is prepared in closed form, every entry 2^(-n/2) rounded as
    the butterfly rounds it.  The phase oracle multiplies the basis
    amplitude at x by (-1)^f(x), and the final H^n runs as a butterfly; the
    final statevector is real and returned as the output amplitudes.
    """
    return Amplitudes(tt.n, _Fresh(_circuit_columns(tt.n, tt.bits[:, None])[:, 0]))


def _ancilla_columns(n: int, bits: np.ndarray) -> np.ndarray:
    """The (n+1)-qubit state as its two ancilla halves, each a (2^n, B) array.

    H^(n+1)|0..0,1> is v on |x,0> and -v on |x,1>; the bit-flip oracle swaps
    the two where f(x) = 1, so |x,0> holds (-1)^f(x) v and |x,1> its negation.
    Both halves are transformed, low then high, rather than taking the high
    one's transform as the negation of the low one's, so the route stays
    independent of the circuit route.  The projection goes into the low half
    and the high half is freed, so the result holds its own 2^n entries per
    table and no view keeps 2^(n+1) alive.
    """
    low = _signed_layer(n + 1, bits)
    high = np.negative(low)
    _butterfly(low, _hadamard_pair)  # H on qubits 0..n-1 under each ancilla value
    _butterfly(high, _hadamard_pair)
    low -= high  # discarding the ancilla projects onto |->: (low - high) / sqrt(2)
    del high
    low *= _SQRT1_2
    return low


def simulate_with_ancilla(tt: TruthTable) -> Amplitudes:
    """(n+1)-qubit run with a bit-flip oracle |x, b> -> |x, b XOR f(x)>.

    The ancilla (highest qubit) starts in |1>, is mapped to |-> by the
    initial Hadamard layer, prepared in closed form like the circuit
    route's, and absorbs the oracle as a phase kickback.  The final H^n runs
    on the input register under both ancilla values; discarding the ancilla
    then projects onto |->, and the surviving n-qubit amplitudes equal the
    phase-oracle route to within rounding.
    """
    return Amplitudes(tt.n, _Fresh(_ancilla_columns(tt.n, tt.bits[:, None])[:, 0]))


class RouteFault(Exception):
    """A route of ``verify`` disagrees with the literal sum or fails its own value check."""


def _check_route(route: str, check, values: np.ndarray, first: int, scale: int = 1,
                 w: np.ndarray | None = None) -> None:
    """Run ``check`` on a block of table columns; a failure is a ``RouteFault``.

    The fault names the route and the first table whose column fails, and, given
    the literal sum's W, the p of that table's largest |values * scale - W| / 2^n,
    in float64.  Only a failing block is checked column by column.
    """
    try:
        return check(values)
    except ValueError:
        pass
    for col in range(values.shape[1]):
        try:
            check(values[:, col:col + 1])
        except ValueError as exc:
            fault = f"{route} route {exc} on table {first + col}"
            if w is not None:
                dev = np.abs(np.multiply(values[:, col], scale, dtype=np.float64) - w[:, col])
                p = int(dev.argmax())
                fault += f": off the literal sum by {dev[p] / w.shape[0]:.3e} at p={p}"
            raise RouteFault(fault) from None


def _worst_deviation(n: int, first: int, bits: np.ndarray) -> tuple[float, str, int, int]:
    """Largest |route - literal sum| over the tables first, first + 1, ... in ``bits``.

    Returns it with its route, table and outcome p.  The literal sum is kept as
    its int32 W; each route's block times its scale (1 for a spectrum, 2^n for
    amplitudes), exact, minus W is 2^n times the deviation bit for bit.  Every
    value check that ``TruthTable``, ``WalshSpectrum`` and ``Amplitudes`` make
    runs on every column: invalid table entries raise ``ValueError``, and a
    route whose values fail their check (range, parity or Parseval for the
    literal sum and the walsh route, normalization for a statevector route)
    raises ``RouteFault``.
    """
    _check_bits(bits)
    size = 1 << n
    w = _naive_columns(n, bits)
    _check_route("literal sum", partial(_check_spectra, n), w, first)
    # a running maximum, replaced only when strictly larger, keeps the first
    # maximum in (route, p, table) order
    worst = (-1.0, "", 0, 0)
    for route, columns, check, scale in (
            ("walsh", lambda n, bits: _fwht_columns(bits), partial(_check_spectra, n), 1),
            ("circuit", _circuit_columns, _check_normalized, size),
            ("ancilla", _ancilla_columns, _check_normalized, size)):
        dev = columns(n, bits)
        _check_route(route, check, dev, first, scale, w)
        dev *= scale
        dev -= w
        np.abs(dev, out=dev)
        p, col = np.unravel_index(int(dev.argmax()), dev.shape)
        if dev[p, col] / size > worst[0]:
            worst = (float(dev[p, col] / size), route, first + int(col), int(p))
        del dev  # beside W, one route's block is alive at a time
    return worst


def probabilities(a: Amplitudes) -> np.ndarray:
    """Measurement distribution: entry p is psi(p)^2."""
    return a.amps * a.amps


def sample_measurements(
    a: Amplitudes, shots: int, rng: np.random.Generator
) -> MeasurementHistogram:
    """Counts of ``shots`` independent measurements, as one multinomial draw.

    One ``rng.multinomial`` call over the 2^n outcomes costs O(2^n) whatever
    the shot count; a fixed generator state reproduces it bit for bit.
    Dividing by the sum absorbs the 1e-12 normalization slack, and for
    amplitudes W / 2^n, multiples of 2^-2n, numpy's running sums are exact.
    """
    shots = _index(shots, "shots")
    if not 0 <= shots < 1 << 63:  # the histogram counts in int64
        raise ValueError(f"shots must be in [0, 2^63 - 1], got {_short_repr(shots)}")
    p = probabilities(a)
    p /= p.sum()
    counts = rng.multinomial(shots, p)
    return MeasurementHistogram(a.n, _Fresh(counts), shots)
