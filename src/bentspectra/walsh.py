"""Walsh transform of Boolean functions and spectral classification.

The Walsh coefficient at p is the signed integer

    W(p) = sum over x of (-1)^(f(x) XOR p.x)

measuring the correlation of f with the linear function x -> p.x.  Two
implementations are provided: ``walsh_naive`` evaluates the double sum
literally in O(4^n) and serves as the oracle, ``fwht`` runs the in-place
O(n 2^n) butterfly.  They agree entry for entry on every input.

Spectral facts the classifier relies on:

* W(0) = 2^n - 2 * weight(f); balanced functions have W(0) = 0.
* |W(p)| = 2^n at exactly one p iff f is affine, f(x) = k.x XOR c with
  k = p and c read off the coefficient sign (W(k) = (-1)^c * 2^n).
* f is bent iff n is even and |W(p)| = 2^{n/2} for every p, the flat
  spectrum of maximal distance from the affine functions.
* Parseval: sum of W(p)^2 = 4^n for every function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .boolfn import BitVector, TruthTable, _butterfly, _check_arity, _frozen_array, _FrozenTable

#: walsh_naive materializes the 2^n x 2^n character matrix; past this the
#: quadratic cost is no longer a usable oracle.
NAIVE_MAX_N = 12


def _check_spectra(n: int, w: np.ndarray) -> None:
    """What every genuine spectrum, or (2^n, B) block of spectrum columns, satisfies."""
    size = 1 << n
    if np.any(np.abs(w) > size) or np.any((w - size) & 1):
        raise ValueError(f"coefficients must be in [-{size}, {size}] with its parity")
    if np.any((w.astype(np.int64) ** 2).sum(axis=0) != size * size):
        raise ValueError("coefficient squares must sum to 4^n (Parseval)")


class WalshSpectrum(_FrozenTable):
    """Signed-integer Walsh coefficients of an n-bit function.

    Construction enforces what every genuine spectrum satisfies: each
    coefficient lies in [-2^n, 2^n] with the parity of 2^n, and the squares
    sum to 4^n (Parseval).
    """

    __slots__ = ("n", "coeffs")
    _ARRAY = "coeffs"

    def __init__(self, n: int, coeffs: Sequence[int] | np.ndarray):
        n = _check_arity(n)
        arr = _frozen_array(coeffs, n, np.int32, "coefficients")
        _check_spectra(n, arr)
        self._set(n=n, coeffs=arr)

    def __repr__(self) -> str:
        head = ", ".join(str(int(c)) for c in self.coeffs[:8])
        tail = ", ..." if self.n > 3 else ""
        return f"WalshSpectrum(n={self.n}, coeffs=[{head}{tail}])"


@dataclass(frozen=True)
class Classification:
    """Spectral classification flags plus recovered affine parameters.

    ``affine_k`` and ``affine_c`` are set only when the function is affine;
    ``nonlinearity`` is the Hamming distance to the nearest affine function.
    """

    n: int
    is_constant: bool
    is_balanced: bool
    is_linear: bool
    is_affine: bool
    is_bent: bool
    affine_k: BitVector | None
    affine_c: int | None
    nonlinearity: int

    def as_dict(self) -> dict:
        """JSON-friendly form used by the exporters and the CLI."""
        return {
            "is_constant": self.is_constant,
            "is_balanced": self.is_balanced,
            "is_linear": self.is_linear,
            "is_affine": self.is_affine,
            "is_bent": self.is_bent,
            "affine_k": None if self.affine_k is None else self.affine_k.value,
            "affine_c": self.affine_c,
            "nonlinearity": self.nonlinearity,
        }


@lru_cache(maxsize=4)
def _character_matrix(n: int) -> np.ndarray:
    """(-1)^(p.x) as an int8 matrix with rows p and columns x."""
    idx = np.arange(1 << n, dtype=np.uint16)  # n <= NAIVE_MAX_N fits 16 bits
    # in place after the one temporary, so no freed 4^n-byte buffer stays in the heap
    chi = np.bitwise_count(idx[:, None] & idx[None, :]).view(np.int8)
    chi &= 1
    chi *= -2
    chi += 1
    chi.setflags(write=False)
    return chi


def _naive_columns(n: int, bits: np.ndarray) -> np.ndarray:
    """The double sum W(p) of each (2^n, B) table column, as exact float64 integers."""
    if n > NAIVE_MAX_N:
        raise ValueError(f"the literal sum supports n <= {NAIVE_MAX_N}, got {n}")
    chi = _character_matrix(n)
    signs = 1 - 2 * bits.astype(np.float64)
    out = np.empty(signs.shape)
    # each float64 chunk of chi (at most 32 MiB) is made once per block
    step = max(1, (1 << 22) >> n)
    for lo in range(0, 1 << n, step):
        out[lo : lo + step] = chi[lo : lo + step].astype(np.float64) @ signs
    return out


def walsh_naive(tt: TruthTable) -> WalshSpectrum:
    """Literal evaluation of the defining double sum, O(4^n).

    Kept deliberately free of the butterfly so it can serve as an
    independent oracle for ``fwht``.  Limited to n <= NAIVE_MAX_N because
    the full character matrix is materialized.
    """
    return WalshSpectrum(tt.n, _naive_columns(tt.n, tt.bits[:, None])[:, 0])


def _sum_diff(x: np.ndarray, y: np.ndarray) -> None:
    diff = x - y
    x += y
    y[:] = diff


def _fwht_columns(bits: np.ndarray) -> np.ndarray:
    """Unvalidated int32 Walsh spectra of the (2^n, B) table columns ``bits``."""
    w = 1 - 2 * bits.astype(np.int32)
    _butterfly(w, _sum_diff)
    return w


def fwht(tt: TruthTable) -> WalshSpectrum:
    """Fast Walsh transform, O(n 2^n), identical output to walsh_naive."""
    return WalshSpectrum(tt.n, _fwht_columns(tt.bits[:, None])[:, 0])


def _is_flat(n: int, magnitudes: np.ndarray) -> bool:
    """True iff every |W(p)| equals 2^{n/2}: for even n, the bent spectra."""
    return bool(np.all(magnitudes == 1 << (n // 2)))


def classify(spec: WalshSpectrum) -> Classification:
    """Read constant/balanced/linear/affine/bent flags off the spectrum."""
    n = spec.n
    size = 1 << n
    coeffs = spec.coeffs
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
        is_bent=n % 2 == 0 and _is_flat(n, magnitudes),
        affine_k=affine_k,
        affine_c=affine_c,
        nonlinearity=(size >> 1) - max_abs // 2,
    )


def is_bent(tt: TruthTable) -> bool:
    """True iff the Walsh spectrum of ``tt`` is flat (all |W(p)| = 2^{n/2})."""
    return tt.n % 2 == 0 and _is_flat(tt.n, np.abs(fwht(tt).coeffs))


def dual_bent(spec: WalshSpectrum) -> TruthTable:
    """Dual of a bent function: the sign pattern of its flat spectrum.

    The dual g satisfies (-1)^g(p) = W(p) / 2^{n/2}; it is itself bent and
    its own dual is the original function.
    """
    if spec.n % 2:
        raise ValueError(f"dual is defined for bent functions only; n = {spec.n} is odd")
    if not _is_flat(spec.n, np.abs(spec.coeffs)):
        raise ValueError("spectrum is not flat; the function is not bent")
    return TruthTable(spec.n, (spec.coeffs < 0).astype(np.uint8))
