"""Walsh transform of Boolean functions and spectral classification.

The Walsh coefficient at p is the signed integer

    W(p) = sum over x of (-1)^(f(x) XOR p.x)

measuring the correlation of f with the linear function x -> p.x.  Two
implementations are provided: ``walsh_naive`` evaluates the double sum
literally and serves as the oracle, ``fwht`` runs the in-place O(n 2^n)
butterfly.  They agree entry for entry on every input.  The 2^n x 2^n
character matrix is the Kronecker product of one factor per group of at most
8 bits, so the literal sum runs as one float32 matrix product per group,
4^n up to n = 8 and about k 2^n 2^ceil(n/k) for k = ceil(n/8) groups above,
and never holds the whole matrix (see ``_naive_columns``).

Spectral facts the classifier relies on; by Parseval it reads every flag
off W(0) and the peak |W| alone (see ``_classify_columns``):

* W(0) = 2^n - 2 * weight(f); balanced functions have W(0) = 0.
* |W(p)| = 2^n at exactly one p iff f is affine, f(x) = k.x XOR c with
  k = p and c read off the coefficient sign (W(k) = (-1)^c * 2^n).
* f is bent iff n is even and |W(p)| = 2^{n/2} for every p, the flat
  spectrum of maximal distance from the affine functions.
* Parseval: sum of W(p)^2 = 4^n for every function.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

from .boolfn import (BitVector, TruthTable, _butterfly, _check_arity, _check_even_arity,
                     _Fresh, _Frozen, _frozen_array, _index, _parity_rows, _signs,
                     _tables_per_block)


def _square_sums(a: np.ndarray) -> np.ndarray:
    """Sum of squares down axis 0, per column of a block too, in float64 without a temporary."""
    return np.einsum("i...,i...->...", a, a, dtype=np.float64)


def _check_spectra(n: int, w: np.ndarray) -> None:
    """What every genuine spectrum, or (2^n, B) block of spectrum columns, satisfies.

    The range is checked first, so each square is an integer of at most 2^48
    and the float64 sums are exact while they stay below 2^53; a sum that
    rounds is at least 2^53, past 4^n, so Parseval is decided exactly.
    """
    size = 1 << n  # even, so the parity check is the low bit of every entry
    if w.min() < -size or w.max() > size or np.bitwise_or.reduce(w, axis=None) & 1:
        raise ValueError(f"coefficients must be in [-{size}, {size}] with its parity")
    if np.any(_square_sums(w) != size * size):
        raise ValueError("coefficient squares must sum to 4^n (Parseval)")


class WalshSpectrum(_Frozen):
    """Signed-integer Walsh coefficients of an n-bit function.

    Construction enforces what every genuine spectrum satisfies: each
    coefficient lies in [-2^n, 2^n] with the parity of 2^n, and the squares
    sum to 4^n (Parseval).
    """

    __slots__ = ("n", "coeffs")

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
        """JSON-friendly form used by the exporters and the CLI: every field but n."""
        d = {f.name: getattr(self, f.name) for f in fields(self)[1:]}
        if self.affine_k is not None:
            d["affine_k"] = self.affine_k.value
        return d


@cache
def _character_matrix(m: int) -> np.ndarray:
    """(-1)^(p.x) for m-bit p (rows) and x (columns), as a read-only float32 matrix.

    ``_naive_columns`` uses it as the factor of one bit group, m <= 8, so the
    largest is 256 x 256 (256 KiB).
    """
    chi = _signs(_parity_rows(np.arange(1 << m), m), np.float32)
    chi.setflags(write=False)
    return chi


def _naive_columns(n: int, bits: np.ndarray) -> np.ndarray:
    """The double sum W(p) of each (2^n, B) table column, as int32.

    Splitting p and x into k = ceil(n/8) groups of near-equal size m_i <= 8,
    (-1)^(p.x) is the product of (-1)^(p_i.x_i) over the groups, so the
    character matrix is the Kronecker product of one factor per group and the
    double sum can be summed one x group at a time.  Each step is one float32
    product: it sums the lowest remaining x group and puts its p group in
    front, so after the last step the axes are in p order.  That is exact:
    every entry and partial sum is an integer of magnitude at most
    2^n <= 2^24, which float32 holds in any summation order.
    """
    k = -(-n // 8)
    sizes = [(n + i) // k for i in range(k)]
    w = _signs(bits, np.float32).reshape([1 << m for m in reversed(sizes)] + [bits.shape[1]])
    for m in sizes:
        w = np.tensordot(_character_matrix(m), w, axes=(1, k - 1))
    return w.reshape(bits.shape).astype(np.int32)


def walsh_naive(tt: TruthTable) -> WalshSpectrum:
    """Literal evaluation of the defining double sum, one bit group at a time.

    Kept deliberately free of the butterfly so it can serve as an
    independent oracle for ``fwht`` at every arity.  The sum runs through one
    character factor per group of at most 8 bits, one float32 product each,
    exact because every partial sum is an integer of magnitude at most 2^24.
    It costs 4^n up to n = 8 and about k 2^n 2^ceil(n/k) for k = ceil(n/8)
    groups above; the cached factors are at most 256 x 256 (256 KiB).
    """
    return WalshSpectrum(tt.n, _Fresh(_naive_columns(tt.n, tt.bits[:, None])[:, 0]))


def _sum_diff(x: np.ndarray, y: np.ndarray, t: np.ndarray | None = None) -> None:
    t = np.subtract(x, y, out=t)
    x += y
    y[:] = t


def _fwht_columns(bits: np.ndarray) -> np.ndarray:
    """Unvalidated int32 Walsh spectra of the (2^n, B) table columns ``bits``."""
    w = _signs(bits, np.int32)
    _butterfly(w, _sum_diff)
    return w


def fwht(tt: TruthTable) -> WalshSpectrum:
    """Fast Walsh transform, O(n 2^n), identical output to walsh_naive."""
    return WalshSpectrum(tt.n, _Fresh(_fwht_columns(tt.bits[:, None])[:, 0]))


def _classify_columns(n: int, w: np.ndarray) -> dict[str, np.ndarray]:
    """Per-column ``Classification`` fields of a (2^n, B) block of spectra.

    Every column must obey Parseval, sum of W(p)^2 = 4^n, as a ``WalshSpectrum``
    or ``_fwht_columns`` of 0/1 tables does; then W(0) and the peak |W| decide:

    * affine iff the peak is 2^n; Parseval leaves room for one such p, so
      k is the argmax and c the sign bit of W(k);
    * bent iff n is even and the peak is 2^{n/2}: 2^n squares no larger
      than 2^n sum to 4^n only if each equals 2^n, so the spectrum is flat;
    * nonlinearity is 2^{n-1} - peak / 2.

    ``affine_k`` and ``affine_c`` are -1 in the columns that are not affine.
    """
    size = 1 << n
    k = np.abs(w).argmax(axis=0)
    top = w[k, np.arange(w.shape[1])]
    peak = np.abs(top)
    is_affine = peak == size
    return {
        "is_constant": np.abs(w[0]) == size,
        "is_balanced": w[0] == 0,
        "is_linear": is_affine & (top > 0),
        "is_affine": is_affine,
        "is_bent": (peak == 1 << (n // 2)) & (n % 2 == 0),
        "affine_k": np.where(is_affine, k, -1),
        "affine_c": np.where(is_affine, top < 0, -1),
        "nonlinearity": (size >> 1) - peak // 2,
    }


def classify(spec: WalshSpectrum) -> Classification:
    """Read constant/balanced/linear/affine/bent flags off the spectrum."""
    columns = _classify_columns(spec.n, spec.coeffs[:, None])
    flags = {name: col.item() for name, col in columns.items()}
    k, c = flags.pop("affine_k"), flags.pop("affine_c")
    return Classification(spec.n, affine_k=None if k < 0 else BitVector(spec.n, k),
                          affine_c=None if c < 0 else c, **flags)


def is_bent(tt: TruthTable) -> bool:
    """True iff the Walsh spectrum of ``tt`` is flat (all |W(p)| = 2^{n/2})."""
    return classify(fwht(tt)).is_bent


def dual_bent(spec: WalshSpectrum) -> TruthTable:
    """Dual of a bent function: the sign pattern of its flat spectrum.

    The dual g satisfies (-1)^g(p) = W(p) / 2^{n/2}; it is itself bent and
    its own dual is the original function.
    """
    if spec.n % 2:
        raise ValueError(f"dual is defined for bent functions only; n = {spec.n} is odd")
    if not classify(spec).is_bent:
        raise ValueError("spectrum is not flat; the function is not bent")
    return TruthTable(spec.n, _Fresh((spec.coeffs < 0).view(np.uint8)))


class ShuffleSearchResult(NamedTuple):
    """Outcome of ``shuffle_search_bent``: table is None when nothing passed."""

    table: TruthTable | None
    iterations: int


def shuffle_search_bent(
    n: int, rng: np.random.Generator, max_iters: int
) -> ShuffleSearchResult:
    """Search for a bent function by randomly shuffling a seed table.

    The seed table has Hamming weight 2^{n-1} - 2^{n/2-1}, the weight every
    bent function of that class must have, so each shuffle draws uniformly
    from the correct weight stratum; the complementary weight class is
    reachable by negating the output.  Returns the first shuffled table
    whose Walsh spectrum is flat, or (None, max_iters) if none is found.

    Candidates are drawn and tested in blocks of ``boolfn._tables_per_block(n)``
    tables (max(1, 2^16 / 2^n), ``boolfn._BLOCK_ENTRIES`` entries), never past
    ``max_iters``, in the order of successive ``rng.permutation`` calls, so the
    table and count depend on the seed alone, not on the block size.  After a
    hit ``rng`` has advanced to the end of that block.
    """
    n = _check_even_arity(n)
    max_iters = _index(max_iters, "max_iters")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    size = 1 << n
    seed = np.zeros(size, dtype=np.uint8)
    seed[: (1 << (n - 1)) - (1 << (n // 2 - 1))] = 1
    per_block = _tables_per_block(n)
    for done in range(0, max_iters, per_block):
        rows = rng.permuted(np.tile(seed, (min(per_block, max_iters - done), 1)), axis=1)
        hits = np.flatnonzero(_classify_columns(n, _fwht_columns(rows.T.copy()))["is_bent"])
        if hits.size:
            return ShuffleSearchResult(TruthTable(n, rows[hits[0]]), done + int(hits[0]) + 1)
    return ShuffleSearchResult(None, max_iters)
