"""Boolean functions as truth tables, plus the standard generator zoo.

Conventions used throughout the package:

* A Boolean function f: {0,1}^n -> {0,1} is stored as its full truth table,
  an array of 2^n bits where entry x holds f(x).
* Inputs are encoded little-endian: x = sum_j x_j * 2^j, so x_0 is the
  least significant bit of the integer index.
* The inner product k.x is the XOR over positions of k_j AND x_j, i.e. the
  parity of popcount(k & x).

Text formats (accepted everywhere a table is read, emitted by ``text()``):

* binary string of length 2^n, character i (left to right) carries f(i);
* hex string of length 2^n / 4, each character packing four consecutive
  values with the earliest index in the most significant bit of the nibble;
* JSON object ``{"n": <int>, "tt": "<binary-or-hex string>"}``.

A string of 0/1 characters whose length is a power of two is read as
binary; pass an explicit ``n`` to force the hex reading instead.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

#: Hard upper bound on the number of input bits.  2^24 table entries keep
#: the 32-bit Walsh coefficient buffer within ~128 MiB.
MAX_ARITY = 24

_HEX_DIGITS = set(string.hexdigits)


def _check_arity(n: int) -> int:
    n = int(n)
    if not 1 <= n <= MAX_ARITY:
        raise ValueError(f"arity must be in [1, {MAX_ARITY}], got {n}")
    return n


@dataclass(frozen=True)
class BitVector:
    """An n-bit vector (k_{n-1} ... k_0) packed into an unsigned integer."""

    n: int
    value: int

    def __post_init__(self):
        _check_arity(self.n)
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} out of range for {self.n} bits")

    def bit(self, j: int) -> int:
        """Bit j of the vector (j = 0 is the least significant)."""
        if not 0 <= j < self.n:
            raise ValueError(f"bit index {j} out of range for {self.n} bits")
        return (self.value >> j) & 1

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value


def _as_value(k: BitVector | int, n: int, name: str = "k") -> int:
    """Coerce an int or BitVector to a plain value, checking arity."""
    if isinstance(k, BitVector):
        if k.n != n:
            raise ValueError(f"arity mismatch: {name}.n = {k.n}, expected {n}")
        return k.value
    k = int(k)
    if not 0 <= k < (1 << n):
        raise ValueError(f"{name} = {k} out of range for {n} bits")
    return k


def dot(k: BitVector, x: BitVector) -> int:
    """Inner product over GF(2): XOR over bit positions of k_j AND x_j."""
    if k.n != x.n:
        raise ValueError(f"arity mismatch: {k.n} != {x.n}")
    return (k.value & x.value).bit_count() & 1


class _Frozen:
    """Base of the immutable value types.

    ``__init__`` stores each attribute once through ``_set``; afterwards no
    attribute can be rebound or deleted.
    """

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _FrozenTable(_Frozen):
    """Immutable value compared and hashed by n and the array named ``_ARRAY``."""

    __slots__ = ()
    _ARRAY: str

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            return self.n == other.n and np.array_equal(
                getattr(self, self._ARRAY), getattr(other, self._ARRAY)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, getattr(self, self._ARRAY).tobytes()))


def _frozen_array(values, n: int, dtype: type, what: str) -> np.ndarray:
    """Read-only (2^n,) copy of ``values`` as ``dtype``.

    The cast must keep every value: entries that would wrap, truncate or
    lose their imaginary part, NaN and infinities raise ``ValueError``.
    """
    src = np.asarray(values)
    if src.shape != (1 << n,):
        raise ValueError(f"expected {1 << n} {what}, got {src.shape}")
    if np.can_cast(src.dtype, dtype):
        arr = src.astype(dtype)
    else:
        if src.dtype.kind not in "iuf":
            raise ValueError(f"{what} must be real numbers, got dtype {src.dtype}")
        if src.dtype.kind == "f" and np.dtype(dtype).kind in "iu":
            # a float-to-int cast past the range is undefined; NaN fails too
            info = np.iinfo(dtype)
            if not (src.min() >= info.min and src.max() < info.max + 1):
                raise ValueError(f"{what} must be finite and fit {np.dtype(dtype)}")
        arr = src.astype(dtype)
        if not np.array_equal(arr, src):
            raise ValueError(f"{what} change value when cast to {np.dtype(dtype)}")
    arr.setflags(write=False)
    return arr


class TruthTable(_FrozenTable):
    """Truth table of a Boolean function on n bits.

    The table is immutable; ``bits`` is a read-only uint8 array of length
    2^n with entry x equal to f(x).
    """

    __slots__ = ("n", "bits")
    _ARRAY = "bits"

    def __init__(self, n: int, bits: Sequence[int] | np.ndarray):
        n = _check_arity(n)
        arr = _frozen_array(bits, n, np.uint8, "table entries")
        if arr.max(initial=0) > 1:
            raise ValueError("table entries must be 0 or 1")
        self._set(n=n, bits=arr)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, n: int, mask: int) -> "TruthTable":
        """Build from an integer mask where bit x of ``mask`` is f(x)."""
        n = _check_arity(n)
        size = 1 << n
        if not 0 <= mask < (1 << size):
            raise ValueError(f"mask out of range for a {size}-entry table")
        raw = mask.to_bytes((size + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")[:size]
        return cls(n, bits)

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int], int]) -> "TruthTable":
        """Tabulate ``fn`` over all integer inputs in [0, 2^n)."""
        n = _check_arity(n)
        return cls(n, [int(fn(x)) & 1 for x in range(1 << n)])

    @classmethod
    def from_string(cls, text: str, n: int | None = None) -> "TruthTable":
        """Parse the standard text format (binary, hex, or JSON object).

        Without ``n`` a string of 0/1 characters with power-of-two length is
        read as binary; anything else that is valid hex of a power-of-two
        bit count is read as hex.  With ``n`` the length decides the format.
        """
        text = text.strip()
        if not text:
            raise ValueError("empty truth-table string")
        if text.startswith("{"):
            return cls.from_json(text, n=n)

        length = len(text)
        is_binary = set(text) <= {"0", "1"}
        is_hex = set(text) <= _HEX_DIGITS

        if n is not None:
            n = _check_arity(n)
            size = 1 << n
            if length == size and is_binary:
                return cls(n, _bits_from_binary(text))
            if length * 4 == size and is_hex:
                return cls(n, _bits_from_hex(text, size))
            raise ValueError(
                f"string of length {length} is neither a binary (length {size}) "
                f"nor a hex (length {size // 4}) table for n = {n}"
            )

        if is_binary and length >= 2 and length & (length - 1) == 0:
            n = length.bit_length() - 1
            _check_arity(n)
            return cls(n, _bits_from_binary(text))
        if is_hex and (length * 4) & (length * 4 - 1) == 0:
            n = (length * 4).bit_length() - 1
            _check_arity(n)
            return cls(n, _bits_from_hex(text, 1 << n))
        raise ValueError(f"malformed truth-table string: {text[:32]!r}...")

    @classmethod
    def from_json(cls, text: str, n: int | None = None) -> "TruthTable":
        """Parse the JSON form {"n": <int>, "tt": "<string>"}."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed truth-table JSON: {exc}") from exc
        if not isinstance(obj, dict) or "n" not in obj or "tt" not in obj:
            raise ValueError('truth-table JSON must have keys "n" and "tt"')
        jn = int(obj["n"])
        if n is not None and n != jn:
            raise ValueError(f"requested n = {n} but JSON claims n = {jn}")
        return cls.from_string(str(obj["tt"]), n=jn)

    # -- queries ------------------------------------------------------------

    def eval(self, x: BitVector | int) -> int:
        """f(x) for an integer index or a BitVector of matching arity."""
        return int(self.bits[_as_value(x, self.n, "x")])

    __call__ = eval

    def weight(self) -> int:
        """Hamming weight: the number of inputs mapped to 1."""
        return int(self.bits.sum())

    def to_int(self) -> int:
        """Integer mask with bit x equal to f(x)."""
        packed = np.packbits(self.bits, bitorder="little").tobytes()
        return int.from_bytes(packed, "little")

    # -- text formats ---------------------------------------------------------

    def to_binary(self) -> str:
        """Binary string, character i carries f(i)."""
        return (self.bits + ord("0")).astype(np.uint8).tobytes().decode("ascii")

    def to_hex(self) -> str:
        """Hex string, four values per character, earliest index in the MSB."""
        if self.n < 2:
            raise ValueError("hex form needs at least 4 table entries")
        packed = np.packbits(self.bits, bitorder="big").tobytes().hex()
        return packed[: (1 << self.n) // 4]

    def text(self) -> str:
        """Preferred emitted form: binary up to n = 6, hex beyond."""
        return self.to_binary() if self.n <= 6 else self.to_hex()

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "tt": self.text()})

    def __repr__(self) -> str:
        tt = self.text()
        if len(tt) > 32:
            tt = tt[:32] + "..."
        return f"TruthTable(n={self.n}, tt={tt!r})"


def _bits_from_binary(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), np.uint8) - ord("0")


def _bits_from_hex(text: str, size: int) -> np.ndarray:
    raw = bytes.fromhex(text if len(text) % 2 == 0 else text + "0")
    return np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="big")[:size]


class AnfPolynomial(_FrozenTable):
    """Algebraic normal form: XOR of AND-monomials.

    ``coefficients[m]`` is the coefficient of the monomial prod_{j: m_j=1} x_j,
    so coefficient index 0 is the constant term and index 2^n - 1 the full
    product x_0 x_1 ... x_{n-1}.
    """

    __slots__ = ("n", "coefficients", "degree")
    _ARRAY = "coefficients"

    def __init__(self, n: int, coefficients: Sequence[int] | np.ndarray):
        n = _check_arity(n)
        arr = _frozen_array(coefficients, n, np.uint8, "coefficients")
        if arr.max(initial=0) > 1:
            raise ValueError("coefficients must be 0 or 1")
        masks = np.flatnonzero(arr)
        degree = int(np.bitwise_count(masks).max()) if masks.size else 0
        self._set(n=n, coefficients=arr, degree=degree)

    def monomials(self) -> tuple[int, ...]:
        """Masks of the monomials with coefficient 1, ascending."""
        return tuple(int(m) for m in np.flatnonzero(self.coefficients))

    def __repr__(self) -> str:
        return f"AnfPolynomial(n={self.n}, degree={self.degree}, monomials={self.monomials()!r})"


def _mobius_inplace(a: np.ndarray) -> None:
    """Binary Moebius transform: XOR butterfly, its own inverse."""
    size = a.shape[0]
    h = 1
    while h < size:
        m = a.reshape(-1, 2, h)
        m[:, 1, :] ^= m[:, 0, :]
        h <<= 1


def to_anf(tt: TruthTable) -> AnfPolynomial:
    """Algebraic normal form of a truth table (Moebius transform)."""
    a = tt.bits.copy()
    _mobius_inplace(a)
    return AnfPolynomial(tt.n, a)


def from_anf(a: AnfPolynomial) -> TruthTable:
    """Truth table of an ANF polynomial (inverse Moebius transform)."""
    bits = a.coefficients.copy()
    _mobius_inplace(bits)
    return TruthTable(a.n, bits)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def make_constant(n: int, c: int) -> TruthTable:
    """The constant function f(x) = c."""
    n = _check_arity(n)
    c = int(c) & 1
    return TruthTable(n, np.full(1 << n, c, dtype=np.uint8))


def make_affine(n: int, k: BitVector | int, c: int = 0) -> TruthTable:
    """f(x) = k.x XOR c; balanced for k != 0, constant for k = 0."""
    n = _check_arity(n)
    kv = _as_value(k, n)
    c = int(c) & 1
    idx = np.arange(1 << n, dtype=np.int64)
    bits = (np.bitwise_count(idx & kv) & 1).astype(np.uint8) ^ c
    return TruthTable(n, bits)


def _check_even_arity(n: int) -> int:
    n = _check_arity(n)
    if n % 2:
        raise ValueError(f"bent constructions need an even arity, got n = {n}")
    return n


def make_inner_product_bent(n: int) -> TruthTable:
    """The quadratic bent function XOR_i (x_{2i} AND x_{2i+1})."""
    n = _check_even_arity(n)
    idx = np.arange(1 << n, dtype=np.int64)
    bits = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n // 2):
        bits ^= ((idx >> (2 * i)) & (idx >> (2 * i + 1)) & 1).astype(np.uint8)
    return TruthTable(n, bits)


def make_mm_bent(
    half: int, pi: Sequence[int] | np.ndarray, g: TruthTable | None = None
) -> TruthTable:
    """Maiorana-McFarland bent function f(x, y) = x.pi(y) XOR g(y).

    ``x`` is the low half of the input bits and ``y`` the high half;
    ``pi`` must be a permutation of [0, 2^half) and ``g`` (default
    constant 0) an arbitrary function on the high half.  The result is
    bent on n = 2 * half bits for every choice of ``pi`` and ``g``.
    """
    half = int(half)
    if half < 1 or 2 * half > MAX_ARITY:
        raise ValueError(f"half-arity must be in [1, {MAX_ARITY // 2}], got {half}")
    size = 1 << half
    pi_arr = np.asarray(pi, dtype=np.int64)
    if pi_arr.shape != (size,) or not np.array_equal(np.sort(pi_arr), np.arange(size)):
        raise ValueError(f"pi must be a permutation of [0, {size})")
    if g is None:
        g = make_constant(half, 0)
    elif g.n != half:
        raise ValueError(f"arity mismatch: g.n = {g.n}, expected {half}")
    idx = np.arange(1 << (2 * half), dtype=np.int64)
    x = idx & (size - 1)
    y = idx >> half
    bits = (np.bitwise_count(x & pi_arr[y]) & 1).astype(np.uint8) ^ g.bits[y]
    return TruthTable(2 * half, bits)


def random_function(n: int, rng: np.random.Generator) -> TruthTable:
    """Uniformly random function: each table entry an independent fair bit."""
    n = _check_arity(n)
    return TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))


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
    """
    n = _check_even_arity(n)
    max_iters = int(max_iters)
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    from .walsh import is_bent  # deferred: walsh imports this module

    size = 1 << n
    seed = np.zeros(size, dtype=np.uint8)
    seed[: (1 << (n - 1)) - (1 << (n // 2 - 1))] = 1
    for iteration in range(1, max_iters + 1):
        candidate = TruthTable(n, seed[rng.permutation(size)])
        if is_bent(candidate):
            return ShuffleSearchResult(candidate, iteration)
    return ShuffleSearchResult(None, max_iters)
