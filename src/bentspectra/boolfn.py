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
import operator
import os
import string
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

#: Hard upper bound on the number of input bits.  2^24 table entries keep
#: the 32-bit Walsh coefficient buffer within ~128 MiB.
MAX_ARITY = 24


def _short_repr(value) -> str:
    """``repr(value)`` for a one-line error, cut to 60 characters plus "..." when longer."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def _check_arity(n: int) -> int:
    try:
        n = operator.index(n)  # ints and numpy integers; any other value fails below
    except TypeError:
        pass
    if type(n) is not int or not 1 <= n <= MAX_ARITY:
        raise ValueError(f"arity must be in [1, {MAX_ARITY}], got {_short_repr(n)}")
    return n


def _index(value, what: str) -> int:
    """``operator.index(value)``: ints and numpy integers pass, any other value raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {_short_repr(value)}") from None


@dataclass(frozen=True)
class BitVector:
    """An n-bit vector (k_{n-1} ... k_0) packed into an unsigned integer."""

    n: int
    value: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_arity(self.n))
        object.__setattr__(self, "value", _index(self.value, "value"))
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} out of range for {self.n} bits")

    def bit(self, j: int) -> int:
        """Bit j of the vector (j = 0 is the least significant)."""
        j = _index(j, "bit index")
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
    k = _index(k, name)
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
    attribute can be rebound or deleted.  Two values are equal when they have
    the same type and equal ``__slots__`` attributes, arrays compared entry by
    entry, and equal values hash alike (-0.0 and 0.0 included).
    """

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(self._fields(), other._fields()))

    def __hash__(self) -> int:
        # a + 0 maps -0.0 to 0.0, so the bytes of equal arrays are equal
        return hash(tuple((a + 0).tobytes() if isinstance(a, np.ndarray) else a
                          for a in self._fields()))


class _Fresh:
    """An array the library has just made, handed to a value type to keep uncopied.

    Wrap only a buffer that nothing else refers to: the value type sets it
    read-only and stores it.  A caller's array is never wrapped, so the
    public constructors keep copying what they are given.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen_array(values, n: int, dtype: type, what: str) -> np.ndarray:
    """Read-only (2^n,) copy of ``values`` as ``dtype``; a ``_Fresh`` array itself.

    A ``_Fresh`` array of ``dtype`` is adopted as it is, and of another
    dtype cast once; either way it meets the same checks in the same order.
    The cast must keep every value: entries that would wrap, truncate or
    lose their imaginary part, NaN and infinities raise ``ValueError``.
    """
    fresh = type(values) is _Fresh
    src = values.array if fresh else np.asarray(values)
    if src.shape != (1 << n,):
        raise ValueError(f"expected {1 << n} {what}, got {src.shape}")
    if np.can_cast(src.dtype, dtype):
        arr = src.astype(dtype, copy=not fresh)
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


def _check_bits(bits: np.ndarray) -> None:
    """Every entry of a table, or of a (2^n, B) block of table columns, is 0 or 1."""
    if bits.max(initial=0) > 1:
        raise ValueError("table entries must be 0 or 1")


def _signs(bits: np.ndarray, dtype: type, v: float = 1) -> np.ndarray:
    """(-1)^bits * v as a new C-contiguous ``dtype`` array; -2v + v is -v exactly."""
    out = np.empty(bits.shape, dtype)
    out[...] = bits
    out *= -2 * v
    out += v
    return out


class TruthTable(_Frozen):
    """Truth table of a Boolean function on n bits.

    The table is immutable; ``bits`` is a read-only uint8 array of length
    2^n with entry x equal to f(x).
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: Sequence[int] | np.ndarray):
        n = _check_arity(n)
        arr = _frozen_array(bits, n, np.uint8, "table entries")
        _check_bits(arr)
        self._set(n=n, bits=arr)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, n: int, mask: int) -> "TruthTable":
        """Build from an integer mask where bit x of ``mask`` is f(x)."""
        n = _check_arity(n)
        mask = _index(mask, "mask")
        size = 1 << n
        if not 0 <= mask < (1 << size):
            raise ValueError(f"mask out of range for a {size}-entry table")
        raw = mask.to_bytes((size + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")[:size]
        return cls(n, bits)

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int], int]) -> "TruthTable":
        """Tabulate ``fn`` over all integer inputs in [0, 2^n); each value must be 0 or 1."""
        n = _check_arity(n)
        return cls(n, [fn(x) for x in range(1 << n)])

    @classmethod
    def from_string(cls, text: str, n: int | None = None) -> "TruthTable":
        """Parse the standard text format (binary, hex, or JSON object).

        Without ``n`` it is inferred first: 0/1 characters of power-of-two
        length at least 2 are binary, other valid hex of a power-of-two bit
        count is hex.  Then the length decides the format against 2^n.
        """
        text = text.strip()
        if not text:
            raise ValueError("empty truth-table string")
        if text.startswith("{"):
            return cls.from_json(text, n=n)

        length = len(text)
        raw = text.encode("ascii", "replace")  # non-ASCII becomes "?": neither format
        is_binary = not raw.translate(None, b"01")
        is_hex = not raw.translate(None, string.hexdigits.encode())

        if n is None:  # binary if it can be (0/1 is also hex), else hex
            bits = length if is_binary and length >= 2 else 4 * length
            if not is_hex or bits & (bits - 1):
                raise ValueError(f"malformed truth-table string: {text[:32]!r}...")
            n = bits.bit_length() - 1
        n = _check_arity(n)
        size = 1 << n
        if length == size and is_binary:
            return cls(n, _bits_from_binary(text))
        if length * 4 == size and is_hex:
            return cls(n, _bits_from_hex(text, size))
        raise ValueError(f"string of length {length} is neither a binary (length {size}) "
                         f"nor a hex (length {size // 4}) table for n = {n}")

    @classmethod
    def from_json(cls, text: str, n: int | None = None) -> "TruthTable":
        """Parse {"n": <int>, "tt": "<binary or hex string>"}; any other JSON raises ValueError."""
        obj = _load_json(text, "truth-table")
        if not isinstance(obj, dict) or "n" not in obj or "tt" not in obj:
            raise ValueError('truth-table JSON must have keys "n" and "tt"')
        jn, tt = obj["n"], obj["tt"]
        if type(jn) is not int:
            raise ValueError(f"truth-table JSON needs an integer n, got {_short_repr(jn)}")
        if n is not None and n != jn:
            raise ValueError(f"requested n = {n} but JSON claims n = {_short_repr(jn)}")
        if type(tt) is not str:
            raise ValueError(f"truth-table JSON needs a string tt, got {_short_repr(tt)}")
        return cls.from_string(tt, n=jn)

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


def _load_json(text: str, what: str):
    """``json.loads`` that raises ``ValueError`` on every decode failure, deep nesting included."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from exc


def _bits_from_binary(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), np.uint8) - ord("0")


def _bits_from_hex(text: str, size: int) -> np.ndarray:
    raw = bytes.fromhex(text if len(text) % 2 == 0 else text + "0")
    return np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="big")[:size]


class AnfPolynomial(_Frozen):
    """Algebraic normal form: XOR of AND-monomials.

    ``coefficients[m]`` is the coefficient of the monomial prod_{j: m_j=1} x_j,
    so coefficient index 0 is the constant term and index 2^n - 1 the full
    product x_0 x_1 ... x_{n-1}.  ``degree`` is read off the coefficients
    packed 64 to a word (``_words``).
    """

    __slots__ = ("n", "coefficients", "degree")

    def __init__(self, n: int, coefficients: Sequence[int] | np.ndarray):
        n = _check_arity(n)
        arr = _frozen_array(coefficients, n, np.uint8, "coefficients")
        if arr.max(initial=0) > 1:
            raise ValueError("coefficients must be 0 or 1")
        # monomial 64j + i has degree popcount(j) + popcount(i); per word j, top is
        # 1 + the largest popcount(i) over its set bits i, or 0
        words = _words(arr)
        top = np.zeros(words.size, np.uint8)
        for c, mask in enumerate(_POPCOUNT_MASKS):  # ascending, so the last class set wins
            np.copyto(top, c + 1, where=(words & mask) != 0)
        high = np.bitwise_count(np.arange(words.size, dtype=np.uint32))
        degree = int((high + top)[top > 0].max(initial=1)) - 1
        self._set(n=n, coefficients=arr, degree=degree)

    def monomials(self) -> tuple[int, ...]:
        """Masks of the monomials with coefficient 1, ascending."""
        return tuple(int(m) for m in np.flatnonzero(self.coefficients))

    def __repr__(self) -> str:
        return f"AnfPolynomial(n={self.n}, degree={self.degree}, monomials={self.monomials()!r})"


#: Entries of one worker's scratch block, where each pass runs a column block.
_SCRATCH = 1 << 17
#: Slices of at least this many entries share each pass out over the workers.
_THREAD_ENTRIES = 1 << 20
#: Most workers a pass uses.  Each has a scratch block and a half-size pair
#: temporary, so at the cap a float64 transform's buffers take 4.5 MiB.
_MAX_WORKERS = 3


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: Workers a pass of a large slice uses: the caller and ``_WORKERS - 1`` threads.
_WORKERS = min(_cpus(), _MAX_WORKERS)


def _levels(a: np.ndarray, pair: Callable[..., None], t: np.ndarray) -> None:
    """Every level over axis 0 of a C-contiguous (rows, k) array.

    ``t`` is a flat buffer of at least half of ``a``'s entries for the pair's
    difference.
    """
    rows, width = a.shape
    h = 1
    while h < rows:
        m = a.reshape(-1, 2, h * width)
        x, y = m[:, 0, :], m[:, 1, :]
        pair(x, y, t[: x.size].reshape(x.shape))
        h <<= 1


def _in_threads(run: Callable[..., None], args: list[tuple]) -> None:
    """``run(*args[0])`` in the caller while a thread runs ``run(*a)`` for each later ``a``.

    Every thread is joined before this returns or raises; then the first
    exception a thread raised is raised here.
    """
    errors = []

    def guarded(*a):
        try:
            run(*a)
        except BaseException as exc:  # handed to the caller below
            errors.append(exc)

    threads = []
    try:
        for a in args[1:]:
            threads.append(threading.Thread(target=guarded, args=a))
            threads[-1].start()
        run(*args[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _blocked_pass(view: np.ndarray, pair: Callable[..., None]) -> None:
    """Levels 1 ... L/2 over axis 0 of an (L, C, B) view, in blocks of columns.

    A block is as many columns as fit ``_SCRATCH`` entries, at least one.  A
    view of at least ``_THREAD_ENTRIES`` entries shares its blocks out in
    contiguous runs over ``_WORKERS`` workers, never more than it has blocks.
    Each worker copies a block into its own scratch block, runs all its levels
    there with a pair temporary of half that size, and copies it back.  The
    caller allocates both, so that no thread's malloc arena keeps their pages.
    A block that is the whole C-contiguous view runs in place, and its pass
    allocates only the pair temporary: the copy would be the view as it is.

    A block's shortest contiguous run is chunk * B entries, at level 1.  Each
    worker runs its blocks with numpy's ufunc buffer cut to that run, rounded
    down to the multiple of 16 numpy requires, and never above the caller's
    size.  numpy then runs the pair's ufuncs on the strided halves in place;
    with a longer buffer it copies every operand through the buffer and back.
    The buffer size lives in numpy's ``errstate`` context, so the caller's
    setting comes back when the worker returns or raises.
    """
    rows, cols, width = view.shape
    if rows == 1:
        return
    chunk = max(1, min(_SCRATCH // (rows * width), cols))
    starts = range(0, cols, chunk)
    workers = min(_WORKERS if view.size >= _THREAD_ENTRIES else 1, len(starts))
    bufsize = max(16, min(np.getbufsize(), chunk * width) // 16 * 16)
    size = chunk * rows * width
    copied = not view[:, :chunk].flags.c_contiguous  # else the one block is the whole view

    def run(share, block, t):
        with np.errstate():
            np.setbufsize(bufsize)
            for lo in share:
                part = view[:, lo : lo + chunk]
                if not copied:
                    _levels(part.reshape(rows, -1), pair, t)
                    continue
                work = block[: part.size].reshape(part.shape)
                work[...] = part
                _levels(work.reshape(rows, -1), pair, t)
                part[...] = work

    _in_threads(run, [(share, np.empty(size * copied, view.dtype), np.empty(size // 2, view.dtype))
                      for share in np.array_split(starts, workers)])


def _butterfly(a: np.ndarray, pair: Callable[..., None]) -> None:
    """In-place butterfly over axis -2 of a C-contiguous (..., 2^m, B) array.

    Column b is table b.  Level h hands ``pair`` the rows i and i + h of each
    run of 2h rows; with the table axis innermost each half is h * B
    contiguous entries (Arndt, *Matters Computational*).  No level pairs rows
    of two different (2^m, B) slices, so each leading slice runs all its
    levels in two cache-blocked passes (the four-step split of Bailey, "FFTs
    in external or hierarchical memory") before the next one starts: with
    G = 2^(m//2), levels 1 ... G/2 over the (G, 2^m / G, B) transpose of the
    slice, then levels G ... 2^(m-1) over the slice as (2^m / G, G, B).

    Every entry meets the same partner under the same elementwise ``pair`` in
    the same level order, whatever the blocking and the threads of
    ``_blocked_pass``, so the result is bit-identical to one loop over all
    levels.
    """
    if not a.flags.c_contiguous:
        raise ValueError("the butterfly runs in place on a C-contiguous array")
    size, width = a.shape[-2:]
    group = 1 << (size.bit_length() - 1) // 2
    for sub in a.reshape(-1, size, width):
        groups = sub.reshape(size // group, group, width)
        _blocked_pass(groups.transpose(1, 0, 2), pair)
        _blocked_pass(groups, pair)


def _xor_pair(x: np.ndarray, y: np.ndarray, t: np.ndarray | None = None) -> None:
    y ^= x


#: (h, the bits i of a word whose bit h is clear) for the levels h < 64.
_LEVEL_MASKS = [(h, np.uint64(sum(1 << i for i in range(64) if not i & h)))
                for h in (1, 2, 4, 8, 16, 32)]
#: ``_POPCOUNT_MASKS[c]`` holds the bits i of a word with popcount(i) = c.
_POPCOUNT_MASKS = [np.uint64(sum(1 << i for i in range(64) if i.bit_count() == c))
                   for c in range(7)]


def _words(bits: np.ndarray) -> np.ndarray:
    """0/1 entries packed 64 to a little-endian word: entry x is bit x % 64 of word x // 64."""
    words = np.zeros(-(-bits.size // 64), "<u8")  # below n = 6 one word, its high bits 0
    words.view(np.uint8)[: -(-bits.size // 8)] = np.packbits(bits, bitorder="little")
    return words


def _moebius(bits: np.ndarray) -> np.ndarray:
    """Moebius transform of 2^n 0/1 entries as new uint8 entries; it is its own inverse.

    Level h XORs entry x into entry x + h for each x with bit h clear.  On the
    ``_words`` of the entries the levels h < 64 shift and mask within each
    word, and the rest are the XOR butterfly over the 2^(n-6) words (Arndt,
    *Matters Computational*, ch. 1).  Below n = 6 the high levels fill only
    the padding bits, which are dropped.
    """
    words = _words(bits)
    for h, mask in _LEVEL_MASKS:
        words ^= (words & mask) << h
    _butterfly(words[:, None], _xor_pair)
    return np.unpackbits(words.view(np.uint8), count=bits.size, bitorder="little")


def to_anf(tt: TruthTable) -> AnfPolynomial:
    """Algebraic normal form of a truth table (Moebius transform, on packed words)."""
    return AnfPolynomial(tt.n, _Fresh(_moebius(tt.bits)))


def from_anf(a: AnfPolynomial) -> TruthTable:
    """Truth table of an ANF polynomial (inverse Moebius transform, on packed words)."""
    return TruthTable(a.n, _Fresh(_moebius(a.coefficients)))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _constant_bit(c) -> int:
    """A generator's constant ``c``: the integer 0 or 1, else ValueError."""
    if _index(c, "c") not in (0, 1):
        raise ValueError(f"c must be 0 or 1, got {c}")
    return int(c)


def _parity_rows(k: Sequence[int] | np.ndarray, m: int) -> np.ndarray:
    """k_i.x as uint8, one row per mask k_i and one column per m-bit x.

    With x = (x_hi, x_lo) split at bit m // 2, k.x is k_hi.x_hi XOR k_lo.x_lo,
    so each row is the outer XOR of the parity rows of k_hi and k_lo over the
    two halves of x's bits, written straight into the result: beside it only
    those rows and their uint16 masks, of about 2^(m/2) entries a row, are held.
    """
    k = np.asarray(k, np.uint16)
    lo = m // 2
    high, low = (np.bitwise_count(part[:, None] & np.arange(1 << bits, dtype=np.uint16)) & 1
                 for part, bits in ((k >> lo, m - lo), (k & ((1 << lo) - 1), lo)))
    rows = np.empty((k.size, 1 << (m - lo), 1 << lo), dtype=np.uint8)
    np.bitwise_xor(high[:, :, None], low[:, None, :], out=rows)
    return rows.reshape(k.size, -1)


def make_constant(n: int, c: int) -> TruthTable:
    """The constant function f(x) = c."""
    return make_affine(n, 0, c)


def make_affine(n: int, k: BitVector | int, c: int = 0) -> TruthTable:
    """f(x) = k.x XOR c; balanced for k != 0, constant for k = 0."""
    n = _check_arity(n)
    kv = _as_value(k, n)
    c = _constant_bit(c)
    lo = n // 2  # row y, the bits from lo up, is k_hi.y XOR c XOR the parity row of k_lo
    high, low = _parity_rows([kv >> lo, kv & ((1 << lo) - 1)], n - lo)
    return TruthTable(n, _Fresh(((high ^ c)[:, None] ^ low[: 1 << lo]).ravel()))


def _check_even_arity(n: int) -> int:
    n = _check_arity(n)
    if n % 2:
        raise ValueError(f"bent constructions need an even arity, got n = {n}")
    return n


def make_inner_product_bent(n: int) -> TruthTable:
    """The quadratic bent function XOR_i (x_{2i} AND x_{2i+1})."""
    n = _check_even_arity(n)
    lo = 2 * (n // 4)  # even, so no pair straddles the halves, and n - lo >= lo
    y = np.arange(1 << (n - lo), dtype=np.uint16)
    h = np.bitwise_count(y & (y >> 1) & ((1 << (n - lo)) // 3)) & 1  # bit 2i: x_2i AND x_2i+1
    return TruthTable(n, _Fresh((h[:, None] ^ h[: 1 << lo]).ravel()))  # h(high) XOR h(low)


def make_mm_bent(
    half: int, pi: Sequence[int] | np.ndarray, g: TruthTable | None = None
) -> TruthTable:
    """Maiorana-McFarland bent function f(x, y) = x.pi(y) XOR g(y).

    ``x`` is the low half of the input bits and ``y`` the high half, so row
    y of the table is the parity row of pi(y) XOR g(y); ``pi`` must be a
    permutation of [0, 2^half) and ``g`` (default constant 0) an arbitrary
    function on the high half.  The result is bent for every ``pi`` and ``g``.
    """
    half = _index(half, "half-arity")
    if half < 1 or 2 * half > MAX_ARITY:
        raise ValueError(f"half-arity must be in [1, {MAX_ARITY // 2}], got {half}")
    size = 1 << half
    pi_arr = np.asarray(pi)
    if pi_arr.shape == (size,):  # a wrong shape keeps the permutation message below
        pi_arr = _frozen_array(pi_arr, half, np.int64, "pi entries")
    if pi_arr.shape != (size,) or not np.array_equal(np.sort(pi_arr), np.arange(size)):
        raise ValueError(f"pi must be a permutation of [0, {size})")
    if g is None:
        g = make_constant(half, 0)
    elif g.n != half:
        raise ValueError(f"arity mismatch: g.n = {g.n}, expected {half}")
    rows = _parity_rows(pi_arr, half)
    rows ^= g.bits[:, None]
    return TruthTable(2 * half, _Fresh(rows.ravel()))


#: Table entries one block of tables holds.  ``verify --random`` and
#: ``shuffle_search_bent`` run ``_tables_per_block(n)`` tables at a time, so
#: their memory depends on n and not on how many tables they run.  In
#: ``verify`` each entry costs 1 B of table, 4 B of the literal sum's int32 W
#: and 16 B for the ancilla route's two float64 halves; one butterfly worker,
#: whose buffers ``_blocked_pass`` clamps to the block, adds 1.5 * 2^16
#: float64 (768 KiB).  That is about 2.1 MiB a block, one core's L2 on a
#: 2-core host (6.8 MiB at 2^18).
_BLOCK_ENTRIES = 1 << 16


def _tables_per_block(n: int) -> int:
    """max(1, _BLOCK_ENTRIES / 2^n): the n-bit tables one block holds.

    2^16 / 2^n tables up to n = 16 (256 at n = 8, 16 at n = 12), one above.
    """
    return max(1, _BLOCK_ENTRIES >> n)


def _random_columns(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(2^n, count) block whose columns are ``count`` successive random tables.

    A draw takes one byte per entry from whole 32-bit words, so a 2-entry
    table uses a word of its own: rows of 4 entries keep n = 1 in step.
    """
    rows = rng.integers(0, 2, size=(count, max(4, 1 << n)), dtype=np.uint8)
    return np.ascontiguousarray(rows[:, : 1 << n].T)


def random_function(n: int, rng: np.random.Generator) -> TruthTable:
    """Uniformly random function: each table entry an independent fair bit."""
    n = _check_arity(n)
    return TruthTable(n, _Fresh(_random_columns(n, 1, rng)[:, 0]))
