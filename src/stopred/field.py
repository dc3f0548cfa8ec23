"""Arithmetic and symbol I/O for the small finite fields GF(p) and GF(4).

Elements are plain ints in [0, q).  GF(4) uses the polynomial basis
x^2 = x + 1 with elements ordered 0, 1, w, W (W = w + 1 = w^2), so addition
is XOR of indices, as in GF(2).  Prime fields use ordinary modular
arithmetic.  Complete add/mul/neg/inv tables are built once per field, as
numpy arrays for vectorized code and as Python lists for per-symbol loops
and the scalar ops.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

MAX_ORDER = 256


class UnsupportedOrderError(ValueError):
    """Requested field order is not prime and not 4, or exceeds the limit."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# GF(4) multiplication in the basis x^2 = x + 1, indices (0, 1, w, W).
_GF4_MUL = np.array(
    [[0, 0, 0, 0],
     [0, 1, 2, 3],
     [0, 2, 3, 1],
     [0, 3, 1, 2]], dtype=np.uint8)

_GF4_SYMBOLS = ("0", "1", "w", "W")


@dataclass(frozen=True)
class FieldSpec:
    """A small finite field: order, kind, symbol alphabet, and op tables.

    Immutable after construction; safe for unrestricted concurrent reads.
    """

    q: int
    kind: str  # "prime" | "gf4"
    symbols: tuple
    add_table: np.ndarray = dc_field(repr=False, compare=False)
    mul_table: np.ndarray = dc_field(repr=False, compare=False)
    neg_table: np.ndarray = dc_field(repr=False, compare=False)
    inv_table: np.ndarray = dc_field(repr=False, compare=False)
    add_list: list = dc_field(init=False, repr=False, compare=False)
    mul_list: list = dc_field(init=False, repr=False, compare=False)
    neg_list: list = dc_field(init=False, repr=False, compare=False)
    inv_list: list = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the same tables as lists of Python ints: indexing a list is far
        # cheaper than indexing an array one element at a time
        for op in ("add", "mul", "neg", "inv"):
            object.__setattr__(self, f"{op}_list",
                               getattr(self, f"{op}_table").tolist())

    def add(self, a: int, b: int) -> int:
        return self.add_list[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_list[a][b]

    def neg(self, a: int) -> int:
        return self.neg_list[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_list[a]

    # Vectorized variants used by the linear-algebra layer: element arrays
    # in (any integer dtype, entries in [0, q)), uint8 arrays out.

    def add_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a + b.  A prime field adds, then subtracts q where the sum
        reaches q: in wrapping unsigned arithmetic s - q exceeds s exactly
        when s < q, so that is min(s, s - q).  The sum is uint16 for
        q > 127, where it can pass 255."""
        if self.q % 2 == 0:
            return np.bitwise_xor(a, b, dtype=np.uint8, casting="unsafe")
        s = np.add(a, b, dtype=np.uint16 if self.q > 127 else np.uint8,
                   casting="unsafe")
        np.minimum(s, s - self.q, out=s)
        return s.astype(np.uint8, copy=False)

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.q == 2:
            return np.bitwise_and(a, b, dtype=np.uint8, casting="unsafe")
        return self.mul_table[a, b]

    def __repr__(self) -> str:  # keep dataclass tables out of reprs
        return f"FieldSpec(q={self.q}, kind={self.kind!r})"


@functools.lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Build GF(q) for prime q <= 256 or q = 4.

    Raises UnsupportedOrderError for any other order.
    """
    if q == 4:
        add = np.bitwise_xor.outer(np.arange(4, dtype=np.uint8),
                                   np.arange(4, dtype=np.uint8))
        mul = _GF4_MUL.copy()
        neg = np.arange(4, dtype=np.uint8)  # characteristic 2
        inv = np.array([0, 1, 3, 2], dtype=np.uint8)  # w * W = 1
        return FieldSpec(4, "gf4", _GF4_SYMBOLS, add, mul, neg, inv)
    if not _is_prime(q) or q > MAX_ORDER:
        raise UnsupportedOrderError(
            f"unsupported field order {q}: need a prime <= {MAX_ORDER} or 4")
    idx = np.arange(q, dtype=np.int64)
    add = ((idx[:, None] + idx[None, :]) % q).astype(np.uint8)
    mul = ((idx[:, None] * idx[None, :]) % q).astype(np.uint8)
    neg = ((-idx) % q).astype(np.uint8)
    inv = np.zeros(q, dtype=np.uint8)
    for a in range(1, q):
        inv[a] = pow(a, q - 2, q)
    symbols = tuple(str(i) for i in range(q))
    return FieldSpec(q, "prime", symbols, add, mul, neg, inv)


def parse_symbol(f: FieldSpec, s: str) -> int:
    """Map a display symbol to an element index.

    Prime fields read the decimal index in ASCII digits only (no sign,
    underscore or other script); GF(3) additionally accepts "-" for the
    element 2; GF(4) reads one of 0, 1, w, W.
    """
    if f.kind == "gf4":
        try:
            return _GF4_SYMBOLS.index(s)
        except ValueError:
            raise ValueError(f"{s!r} is not a GF(4) symbol (0, 1, w, W)") from None
    if f.q == 3 and s == "-":
        return 2
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"{s!r} is not a GF({f.q}) symbol")
    v = int(s)
    if not 0 <= v < f.q:
        raise ValueError(f"symbol {s!r} out of range for GF({f.q})")
    return v


def render_symbol(f: FieldSpec, a: int) -> str:
    """Canonical display symbol for an element (ternary 2 renders as "2")."""
    if not 0 <= a < f.q:
        raise ValueError(f"element index {a} out of range for GF({f.q})")
    return f.symbols[a]
