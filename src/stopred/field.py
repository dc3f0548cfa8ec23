"""Arithmetic and symbol I/O for the finite fields GF(q), q = p^m <= 256.

One routine builds every field.  An element's index holds its coefficients
in the polynomial basis 1, x, ..., x^(m-1) as base-p digits, constant
first.  Products are reduced modulo the first monic irreducible polynomial
of degree m in index order: x for prime q, which gives the modular tables;
x^2 + x + 1 for GF(4), x^3 + x + 1 for GF(8), x^2 + 1 for GF(9) and
x^4 + x + 1 for GF(16).  Sums add digits mod p: XOR of indices for q = 2^m.
Complete add/mul/neg/inv tables are built once per field, as numpy arrays
for vectorized code and as Python lists for per-symbol loops and the
scalar ops.  Symbols are the decimal indices, except that GF(4) writes its
elements 0, 1, x, x + 1 as 0 1 w W (W = w + 1 = w^2); GF(3) also reads "-"
for 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

MAX_ORDER = 256


class UnsupportedOrderError(ValueError):
    """Requested field order is not a prime power, or exceeds the limit."""


@dataclass(frozen=True)
class FieldSpec:
    """GF(q), q = p^m: order, characteristic, symbol alphabet, op tables.

    Immutable after construction; safe for unrestricted concurrent reads.
    """

    q: int
    p: int  # the characteristic: the field is prime iff q == p
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
        """a + b.  Over GF(2^m) that is XOR of indices.  A prime field
        adds, then subtracts q where the sum reaches q: in wrapping unsigned
        arithmetic s - q exceeds s exactly when s < q, so that is
        min(s, s - q).  The sum is uint16 for q > 127, where it can pass
        255.  Any other field reads the add table."""
        if self.q % 2 == 0:
            return np.bitwise_xor(a, b, dtype=np.uint8, casting="unsafe")
        if self.q != self.p:
            return self.add_table[a, b]
        s = np.add(a, b, dtype=np.uint16 if self.q > 127 else np.uint8,
                   casting="unsafe")
        np.minimum(s, s - self.q, out=s)
        return s.astype(np.uint8, copy=False)

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.q == 2:
            return np.bitwise_and(a, b, dtype=np.uint8, casting="unsafe")
        return self.mul_table[a, b]

    def __repr__(self) -> str:  # keep dataclass tables out of reprs
        return f"FieldSpec(q={self.q}, p={self.p})"


@functools.lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Build GF(q) for a prime power q <= 256.

    Raises UnsupportedOrderError for any other order.
    """
    p = next((d for d in range(2, MAX_ORDER + 1) if q % d == 0), q)
    m = 1
    while p ** m < q:
        m += 1
    if not 1 < q == p ** m <= MAX_ORDER:
        raise UnsupportedOrderError(f"unsupported field order {q}: "
                                    f"need a prime power <= {MAX_ORDER}")
    place = p ** np.arange(m)
    digits = np.arange(q)[:, None] // place % p  # digits[a, j]: a's x^j
    for low in digits:  # the moduli x^m + low, in index order
        # times[j]: the digits of a * x^j for every a; x moves each digit
        # up one place, and x^m = -low
        shift = np.eye(m, k=1, dtype=np.int64)
        shift[-1] -= low
        times = np.stack([digits @ np.linalg.matrix_power(shift, j) % p
                          for j in range(m)]).reshape(m, -1)

        def product(b):  # a * b for every a, as a (len(b), q) array
            return (b @ times).reshape(len(b), q, m) % p @ place

        # a reducible modulus is some g h with 1 <= deg g <= m/2, and then
        # g h = 0: so only the elements of degree <= m/2 need a test
        if product(digits[1:p ** (m // 2 + 1)])[:, 1:].all():
            break
    add = ((digits[:, None] + digits) % p @ place).astype(np.uint8)
    mul = product(digits).astype(np.uint8)
    neg = (add == 0).argmax(1).astype(np.uint8)
    inv = (mul == 1).argmax(1).astype(np.uint8)  # 0 for 0: no 1 in row 0
    symbols = ("0", "1", "w", "W") if q == 4 else tuple(map(str, range(q)))
    return FieldSpec(q, p, symbols, add, mul, neg, inv)


def parse_symbol(f: FieldSpec, s: str) -> int:
    """Map a display symbol to an element index.

    Fields read the decimal index in ASCII digits only (no sign, underscore
    or other script); GF(3) additionally accepts "-" for the element 2;
    GF(4) reads one of 0, 1, w, W instead.
    """
    if f.q == 4:
        try:
            return f.symbols.index(s)
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
