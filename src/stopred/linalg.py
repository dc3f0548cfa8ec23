"""Matrices and linear codes over GF(q).

Matrices are dense numpy uint8 grids of element indices, over any field.
A `Matrix` is immutable, so it caches the two forms that the decoders read
on every call: its rows packed into ints, and the rank, columns and pivot
bits of its reduced row basis.  Reduced forms come from one elimination
engine, `_rref_stack`, which reduces a (B, m, n) stack of matrices with one
column step for the whole stack; `_rref` reduces one matrix as the stack of
one.  One reduced form gives a matrix's row basis and, by `_kernel`, its
nullspace.  Every codeword set comes from one span engine,
`_enumerate_combinations`, which extends the span of a basis row by row
with field adds; it also gives one word per projective class, the
combinations whose first nonzero coefficient is 1: the words that
`LinearCode.min_distance`, H* (`construct.full_dual_pcm`) and the ML
lattice of `erasure` read, since a multiple has the same support.
Ranks come from two elimination kernels that share one rule: a vector is
reduced by the earlier basis vectors at their pivots.  `_rank_gf2` works on
vectors packed into ints; it takes one mask or an array of masks, so the
same loop gives the rank of one column subset or of a batch of them.
`_rank_gfq` works on lists of element indices through the field's list
tables, for q > 2.  `_rank` hands either kernel the fewer of an array's
rows and columns.

All enumeration routines refuse to expand more than ENUM_GUARD states.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ._bits import pack_rows
from .field import FieldSpec

ENUM_GUARD = 1 << 26
SPAN_BLOCK = 1 << 16  # codewords per enumerated block


class EnumerationTooLargeError(ValueError):
    """An enumeration would exceed ENUM_GUARD states."""


class Matrix:
    """Dense matrix over a FieldSpec; rows are checks, columns positions.

    `data` is a read-only copy of the rows given, so the two forms derived
    from it are built on first use and kept: the packed row supports
    (`row_masks`, an immutable tuple that every caller shares) and the ML
    form (`_ml_form`): the rank, the columns of the RREF row basis, and
    for each column the bit of its pivot row, 0 for a non-pivot column.
    """

    __slots__ = ("field", "data", "_masks", "_ml")

    def __init__(self, field: FieldSpec, rows):
        raw = np.asarray(rows)
        if raw.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        q = field.q
        if raw.size:
            if raw.dtype.kind not in "biu":
                raise ValueError(f"GF({q}) entries must be integers, "
                                 f"got {raw.dtype} entry {raw.flat[0]}")
            if raw.dtype.kind == "i" and raw.min() < 0:
                raise ValueError(f"entry {raw.min()} out of range for GF({q})")
            if raw.max() >= q:
                raise ValueError(f"entry {raw.max()} out of range for GF({q})")
        self.field = field
        self.data = raw.astype(np.uint8)  # a copy: the caller's stays writable
        self.data.flags.writeable = False
        self._masks: Optional[Tuple[int, ...]] = None
        self._ml: Optional[Tuple[int, tuple, Tuple[int, ...]]] = None

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    def row_masks(self) -> Tuple[int, ...]:
        """Support of each row packed into an int (bit j = column j
        nonzero), built once; a tuple, so the cached masks cannot change."""
        if self._masks is None:
            self._masks = tuple(pack_rows(self.data != 0))
        return self._masks

    def _ml_form(self) -> Tuple[int, tuple, Tuple[int, ...]]:
        """(rank, column j of the RREF row basis for each j, pivot bit of
        each j).  Columns are packed ints over the basis rows for q = 2,
        lists of element indices otherwise.  A pivot column is the unit
        vector of its row i, and its pivot bit is 1 << i; every other
        column has pivot bit 0.  Row operations keep every dependency among
        the columns, so a column subset of the basis is independent exactly
        when that of the matrix is."""
        if self._ml is None:
            a, pivots = _rref(self.field, self.data)
            cols = a[:len(pivots)].T
            bits = [0] * self.n_cols
            for i, c in enumerate(pivots):
                bits[c] = 1 << i
            self._ml = (len(pivots), tuple(pack_rows(cols != 0)
                                           if self.field.q == 2
                                           else cols.tolist()), tuple(bits))
        return self._ml

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field.q == other.field.q
                and self.data.shape == other.data.shape
                and bool(np.array_equal(self.data, other.data)))

    def __repr__(self) -> str:
        return f"Matrix(GF({self.field.q}), {self.n_rows}x{self.n_cols})"


def mat_mul(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field (plain ndarray in, uint8 ndarray out);
    for q not prime, a sum of outer products through the field's tables."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape[1]} columns "
                         f"against {b.shape[0]} rows")
    if field.q == field.p:
        return ((a.astype(np.int64) @ b.astype(np.int64))
                % field.q).astype(np.uint8)
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for j in range(a.shape[1]):
        acc = field.add_arr(acc, field.mul_arr(a[:, j][:, None], b[j]))
    return acc


def _rref_stack(field: FieldSpec,
                stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of each matrix of a (B, m, n) stack.

    Returns (reduced, pivots): reduced[b] holds matrix b's pivot rows in
    pivot order, then its zero rows; pivots[b] holds the pivot column of
    each of those rows, and n for each zero row.

    One column step serves the whole stack, in place on uint8 through the
    field's tables.  In column c each matrix takes as pivot row one that
    is not a pivot row yet and has a nonzero entry x there: the largest
    such entry, the first of equal ones (the reduced form is unique, so
    the choice does not show).  With p that row scaled by 1/x, each row
    then gets g times p added: g is minus its entry in column c, and 1 - x
    for the pivot row itself, which so becomes p.  A matrix with no such
    row has x = 0 and a zero p, so it does not change.  The rows stay
    where they are until the end, when they are gathered in pivot order;
    rows that never became pivot rows are zero by then.  The loop stops
    once every row is a pivot row.
    """
    a = np.array(stack, dtype=np.uint8, order="C")
    count, m, n = a.shape
    rows = a.reshape(count * m, n)
    one_minus = field.add_table[1][field.neg_table]
    free = np.ones(count * m, dtype=np.uint8)  # 0 once a row is a pivot row
    piv = np.full(count * m, n)
    first = np.arange(count) * m  # each matrix's first row
    left = count * m
    for c in range(n):
        if not left:
            break
        col = rows[:, c]
        cand = col * free
        if not np.count_nonzero(cand):
            continue
        p = cand.reshape(count, m).argmax(1)
        p += first
        x = cand[p]  # 0 where the matrix has no pivot in this column
        prow = field.mul_arr(field.inv_table[x][:, None],
                             rows.take(p, 0)[:, c:])
        g = field.neg_table[col]
        g.put(p, one_minus[x])
        a[:, :, c:] = field.add_arr(a[:, :, c:], field.mul_arr(
            g.reshape(count, m, 1), prow[:, None, :]))
        p = p.compress(x)
        free.put(p, 0)
        piv.put(p, c)
        left -= len(p)
    order = piv.reshape(count, m).argsort(1, kind="stable")
    order += first[:, None]
    return rows[order], piv[order]


def _rref(field: FieldSpec, data: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form of one matrix, as the stack of one:
    (rref array, pivot column list)."""
    a, piv = _rref_stack(field, data[None])
    return a[0], piv[0][piv[0] < data.shape[1]].tolist()


def _rank_gf2(vectors, within=-1):
    """Rank over GF(2) of packed vectors (ints, bit j = coordinate j)
    restricted to the mask `within`: an int, or an array of masks for a
    batch of ranks.  Each vector is reduced by the earlier ones at their
    lowest set bits, which it then lacks, so a nonzero remainder is
    independent of them.  The operators act alike on an int and an array."""
    basis = []
    r = within & 0  # shaped like the batch even with no vectors
    for v in vectors:
        v = v & within
        for b, low in basis:
            v = v ^ b * (v & low != 0)
        basis.append((v, v & (~v + 1)))
        r = r + (v != 0)
    return r


def _rank_gfq(field: FieldSpec, vectors) -> int:
    """Rank over GF(q) of vectors given as lists of element indices.  Each
    vector is reduced by the earlier basis vectors at their pivots, as in
    `_rank_gf2`, through the field's list tables.  A nonzero remainder
    joins the basis with its first nonzero symbol x as pivot and the factor
    s = -1/x, so reducing a vector v by it adds v[p] * s times it."""
    add, mul = field.add_list, field.mul_list
    neg, inv = field.neg_list, field.inv_list
    basis = []
    for v in vectors:
        for p, b, s in basis:
            c = v[p]
            if c:
                m = mul[mul[c][s]]
                v = [add[x][m[y]] for x, y in zip(v, b)]
        for p, x in enumerate(v):
            if x:
                basis.append((p, v, neg[inv[x]]))
                break
    return len(basis)


def _rank(field: FieldSpec, data: np.ndarray) -> int:
    """Rank of an array of element indices.  rank(M) = rank(M^T), so the
    fewer of its rows and columns are reduced."""
    if data.shape[0] > data.shape[1]:
        data = data.T
    if field.q == 2:
        return _rank_gf2(pack_rows(data != 0))
    return _rank_gfq(field, data.tolist())


def rank(m: Matrix) -> int:
    """Row rank over the field; the input is not modified."""
    return _rank(m.field, m.data)


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form with zero rows dropped."""
    a, pivots = _rref(m.field, m.data)
    return Matrix(m.field, a[: len(pivots)])


def _kernel(field: FieldSpec, a: np.ndarray, pivots: List[int]) -> Matrix:
    """Kernel basis of an `_rref` result: free column f gets the row with 1
    at f and -a[r, f] at the pivot column of each row r."""
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), a.shape[1]), dtype=np.uint8)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = field.neg_table[a[:len(pivots), free]].T
    return Matrix(field, basis)


def nullspace(m: Matrix) -> Matrix:
    """Rows form a basis of { x : M x = 0 }; row count = n_cols - rank."""
    return _kernel(m.field, *_rref(m.field, m.data))


def _enumerate_combinations(field: FieldSpec, gen: np.ndarray,
                            projective: bool = False
                            ) -> Iterator[np.ndarray]:
    """Yield blocks of all q^k row combinations of gen, message-counting
    order.  Last row first, row g turns the span S of the rows below it into
    [S, S + g, ..., S + (q-1)g] while that fits SPAN_BLOCK words (the first
    row always joins); each combination of the rows left, from this same
    function, is then added to the whole block.

    With `projective`, yield only the combinations whose first nonzero
    coefficient is 1, one per class of nonzero scalar multiples:
    (q^k - 1) / (q - 1) words, every nonzero one for q = 2.  They are the
    blocks S + g above (message indices [q^j, 2q^j) for row k-1-j), in one
    block, then the rows left's projective words added to the whole span.
    """
    k, n = gen.shape
    q = field.q
    if q ** k > ENUM_GUARD:
        raise EnumerationTooLargeError(
            f"{q}^{k} combinations exceed the 2^26 enumeration guard")
    low, lead = np.zeros((1, n), dtype=np.uint8), []
    split = k
    while split and (len(low) == 1 or len(low) * q <= SPAN_BLOCK):
        split -= 1
        steps = [field.add_arr(low, field.mul_arr(gen[split], c))
                 for c in range(1, q)]
        lead.append(steps[0])
        low = np.concatenate([low] + steps)
    if projective:
        if lead:
            yield np.concatenate(lead)
    elif not split:
        yield low
    if split:
        for high in _enumerate_combinations(field, gen[:split], projective):
            for word in high:
                yield field.add_arr(low, word)


class LinearCode:
    """A linear code defined by a parity-check or generator matrix.

    Stores full-rank generator/parity-check bases and reads the field and
    the length n off the generator.  The minimum distance is computed on
    demand by codeword enumeration and cached together with a
    minimum-weight codeword witness.
    """

    def __init__(self, generator: Matrix, parity_check: Matrix):
        self.field = generator.field
        self.n = generator.n_cols
        self.generator = generator
        self.parity_check = parity_check
        self.k = generator.n_rows
        self._d: Optional[int] = None
        self._d_witness: Optional[np.ndarray] = None

    @classmethod
    def from_parity_check(cls, h: Matrix) -> "LinearCode":
        a, pivots = _rref(h.field, h.data)
        return cls(_kernel(h.field, a, pivots),
                   Matrix(h.field, a[:len(pivots)]))

    @classmethod
    def from_generator(cls, g: Matrix) -> "LinearCode":
        a, pivots = _rref(g.field, g.data)  # dependent rows reduce away
        return cls(Matrix(g.field, a[:len(pivots)]),
                   _kernel(g.field, a, pivots))

    def min_distance(self) -> int:
        """Minimum Hamming weight over nonzero codewords (cached), from one
        word per projective class in ascending message index.  The witness,
        the first minimum-weight word in message order, has leading
        coefficient 1: λc with λ != 1 has a larger index than c."""
        if self._d is not None:
            return self._d
        if self.k == 0:
            raise ValueError("minimum distance undefined for the zero code")
        best = self.n + 1
        for block in _enumerate_combinations(self.field, self.generator.data,
                                             projective=True):
            w = np.count_nonzero(block, axis=1)
            i = int(np.argmin(w))
            if w[i] < best:
                best, self._d_witness = int(w[i]), block[i].copy()
        self._d = best
        return best

    def min_weight_codeword(self) -> np.ndarray:
        """A codeword attaining the minimum distance (enumerates if needed)."""
        self.min_distance()
        return self._d_witness

    def contains(self, vec: np.ndarray) -> bool:
        word = Matrix(self.field, [vec])  # refuses entries outside GF(q)
        if word.n_cols != self.n:
            raise ValueError(f"word of length {word.n_cols} for a code of "
                             f"length {self.n}")
        return not np.any(mat_mul(self.field, self.parity_check.data,
                                  word.data.T))


def min_distance(c: LinearCode) -> int:
    return c.min_distance()


def enumerate_codewords(c: LinearCode) -> Iterator[np.ndarray]:
    """Every codeword exactly once, in message-counting order."""
    for block in _enumerate_combinations(c.field, c.generator.data):
        for row in block:
            yield row


def dual_codewords(c: LinearCode, include_zero: bool = False) -> np.ndarray:
    """All dual codewords as an array, lexicographically sorted by symbols.

    Position 0 is most significant; element indices order 0 < 1 < ... < q-1.
    The all-zero word sorts first and is dropped unless include_zero is set.
    Over a reduced echelon basis, message-counting order is this order: two
    messages first differ in the symbol at their first differing row's pivot.
    """
    words = np.concatenate(list(_enumerate_combinations(
        c.field, rref(c.parity_check).data)))
    return words if include_zero else words[1:]
