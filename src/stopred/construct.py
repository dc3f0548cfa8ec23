"""Parity-check matrix constructions whose stopping distance is certified.

Each routine returns a Matrix intended as a (generally redundant)
parity-check matrix; the accompanying tests verify the promised stopping
distance with the search in `stopping`.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import List, Sequence, Tuple

import numpy as np

from ._bits import (mask_to_positions, positions_mask, unpack_rows,
                    weight_levels)
from .bounds import rm_row_count
from .field import make_field
from .linalg import (ENUM_GUARD, EnumerationTooLargeError, LinearCode, Matrix,
                     _enumerate_combinations, _rank_gf2, _rref_stack, rank,
                     rref)


SUPPORT_BLOCK = 1 << 18  # bytes of check rows reduced in one call


class NotMDSError(ValueError):
    """The input code does not meet the Singleton bound with equality."""


def full_dual_pcm(c: LinearCode) -> Matrix:
    """Parity-check matrix made of every nonzero dual codeword.

    Over GF(2) that is all 2^(n-k) - 1 nonzero dual words; over larger
    fields one representative per projective class is kept (scalar
    multiples share a support, hence cover identically).  Rows are in
    lexicographic order; representatives are the lex-first of each class,
    i.e. leading coefficient 1: the projective span of the reduced checks,
    whose message order is lexicographic and whose lead symbol is the
    first nonzero coefficient.
    """
    words = list(_enumerate_combinations(
        c.field, rref(c.parity_check).data, projective=True))
    return Matrix(c.field, np.concatenate(words) if words
                  else np.zeros((0, c.n), dtype=np.uint8))


def combination_pcm(h: Matrix, t_max: int) -> Matrix:
    """All nonzero combinations of at most t_max rows of a full-rank h.

    Row order: combination size ascending, then row subsets in lex order,
    then coefficient tuples in counting order.  Over GF(2) the row count is
    sum(C(r, i) for i = 1..t_max).
    """
    r = h.n_rows
    if rank(h) != r:
        raise ValueError("combination_pcm requires a full-rank input matrix")
    if not 1 <= t_max <= r:
        raise ValueError(f"t_max must be in [1, {r}], got {t_max}")
    q = h.field.q
    total = sum(comb(r, i) * (q - 1) ** i for i in range(1, t_max + 1))
    if total > ENUM_GUARD:
        raise EnumerationTooLargeError(
            f"{total} combination rows exceed the 2^26 guard")
    blocks = []
    for size in range(1, t_max + 1):
        # one (subsets, coefficient tuples, n) block per size
        subsets = np.array(list(combinations(range(r), size)))
        coeffs = np.array(list(product(range(1, q), repeat=size)))
        acc = np.zeros((len(subsets), len(coeffs), h.n_cols), dtype=np.uint8)
        for j in range(size):
            acc = h.field.add_arr(acc, h.field.mul_arr(
                h.data[subsets[:, j], None], coeffs[:, j, None]))
        blocks.append(acc.reshape(-1, h.n_cols))
    return Matrix(h.field, np.concatenate(blocks))


def direct_sum_pcm(h1: Matrix, h2: Matrix) -> Matrix:
    """Block-diagonal stack: checks of the direct sum of the two codes."""
    if h1.field.q != h2.field.q:
        raise ValueError("direct sum requires matrices over the same field")
    top = np.hstack([h1.data, np.zeros((h1.n_rows, h2.n_cols), np.uint8)])
    bot = np.hstack([np.zeros((h2.n_rows, h1.n_cols), np.uint8), h2.data])
    return Matrix(h1.field, np.vstack([top, bot]))


def uu_pcm(h1: Matrix) -> Matrix:
    """Checks for the (u,u) doubling of the code of h1.

    Requires s(h1) = d of its code for the doubled stopping distance 2d to
    hold; that precondition is the caller's to certify.
    """
    n = h1.n_cols
    eye = np.eye(n, dtype=np.uint8)
    top = np.hstack([h1.data, np.zeros((h1.n_rows, n), np.uint8)])
    bot = np.hstack([eye, eye])
    return Matrix(h1.field, np.vstack([top, bot]))


def extend_pcm(h: Matrix) -> Matrix:
    """Checks for the extended code (overall parity bit appended).

    Input must be a full-rank binary parity-check matrix of a distance-3
    code; the output [h | 0 ; ~h | 1] has stopping distance 4 with
    2 * rank(h) rows.
    """
    if h.field.q != 2:
        raise ValueError("extension construction is binary only")
    if rank(h) != h.n_rows:
        raise ValueError("extension requires a full-rank parity-check matrix")
    code = LinearCode.from_parity_check(h)
    d = code.min_distance()
    if d != 3:
        raise ValueError(f"extension construction needs distance 3, got {d}")
    comp = (1 - h.data).astype(np.uint8)
    top = np.hstack([h.data, np.zeros((h.n_rows, 1), np.uint8)])
    bot = np.hstack([comp, np.ones((h.n_rows, 1), np.uint8)])
    return Matrix(h.field, np.vstack([top, bot]))


def _rm_validate(r: int, m: int) -> None:
    if m < 0 or not -1 <= r <= m:
        raise ValueError(f"invalid Reed-Muller index r={r}, m={m}")


def _rm_guard(rows: int, m: int) -> None:
    """Refuse a rows x 2^m matrix beyond ENUM_GUARD before building it."""
    if rows << m > ENUM_GUARD:
        raise EnumerationTooLargeError(
            f"{rows} rows of length 2^{m} exceed the 2^26 guard")


def rm_generator(r: int, m: int) -> Matrix:
    """Recursive generator matrix of the Reed-Muller code RM(r, m)."""
    _rm_validate(r, m)
    if r < 0:
        raise ValueError("RM(-1, m) is the zero code; it has no generator")
    _rm_guard(sum(comb(m, i) for i in range(r + 1)), m)
    gf2 = make_field(2)

    def build(rr: int, mm: int) -> np.ndarray:
        if rr == mm:
            return np.eye(1 << mm, dtype=np.uint8)
        if rr == 0:
            return np.ones((1, 1 << mm), dtype=np.uint8)
        a = build(rr, mm - 1)
        b = build(rr - 1, mm - 1)
        top = np.hstack([a, a])
        bot = np.hstack([np.zeros((b.shape[0], a.shape[1]), np.uint8), b])
        return np.vstack([top, bot])

    return Matrix(gf2, build(r, m))


def rm_stopping_pcm(r: int, m: int) -> Matrix:
    """Redundant generator matrix of RM(r, m) with stopping distance 2^(r+1).

    Usable as a parity-check matrix of RM(m-r-1, m).  Recursion duplicates
    are kept so the row count matches rm_row_count(r, m) exactly.
    """
    _rm_validate(r, m)
    if r < 0:
        raise ValueError("RM(-1, m) is the zero code; it has no check matrix")
    _rm_guard(rm_row_count(r, m) if r < m else 1 << m, m)
    gf2 = make_field(2)

    def build(rr: int, mm: int) -> np.ndarray:
        if rr == 0 or rr >= mm - 1:
            return rm_generator(rr, mm).data
        a = build(rr, mm - 1)
        b = build(rr - 1, mm - 1)
        zero = np.zeros((b.shape[0], a.shape[1]), np.uint8)
        return np.vstack([
            np.hstack([a, a]),
            np.hstack([zero, b]),
            np.hstack([b, zero]),
        ])

    return Matrix(gf2, build(r, m))


def _mds_params(c: LinearCode) -> Tuple[int, int, int]:
    d = c.min_distance()
    if d != c.n - c.k + 1:
        raise NotMDSError(f"({c.n},{c.k},{d}) code misses the Singleton bound")
    return c.n, c.k, d


def _weight_supports(n: int, w: int) -> np.ndarray:
    """The weight-w supports over n positions as int masks, in
    colexicographic order (= ascending masks)."""
    if comb(n, w) > (1 << 22):
        raise EnumerationTooLargeError(f"C({n},{w}) exceeds the 2^22 guard")
    return list(weight_levels(n, w, np.dtype(object)))[w]


def _support_rows(c: LinearCode, supports: Sequence[int]) -> Matrix:
    """For each support (an int mask), the dual codeword supported exactly
    on it, with leading entry 1.

    The n-k check rows are reduced with the off-support columns first, then
    the support (a stable sort of the support indicator).  In an MDS code
    those n-k-1 columns are independent, so the last row vanishes on them
    and has its pivot 1 at the first support column.  If they are
    dependent, that pivot falls later and the support check fails.  The
    column orders of a block of supports are reduced in one `_rref_stack`
    call; blocks keep the stack within SUPPORT_BLOCK bytes."""
    n, h = c.n, c.parity_check.data
    rows = np.zeros((len(supports), n), dtype=np.uint8)
    step = max(SUPPORT_BLOCK // max(h.size, 1), 1)
    for start in range(0, len(supports), step):
        block = supports[start:start + step]
        inside = unpack_rows(block, n)
        order = np.argsort(inside, axis=1, kind="stable")
        last = _rref_stack(c.field, h.T[order].transpose(0, 2, 1))[0][:, -1]
        # the sorted indicator is each support's indicator in its order
        bad = np.flatnonzero(((last != 0) != np.sort(inside, axis=1)).any(1))
        if bad.size:
            raise NotMDSError(
                f"no dual codeword with full support on "
                f"{mask_to_positions(int(block[bad[0]]))}; input is not MDS")
        rows[np.arange(start, start + len(block))[:, None], order] = last
    return Matrix(c.field, rows)


def mds_pcm(c: LinearCode) -> Matrix:
    """One dual codeword per (n-d+2)-subset of positions, supports exact.

    The C(n, d-2) rows have rank d-1 and stopping distance d.  Subsets are
    taken in colexicographic order.
    """
    n, _, d = _mds_params(c)
    if d < 2:
        raise ValueError("construction needs d >= 2")
    return _support_rows(c, _weight_supports(n, n - d + 2))


def graham_sloane_partition(n: int, w: int) -> List[List[Tuple[int, ...]]]:
    """Partition all weight-w supports into n constant-weight classes.

    Class of a support S is (sum of (i+1) for i in S) mod n; any two
    members of a class are at Hamming distance >= 4.  Returns n classes
    (possibly empty) sorted by size descending, ties by class label.
    """
    if not 1 <= w <= n:
        raise ValueError(f"need 1 <= w <= n, got w={w}, n={n}")
    classes: List[List[Tuple[int, ...]]] = [[] for _ in range(n)]
    for s in combinations(range(n), w):
        label = sum(i + 1 for i in s) % n
        classes[label].append(s)
    order = sorted(range(n), key=lambda lbl: (-len(classes[lbl]), lbl))
    return [classes[lbl] for lbl in order]


def pruned_mds_pcm(c: LinearCode) -> Matrix:
    """mds_pcm with rows from the largest constant-weight classes removed.

    Removes rows whose supports fall in the min(k, n-k-1) largest classes
    of the weight-(n-d+2) partition; stopping distance d and rank d-1 are
    preserved, with at most (max(d perp, d-1)/n) * C(n, d-2) rows left.
    """
    n, k, d = _mds_params(c)
    if d < 3:
        raise ValueError("pruned construction needs d >= 3")
    d_perp = n - d + 2
    m = min(k, n - k - 1)
    removed = {positions_mask(s, n, "position")[0]
               for cls in graham_sloane_partition(n, d_perp)[:m] for s in cls}
    return _support_rows(c, [s for s in _weight_supports(n, d_perp)
                             if s not in removed])


def weight_one_combination_depth(t: int) -> int:
    """Smallest m such that combining at most m vectors of any basis of
    GF(2)^t always produces a weight-one vector.  Exhaustive over all
    unordered bases; limited to t <= 5.
    """
    if not 1 <= t <= 5:
        raise ValueError("exhaustive basis check is limited to 1 <= t <= 5")
    nonzero = list(range(1, 1 << t))
    subset_indices = [list(combinations(range(t), size))
                      for size in range(1, t + 1)]
    worst = 0
    for cand in combinations(nonzero, t):
        if _rank_gf2(cand) != t:
            continue
        need = None
        for size, idx_list in enumerate(subset_indices, start=1):
            for idx in idx_list:
                acc = 0
                for i in idx:
                    acc ^= cand[i]
                if acc and acc & (acc - 1) == 0:
                    need = size
                    break
            if need is not None:
                break
        worst = max(worst, need)
    return worst
