"""Stopping sets, stopping distance, and i-set coverage.

A stopping set of a parity-check matrix H is a nonempty set of columns such
that no row of H restricted to those columns has exactly one nonzero entry.
Only row supports matter, so both search engines below work on bitmasks.

stopping_distance uses an increasing-size lexicographic subset scan while
the total subset count fits the scan budget, and otherwise a complete
branch-and-bound search (violated-row branching with unit propagation and
a disjoint-support lower bound).  The scan passes each level through the
rows in blocks of _CHUNK subsets; every row keeps only the subsets it does
not cover, so a row costs as many tests as there are subsets still alive
when it is reached, and a block stops at the first row that leaves none.
Besides the level and its survivors, a block needs one block of scratch
memory.  The branch-and-bound is output-sensitive but exponential in the
worst case.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._bits import mask_to_positions, popcount, positions_to_mask, weight_masks
from .linalg import LinearCode, Matrix, mat_mul, rank

SCAN_BUDGET = 1 << 25
_CHUNK = 1 << 20


@dataclass(frozen=True)
class StoppingReport:
    """Result of a stopping-distance search.

    When at_least is set the true stopping distance is >= s (the search was
    capped); otherwise s is exact.  witness is the smallest stopping set
    found, None when none exists below the search limit.
    """

    s: int
    witness: Optional[Tuple[int, ...]]
    at_least: bool = False


def _validate_positions(positions, n: int) -> Tuple[int, ...]:
    raw = [int(p) for p in positions]
    pos = tuple(sorted(set(raw)))
    if len(pos) != len(raw):
        raise ValueError("positions must be distinct")
    if not pos:
        raise ValueError("position set must be nonempty")
    if pos[0] < 0 or pos[-1] >= n:
        raise ValueError(f"position out of range [0, {n})")
    return pos


def is_stopping_set(h: Matrix, positions) -> bool:
    """True iff no row of h restricted to the positions has weight one."""
    pos = _validate_positions(positions, h.n_cols)
    mask = positions_to_mask(pos)
    for r in h.row_masks():
        x = r & mask
        if x and (x & (x - 1)) == 0:
            return False
    return True


def covers(row: Sequence[int], positions) -> bool:
    """True iff exactly one nonzero entry of the row lies in the positions."""
    vec = np.asarray(row)
    pos = _validate_positions(positions, vec.shape[-1])
    return int(np.count_nonzero(vec[list(pos)])) == 1


def _lex_first_mask(masks: np.ndarray, n: int) -> int:
    """Lexicographically first subset (as sorted position tuples) among masks."""
    rev = np.zeros_like(masks)
    one = masks.dtype.type(1)
    for j in range(n):
        rev |= ((masks >> masks.dtype.type(j)) & one) << masks.dtype.type(n - 1 - j)
    return int(masks[int(np.argmax(rev))])


def _scan_level(row_masks: List[int], n: int, size: int) -> Optional[int]:
    """Smallest-lex stopping set of exactly `size` columns, as a mask."""
    level = weight_masks(n, size)
    dt = level.dtype
    rows = [dt.type(r) for r in row_masks]
    found: List[np.ndarray] = []
    for start in range(0, len(level), _CHUNK):
        alive = level[start:start + _CHUNK]
        for r in rows:
            alive = alive[popcount(alive & r) != 1]
            if not alive.size:
                break
        if alive.size:
            found.append(alive)
    if not found:
        return None
    return _lex_first_mask(np.concatenate(found), n)


def _bnb_min_stopping(row_masks: List[int], n: int,
                      limit: int) -> Optional[Tuple[int, int]]:
    """Complete search for a minimum stopping set of size <= limit.

    Returns (size, mask) or None.  Deterministic: branches on the violated
    row with the fewest allowed extensions, positions in ascending order,
    with sibling exclusion so no subset is visited twice.
    """
    rows = [r for r in row_masks if r]
    col_union = 0
    for r in rows:
        col_union |= r
    for j in range(n):  # an all-zero column is a singleton stopping set
        if not (col_union >> j) & 1:
            return (1, 1 << j)

    best: List[Optional[int]] = [limit + 1, None]

    def dfs(cur: int, banned: int, size: int) -> None:
        budget = min(limit, best[0] - 1)
        if size > budget:
            return
        while True:
            violated = []
            for r in rows:
                x = r & cur
                if x and (x & (x - 1)) == 0:
                    allowed = r & ~cur & ~banned
                    if allowed == 0:
                        return
                    violated.append((allowed.bit_count(), allowed))
            if not violated:
                if size < best[0]:
                    best[0] = size
                    best[1] = cur
                return
            forced = 0
            for c, allowed in violated:
                if c == 1:
                    forced |= allowed
            if forced:
                size += (forced & ~cur).bit_count()
                cur |= forced
                budget = min(limit, best[0] - 1)
                if size > budget:
                    return
                continue
            break
        violated.sort()
        used = 0
        lb = 0
        for _, allowed in violated:
            if allowed & used == 0:
                lb += 1
                used |= allowed
        if size + lb > budget:
            return
        _, allowed = violated[0]
        ban = banned
        while allowed:
            b = allowed & -allowed
            allowed ^= b
            dfs(cur | b, ban, size + 1)
            ban |= b
            if best[0] <= size + 1:
                return

    for j in range(n):
        if best[0] == 1:
            break
        dfs(1 << j, (1 << j) - 1, 1)
    if best[1] is None:
        return None
    return best[0], best[1]


def stopping_distance(h: Matrix, cap: Optional[int] = None) -> StoppingReport:
    """Exact smallest stopping-set size of h.

    Without a cap, returns the exact stopping distance, or s = n+1 with no
    witness when no stopping set exists at all.  With a cap, the search is
    limited to sizes < cap; if nothing is found the report carries s = cap
    with at_least set (the true value is >= cap).
    """
    n = h.n_cols
    if n < 1:
        raise ValueError("matrix must have at least one column")
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")
    row_masks = [r for r in h.row_masks() if r]
    limit = n if cap is None else min(cap - 1, n)

    total = sum(comb(n, i) for i in range(1, limit + 1))
    found: Optional[Tuple[int, int]] = None
    if n <= 64 and total <= SCAN_BUDGET:
        for size in range(1, limit + 1):
            mask = _scan_level(row_masks, n, size)
            if mask is not None:
                found = (size, mask)
                break
    else:
        found = _bnb_min_stopping(row_masks, n, limit)

    if found is not None:
        return StoppingReport(found[0], mask_to_positions(found[1]))
    if cap is not None and cap <= n:
        return StoppingReport(cap, None, at_least=True)
    return StoppingReport(n + 1, None)


def verify_full_stopping(c: LinearCode, h: Matrix) -> bool:
    """True iff h is a parity-check matrix for c whose stopping distance
    equals the minimum distance of c.

    Raises ValueError when rows of h do not lie in the dual code.
    """
    if h.field.q != c.field.q:
        raise ValueError("field mismatch between code and matrix")
    prod = mat_mul(c.field, c.generator.data, h.data.T)
    if np.any(prod):
        raise ValueError("matrix rows do not lie in the dual code")
    if rank(h) != c.n - c.k:
        return False
    d = c.min_distance()
    report = stopping_distance(h, cap=d)
    return report.s == d
