"""Stopping sets, stopping distance, and i-set coverage.

A stopping set of a parity-check matrix H is a nonempty set of columns such
that no row of H restricted to those columns has exactly one nonzero entry,
so that a peeling pass (`_peel_residues`, the one peel of the package)
leaves it unchanged.  Peeling fails on a pattern exactly when the pattern
contains a stopping set, so no pattern lighter than the stopping distance
fails.  Only row supports matter, so both search engines below work on
bitmasks, packed once per call by `stopping_distance`.

stopping_distance uses an increasing-size lexicographic subset scan while
the total subset count fits the scan budget, and otherwise a complete
branch-and-bound search.  Both return the lexicographically first minimum
stopping set as the witness.

The scan builds each weight level once (`_bits.weight_levels`) and passes
it through the rows in blocks of _CHUNK subsets; every row keeps only the
subsets it does not cover, so a row costs as many tests as there are
subsets still alive when it is reached, and a block stops at the first
row that leaves none.  Besides the level and its survivors, a block needs
one block of scratch memory.

The branch-and-bound branches on violated rows and prunes by a greedy
disjoint-row lower bound.  It expands a block of nodes per numpy pass: a
node is a current set and a banned set, each a row of W = ceil(n/64)
uint64 words, so every width takes one path.  Nodes wait in buckets by
size, and the next block always comes from the largest nonempty bucket,
so each size stores at most the children of one block.  A block is sized
so that each (nodes, rows, W) array holds _CHUNK >> 4 words.  Roots go by
descending column degree, ties by index, and a node branches on the
violated row with the fewest allowed columns, ties to the lower row, so
the tree depends on the column and row order only through ties.  A node
one column short of the best size settles its children in closed form:
one AND over its violated rows gives the columns that make a stopping set,
the same stopping children its subtree holds.  The search is
output-sensitive but exponential in the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._bits import (mask_dtype, mask_to_positions, pack_words,
                    positions_mask, unpack_words, weight_levels,
                    words_to_ints)
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


def _check_set(mask: int, pos: List[int]) -> None:
    """Refuse `positions_mask` output that repeats or is empty."""
    if mask.bit_count() != len(pos):
        raise ValueError("positions must be distinct")
    if not pos:
        raise ValueError("position set must be nonempty")


def _peel_residues(row_masks: Sequence[int], erased):
    """Peeling fixpoint of one pattern mask (an int) or of an array of them:
    a check that meets the erased positions exactly once resolves that one.
    Both forms run the same pass rule, an int by branching on each check,
    an array by multiplying by the single-bit test (x = 0 passes it but
    then clears nothing).  A pattern that a pass leaves unchanged or empty
    is settled.  An array carries only its live patterns into the next
    pass and writes each pass's residues into a copy, so the input array
    is never written."""
    if not isinstance(erased, np.ndarray):
        while True:
            before = erased
            for r in row_masks:
                x = erased & r
                if x and not x & (x - 1):
                    erased ^= x
            if erased == before or not erased:
                return erased
    out, idx = erased.copy(), np.arange(len(erased))
    cur = erased
    while True:
        before = cur
        for r in row_masks:
            x = cur & r
            cur = cur ^ x * (x & (x - 1) == 0)
        live = (cur != before) & (cur != 0)
        out[idx] = cur
        idx, cur = idx[live], cur[live]
        if not len(idx):
            return out


def is_stopping_set(h: Matrix, positions) -> bool:
    """True iff no row of h restricted to the positions has weight one,
    that is, iff one peeling pass leaves the set as it is."""
    mask, pos = positions_mask(positions, h.n_cols, "position")
    _check_set(mask, pos)
    return mask == _peel_residues(h.row_masks(), mask)


def covers(row: Sequence[int], positions) -> bool:
    """True iff exactly one nonzero entry of the row lies in the positions."""
    vec = np.asarray(row)
    if vec.ndim != 1:
        raise ValueError(f"row must be one-dimensional, got shape {vec.shape}")
    mask, pos = positions_mask(positions, len(vec), "position")
    _check_set(mask, pos)
    return int(np.count_nonzero(vec[pos])) == 1


def _lex_first(sets: np.ndarray) -> int:
    """Index of the lexicographically first (as sorted position tuples) of
    equal-size column sets, given as rows of pack_words words.

    Of two sets of one size, the first holds the lowest column of their
    difference; so, column by column, keep only the sets that hold it
    whenever any still kept does.
    """
    bits = unpack_words(sets)
    keep = np.arange(len(sets))
    for col in range(bits.shape[1]):
        held = keep[bits[keep, col] != 0]
        if held.size:
            keep = held
    return int(keep[0])


def _scan_level(rows: np.ndarray, level: np.ndarray) -> Optional[int]:
    """Smallest-lex stopping set among the masks of one weight level, as a
    mask, given the row supports as masks of the level's dtype."""
    found: List[np.ndarray] = []
    for start in range(0, len(level), _CHUNK):
        alive = level[start:start + _CHUNK]
        for r in rows:
            alive = alive[np.bitwise_count(alive & r) != 1]
            if not alive.size:
                break
        if alive.size:
            found.append(alive)
    if not found:
        return None
    found_sets = np.concatenate(found).astype("<u8")
    return int(found_sets[_lex_first(found_sets[:, None])])


def _take(chunks: list, block: int) -> Tuple[np.ndarray, np.ndarray]:
    """Pop up to `block` nodes, as (cur, banned) word arrays, off the end
    of a frontier bucket; the rest of the last chunk taken goes back."""
    curs, bans, got = [], [], 0
    while chunks and got < block:
        cur, banned = chunks.pop()
        curs.append(cur)
        bans.append(banned)
        got += len(cur)
    cur, banned = np.concatenate(curs), np.concatenate(bans)
    if got > block:
        chunks.append((cur[block:], banned[block:]))
        cur, banned = cur[:block], banned[:block]
    return cur, banned


def _bnb_min_stopping(rows: np.ndarray, n: int,
                      limit: int) -> Optional[Tuple[int, int]]:
    """Complete search for a minimum stopping set of size <= limit.

    rows holds the nonzero row supports as pack_words words.  Returns
    (size, mask) of the lexicographically first minimum stopping set, or
    None.  A node is a current set `cur` and a set `banned` of columns its
    subtree never adds.  One rule (Rosnes & Ytrehus, IEEE Trans. IT, 2009):
    a node with no violated row is a stopping set; any other branches on
    the violated row with the fewest allowed columns (ties: the lower row),
    one child per allowed column with the lower ones banned, so no subset
    is visited twice, and a row with no or one allowed column gives no or
    one child.  Every minimum stopping set is reached, because a node is
    pruned only when its size plus the greedy disjoint-row bound exceeds
    the best size so far (at first, limit); so the row order shapes the
    tree through ties, but not the answer.  A node of size best - 1 only
    matters through its stopping children, and cur | c stops iff c lies
    in every violated row and in no row cur misses; with c outside cur
    and banned, these are the stopping sets among the children that the
    branching rule would make, so the closed form reports the same sets.
    """
    m, width = rows.shape
    bits = 64 * width
    single = pack_words(np.eye(bits, dtype=bool))  # column j alone
    below = pack_words(np.tri(bits, k=-1, dtype=bool))  # columns < j
    # roots by descending column degree, so the tree depends on the column
    # order only through ties; each bans the roots before it
    degree = unpack_words(rows)[:, :n].sum(0)
    roots = single[np.argsort(-degree, kind="stable")]
    frontier = {1: [(roots, np.bitwise_or.accumulate(roots) ^ roots)]}
    # _CHUNK >> 4 words per (nodes, rows) array keeps a block's scratch small
    block = max(1, (_CHUNK >> 4) // (max(m, 1) * width))
    best, witness = limit, None  # sizes above best are never explored

    while frontier:
        size = max(frontier)  # deepest first keeps the stored frontier small
        if size > best:
            del frontier[size]
            continue
        cur, banned = _take(frontier[size], block)
        if not frontier[size]:
            del frontier[size]
        # each row's meet count with each node (uint16 is exact below 1024
        # words); one entry per violated (node, row) pair, node by node
        meets = np.bitwise_count(rows & cur[:, None]).sum(-1, dtype=np.uint16)
        node, row = np.divmod(np.flatnonzero(meets == 1), m)
        per_node = np.bincount(node, minlength=len(cur))
        done = per_node == 0

        if size == best - 1 and not done.any():
            # the stopping children, in closed form, replace the block as
            # finished nodes one size deeper
            closed = np.bitwise_and.reduceat(
                rows[row], np.cumsum(per_node) - per_node) & ~(cur | banned)
            hit = np.flatnonzero(closed.any(1))
            missed = np.where((meets[hit] == 0)[..., None], rows, 0)
            closed = closed[hit] & ~np.bitwise_or.reduce(missed, axis=1)
            node, col = np.divmod(np.flatnonzero(unpack_words(closed)), bits)
            cur, size = cur[hit[node]] | single[col], best
            done = np.ones(len(cur), dtype=bool)
        if done.any():
            found = cur[done]
            if witness is not None and size == best:
                found = np.vstack([witness, found])
            witness, best = found[_lex_first(found)][None], size
        if done.all():
            continue
        split = ~done
        node = (np.cumsum(split) - 1)[node]
        cur, banned, per_node = cur[split], banned[split], per_node[split]
        allowed = rows[row] & ~(cur | banned)[node]
        count = np.bitwise_count(allowed).sum(-1)
        # each node's violated rows by allowed count; the entries come row
        # by row, so a stable sort sends ties to the lower row
        allowed = allowed[np.argsort(node * (bits + 1) + count, kind="stable")]
        first = np.cumsum(per_node) - per_node
        # greedy disjoint rows; a node leaves once its verdict is settled
        slack = best - size  # a node is pruned when its bound exceeds this
        used = np.zeros_like(cur)
        lb = np.zeros(len(cur), dtype=np.int64)
        at, i = np.flatnonzero(per_node > slack), 0
        while at.size:
            row = allowed[first[at] + i]
            free = ~(row & used[at]).any(1)
            lb[at] += free
            used[at[free]] |= row[free]
            i += 1
            at = at[(per_node[at] > i) & (lb[at] <= slack)]
        keep = lb <= slack
        pick = allowed[first[keep]]
        node, col = np.divmod(np.flatnonzero(unpack_words(pick)), bits)
        if len(node):
            frontier.setdefault(size + 1, []).append((
                cur[keep][node] | single[col],
                banned[keep][node] | (pick[node] & below[col])))

    if witness is None:
        return None
    return best, words_to_ints(witness)[0]


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
    limit = n if cap is None else min(cap - 1, n)

    total = sum(comb(n, i) for i in range(1, limit + 1))
    found: Optional[Tuple[int, int]] = None
    words = pack_words(h.data != 0)
    words = words[words.any(1)]  # the nonzero row supports
    if n <= 64 and total <= SCAN_BUDGET:
        dt = mask_dtype(n)
        masks = words[:, 0].astype(dt)
        levels = weight_levels(n, limit, dt)
        next(levels)  # weight 0, the empty set, is no stopping set
        for size, level in enumerate(levels, start=1):
            mask = _scan_level(masks, level)
            if mask is not None:
                found = (size, mask)
                break
    else:
        found = _bnb_min_stopping(words, n, limit)

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
    if h.n_cols != c.n:
        raise ValueError(f"matrix has {h.n_cols} columns for a code of "
                         f"length {c.n}")
    prod = mat_mul(c.field, c.generator.data, h.data.T)
    if np.any(prod):
        raise ValueError("matrix rows do not lie in the dual code")
    if rank(h) != c.n - c.k:
        return False
    d = c.min_distance()
    report = stopping_distance(h, cap=d)
    return report.s == d
