"""Greedy lexicographic search for small full-stopping-distance matrices,
and an exact minimum-row search for tiny codes.

Both searches solve one cover problem.  The candidates are the projective
dual classes, one lead-1 word each, in lexicographic order (the rows of
`full_dual_pcm`); scalar multiples share a support, so they cover alike.
The sets to cover are the i-sets, i = 1..d-1, and a word covers a set it
meets in exactly one position.

The greedy rule repeatedly adjoins the first candidate of maximal score,
where a word scores i points for every yet-uncovered i-set it covers.
Scores only decrease as coverage grows, so a lazy priority queue rescores
only the few candidates that can still be maximal; the selection is
identical to rescoring everything each round.

Both searches read coverage off one kernel, `_bits.meet_once`.  The sets
are stored bit-sliced: plane j is a packed uint64 bitset over the sets
that contain j, each size starting on a word boundary.  For a support c,
two accumulators run over the planes of c (`twice |= once & p;
once ^= p`), and `once & ~twice` marks the sets c meets exactly once, 64
sets per word operation.  Greedy rescores the stale top of its queue in
batches of any mix of weights (at most BATCH_WORDS words of bitsets; a
shorter support reads the empty plane for its missing positions), counts
each size with one `np.add.reduceat` over popcounts, and after each round
rebuilds the planes over the sets still uncovered.  The exact search
builds its cover table in one kernel pass and transposes it, since
meeting in exactly one position is symmetric.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import comb
from typing import List

import numpy as np

from ._bits import (bit_planes, mask_dtype, mask_to_positions, meet_once,
                    pack_rows, support_positions, unpack_words, weight_levels)
from .construct import full_dual_pcm
from .linalg import LinearCode, Matrix, rank
from .stopping import stopping_distance

UNIVERSE_GUARD = 1 << 24
CLASS_GUARD = 128
# words of set bitsets per kernel batch: four such arrays (once, twice, a
# plane row, a temporary) stay within a 1 MiB cache
BATCH_WORDS = 1 << 15


@dataclass(frozen=True)
class RedundancyResult:
    """Outcome of the exact search: value is exact when `exact` is set,
    otherwise only an upper bound (the incumbent when the budget ran out)."""

    value: int
    exact: bool


def greedy_construct(c: LinearCode) -> Matrix:
    """Greedy coverage construction; returns a matrix with s = d(C)."""
    d = c.min_distance()
    n = c.n
    if sum(comb(n, i) for i in range(1, d)) > UNIVERSE_GUARD:
        raise ValueError("tracked i-set universe exceeds the 2^24 guard")
    classes = full_dual_pcm(c)
    masks = classes.row_masks()
    cand = np.array(masks, dtype=mask_dtype(n))
    weights = [m.bit_count() for m in masks]
    positions = support_positions(cand, n)
    # (i, the uncovered i-sets) for each size i = 1..d-1 with any left
    uncovered = list(enumerate(weight_levels(n, d - 1, mask_dtype(n))))[1:]
    planes, starts = bit_planes(n, [level for _, level in uncovered])

    def scores(batch: List[int]) -> List[int]:
        width = max(weights[i] for i in batch)
        once = meet_once(planes, positions[batch, :width])
        met = np.add.reduceat(np.bitwise_count(once), starts, axis=1,
                              dtype=np.int64)
        return (met @ [i for i, _ in uncovered]).tolist()

    # Round 0 has a closed form: every i-set is still uncovered, so a
    # weight-w word covers exactly w * C(n-w, i-1) of each size.
    heap = [(-sum(i * w * comb(n - w, i - 1) for i in range(1, d)), idx, 0)
            for idx, w in enumerate(weights)]
    heapq.heapify(heap)
    chosen: List[int] = []
    while uncovered:
        # (-score, idx, round scored): an entry scored this round tops
        # every upper bound left in the heap, so it is the first maximal.
        # Stale entries are rescored in batches, whatever their weights.
        cap = max(BATCH_WORDS // planes.shape[1], 1)
        while True:
            if not heap:
                raise ValueError("coverage unreachable; dual words exhausted")
            neg, idx, scored = heapq.heappop(heap)
            if scored == len(chosen):
                break
            batch = [idx]
            while len(batch) < cap and heap and heap[0][2] != len(chosen):
                batch.append(heapq.heappop(heap)[1])
            for i, score in zip(batch, scores(batch)):
                heapq.heappush(heap, (-score, i, len(chosen)))
        if neg == 0:
            raise ValueError("coverage unreachable with the available dual words")
        chosen.append(idx)
        once = meet_once(planes, positions[[idx]])
        covered = unpack_words(once)[0]
        kept = [(i, level[covered[64 * start:][:len(level)] == 0])
                for (i, level), start in zip(uncovered, starts)]
        uncovered = [(i, rest) for i, rest in kept if rest.size]
        planes, starts = bit_planes(n, [level for _, level in uncovered])

    # the cover need not span the dual: complete it with the code's checks
    out = Matrix(c.field, classes.data[chosen])
    got = rank(out)
    for row in c.parity_check.data:
        if got == n - c.k:
            break
        wider = Matrix(c.field, np.vstack([out.data, row]))
        if rank(wider) > got:
            out, got = wider, got + 1
    report = stopping_distance(out, cap=d)
    if report.s != d:
        raise ValueError(f"greedy result has stopping distance {report.s} != {d}")
    return out


def exact_stopping_redundancy(c: LinearCode,
                              budget: int = 2_000_000) -> RedundancyResult:
    """Minimum rows of any parity-check matrix for c with s = d(C).

    Branch-and-bound set cover over projective dual classes: rows must
    cover every i-set (i = 1..d-1) and span the dual.  The greedy matrix
    seeds the incumbent.  Exhausting the node budget returns the incumbent
    flagged as an upper bound only.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    n, k, q = c.n, c.k, c.field.q
    # the class count, checked before any dual word is enumerated
    count = (q ** (n - k) - 1) // (q - 1)
    if count > CLASS_GUARD:
        raise ValueError(f"{count} projective dual classes exceed the "
                         f"{CLASS_GUARD} search guard")
    d = c.min_distance()
    classes = full_dual_pcm(c)
    reps = classes.data
    best = greedy_construct(c).n_rows
    nodes = 0

    # the i-sets (i = 1..d-1) by size, then ascending; cover[ci] and
    # coverers[si] pack "candidate ci covers set si" both ways, from one
    # kernel pass over the planes of the sets and its transpose
    sets = np.concatenate(list(weight_levels(n, d - 1, mask_dtype(n))))[1:]
    rows = np.array(classes.row_masks(), dtype=sets.dtype)
    table = unpack_words(meet_once(bit_planes(n, [sets])[0],
                                   support_positions(rows, n)))[:, :len(sets)]
    cover, coverers = pack_rows(table), pack_rows(table.T)

    def deficit(chosen: List[int]) -> int:
        """Rows still needed to span the dual after the chosen classes."""
        return (n - k) - rank(Matrix(c.field, reps[chosen]))

    def dfs(uncovered: int, banned: int, chosen: List[int]) -> bool:
        """Search below one node; False once the node budget is spent."""
        nonlocal best, nodes
        count = len(chosen)
        if uncovered == 0:
            best = min(best, count + deficit(chosen))
            return True
        nodes += 1
        if nodes > budget:
            return False
        allowance = best - 1 - count
        if allowance <= 0:
            return True
        # the cover bound: the allowance of rows covers every set only if
        # some free class covers ceil(|uncovered| / allowance) of them, so
        # the scan stops at the first class that does
        need = -(-uncovered.bit_count() // allowance)
        for ci, bits in enumerate(cover):
            if ((bits & uncovered).bit_count() >= need
                    and not (banned >> ci) & 1):
                break
        else:
            return True
        if deficit(chosen) > allowance:
            return True
        # branch on the first uncovered set with the fewest free coverers
        free = ~banned
        rest, target, fewest = uncovered, 0, None
        while rest:
            si = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            avail = (coverers[si] & free).bit_count()
            if fewest is None or avail < fewest:
                target, fewest = si, avail
                if avail <= 1:
                    break
        for ci in mask_to_positions(coverers[target] & free):
            if not dfs(uncovered & ~cover[ci], banned, chosen + [ci]):
                return False
            banned |= 1 << ci
        return True

    exact = dfs((1 << len(sets)) - 1, 0, [])
    return RedundancyResult(best, exact)
