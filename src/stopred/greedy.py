"""Greedy lexicographic search for small full-stopping-distance matrices,
and an exact minimum-row search for tiny codes.

The greedy rule: among all nonzero dual codewords (lexicographic order),
repeatedly adjoin the first one of maximal score, where a word scores i
points for every yet-uncovered i-set it covers (i = 1..d-1).  Scores only
decrease as coverage grows, so a lazy priority queue evaluates only the
few candidates that can still be maximal; the selection is identical to
rescoring everything each round.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import comb
from typing import List

import numpy as np

from ._bits import (mask_dtype, mask_to_positions, pack_rows, popcount,
                    weight_masks, weight_masks_upto)
from .construct import full_dual_pcm
from .linalg import LinearCode, Matrix, dual_codewords, rank
from .stopping import stopping_distance

UNIVERSE_GUARD = 1 << 24
CLASS_GUARD = 128


@dataclass(frozen=True)
class RedundancyResult:
    """Outcome of the exact search: value is exact when `exact` is set,
    otherwise only an upper bound (the incumbent when the budget ran out)."""

    value: int
    exact: bool


def greedy_construct(c: LinearCode, weighted: bool = True) -> Matrix:
    """Greedy coverage construction; returns a matrix with s = d(C).

    weighted=False scores every uncovered set 1 point regardless of size
    (an experimentation variant; the weighted rule is the default).
    """
    d = c.min_distance()
    n = c.n
    if sum(comb(n, i) for i in range(1, d)) > UNIVERSE_GUARD:
        raise ValueError("tracked i-set universe exceeds the 2^24 guard")
    words = dual_codewords(c, include_zero=False)
    masks = Matrix(c.field, words).row_masks()
    dt = mask_dtype(n)
    cand = [dt.type(m) for m in masks]
    cand_weight = [m.bit_count() for m in masks]
    size_weight = {i: (i if weighted else 1) for i in range(1, d)}

    uncovered = {i: weight_masks(n, i) for i in range(1, d)}

    def score_of(idx: int) -> int:
        total = 0
        cm = cand[idx]
        for i, level in uncovered.items():
            if level.size:
                total += size_weight[i] * int(
                    np.count_nonzero(popcount(level & cm) == 1))
        return total

    # Iteration 0 scores have a closed form: every i-set is still uncovered,
    # so a weight-w word covers exactly w * C(n-w, i-1) of each size.
    score_cache = [
        sum(size_weight[i] * w * comb(n - w, i - 1) for i in range(1, d))
        for w in cand_weight
    ]
    stamp = [0] * len(cand)
    round_no = 0
    heap = [(-s, idx) for idx, s in enumerate(score_cache)]
    heapq.heapify(heap)

    chosen: List[int] = []
    while any(level.size for level in uncovered.values()):
        while True:
            if not heap:
                raise ValueError("coverage unreachable; dual words exhausted")
            neg, idx = heapq.heappop(heap)
            if -neg != score_cache[idx]:
                continue  # superseded entry
            if stamp[idx] == round_no:
                break
            fresh = score_of(idx)
            score_cache[idx] = fresh
            stamp[idx] = round_no
            if fresh == -neg:
                break
            heapq.heappush(heap, (-fresh, idx))
        if score_cache[idx] == 0:
            raise ValueError("coverage unreachable with the available dual words")
        chosen.append(idx)
        cm = cand[idx]
        for i in list(uncovered):
            level = uncovered[i]
            if level.size:
                uncovered[i] = level[popcount(level & cm) != 1]
        heapq.heappush(heap, (-score_cache[idx], idx))
        round_no += 1

    # the cover need not span the dual: complete it with the code's checks
    out = Matrix(c.field, words[chosen])
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
    d = c.min_distance()
    n, k = c.n, c.k
    classes = full_dual_pcm(c)
    if classes.n_rows > CLASS_GUARD:
        raise ValueError(f"{classes.n_rows} projective dual classes exceed the "
                         f"{CLASS_GUARD} search guard")
    reps = classes.data
    best = [greedy_construct(c).n_rows]
    nodes = [0]
    aborted = [False]

    # the i-sets (i = 1..d-1) by size, then ascending; cover[ci] and
    # coverers[si] pack "candidate ci covers set si" both ways
    sets = np.concatenate(weight_masks_upto(n, d - 1))[1:]
    rows = np.array(classes.row_masks(), dtype=sets.dtype)
    hits = popcount(rows[:, None] & sets[None, :]) == 1
    cover = pack_rows(hits)
    coverers = pack_rows(hits.T)

    def dfs(uncovered: int, banned: int, chosen: List[int]) -> None:
        if aborted[0]:
            return
        count = len(chosen)
        if uncovered == 0:
            value = count + max(0, (n - k) - rank(Matrix(c.field, reps[chosen])))
            if value < best[0]:
                best[0] = value
            return
        nodes[0] += 1
        if nodes[0] > budget:
            aborted[0] = True
            return
        allowance = best[0] - 1 - count
        if allowance <= 0:
            return
        max_cover = 0
        for ci, bits in enumerate(cover):
            if not (banned >> ci) & 1:
                got = (bits & uncovered).bit_count()
                if got > max_cover:
                    max_cover = got
        if max_cover == 0:
            return
        lb = max(-(-uncovered.bit_count() // max_cover),
                 (n - k) - rank(Matrix(c.field, reps[chosen])))
        if lb > allowance:
            return
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
        ban = banned
        for ci in mask_to_positions(coverers[target] & free):
            dfs(uncovered & ~cover[ci], ban, chosen + [ci])
            ban |= 1 << ci
            if aborted[0]:
                return

    dfs((1 << len(sets)) - 1, 0, [])
    return RedundancyResult(best[0], exact=not aborted[0])
