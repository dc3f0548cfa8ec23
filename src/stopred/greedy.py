"""Greedy lexicographic search for small full-stopping-distance matrices,
and an exact minimum-row search for tiny codes.

Both searches solve one cover problem.  The candidates are the projective
dual classes, one lead-1 word each, in lexicographic order (the rows of
`full_dual_pcm`); scalar multiples share a support, so they cover alike.
The sets to cover are the i-sets, i = 1..d-1, and a word covers a set it
meets in exactly one position.

The greedy rule repeatedly adjoins the first candidate of maximal score,
where a word scores i points for every yet-uncovered i-set it covers.
While few rows are chosen, every candidate is scored exactly in closed
form (`_closed_scores`): an inclusion-exclusion over the subsets of the
chosen rows, each term a sum over set partitions of products of
popcounts, evaluated over all candidate masks at once in int64.  With no
row chosen it is w * sum over i of i * C(n - w, i - 1) for a weight-w
word.  A round's terms grow with the Bell numbers, so the closed form
runs while `_closed_form_cheaper` holds: while the subsets that hold the
newest row have at most 64 terms per word of uncovered sets (measured).
The uncovered sets are kept as masks, filtered by each adjoined row.

Then the kernel rescores lazily.  Scores only decrease as coverage
grows, so the last exact scores bound the next round's from above, and
one array holds a score or a bound per candidate.  Each kernel round
sorts it, bound descending then index ascending, and rescores in that
order until no bound left can beat the best fresh score or tie it at a
lower index.  Both phases then take the argmax of the array, the first
candidate of maximal score, so the rows are those of rescoring
everything each round, whatever the round at which the phases switch.

Rescoring and the exact search read coverage off one kernel,
`_bits.meet_once`.  The sets are stored bit-sliced: plane j is a packed
uint64 bitset over the sets that contain j, each size starting on a word
boundary.  For a support c, two accumulators run over the planes of c
(`twice |= once & p; once ^= p`), and `once & ~twice` marks the sets c
meets exactly once, 64 sets per word operation.  Greedy builds the planes
when the kernel takes over, rescores its sorted candidates in batches of
any mix of weights (at most BATCH_WORDS words of bitsets; a shorter
support reads the empty plane for its missing positions), counts each
size with one `np.add.reduceat` over popcounts, and after each round
rebuilds the planes over the sets still uncovered.  The exact search
builds its cover table in one kernel pass and transposes it, since
meeting in exactly one position is symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import List, Sequence

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


@lru_cache(maxsize=16)
def _size_points(n: int, d: int) -> np.ndarray:
    """g[k, f] = sum over i = 1..d-1 of i * C(f, i - k), for k = 0..d and
    f = 0..n (row d is zero); read-only."""
    g = np.array([[sum(i * comb(f, i - k) for i in range(max(k, 1), d))
                   for f in range(n + 1)] for k in range(d + 1)],
                 dtype=np.int64)
    g.flags.writeable = False
    return g


def _closed_scores(cand: np.ndarray, rows: Sequence[int], n: int, d: int,
                   start: int = 0) -> np.ndarray:
    """The greedy score of every candidate support c against the i-sets
    (i = 1..d-1) that no support in `rows` meets exactly once; from
    `start` = 2^(t-1) with t rows, only the change that the last row made.

    The score is an inclusion-exclusion over the subsets J of `rows`, with
    sign (-1)^|J|, of N({c} + J): the sum of i over the i-sets that meet c
    and every member of J exactly once.  Such a set takes one position
    from the atom of each block of a partition of {c} + J, the positions
    in every member of the block and in no other member, and its other
    positions from the f positions outside the union.  So N sums, over
    the partitions, the product of the atom sizes times g[blocks, f]
    (`_size_points`).  Subset J is numbered by its bits (bit j for
    rows[j]), and only those numbered from `start` on are summed; from
    2^(t-1) on, they are the subsets that hold the last row.

    A partition of {c} + J is one of J with c in a block of its own or in
    one of J's blocks.  Let region(B) hold the positions in every member
    of B and in no other member of J (region(empty) those in none),
    a = |c & region(B)| and b = |region(B)| - a.  Then f = b(empty); with
    c alone the atoms are a(empty) and each b, and with c in block B, a
    replaces that block's b.  The walk builds J's partitions block by
    block, the block of the lowest member left first.  It skips a block
    with an empty region, whose partitions all have an empty atom, and
    stops at d - 1 blocks, past which g is zero.  Each term counts
    distinct sets, at most UNIVERSE_GUARD * (d - 1) of them, so no int64
    sum can overflow.
    """
    dt = cand.dtype.type
    g = _size_points(n, d)
    met = {}

    def meets(region: int):
        """(a, b) of a region, per candidate, as uint8."""
        if region not in met:
            a = np.bitwise_count(cand & dt(region))
            met[region] = a, region.bit_count() - a
        return met[region]

    def walk(regions: list, rest: int, p0, p1, k: int, sums: dict) -> None:
        """Into sums[k], the partitions into k blocks of J's members: p0
        sums prod(b), p1 the products with one b swapped for its a."""
        if not rest:
            s0, s1 = sums.get(k, (0, 0))
            sums[k] = s0 + p0, s1 + p1
            return
        if k == d - 1:
            return
        low = rest & -rest
        others = pick = rest ^ low
        while True:
            block = low | pick
            if regions[block]:
                a, b = meets(regions[block])
                if k:
                    walk(regions, rest ^ block, p0 * b, p1 * b + p0 * a,
                         k + 1, sums)
                else:  # the products grow past uint8
                    walk(regions, rest ^ block, b.astype(np.int64),
                         a.astype(np.int64), 1, sums)
            if not pick:
                break
            pick = (pick - 1) & others

    total = np.zeros(len(cand), dtype=np.int64)
    # venn[J][B] = region(B) of J: the regions of J less its last member,
    # each split by that member
    venn = [[(1 << n) - 1]]
    for sub in range(1 << len(rows)):
        if sub:
            top = sub.bit_length() - 1
            r = rows[top]
            regions = venn[sub ^ 1 << top]
            venn.append([x & ~r for x in regions] + [x & r for x in regions])
        if sub < start:
            continue
        regions = venn[sub]
        alone, free = meets(regions[0])
        sums = {}
        walk(regions, len(regions) - 1, 1, 0, 0, sums)
        part = 0
        for k, (p0, p1) in sums.items():
            part = part + alone * p0 * g[k + 1][free] + p1 * g[k][free]
        if sub.bit_count() % 2:
            total -= part
        else:
            total += part
    return total


def _closed_form_cheaper(t: int, words: int) -> bool:
    """Whether round t, after t >= 1 chosen rows, scores in closed form,
    with `words` words of uncovered sets in the kernel's planes.

    The round sums the terms of the subsets that hold the t-th row:
    sum over j of C(t - 1, j) * Bell(j + 2), that is 2, 7, 27, 114, 523,
    2589, 13744, 77821, ... (fewer are evaluated: blocks with an empty
    region and partitions past d - 1 blocks drop out).  The closed form
    pays off while these terms number at most the 64 set slots of each
    word.  Measured on a 2-vCPU Xeon with numpy 2.4, greedy in full, best
    of 5 in three processes, with the last closed round swept over
    t = 0..8: the rule's choice was within 2% of the fastest point for
    the Golay code (t <= 7, 184 ms; 468 ms with round 0 alone), the
    ternary Golay code (t <= 5, 11.6 against 14.0 ms), eh16, th13 and the
    hexacode (1.3, 0.9 and 0.8 ms against 1.8, 1.1 and 0.9 ms), and
    within the run-to-run spread of it for RM(2,5) (t <= 8, 2.0-2.5 s
    against 6.5-7.5 s at t <= 3).  Each further closed round costs 2-4
    times the last (h24: 6, 21 and 52 ms at t = 6, 7, 8), while a kernel
    round there takes 2-10 ms.
    """
    bell = [1]
    for m in range(t + 1):
        bell.append(sum(comb(m, j) * bell[j] for j in range(m + 1)))
    terms = sum(comb(t - 1, j) * bell[j + 2] for j in range(t))
    return terms <= 64 * words


def greedy_construct(c: LinearCode) -> Matrix:
    """Greedy coverage construction; returns a matrix with s = d(C)."""
    d = c.min_distance()
    n = c.n
    sets = sum(comb(n, i) for i in range(1, d))
    if sets > UNIVERSE_GUARD:
        raise ValueError(f"{sets} i-sets of size < d exceed the 2^24 guard")
    classes = full_dual_pcm(c)
    masks = classes.row_masks()
    dt = mask_dtype(n)
    cand = np.array(masks, dtype=dt)
    # (i, the uncovered i-sets) for each size i = 1..d-1 with any left
    uncovered = list(enumerate(weight_levels(n, d - 1, dt)))[1:]
    chosen: List[int] = []
    positions = support_positions(cand, n)
    # exact scores while the closed form runs, upper bounds once the kernel
    # has taken over (scores only fall as coverage grows); a chosen
    # candidate holds -1
    score = _closed_scores(cand, [], n, d)
    closed = True
    while uncovered:
        if not closed:
            # rescore in batches, bound descending then index ascending,
            # until the next bound can neither beat the best fresh score
            # nor tie it at a lower index: the key ascends along the order,
            # so that is one comparison with the least fresh key
            order = np.argsort(-score, kind="stable")
            key = order - score[order] * len(cand)
            cap = max(BATCH_WORDS // planes.shape[1], 1)
            best = len(cand)  # above the key of every candidate not chosen
            for lo in range(0, len(order), cap):
                if key[lo] > best:
                    break
                batch = order[lo:lo + cap]
                width = np.bitwise_count(cand[batch]).max()
                once = meet_once(planes, positions[batch, :width])
                met = np.add.reduceat(np.bitwise_count(once), starts, axis=1,
                                      dtype=np.int64)
                score[batch] = met @ [i for i, _ in uncovered]
                best = min(best, (batch - score[batch] * len(cand)).min())
        # the first candidate of maximal score: any bound not rescored is
        # below its score, or ties it at a higher index
        idx = int(np.argmax(score))
        if score[idx] <= 0:
            raise ValueError("coverage unreachable with the available dual words")
        chosen.append(idx)
        kept = [(i, level[np.bitwise_count(level & cand[idx]) != 1])
                for i, level in uncovered]
        uncovered = [(i, rest) for i, rest in kept if rest.size]
        closed = closed and _closed_form_cheaper(
            len(chosen), sum(-(-len(level) // 64) for _, level in uncovered))
        if closed:
            score += _closed_scores(cand, [masks[i] for i in chosen], n, d,
                                    start=1 << len(chosen) - 1)
        elif uncovered:
            planes, starts = bit_planes(n, [level for _, level in uncovered])
        score[idx] = -1

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

    # the i-sets (i = 2..d-1) by size, then ascending; cover[ci] and
    # coverers[si] pack "candidate ci covers set si" both ways, from one
    # kernel pass over the planes of the sets and its transpose.  The
    # 1-sets need no cover: with d >= 2 no unit vector is a codeword, so
    # every position lies in the support of some dual word, and the rows
    # that complete the span meet each position.
    sets = np.concatenate(list(weight_levels(n, d - 1, mask_dtype(n))))[1 + n:]
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
