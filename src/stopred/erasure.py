"""Exact erasure-channel analysis: peeling and ML decoders, undecodable
pattern counts by weight, and decoding-failure curves.

A decoder fails on a pattern exactly when the pattern contains a witness:
a nonempty stopping set for peeling, the support of a nonzero codeword for
ML.  A complete table for n <= LATTICE_MAX_N columns can therefore be
counted on the lattice of all 2^n subsets, one bit per subset: 2 MiB at
n = 24 and 8 MiB at n = 26.  Mark the witnesses, close the marks upwards,
and count them by popcount.  ML also needs q^k within ENUM_GUARD; it
enumerates one codeword per projective class, since scalar multiples
share a support, and ORs each support into its lattice word.  The lattice
runs when its estimated cost is below that of the per-weight path.

Every other table (more columns, a w_max cut, too many codewords, or a
high-rate code or low-rank H, where few patterns need testing) is counted
exhaustively per weight, LATTICE_CHUNK pattern masks at a time: peeling by
`stopping._peel_residues`, which carries into each pass only the patterns
that the last one changed and left nonempty, binary ML by the batched
GF(2) rank of the erased columns (`linalg._rank_gf2`), and ML over q > 2
by the test of `ml_decode` (`Matrix.independent`) one pattern at a time.
Three exact shortcuts avoid pointless enumeration there: once every
pattern of some weight fails, every heavier weight fails too (failure is
monotone under adding erasures); any pattern with more erasures than
rank(H) has linearly dependent columns, so both decoders fail on it; and
no pattern lighter than the stopping distance s(H) contains a stopping
set, so peeling fails on none.  The per-weight peel therefore asks
`stopping_distance` for s(H) first, capped at the heaviest weight it could
enumerate, which is no heavier than w_max, rank(H) and the last level
before the first past WEIGHT_GUARD.  The search thus reaches no further
than the enumeration could, and a weight past that level still raises.

The single-pattern decoders do only the work that depends on the
pattern.  The erased positions become one checked mask through the one
position boundary, `_bits.positions_mask`; a repeated position counts
once.  `iterative_decode` peels that mask on the check matrix's cached
row masks (`Matrix.row_masks`).  `ml_decode` asks `Matrix.independent`,
which reads the cached RREF row basis (`Matrix._ml_form`): its erased
pivot columns are distinct unit vectors, so it ranks only the other
erased columns, on the rows of the pivots not erased, with
`linalg._rank_gf2` or the vector kernel `linalg._rank_gfq`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ._bits import (LATTICE_CHUNK, count_by_popcount, lattice_words,
                    mask_to_positions, pack_words, positions_mask, up_close,
                    weight_masks)
from .linalg import (ENUM_GUARD, EnumerationTooLargeError, LinearCode, Matrix,
                     _enumerate_combinations, _rank_gf2, rank)
from .stopping import _peel_residues, stopping_distance

WEIGHT_GUARD = 1 << 25
LATTICE_MAX_N = 26  # one bit per subset: 2 MiB at n = 24, 8 MiB at n = 26


@dataclass(frozen=True, slots=True)
class PeelOutcome:
    """Result of peeling: recovered positions and the residual stopping set
    (empty residue means full recovery)."""

    recovered: frozenset
    residue: frozenset

    @property
    def success(self) -> bool:
        return not self.residue


@dataclass
class PsiProfile:
    """Per-weight counts of undecodable erasure patterns.

    counts[w] is the number of weight-w patterns the decoder fails on, or
    None when the weight was outside the requested enumeration range.
    """

    n: int
    decoder: str
    counts: List[Optional[int]]

    def __post_init__(self) -> None:
        if len(self.counts) != self.n + 1:
            raise ValueError("counts must cover w = 0..n")
        for w, value in enumerate(self.counts):
            if value is not None and not 0 <= value <= comb(self.n, w):
                raise ValueError(f"count {value} out of range at weight {w}")

    def to_csv(self) -> str:
        if self.counts[self.n] is None:
            raise ValueError(f"weight {self.n} = n is not enumerated; a CSV "
                             f"without it would read back as a shorter code")
        lines = ["w,count"]
        for w, value in enumerate(self.counts):
            if value is not None:
                lines.append(f"{w},{value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "PsiProfile":
        rows = [ln.strip() for ln in text.strip().splitlines()]
        if not rows or rows[0] != "w,count":
            raise ValueError("expected a 'w,count' CSV header")
        if len(rows) == 1:
            raise ValueError("no weight rows follow the 'w,count' header")
        header_line = text[:len(text) - len(text.lstrip())].count("\n") + 1
        pairs = {}
        for line, ln in enumerate(rows[1:], start=header_line + 1):
            # ASCII digits only, as in matrix files; a minus is read so that
            # a negative weight gets its own message
            fields = ln.split(",")
            if len(fields) != 2 or not all(re.fullmatch("-?[0-9]+", f)
                                           for f in fields):
                raise ValueError(f"line {line}: expected two integers "
                                 f"'w,count', got {ln!r}")
            w, count = map(int, fields)
            if w < 0 or w in pairs:
                raise ValueError(f"line {line}: weight {w} is "
                                 f"{'negative' if w < 0 else 'repeated'}")
            pairs[w] = count
        n = max(pairs)
        counts: List[Optional[int]] = [pairs.get(w) for w in range(n + 1)]
        return cls(n, "csv", counts)


_NO_RESIDUE = frozenset()


def iterative_decode(h: Matrix, erased) -> PeelOutcome:
    """Peel: repeatedly resolve any check with exactly one erased position.

    The fixpoint is order-independent; the residue is the unique maximal
    stopping set inside the pattern (empty iff decoding succeeds).
    """
    mask, pos = positions_mask(erased, h.n_cols, "erased position")
    stuck = _peel_residues(h.row_masks(), mask)
    if not stuck:
        return PeelOutcome(frozenset(pos), _NO_RESIDUE)
    residue = frozenset(mask_to_positions(stuck))
    return PeelOutcome(frozenset(pos) - residue, residue)


def ml_decode(h: Matrix, erased) -> bool:
    """True iff the erased columns of h are linearly independent."""
    mask, pos = positions_mask(erased, h.n_cols, "erased position")
    return h.independent(pos if mask.bit_count() == len(pos) else set(pos))


def _on_lattice(n: int, w_max: Optional[int]) -> bool:
    """The complete table is wanted and 2^n lattice bytes fit the guard."""
    return n <= LATTICE_MAX_N and (w_max is None or w_max >= n)


def _lattice_cheaper(n: int, r: int, lattice_ns: float,
                     pattern_ns: float) -> bool:
    """The lattice costs no more than the per-weight path, which tests at
    most every pattern of weight <= r (heavier ones fail by the rank
    shortcut).  Costs are in ns; the callers' unit costs were measured on
    a 2-vCPU Xeon with numpy 2.4."""
    return lattice_ns <= pattern_ns * sum(comb(n, w) for w in range(r + 1))


def _stopping_sets(row_masks: Sequence[int], n: int) -> np.ndarray:
    """Packed subset lattice of the nonempty stopping sets: subset S is set
    iff no row meets S in exactly one position.

    The 64 subsets of a word share their high part.  Where it meets a row
    in no position, the low part must not meet the row exactly once; in
    one, the low part must meet it; in more, the row rules out no subset
    of the word.  So each row ANDs one mask over the low part into the
    words whose high part meets it at most once.  In a chunk viewed with
    one axis per bit of the word index, those words are the view with all
    of the row's axes at 0 and the views with one of them at 1; the bits
    above the chunk are the same for all its words.
    """
    size = lattice_words(n)
    chunk = min(size, LATTICE_CHUNK)
    bits = chunk.bit_length() - 1
    rows = [r for r in row_masks if r]
    # meets[k, s] = |row k & s| over the low parts s = 0..63, and
    # masks[k, c] the low parts kept when the high part meets row k c times
    meets = np.bitwise_count(np.arange(64, dtype=np.uint64)
                             & np.array([r & 63 for r in rows],
                                        dtype=np.uint64).reshape(-1, 1))
    masks = pack_words(np.stack([meets != 1, meets != 0], axis=1)
                       .reshape(-1, 64)).reshape(-1, 2)
    out = np.empty(size, dtype=np.uint64)
    for start in range(0, size, chunk):
        ok = out[start:start + chunk]
        ok[:] = np.uint64((1 << min(1 << n, 64)) - 1)  # no bits past 2^n
        axes = ok.reshape((2,) * bits)  # axis a is index bit bits - 1 - a
        for k, r in enumerate(rows):
            high = r >> 6
            above = (start & high).bit_count()
            if above > 1:
                continue
            axis = [bits - 1 - b for b in range(bits) if high >> b & 1]
            at = [slice(None)] * bits + [Ellipsis]  # a view even at 0-d
            for a in axis:
                at[a] = 0
            view = axes[tuple(at)]
            view &= masks[k, above]
            if above:
                continue
            for a in axis:
                at[a] = 1
                view = axes[tuple(at)]
                view &= masks[k, 1]
                at[a] = 0
    out[0] &= ~np.uint64(1)  # the empty set is no witness
    return out


def _codeword_supports(c: LinearCode) -> np.ndarray:
    """Packed subset lattice with the support of every nonzero codeword
    set.  Scalar multiples share a support, so one word per projective
    class is enumerated, (q^k - 1) / (q - 1) in all, and each support is
    ORed into its lattice word."""
    out = np.zeros(lattice_words(c.n), dtype=np.uint64)
    for block in _enumerate_combinations(c.field, c.generator.data,
                                         projective=True):
        supports = pack_words(block != 0)[:, 0]
        np.bitwise_or.at(out, (supports >> np.uint64(6)).astype(np.intp),
                         np.uint64(1) << (supports & np.uint64(63)))
    return out


def _count_by_weight(n: int, r: int, w_max: Optional[int],
                     fails: Callable[[np.ndarray], Sequence],
                     lightest: Callable[[int], int] = lambda top: 0
                     ) -> List[Optional[int]]:
    """Per-weight table: the number of weight-w masks where fails(masks) is
    nonzero, for each weight up to w_max, except where a shortcut below
    gives the count exactly.  A level is tested LATTICE_CHUNK masks at a
    time, which bounds the decoders' per-row scratch arrays.

    lightest(top) is a weight s <= top + 1 below which no mask fails, so
    the weights below s count 0 without enumeration.  top is the heaviest
    weight the enumeration could reach: no heavier than w_max or r, nor
    than the last level before the first that exceeds WEIGHT_GUARD (levels
    grow up to n / 2).  A weight past that level still raises."""
    if w_max is not None and w_max < 0:
        raise ValueError(f"w_max must be >= 0, got {w_max}")
    limit = n if w_max is None else min(w_max, n)
    guarded = next((w - 1 for w in range(n + 1)
                    if comb(n, w) > WEIGHT_GUARD), n)
    start = lightest(min(limit, r, guarded))
    counts: List[Optional[int]] = [0] * start + [None] * (n + 1 - start)
    for w in range(start, n + 1):
        if w > r:
            counts[w] = comb(n, w)  # dependent columns: always undecodable
            continue
        if w > 0 and counts[w - 1] == comb(n, w - 1):
            counts[w] = comb(n, w)  # failure is monotone in the pattern
            continue
        if w > limit:
            continue
        if comb(n, w) > WEIGHT_GUARD:
            raise EnumerationTooLargeError(
                f"C({n},{w}) patterns exceed the per-weight 2^25 guard")
        level = weight_masks(n, w)
        counts[w] = sum(
            int(np.count_nonzero(fails(level[i:i + LATTICE_CHUNK])))
            for i in range(0, len(level), LATTICE_CHUNK))
    return counts


def _psi_stop_by_weight(h: Matrix,
                        w_max: Optional[int]) -> List[Optional[int]]:
    masks = h.row_masks()

    def lightest(top: int) -> int:
        # no pattern lighter than s(H) fails; the empty pattern never does,
        # so top = 0 (which n = 0 gives, where the search refuses) needs no
        # search
        return stopping_distance(h, cap=top + 1).s if top else 1
    return _count_by_weight(h.n_cols, rank(h), w_max,
                            lambda block: _peel_residues(masks, block),
                            lightest)


def _psi_ml_by_weight(c: LinearCode,
                      w_max: Optional[int]) -> List[Optional[int]]:
    h = c.parity_check
    if c.field.q == 2:
        rows = h.row_masks()

        def fails(block: np.ndarray) -> np.ndarray:
            return _rank_gf2(rows, block) < np.bitwise_count(block)
    else:
        def fails(block: np.ndarray) -> List[bool]:
            return [not h.independent(mask_to_positions(int(m)))
                    for m in block]
    return _count_by_weight(c.n, h.n_rows, w_max, fails)


def _psi_stop_on_lattice(h: Matrix) -> List[int]:
    n = h.n_cols
    return count_by_popcount(up_close(_stopping_sets(h.row_masks(), n), n), n)


def _psi_ml_on_lattice(c: LinearCode) -> List[int]:
    return count_by_popcount(up_close(_codeword_supports(c), c.n), c.n)


def psi_stop(h: Matrix, w_max: Optional[int] = None,
             matrix_id: str = "H") -> PsiProfile:
    """Count per weight the erasure patterns on which peeling fails.

    Peeling fails exactly on the patterns that contain a nonempty stopping
    set, so a complete table for n <= LATTICE_MAX_N is the up-closure of the
    stopping-set lattice, counted by popcount, when that is the cheaper way.
    """
    n, m = h.n_cols, h.n_rows
    # a lattice subset costs 1 ns plus 0.02 ns per row (0.49-0.88 ns for 2
    # to 36 rows at n = 24, 0.58-1.70 ns at n = 20, and more below, where
    # the fixed costs of both paths outweigh these), a peeled pattern 50 ns
    # plus 2 ns per row (the per-weight path took 15-160 ns per pattern of
    # weight <= rank for rank 4-9 and 4-36 rows at n = 24)
    lattice_ns = (1 + m / 50) * 2 ** n
    if (_on_lattice(n, w_max)
            and _lattice_cheaper(n, rank(h), lattice_ns, 50 + 2 * m)):
        counts = _psi_stop_on_lattice(h)
    else:
        counts = _psi_stop_by_weight(h, w_max)
    return PsiProfile(n, f"iterative({matrix_id})", counts)


def psi_ml(c: LinearCode, w_max: Optional[int] = None) -> PsiProfile:
    """Count per weight the erasure patterns with dependent erased columns.

    Those are the patterns that contain the support of a nonzero codeword,
    so a complete table for n <= LATTICE_MAX_N and q^k <= ENUM_GUARD is the
    up-closure of the codeword-support lattice, counted by popcount, when
    that is the cheaper way.
    """
    n, k, q = c.n, c.k, c.field.q
    # a lattice subset costs 0.6 ns (0.48-0.65 ns at n = 20..26 with 16 to
    # 4096 codewords) and a projective class 9 ns per symbol (2.6-10.5 ns
    # for q = 2, 3, 4, 5, 7, 11, 13 at 16K to 402K classes); a GF(2)
    # pattern r^2 ns for r = n - k check rows (the per-weight path took
    # 0.84-1.02 r^2 ns per pattern of weight <= r for r = 8..20 at n = 24,
    # weight masks included), any other pattern 3.5 us per check row (the
    # per-weight path took 1.5-4.0 us per row and pattern for r = 3..10 and
    # q = 3..13, 14-22 us per pattern on RS [11, 5] and 17-29 on RS [13, 5])
    lattice_ns = 0.6 * 2 ** n + 9 * n * (q ** k - 1) // (q - 1)
    pattern_ns = (n - k) ** 2 if q == 2 else 3_500 * (n - k)
    if (_on_lattice(n, w_max) and q ** k <= ENUM_GUARD
            and _lattice_cheaper(n, n - k, lattice_ns, pattern_ns)):
        counts = _psi_ml_on_lattice(c)
    else:
        counts = _psi_ml_by_weight(c, w_max)
    return PsiProfile(n, "ML", counts)


def failure_curve(profile: PsiProfile,
                  p_grid: Sequence[float]) -> List[Tuple[float, float]]:
    """Evaluate sum_w psi(w) p^w (1-p)^(n-w) at each erasure probability."""
    if any(v is None for v in profile.counts):
        raise ValueError("profile is incomplete; enumerate all weights first")
    out = []
    n = profile.n
    for p in p_grid:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"erasure probability {p} outside [0, 1]")
        prob = 0.0
        for w, count in enumerate(profile.counts):
            if count:
                prob += count * (p ** w) * ((1.0 - p) ** (n - w))
        out.append((float(p), prob))
    return out


def curve_to_csv(points: Sequence[Tuple[float, float]]) -> str:
    lines = ["p,prob"]
    for p, prob in points:
        lines.append(f"{p:.10g},{prob:.17g}")
    return "\n".join(lines) + "\n"
