"""The one bit layout of stopred and every conversion into and out of it.

A set of columns is a mask, bit j = column j: an int of any width, or for
n <= 64 an element of a `mask_dtype(n)` array.  Numeric order of masks is
colexicographic order of the subsets, which the generators below rely on.
Sets of any width are also rows of little-endian uint64 words, column j
being bit j % 64 of word j // 64.  No other module knows this layout; they
cross it only here: positions to a mask by `positions_mask`, the one
checked boundary for positions given by a caller, and back by
`mask_to_positions`; truth rows to words by `pack_words`, back by
`unpack_words`; words to ints by `words_to_ints`; truth rows to ints and
back by `pack_rows` and `unpack_rows`; and the masks of each weight from
`weight_levels`, one level after another, or of one from `weight_masks`.

A family of sets can also be stored bit-sliced (`bit_planes`): plane j is a
packed bitset over the sets, marking those that contain j.  `meet_once`
reads the planes of a support to find the sets it meets in exactly one
position, 64 sets per word operation.

A subset lattice over n positions takes one bit per subset: 2 MiB at
n = 24 and 8 MiB at n = 26.  It is 2^(n-6) little-endian uint64 words, and
bit s of word i is subset 64 i + s.  For n < 6 it is one word whose bits
from 2^n up stay clear.
`up_close` closes it upwards in place and `count_by_popcount` counts it by
subset size, reading each chunk in the cached order of `_index_order`;
neither needs more than one chunk of scratch memory.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import index
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np


LATTICE_CHUNK = 1 << 16

# The 64 subsets of a lattice word differ in their low six bits s.  Bit s
# of _LOW_BITS[i] is set where bit i of s is clear, and bit s of
# _WEIGHT_BITS[j] where s has j bits set.
_LOW_BITS = [np.uint64(m) for m in
             (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
              0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)]
_WEIGHT_BITS = [np.uint64(sum(1 << s for s in range(64) if s.bit_count() == j))
                for j in range(7)]


def lattice_words(n: int) -> int:
    """Number of uint64 words of a packed subset lattice over n positions."""
    return 1 << max(n - 6, 0)


def _check_lattice(words: np.ndarray, n: int) -> None:
    if words.dtype != np.uint64 or words.shape != (lattice_words(n),):
        raise ValueError(f"expected {lattice_words(n)} uint64 words for a "
                         f"lattice over {n} positions")


def up_close(words: np.ndarray, n: int) -> np.ndarray:
    """In place, set subset S of a packed lattice over n positions for every
    S that has a set subset T.

    This is Yates' sum-over-subsets transform with OR: pass i folds each
    subset into the one that also holds bit i.  The passes for bits 0..5
    are shifts inside each word, one chunk at a time; the rest fold words
    in place.  Word-index bit i ORs each run of 2^i words into the run
    after it.  For runs of 1, 2 or 4 words that goes one word column at a
    time, since a view with so short an inner axis is slow: on 2^18 words,
    bit 1 took 0.23 ms by columns and 1.66 ms as one view (2-vCPU Xeon,
    numpy 2.4).  Longer runs fold as one view.
    """
    _check_lattice(words, n)
    for start in range(0, len(words), LATTICE_CHUNK):
        block = words[start:start + LATTICE_CHUNK]
        for i in range(min(n, 6)):
            block |= (block & _LOW_BITS[i]) << np.uint64(1 << i)
    for i in range(n - 6):
        half = 1 << i
        if half < 8:
            v = words.reshape(-1, 2 * half)
            for o in range(half):
                v[:, half + o] |= v[:, o]
        else:
            v = words.reshape(-1, 2, half)
            v[:, 1] |= v[:, 0]
    return words


@lru_cache(maxsize=None)
def _index_order(chunk: int) -> Tuple[np.ndarray, Tuple[int, ...],
                                      np.ndarray]:
    """(order, starts, weights) for a lattice chunk of `chunk` words, a
    power of two: the word indices sorted by popcount, that is the weight
    levels of log2(chunk) bits, in the smallest unsigned dtype that holds
    them (128 KiB at LATTICE_CHUNK); where each run of index popcount
    g = 0..log2(chunk) starts in that order; and weights[j, g] = j + g,
    the weight of a subset of low weight j in run g.  Read-only."""
    bits = chunk.bit_length() - 1
    order = np.concatenate(list(weight_levels(
        bits, bits, np.min_scalar_type(chunk - 1))))
    starts = tuple(accumulate((comb(bits, g) for g in range(bits)),
                              initial=0))
    weights = np.add.outer(np.arange(7), np.arange(bits + 1))
    order.flags.writeable = weights.flags.writeable = False
    return order, starts, weights


def count_by_popcount(words: np.ndarray, n: int) -> List[int]:
    """counts[w] = number of set subsets S with |S| = w, w = 0..n, of a
    packed lattice over n positions.

    The subsets of word i with low weight j have weight popcount(i) + j.
    Each chunk is read in order of index popcount (`_index_order`), so for
    each j one integer `np.add.reduceat` sums the popcounts of
    words & _WEIGHT_BITS[j] over each run of one index popcount, and one
    `np.add.at` adds every run to its weight.  A run sums at most 64 bits
    per word, and its dtype holds 64 * chunk.
    """
    _check_lattice(words, n)
    chunk = min(len(words), LATTICE_CHUNK)
    order, starts, weights = _index_order(chunk)
    low = min(n, 6) + 1  # low weights 0..6 of a word's 64 subsets
    runs = np.empty((low, len(starts)), dtype=np.min_scalar_type(64 * chunk))
    counts = np.zeros(n + 1, dtype=np.uint64)
    for start in range(0, len(words), chunk):
        block = words[start:start + chunk][order]
        for j in range(low):
            np.add.reduceat(np.bitwise_count(block & _WEIGHT_BITS[j]), starts,
                            out=runs[j])
        np.add.at(counts, weights[:low] + start.bit_count(), runs)
    return [int(c) for c in counts]


def mask_dtype(n: int) -> np.dtype:
    if n <= 32:
        return np.dtype(np.uint32)
    if n <= 64:
        return np.dtype(np.uint64)
    raise ValueError(f"bitmask engine supports at most 64 columns, got {n}")


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Each row of a 2-D truth array packed into W = max(ceil(cols/64), 1)
    little-endian uint64 words: column j is bit j % 64 of word j // 64.
    Rows of a nonzero multiple of 64 columns are packed as they are, other
    rows from a copy padded to whole words."""
    rows, cols = bits.shape
    if not cols or cols % 64:
        padded = np.zeros((rows, 64 * max(-(-cols // 64), 1)), dtype=bool)
        padded[:, :cols] = bits
        bits = padded
    packed = np.packbits(bits, axis=1, bitorder="little")
    # packbits keeps the layout of an F-order input; the view needs C order
    return np.ascontiguousarray(packed).view("<u8")


def unpack_words(words: np.ndarray) -> np.ndarray:
    """Inverse of pack_words: one 0/1 `uint8` entry per bit, 64 per word."""
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8), axis=1,
                         bitorder="little")


def pack_rows(bits: np.ndarray) -> List[int]:
    """Each row of a 2-D truth array packed into an int (bit j = column j);
    any width, so rows wider than 64 columns stay exact."""
    return words_to_ints(pack_words(bits))


def unpack_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """Inverse of pack_rows: one row of n `bool` entries per int, column j
    set where bit j is."""
    width = -(-n // 8)
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.unpackbits(np.frombuffer(raw, np.uint8).reshape(-1, width),
                         axis=1, count=n, bitorder="little").view(bool)


def words_to_ints(lanes: np.ndarray) -> List[int]:
    """Each row of little-endian uint64 words as one int (word w holds bits
    64w..64w+63).  The words are joined most significant first, so one word
    needs no Python arithmetic."""
    out = lanes[:, -1].tolist() if lanes.shape[1] else [0] * len(lanes)
    for w in range(lanes.shape[1] - 2, -1, -1):
        out = [(hi << 64) | lo for hi, lo in zip(out, lanes[:, w].tolist())]
    return out


_INT = frozenset({int})


@lru_cache(maxsize=16)
def _position_bits(n: int) -> dict:
    """{j: 1 << j} for the positions j of [0, n); read-only."""
    return {j: 1 << j for j in range(n)}


def positions_mask(positions: Iterable, n: int,
                   what: str) -> Tuple[int, List[int]]:
    """(mask, entries) of positions given by a caller, checked.

    An entry that is not an integer (a float, a string or a bool; numpy
    integers are integers) is refused as "<what> <entry> is not an
    integer".  A 1-D integer array is read by one `tolist()`; a list is
    read as it is, neither copied nor written.  One C-level pass checks
    that every entry's type is exactly int, and only otherwise is each
    entry checked.  Each entry is looked up in a table of the bits 1 << j,
    so one outside [0, n) is refused as "<what> out of range [0, n)"
    before anything is shifted.  `entries` are the integers as given
    (the caller's own list, if it passed one of ints); distinct bits sum
    to their OR, so a repeated entry shows as
    mask.bit_count() < len(entries)."""
    if (isinstance(positions, np.ndarray) and positions.ndim == 1
            and positions.dtype.kind in "iu"):
        entries = positions.tolist()
    else:
        entries = positions if type(positions) is list else list(positions)
        if not _INT.issuperset(map(type, entries)):
            checked = []
            for p in entries:
                try:
                    if type(p) is bool:
                        raise TypeError
                    checked.append(index(p))
                except TypeError:
                    raise ValueError(f"{what} {p!r} is not an integer") \
                        from None
            entries = checked
    bits = _position_bits(n)
    try:
        mask = sum(map(bits.__getitem__, entries))
    except KeyError:
        raise ValueError(f"{what} out of range [0, {n})") from None
    if mask.bit_count() != len(entries):
        mask = sum(map(bits.__getitem__, set(entries)))
    return mask, entries


def mask_to_positions(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def weight_levels(n: int, w_max: int, dt: np.dtype) -> Iterator[np.ndarray]:
    """The masks over n bits of each weight 0..min(w_max, n) in turn, each
    ascending.  A weight-(w+1) mask with top bit t is one of the first
    C(t, w) weight-w masks, those below bit t, with bit t set; joined for
    t = w..n-1 they stay ascending.  Only the last level is kept."""
    level = np.zeros(1, dtype=dt)
    yield level
    for w in range(min(w_max, n)):
        heavier, at = np.empty(comb(n, w + 1), dtype=dt), 0
        for t in range(w, n):
            size = comb(t, w)
            np.bitwise_or(level[:size], dt.type(1 << t),
                          out=heavier[at:at + size])
            at += size
        level = heavier
        yield level


def weight_masks(n: int, w: int) -> np.ndarray:
    """All bitmasks over n bits of weight exactly w, ascending."""
    if w < 0 or w > n:
        return np.zeros(0, dtype=mask_dtype(n))
    for level in weight_levels(n, w, mask_dtype(n)):
        pass
    return level


def bit_planes(n: int, family: Sequence[np.ndarray]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Bit-slice a family of sets over n <= 64 positions for `meet_once`.

    `family` holds the sets as masks, in groups (one array each).  Each
    group starts on a word boundary: set k of group g is bit k of the run
    that starts at word starts[g], and the rest of the run's last word is
    padding that no support meets.  Returns (planes, starts), where
    planes[j] is the uint64 bitset of the sets that contain j for j < n,
    and plane n is empty, the plane that shorter supports pad with.
    The planes are built one position at a time, so the temporaries take
    O(sets) bytes, not O(n * sets).
    """
    words = [-(-len(group) // 64) for group in family]
    starts = np.cumsum([0] + words, dtype=np.int64)[:-1]
    planes = np.zeros((n + 1, sum(words)), dtype="<u8")
    plane_bytes = planes.view(np.uint8)
    dt = mask_dtype(n).newbyteorder("<")
    for group, start in zip(family, starts):
        # bit j of every mask is one bit of one byte column
        columns = np.ascontiguousarray(group, dtype=dt).view(np.uint8)
        columns = columns.reshape(len(group), dt.itemsize)
        for j in range(n):
            packed = np.packbits(columns[:, j // 8] & np.uint8(1 << j % 8),
                                 bitorder="little")
            plane_bytes[j, 8 * start:8 * start + len(packed)] = packed
    return planes, starts


def support_positions(supports: np.ndarray, n: int) -> np.ndarray:
    """(len(supports), n) array: the positions of each mask ascending, then
    n (the empty plane of `bit_planes`) in every remaining column."""
    bits = (supports[:, None] >> np.arange(n, dtype=supports.dtype)) & 1
    pos = np.where(bits != 0, np.arange(n, dtype=np.uint8), np.uint8(n))
    pos.sort(axis=1)
    return pos


def meet_once(planes: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """once[b] = the bitset of the sets (laid out as by `bit_planes`) that
    the support with positions[b] (a row of `support_positions`, possibly
    cut to fewer columns) meets in exactly one position.

    Two accumulators run over the planes of the support: `twice` marks
    the sets met at least twice, `once` those met an odd number of times.
    Each column of `positions` is one pass over the batch's words, so a
    batch whose heaviest support has weight w needs only its first w
    columns; a lighter support in it reads the empty plane n in the rest.
    """
    once = planes[positions[:, 0]]
    twice = np.zeros_like(once)
    for t in range(1, positions.shape[1]):
        p = planes[positions[:, t]]
        twice |= once & p
        once ^= p
    once &= ~twice
    return once
