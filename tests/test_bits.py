import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stopred._bits import (_index_order, mask_dtype, pack_words,
                           positions_mask, weight_levels, weight_masks)
from stopred.cli import load_asset
from stopred.erasure import iterative_decode, ml_decode
from stopred.stopping import covers, is_stopping_set


@pytest.mark.parametrize("n", range(0, 11))
def test_weight_masks_are_every_subset_in_colex_order(n):
    levels = list(weight_levels(n, n, mask_dtype(n)))
    assert len(levels) == n + 1
    for w, level in enumerate(levels):
        want = sorted(combinations(range(n), w), key=lambda s: s[::-1])
        assert level.tolist() == [sum(1 << j for j in s) for s in want]
        assert np.array_equal(weight_masks(n, w), level)
    assert weight_masks(n, n + 1).size == weight_masks(n, -1).size == 0


def test_weight_levels_past_64_bits_are_ints():
    levels = list(weight_levels(70, 2, np.dtype(object)))
    assert levels[2].dtype == object and len(levels) == 3
    want = sorted(combinations(range(70), 2), key=lambda s: s[::-1])
    assert levels[2].tolist() == [(1 << a) | (1 << b) for a, b in want]


@pytest.mark.parametrize("chunk", [1, 2, 64, 256, 1 << 16])
def test_index_order_sorts_word_indices_by_popcount(chunk):
    order, starts, weights = _index_order(chunk)
    want = np.bitwise_count(np.arange(chunk, dtype=np.uint64)).argsort(
        kind="stable").astype(np.min_scalar_type(chunk - 1))
    assert order.dtype == want.dtype and np.array_equal(order, want)
    popcounts = np.bitwise_count(order.astype(np.uint64))
    assert [int(popcounts[s]) for s in starts] == list(range(len(starts)))
    assert not order.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("cols", [0, 1, 63, 64, 65, 128, 130])
def test_pack_words_layout(cols):
    bits = np.random.default_rng(cols).random((5, cols)) < 0.5
    words = pack_words(bits)
    assert words.dtype == np.dtype("<u8")
    assert words.shape == (5, max(-(-cols // 64), 1))
    for row, packed in zip(bits, words):
        want = sum(1 << j for j in np.flatnonzero(row).tolist())
        assert sum(int(w) << (64 * i) for i, w in enumerate(packed)) == want
    # any memory layout: a Fortran-order copy and a strided view
    assert np.array_equal(pack_words(np.asfortranarray(bits)), words)
    wide = np.repeat(bits, 2, axis=0)
    assert np.array_equal(pack_words(wide[::2]), words)


def test_pack_words_packs_aligned_rows_without_a_copy():
    bits = np.random.default_rng(1).random((1, 1 << 22)) < 0.5
    padded = np.zeros((1, bits.shape[1] + 8), dtype=bool)
    padded[:, :-8] = bits  # the same bits through the padded path
    tracemalloc.start()
    try:
        words = pack_words(bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(words, pack_words(padded)[:, :-1])
    # the packed words are an eighth of the input; a padded copy would
    # add the whole input again
    assert peak < bits.nbytes // 2


# ------------------------------------------------- the position boundary

N = 12  # h12 and hp12 have 12 columns

ENTRY = st.one_of(
    st.integers(0, N - 1), st.integers(0, N - 1),  # mostly good positions
    st.integers(-3, -1), st.integers(N, N + 3), st.just(2 ** 40),
    st.integers(0, N - 1).map(np.int64), st.integers(0, N - 1).map(np.uint8),
    st.sampled_from([1.0, 2.5, np.float64(2.0), True, False, np.True_, "3"]))


def test_a_list_is_read_in_place_and_never_written():
    ints = [3, 1, 3]
    mask, entries = positions_mask(ints, 5, "position")
    assert mask == 0b1010 and entries is ints
    mixed = [np.int64(3), np.uint8(1)]
    mask, entries = positions_mask(mixed, 5, "position")
    assert (mask, entries) == (0b1010, [3, 1])
    assert [type(p) for p in entries] == [int, int]
    assert [type(p) for p in mixed] == [np.int64, np.uint8]
    with pytest.raises(ValueError, match="position 2.0 is not an integer"):
        positions_mask([1, 2.0], 5, "position")


def _refusal(entries, what, as_set):
    """The message the entry points must refuse `entries` with, or None."""
    for p in entries:
        if isinstance(p, (bool, np.bool_)) or not isinstance(
                p, (int, np.integer)):
            return f"{what} {p!r} is not an integer"
    ints = [int(p) for p in entries]
    if any(not 0 <= p < N for p in ints):
        return f"{what} out of range [0, {N})"
    if as_set and len(set(ints)) != len(ints):
        return "positions must be distinct"
    if as_set and not ints:
        return "position set must be nonempty"
    return None


def _forms(entries):
    """(container, its entries as iterated) for each form of the entries:
    a list, a tuple, a generator and an array of whatever dtype numpy
    gives them (an int array, a float array, a bool array, ...)."""
    yield list(entries), entries
    yield tuple(entries), entries
    yield (p for p in entries), entries
    array = np.array(entries)
    yield array, list(array)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRY, max_size=8), st.sampled_from(["h12", "hp12"]))
@example([30, 30], "h12")
@example([], "h12")
@example([3, 3], "h12")
@example([True, 2.0], "h12")
def test_entry_points_share_one_boundary(entries, name):
    # the two decoders take any pattern, the two set tests a nonempty set;
    # within each pair every input is refused alike, and one accepted input
    # answers as its sorted distinct positions do
    h = load_asset(name)
    row = h.data[0]
    for what, as_set, calls in (
            ("erased position", False, (
                lambda p: iterative_decode(h, p), lambda p: ml_decode(h, p))),
            ("position", True, (
                lambda p: is_stopping_set(h, p), lambda p: covers(row, p)))):
        for call in calls:
            for form, seen in _forms(entries):
                message = _refusal(seen, what, as_set)
                if message is None:
                    want = call(sorted({int(p) for p in seen}))
                    assert call(form) == want
                else:
                    with pytest.raises(ValueError) as err:
                        call(form)
                    assert str(err.value) == message
