import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_parity_check
from reference import ref_is_stopping_set, ref_stopping_distance
from stopred.cli import load_asset
from stopred.construct import full_dual_pcm, rm_generator, rm_stopping_pcm
from stopred.field import make_field
from stopred.linalg import LinearCode, Matrix, mat_mul
from stopred import stopping
from stopred.stopping import (StoppingReport, covers, is_stopping_set,
                              stopping_distance, verify_full_stopping)


def test_is_stopping_set_basics(gf2):
    ones = Matrix(gf2, [[1] * 6])
    assert is_stopping_set(ones, (0, 3))
    eye = Matrix(gf2, np.eye(4, dtype=np.uint8))
    assert not is_stopping_set(eye, (0, 2))
    with pytest.raises(ValueError):
        is_stopping_set(ones, ())
    with pytest.raises(ValueError):
        is_stopping_set(ones, (0, 6))


def test_codeword_support_is_stopping_set(golay24):
    h24 = load_asset("h24")
    word = golay24.min_weight_codeword()
    support = tuple(int(j) for j in np.nonzero(word)[0])
    assert len(support) == 8
    assert is_stopping_set(h24, support)


def test_covers():
    assert covers((1, 0, 0), (0,))
    assert not covers((1, 1, 0), (0, 1))
    assert covers((1, 1, 0), (1, 2))


@pytest.mark.parametrize("row, positions, shape", [
    ([[1, 0, 1], [0, 1, 0]], [1], "(2, 3)"),
    (5, [0], "()"),
], ids=["two-rows", "scalar"])
def test_covers_refuses_a_row_that_is_not_1d(row, positions, shape):
    with pytest.raises(ValueError, match=re.escape(
            f"row must be one-dimensional, got shape {shape}")):
        covers(row, positions)


@pytest.mark.parametrize("check", [
    lambda pos: is_stopping_set(load_asset("h24"), pos),
    lambda pos: covers(load_asset("h24").data[0], pos),
], ids=["is_stopping_set", "covers"])
@pytest.mark.parametrize("positions, entry", [
    ([1.5, 3], "1.5"),
    ([True, 3], "True"),
    (["3", 4], "'3'"),
    ([0.7], "0.7"),
    (np.array([2.0, 5.0]), "np.float64(2.0)"),
], ids=["float", "bool", "string", "float-alone", "float-array"])
def test_non_integer_positions_are_refused(check, positions, entry):
    message = re.escape(f"position {entry} is not an integer")
    with pytest.raises(ValueError, match=message):
        check(positions)


def test_numpy_integer_positions_are_accepted():
    h24 = load_asset("h24")
    for positions in (np.array([0, 13]), [np.int8(0), np.uint64(13)]):
        assert is_stopping_set(h24, positions) == is_stopping_set(h24, [0, 13])
        assert covers(h24.data[0], positions) == covers(h24.data[0], [0, 13])


@pytest.mark.parametrize("check", [
    lambda pos: is_stopping_set(load_asset("h24"), pos),
    lambda pos: covers(load_asset("h24").data[0], pos),
], ids=["is_stopping_set", "covers"])
def test_range_is_refused_before_repeats(check):
    # [30, 30] repeats a position and leaves [0, 24): range comes first
    with pytest.raises(ValueError, match=re.escape(
            "position out of range [0, 24)")):
        check([30, 30])
    with pytest.raises(ValueError, match="positions must be distinct"):
        check([3, 3])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 70), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_is_stopping_set_matches_reference(q, n, m, seed):
    rng = np.random.default_rng(seed)
    data = random_parity_check(rng, q, n, m).data.copy()
    data[rng.random(data.shape) < rng.random()] = 0  # sparse rows peel
    h, rows = Matrix(make_field(q), data), data.tolist()
    sets = [rng.choice(n, size=int(rng.integers(1, n + 1)),
                       replace=False).tolist() for _ in range(10)]
    # random sets are seldom stopping sets, nonzero codeword supports are
    gen = LinearCode.from_parity_check(h).generator.data
    for _ in range(3):
        word = mat_mul(h.field, rng.integers(0, q, (1, len(gen))), gen)[0]
        if word.any():
            sets.append(np.flatnonzero(word).tolist())
    for pos in sets:
        assert is_stopping_set(h, pos) == ref_is_stopping_set(rows, pos)


def test_stopping_distance_golay_matrices():
    assert stopping_distance(load_asset("h24")).s == 4
    assert stopping_distance(load_asset("hp24")).s == 8
    assert stopping_distance(load_asset("h12")).s == 3
    assert stopping_distance(load_asset("hp12")).s == 6
    assert stopping_distance(load_asset("hexacode")).s == 4


def test_witness_is_a_stopping_set():
    for name in ("h24", "hp24", "h12", "hexacode"):
        m = load_asset(name)
        report = stopping_distance(m)
        assert report.witness is not None
        assert len(report.witness) == report.s
        assert is_stopping_set(m, report.witness)


def test_no_stopping_set_convention(gf2):
    eye = Matrix(gf2, np.eye(5, dtype=np.uint8))
    report = stopping_distance(eye)
    assert report == StoppingReport(6, None, False)


def test_all_zero_column_gives_s1(gf2):
    m = Matrix(gf2, [[1, 0, 1], [0, 0, 1]])
    report = stopping_distance(m)
    assert report.s == 1 and report.witness == (1,)


def test_zero_rows_tolerated(gf2):
    base = load_asset("h24")
    padded = Matrix(base.field,
                    np.vstack([base.data, np.zeros((2, 24), np.uint8)]))
    assert stopping_distance(padded).s == 4


def test_cap_semantics():
    h24 = load_asset("h24")
    report = stopping_distance(h24, cap=3)
    assert report.s == 3 and report.at_least and report.witness is None
    report = stopping_distance(h24, cap=10)
    assert report.s == 4 and not report.at_least


@st.composite
def oracle_cases(draw):
    """Small matrices, half of them row-heavy (every projective class of a
    random row space, at most 91 over GF(8) and GF(9)), with an optional
    cap."""
    q = draw(st.sampled_from([2, 3, 4, 8, 9]))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 4 if q <= 4 else 3))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=m, max_size=m))
    h = Matrix(make_field(q), np.array(rows, dtype=np.uint8))
    if draw(st.booleans()) and np.any(h.data):
        h = full_dual_pcm(LinearCode.from_parity_check(h))
    cap = draw(st.none() | st.integers(1, n + 1))
    return h, cap


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
def test_matches_subset_oracle_small(case):
    h, cap = case
    n = h.n_cols
    want_s, want_witness = ref_stopping_distance(h.data.tolist(), n)
    if cap is not None and cap <= n and want_s >= cap:
        want = StoppingReport(cap, None, at_least=True)
    else:
        # the scan reports the lexicographically first smallest witness
        want = StoppingReport(want_s, want_witness)
    for chunk in (1, 8, stopping._CHUNK):  # one subset, a few, one block
        with mock.patch.object(stopping, "_CHUNK", chunk):
            assert stopping_distance(h, cap) == want


@st.composite
def capped_matrices(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 11))
    m = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=m, max_size=m))
    cap = draw(st.none() | st.integers(1, n + 1))
    return Matrix(make_field(q), np.array(rows, dtype=np.uint8).reshape(m, n)), cap


# a depth-first search stopping at its first minimum set reports (1, 2, 5, 9)
_NOT_LEX_FIRST_FOR_DFS = [[0, 1, 1, 0, 0, 1, 0, 0, 0, 0],
                          [0, 0, 0, 0, 1, 1, 1, 1, 0, 1],
                          [0, 0, 1, 1, 0, 0, 1, 0, 1, 1],
                          [1, 0, 1, 0, 0, 1, 0, 0, 1, 1],
                          [0, 1, 1, 0, 0, 1, 1, 0, 0, 1],
                          [0, 1, 0, 0, 1, 1, 0, 1, 1, 0],
                          [0, 0, 1, 0, 0, 1, 0, 0, 0, 1],
                          [0, 0, 0, 0, 1, 1, 0, 0, 0, 1]]


@settings(max_examples=200, deadline=None)
@given(capped_matrices(), st.integers(0, 2**32 - 1))
@example((Matrix(make_field(2), _NOT_LEX_FIRST_FOR_DFS), None), 0)
def test_bnb_agrees_with_scan(case, seed):
    h, cap = case
    scan = stopping_distance(h, cap)
    if scan.witness is not None:
        assert len(scan.witness) == scan.s
        assert is_stopping_set(h, scan.witness)
    # ties between violated rows go to the lower row, so the rows permuted
    # give another tree; the report must not change
    shuffled = Matrix(h.field, h.data[
        np.random.default_rng(seed).permutation(h.n_rows)])
    # both engines report the lexicographically first minimum stopping set;
    # _CHUNK sets the branch-and-bound block: one node, a few, the default
    for chunk in (1, 1 << 8, stopping._CHUNK):
        with mock.patch.object(stopping, "SCAN_BUDGET", 0), \
                mock.patch.object(stopping, "_CHUNK", chunk):
            assert stopping_distance(h, cap) == scan
            assert stopping_distance(shuffled, cap) == scan


@st.composite
def padded_matrices(draw):
    """A narrow matrix padded to 65..140 columns; every added column has a
    private weight-1 row, so it lies in no stopping set."""
    narrow, _ = draw(capped_matrices())
    m, n = narrow.data.shape
    width = draw(st.integers(65, 140))
    data = np.zeros((m + width - n, width), dtype=np.uint8)
    data[:m, :n] = narrow.data
    data[m:, n:] = np.eye(width - n, dtype=np.uint8)
    return narrow, Matrix(narrow.field, data)


@settings(max_examples=60, deadline=None)
@given(padded_matrices())
def test_wide_bnb_matches_narrow_scan(case):
    narrow, wide = case
    for cap in range(1, narrow.n_cols + 1):
        assert stopping_distance(wide, cap) == stopping_distance(narrow, cap)


def _bnb_nodes(h, cap):
    """stopping_distance(h, cap) by the branch-and-bound, and the number of
    nodes it expanded."""
    nodes, take = [], stopping._take

    def counted(chunks, block):
        cur, banned = take(chunks, block)
        nodes.append(len(cur))
        return cur, banned
    with mock.patch.object(stopping, "_take", counted), \
            mock.patch.object(stopping, "_scan_level",
                              side_effect=AssertionError):
        report = stopping_distance(h, cap)
    return report, sum(nodes)


# the node counts pin the tree: root order, branching row, banned columns
# and bound; a change to any of them may move the count, not the report
def test_bnb_two_word_tree_rm_generator_3_7():
    # 64 x 128: two words per node, and too many subsets for the scan
    h = rm_generator(3, 7)
    report, nodes = _bnb_nodes(h, cap=8)
    assert report == StoppingReport(5, (56, 88, 104, 112, 120))
    assert is_stopping_set(h, report.witness)
    assert nodes == 39377


def test_bnb_exhausts_permuted_rm26_stopping_rows():
    # RM(2,6) has d = 16, so its stopping rows leave no stopping set below
    # the cap; the search must exhaust its whole tree to say so
    checks = rm_stopping_pcm(2, 6)
    h = Matrix(checks.field, checks.data[
        :, np.random.default_rng(0).permutation(checks.n_cols)])
    assert _bnb_nodes(h, cap=8) == (StoppingReport(8, None, at_least=True),
                                   152090)


@pytest.mark.parametrize("seed, witness", [
    (0, (0, 1, 2, 3, 7, 20, 23, 27)),
    (1, (0, 1, 2, 3, 4, 11, 13, 20)),
    (2, (0, 1, 2, 3, 7, 13, 19, 28))])
def test_rm25_stopping_rows_agree_across_engines(seed, witness):
    # uncapped, the 2^32 subsets of n = 32 go to the branch-and-bound, whose
    # last column is settled in closed form; cap 9 leaves 15 033 173
    # subsets, within the scan's budget
    checks = rm_stopping_pcm(2, 5)
    h = Matrix(checks.field, checks.data[
        :, np.random.default_rng(seed).permutation(checks.n_cols)])
    # each of the 1356 stopping sets of size 8 (an exhaustive count) is a
    # distinct node of the tree, so it reaches the incumbent once; a call
    # after the first may carry the last winner in its first row
    found, lex_first = [], stopping._lex_first

    def spy(sets):
        rows = [tuple(r) for r in sets.tolist()]
        if found and rows[0] == found[-1][1]:
            rows = rows[1:]
        i = lex_first(sets)
        found.append((rows, tuple(sets[i].tolist())))
        return i
    with mock.patch.object(stopping, "_lex_first", spy):
        bnb, _ = _bnb_nodes(h, cap=None)
    assert bnb == StoppingReport(8, witness)
    sets = [r for rows, _ in found for r in rows]
    assert len(sets) == len(set(sets)) == 1356
    assert is_stopping_set(h, witness)
    with mock.patch.object(stopping, "_bnb_min_stopping",
                           side_effect=AssertionError):
        assert stopping_distance(h, cap=9) == bnb


@pytest.mark.parametrize("n", [64, 65])
def test_zero_column_reports_agree_across_engines(gf2, n):
    # n = 64 caps by the scan, n = 65 only by the branch-and-bound
    data = np.ones((1, n), dtype=np.uint8)
    data[0, 0] = 0
    h = Matrix(gf2, data)
    capped = StoppingReport(1, None, at_least=True)
    assert stopping_distance(h, cap=1) == capped
    assert stopping_distance(h) == StoppingReport(1, (0,))


def test_s_at_most_d_random_codes():
    rng = np.random.default_rng(9)
    done = 0
    while done < 60:
        q = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, n))
        mat = random_parity_check(rng, q, n, m)
        code = LinearCode.from_parity_check(mat)
        if code.k == 0:
            continue
        assert stopping_distance(mat).s <= code.min_distance()
        done += 1


def test_distance_up_to_3_forces_full_stopping():
    rng = np.random.default_rng(13)
    done = 0
    while done < 60:
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, n))
        mat = random_parity_check(rng, 2, n, m)
        code = LinearCode.from_parity_check(mat)
        if code.k == 0:
            continue
        d = code.min_distance()
        if d > 3:
            continue
        assert stopping_distance(mat).s == d
        done += 1


def test_invariance_column_permutation_row_scaling():
    rng = np.random.default_rng(21)
    for q in (2, 3):
        f = make_field(q)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(2, 6))
            mat = random_parity_check(rng, q, n, m)
            s = stopping_distance(mat).s
            perm = rng.permutation(n)
            assert stopping_distance(Matrix(f, mat.data[:, perm])).s == s
            scaled = mat.data.copy()
            for i in range(m):
                scaled[i] = f.mul_arr(scaled[i], int(rng.integers(1, q)))
            assert stopping_distance(Matrix(f, scaled)).s == s


def test_verify_full_stopping(golay24, hexacode):
    assert verify_full_stopping(golay24, load_asset("hp24"))
    assert not verify_full_stopping(golay24, load_asset("h24"))
    assert verify_full_stopping(hexacode, load_asset("hexacode"))


@pytest.mark.parametrize("asset", ["hexacode", "h24"])
def test_verify_refuses_a_matrix_of_another_length(asset):
    # the checks less their last column, over a table field and over GF(2)
    checks = load_asset(asset)
    n = checks.n_cols
    short = Matrix(checks.field, checks.data[:, :-1])
    with pytest.raises(ValueError, match=f"matrix has {n - 1} columns for "
                                         f"a code of length {n}"):
        verify_full_stopping(LinearCode.from_parity_check(checks), short)


def test_verify_rejects_non_dual_rows(golay24, gf2):
    bogus = Matrix(gf2, np.eye(24, dtype=np.uint8))
    with pytest.raises(ValueError):
        verify_full_stopping(golay24, bogus)
