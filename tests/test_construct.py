import re
from itertools import combinations, product
from unittest import mock
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import f_add, f_mul, ref_codewords
from stopred._bits import mask_to_positions, positions_mask, weight_masks
from stopred.cli import load_asset
from stopred.field import make_field
from stopred.linalg import LinearCode, Matrix, mat_mul, nullspace, rank
from stopred import construct
from stopred.construct import (NotMDSError, _support_rows, combination_pcm,
                               direct_sum_pcm,
                               extend_pcm, full_dual_pcm,
                               graham_sloane_partition, mds_pcm,
                               pruned_mds_pcm, rm_generator,
                               rm_stopping_pcm, uu_pcm,
                               weight_one_combination_depth)
from stopred.greedy import greedy_construct
from stopred.stopping import is_stopping_set, stopping_distance, verify_full_stopping


def spc_matrix(n, q=2):
    return Matrix(make_field(q), [[1] * n])


def shortened_hamming_5_2():
    gf2 = make_field(2)
    gen = Matrix(gf2, [[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]])
    return LinearCode.from_generator(gen)


def rs_code(n, k, q, field=None):
    """Reed-Solomon style MDS code: evaluations of degree<k polynomials."""
    f = field or make_field(q)
    rows = [[pow(x, i, q) if i else 1 for x in range(n)] for i in range(k)]
    return LinearCode.from_generator(Matrix(f, rows))


def check_construction(code, h, want_s):
    """rows in the dual, full rank, and the promised stopping distance."""
    assert not np.any(mat_mul(code.field, code.generator.data, h.data.T))
    assert rank(h) == code.n - code.k
    report = stopping_distance(h, cap=want_s)
    assert report.s == want_s
    if report.at_least:
        word = code.min_weight_codeword()
        support = tuple(int(j) for j in np.nonzero(word)[0])
        assert len(support) == want_s
        assert is_stopping_set(h, support)


def test_full_dual_hamming(hamming74):
    h = full_dual_pcm(hamming74)
    assert h.n_rows == 7
    check_construction(hamming74, h, 3)


def test_full_dual_spc(gf2):
    code = LinearCode.from_parity_check(spc_matrix(5))
    h = full_dual_pcm(code)
    assert h.n_rows == 1
    check_construction(code, h, 2)


def test_full_dual_hexacode_projective(hexacode):
    h = full_dual_pcm(hexacode)
    assert h.n_rows == 21  # 63 nonzero dual words in 21 scalar classes
    leads = [int(row[np.nonzero(row)[0][0]]) for row in h.data]
    assert set(leads) == {1}
    check_construction(hexacode, h, 4)


def test_combination_pcm_extended_hamming(hamming74):
    ext = extend_pcm(hamming74.parity_check)
    code = LinearCode.from_parity_check(ext)
    h = combination_pcm(code.parity_check, 2)
    assert h.n_rows == 4 + 6
    check_construction(code, h, 4)


def test_combination_pcm_t1_is_input(golay24):
    h0 = golay24.parity_check
    h = combination_pcm(h0, 1)
    assert sorted(map(tuple, h.data.tolist())) == sorted(map(tuple, h0.data.tolist()))


def test_combination_pcm_golay_count(golay24):
    h = combination_pcm(golay24.parity_check, 6)
    assert h.n_rows == 2509


@st.composite
def full_rank_checks(draw):
    q = draw(st.sampled_from([2, 3, 4, 5]))
    r = draw(st.integers(1, 5))
    n = draw(st.integers(r, 7))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=r, max_size=r))
    h = Matrix(make_field(q), rows)
    assume(rank(h) == r)
    return q, rows, h


@settings(max_examples=60, deadline=None)
@given(full_rank_checks())
def test_combination_pcm_row_order(case):
    # by size, then row subsets in lex order, then coefficient tuples in
    # counting order; each depth's rows are the first rows of the next
    q, rows, h = case
    r, n = len(rows), len(rows[0])
    want = []
    for size in range(1, r + 1):
        for subset in combinations(range(r), size):
            for coeffs in product(range(1, q), repeat=size):
                acc = [0] * n
                for c, j in zip(coeffs, subset):
                    acc = [f_add(q, a, f_mul(q, c, x))
                           for a, x in zip(acc, rows[j])]
                want.append(acc)
    for t_max in range(1, r + 1):
        count = sum(comb(r, i) * (q - 1) ** i for i in range(1, t_max + 1))
        assert combination_pcm(h, t_max).data.tolist() == want[:count]


def test_combination_pcm_validation(golay24):
    with pytest.raises(ValueError):
        combination_pcm(golay24.parity_check, 0)
    with pytest.raises(ValueError):
        combination_pcm(golay24.parity_check, 13)
    redundant = load_asset("hp24")
    with pytest.raises(ValueError):
        combination_pcm(redundant, 2)


def test_direct_sum(gf2, hamming74):
    two_spc = direct_sum_pcm(spc_matrix(3), spc_matrix(3))
    assert two_spc.n_rows == 2
    code = LinearCode.from_parity_check(two_spc)
    assert (code.n, code.k, code.min_distance()) == (6, 4, 2)
    check_construction(code, two_spc, 2)

    ext = extend_pcm(hamming74.parity_check)
    mixed = direct_sum_pcm(hamming74.parity_check, ext)
    code = LinearCode.from_parity_check(mixed)
    assert code.min_distance() == 3
    check_construction(code, mixed, 3)


def test_direct_sum_golay():
    hp24 = load_asset("hp24")
    h = direct_sum_pcm(hp24, hp24)
    assert h.n_rows == 68
    report = stopping_distance(h, cap=8)
    assert report.s == 8
    # a weight-8 stopping set sits inside the left block
    left = stopping_distance(hp24).witness
    assert is_stopping_set(h, left)


def test_direct_sum_field_mismatch(gf2):
    with pytest.raises(ValueError):
        direct_sum_pcm(spc_matrix(3, 2), spc_matrix(3, 3))


def test_uu_spc(gf2):
    h = uu_pcm(spc_matrix(3))
    assert h.n_rows == 4
    code = LinearCode.from_parity_check(h)
    assert (code.n, code.k, code.min_distance()) == (6, 2, 4)
    check_construction(code, h, 4)


def test_uu_golay():
    hp24 = load_asset("hp24")
    h = uu_pcm(hp24)
    assert h.n_rows == 58
    report = stopping_distance(h, cap=16)
    assert report.s == 16
    # the doubled minimum-weight codeword gives a size-16 stopping set
    g24 = LinearCode.from_parity_check(load_asset("h24"))
    word = g24.min_weight_codeword()
    doubled = np.concatenate([word, word])
    support = tuple(int(j) for j in np.nonzero(doubled)[0])
    assert is_stopping_set(h, support)


def test_uu_degenerate_rejected(gf2):
    code = LinearCode.from_parity_check(Matrix(gf2, [[1]]))
    with pytest.raises(ValueError):
        code.min_distance()  # zero code is rejected before uu applies


def test_extend_hamming(hamming74):
    h = extend_pcm(hamming74.parity_check)
    assert h.n_rows == 6
    code = LinearCode.from_parity_check(h)
    assert (code.n, code.k, code.min_distance()) == (8, 4, 4)
    check_construction(code, h, 4)


def test_extend_shortened_hamming():
    code = shortened_hamming_5_2()
    assert code.min_distance() == 3
    h = extend_pcm(code.parity_check)
    assert h.n_rows == 6
    ext = LinearCode.from_parity_check(h)
    assert ext.min_distance() == 4
    check_construction(ext, h, 4)


def test_extend_rejects_wrong_distance(hamming74):
    ext = extend_pcm(hamming74.parity_check)
    with pytest.raises(ValueError):
        extend_pcm(ext)  # that code has d = 4
    with pytest.raises(ValueError):
        extend_pcm(spc_matrix(4, 3))  # not binary


def test_rm_generator_bootstraps(gf2):
    assert np.array_equal(rm_generator(0, 3).data, np.ones((1, 8), np.uint8))
    assert np.array_equal(rm_generator(3, 3).data, np.eye(8, dtype=np.uint8))
    g13 = rm_generator(1, 3)
    code = LinearCode.from_generator(g13)
    assert (code.n, code.k, code.min_distance()) == (8, 4, 4)


def test_rm_generator_dimensions():
    for m in range(0, 7):
        for r in range(0, m + 1):
            g = rm_generator(r, m)
            assert g.n_rows == sum(comb(m, i) for i in range(r + 1))
            assert rank(g) == g.n_rows


def test_rm_stopping_pcm_small():
    h13 = rm_stopping_pcm(1, 3)
    assert h13.n_rows == 5
    assert stopping_distance(h13).s == 4
    code = LinearCode.from_parity_check(h13)
    assert (code.n, code.k) == (8, 4)

    for m in (1, 2, 3, 4):
        h0 = rm_stopping_pcm(0, m)
        assert np.array_equal(h0.data, np.ones((1, 1 << m), np.uint8))
        assert stopping_distance(h0).s == 2
        assert stopping_distance(rm_stopping_pcm(m - 1, m)).s == 1 << m


def test_rm_subcode_nesting():
    gf2 = make_field(2)
    for m in range(1, 6):
        for r in range(1, m + 1):
            big = LinearCode.from_generator(rm_generator(r, m))
            small = rm_generator(r - 1, m)
            for row in small.data:
                assert big.contains(row)


def test_rm_index_validation():
    with pytest.raises(ValueError):
        rm_stopping_pcm(3, 2)
    with pytest.raises(ValueError):
        rm_generator(-1, 3)


def test_colex_order(hexacode):
    # MDS rows follow their supports in colexicographic order, which is
    # ascending mask order
    full = mds_pcm(hexacode).row_masks()
    assert full == tuple(int(m) for m in weight_masks(6, 4))
    pruned = pruned_mds_pcm(hexacode).row_masks()
    assert list(pruned) == sorted(set(pruned)) and set(pruned) < set(full)
    assert [mask_to_positions(int(m)) for m in weight_masks(5, 3)] == \
        sorted(combinations(range(5), 3), key=lambda t: t[::-1])


def test_mds_pcm_hexacode(hexacode):
    h = mds_pcm(hexacode)
    assert h.n_rows == comb(6, 2) == 15
    assert rank(h) == 3
    check_construction(hexacode, h, 4)
    # every (d-1)-subset is covered by rows forming an identity pattern
    for t_set in combinations(range(6), 3):
        for p in t_set:
            hits = [row for row in h.data
                    if set(np.nonzero(row)[0]) & set(t_set) == {p}]
            assert hits


def test_mds_pcm_rs524():
    code = rs_code(5, 2, 5)
    assert code.min_distance() == 4
    h = mds_pcm(code)
    assert h.n_rows == comb(5, 2) == 10
    check_construction(code, h, 4)


def test_mds_pcm_spc(gf2):
    code = LinearCode.from_parity_check(spc_matrix(6))
    h = mds_pcm(code)
    assert h.n_rows == 1
    check_construction(code, h, 2)


def test_mds_rejects_non_mds(hamming74):
    with pytest.raises(NotMDSError):
        mds_pcm(hamming74)


@pytest.mark.parametrize("w", [5, 6])
def test_support_row_refuses_non_mds(hamming74, w):
    # the [7, 4, 3] Hamming code's dual words all have weight 4: the checks
    # vanishing off five positions span one of them, off six positions two
    for support in combinations(range(7), w):
        with pytest.raises(NotMDSError, match="input is not MDS"):
            _support_rows(hamming74,
                          [positions_mask(support, 7, "position")[0]])


@pytest.mark.parametrize("per_block", [1, 4, 1000])
def test_mds_pcm_names_the_first_failing_support(gf2, per_block):
    # the [7, 1, 7] repetition generator passes the Singleton check, but the
    # checks span the words with even weight on positions 0..5 and any
    # symbol at 6.  So a support {i, 6} carries no such word, and (0, 6)
    # comes first of those in colexicographic order, 16th after all of
    # 0..5: in a later block when the blocks are small.
    code = LinearCode(Matrix(gf2, [[1] * 7]),
                      nullspace(Matrix(gf2, [[1] * 6 + [0]])))
    with mock.patch.object(construct, "SUPPORT_BLOCK", per_block * 6 * 7), \
            pytest.raises(NotMDSError, match=re.escape(
                "no dual codeword with full support on (0, 6); "
                "input is not MDS")):
        mds_pcm(code)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_support_rows_match_the_row_space(data):
    # checks of any code: a support passes when the words of the row space
    # that vanish off it are the multiples of one word, with full support
    # on it; otherwise the first support that fails is named, also when
    # the supports are reduced in blocks of a few.  Reed-Solomon checks
    # (q prime, n <= q) pass on every support.
    rs = data.draw(st.booleans(), label="rs")
    q = data.draw(st.sampled_from([3, 5, 7] if rs else [2, 3, 4, 5, 7]),
                  label="q")
    n = data.draw(st.integers(2, min(q, 8) if rs else 8), label="n")
    m_max = max(r for r in range(1, n) if q ** r <= 4096)
    m = m_max - data.draw(st.integers(0, m_max - 1), label="m_max - m")
    if rs:
        points = data.draw(st.permutations(range(q)))[:n]
        rows = [[pow(x, i, q) for x in points] for i in range(m)]
    else:
        rows = data.draw(st.lists(st.lists(
            st.integers(0, q - 1), min_size=n, max_size=n),
            min_size=m, max_size=m))
    h = Matrix(make_field(q), rows)
    assume(rank(h) == m)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    supports = [int(s) for s in weight_masks(n, n - m + 1)
                if rng.random() < 0.8]
    words = [w for w in ref_codewords(rows, q) if any(w)]
    want, failing = [], None
    for mask in supports:
        support = mask_to_positions(mask)
        inside = [w for w in words
                  if all(x == 0 for j, x in enumerate(w) if j not in support)]
        if len(inside) != q - 1 or not all(all(w[j] for j in support)
                                           for w in inside):
            failing = support
            break
        want.append(next(list(w) for w in inside if w[support[0]] == 1))
    code = LinearCode.from_parity_check(h)
    per_block = data.draw(st.integers(1, 4), label="supports per block")
    with mock.patch.object(construct, "SUPPORT_BLOCK", per_block * m * n):
        if failing is None:
            assert _support_rows(code, supports).data.tolist() == want
        else:
            with pytest.raises(NotMDSError,
                               match=re.escape(f"on {failing};")):
                _support_rows(code, supports)


def test_graham_sloane_partition_properties():
    classes = graham_sloane_partition(6, 4)
    assert len(classes) == 6
    all_supports = [s for cls in classes for s in cls]
    assert sorted(all_supports) == sorted(combinations(range(6), 4))
    for cls in classes:
        for a, b in combinations(cls, 2):
            diff = len(set(a) ^ set(b))
            assert diff >= 4
    sizes = [len(c) for c in classes]
    assert sizes == sorted(sizes, reverse=True)


def test_graham_sloane_full_weight():
    classes = graham_sloane_partition(7, 7)
    assert sum(len(c) for c in classes) == 1
    assert len([c for c in classes if c]) == 1


def test_graham_sloane_union_bound():
    for n, w in ((6, 4), (7, 3), (8, 4)):
        classes = graham_sloane_partition(n, w)
        for m in range(1, n + 1):
            got = sum(len(c) for c in classes[:m])
            assert got * n >= m * comb(n, w)


def test_pruned_mds_hexacode(hexacode):
    h = pruned_mds_pcm(hexacode)
    assert h.n_rows <= 10  # (max(4, 3) / 6) * 15
    assert rank(h) == 3
    check_construction(hexacode, h, 4)


def test_pruned_mds_rs524():
    code = rs_code(5, 2, 5)
    h = pruned_mds_pcm(code)
    assert h.n_rows <= 6  # (max(3, 3) / 5) * 10
    check_construction(code, h, 4)


def test_pruned_mds_gf7():
    code = rs_code(6, 3, 7)
    assert code.min_distance() == 4
    full = mds_pcm(code)
    assert full.n_rows == comb(6, 2)
    check_construction(code, full, 4)
    pruned = pruned_mds_pcm(code)
    assert pruned.n_rows * 6 <= max(4, 3) * comb(6, 2)
    check_construction(code, pruned, 4)


def test_pruned_mds_rejects_d2(gf2):
    code = LinearCode.from_parity_check(spc_matrix(6))
    with pytest.raises(ValueError):
        pruned_mds_pcm(code)


def test_weight_one_combination_depth():
    for t in range(2, 6):
        assert weight_one_combination_depth(t) == t - 1
    with pytest.raises(ValueError):
        weight_one_combination_depth(6)


def test_repetition_code_constructions(gf2):
    # (5,1,5) repetition: both the all-dual-words and the MDS subset
    # constructions must reach full stopping distance 5
    rep = LinearCode.from_generator(Matrix(gf2, [[1] * 5]))
    h = full_dual_pcm(rep)
    assert h.n_rows == 15
    check_construction(rep, h, 5)
    m = mds_pcm(rep)
    assert m.n_rows == comb(5, 3)
    assert all(int(np.count_nonzero(row)) == 2 for row in m.data)
    check_construction(rep, m, 5)


def test_rm_parameter_formulas():
    # length 2^m, dimension sum C(m,i), distance 2^(m-r)
    for m in range(1, 5):
        for r in range(0, m + 1):
            code = LinearCode.from_generator(rm_generator(r, m))
            assert code.n == 1 << m
            assert code.k == sum(comb(m, i) for i in range(r + 1))
            assert code.min_distance() == 1 << (m - r)


@st.composite
def small_codes(draw):
    """Generalised Reed-Solomon codes (MDS) or random codes, with at most
    4096 dual words so that greedy_construct stays quick."""
    if draw(st.booleans()):
        q = draw(st.sampled_from([2, 3, 5, 7]))
        n = draw(st.integers(2, min(q, 7)))
        r_max = max(r for r in range(1, n) if q ** r <= 4096)
        k = draw(st.integers(n - r_max, n - 1))
        points = draw(st.permutations(range(q)))[:n]
        scale = draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
        rows = [[v * pow(x, i, q) % q for x, v in zip(points, scale)]
                for i in range(k)]
        return LinearCode.from_generator(Matrix(make_field(q), rows))
    q = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=m, max_size=m))
    code = LinearCode.from_parity_check(Matrix(make_field(q), rows))
    assume(0 < code.k < n)
    return code


@settings(max_examples=80, deadline=None)
@given(small_codes())
def test_constructions_verify_full_stopping(code):
    d = code.min_distance()
    builds = [greedy_construct]
    if d == code.n - code.k + 1:
        builds.append(mds_pcm)
        if d >= 3:
            builds.append(pruned_mds_pcm)
    for build in builds:
        assert verify_full_stopping(code, build(code)), build.__name__
