from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (ref_codewords, ref_dual_codewords, ref_mat_mul,
                       ref_min_distance, ref_rank)
from stopred import linalg
from stopred._bits import mask_dtype, mask_to_positions, pack_rows, pack_words
from stopred.cli import load_asset
from stopred.construct import full_dual_pcm
from stopred.field import make_field
from stopred.linalg import (EnumerationTooLargeError, LinearCode, Matrix,
                            _enumerate_combinations, _rank_gf2, _rref,
                            _rref_stack,
                            dual_codewords, enumerate_codewords, mat_mul,
                            min_distance, nullspace, rank, rref)


def test_matrix_is_immutable_and_caches_an_immutable_tuple(gf2):
    rows = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    m = Matrix(gf2, rows)
    with pytest.raises(ValueError, match="read-only"):
        m.data[0, 0] = 0
    rows[0, 0] = 0  # the caller's array stays writable and is not shared
    assert m.data[0, 0] == 1
    masks = m.row_masks()
    assert masks == (0b011, 0b110)
    with pytest.raises(TypeError):
        masks[0] = 0
    assert m.row_masks() is masks


def test_rank_zero_matrix(gf2):
    assert rank(Matrix(gf2, np.zeros((3, 5), dtype=np.uint8))) == 0


def test_rank_golay_matrices():
    assert rank(load_asset("h24")) == 12
    hp24 = load_asset("hp24")
    assert rank(hp24) == 12
    # independent elimination oracle on the 34x24 matrix
    assert ref_rank(hp24.data.tolist(), 2) == 12


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4, 8, 9, 13]).flatmap(lambda q: st.tuples(
    st.just(q), st.integers(0, 4), st.integers(1, 4), st.integers(0, 4),
    st.integers(0, 2**32 - 1))))
def test_mat_mul_matches_reference(case):
    # the int64 product mod q for prime q; outer products summed by XOR for
    # q = 4, 8 and through the add table for q = 9; uint8 for every field
    q, r, t, c, seed = case
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, q, (r, t)), rng.integers(0, q, (t, c))
    got = mat_mul(make_field(q), a, b)
    assert got.shape == (r, c)
    assert got.dtype == np.uint8
    assert got.tolist() == ref_mat_mul(a.tolist(), b.tolist(), q)


def _low_rank(rng, f, m, n, t):
    """A random m x n matrix over f of rank at most t."""
    return mat_mul(f, rng.integers(0, f.q, size=(m, t)),
                   rng.integers(0, f.q, size=(t, n)))


@st.composite
def rank_matrices(draw):
    """Small, tall (more rows than columns, so `rank` reduces the columns),
    wide (more than 64 columns), zero-row or m x 0 matrices over GF(q),
    q in {2, 3, 4, 5, 8, 9, 13}, of a drawn rank bound."""
    f = make_field(draw(st.sampled_from([2, 3, 4, 5, 8, 9, 13])))
    m, n = draw(st.one_of(
        st.tuples(st.integers(1, 11), st.integers(1, 11)),
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(st.integers(n + 1, 40), st.just(n))),
        st.tuples(st.integers(1, 12), st.integers(65, 150)),
        st.tuples(st.just(0), st.integers(0, 80)),
        st.tuples(st.integers(1, 12), st.just(0))))
    t = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return f, _low_rank(rng, f, m, n, t)


@st.composite
def matrix_stacks(draw):
    """(field, (B, m, n) stack) over GF(q), q in {2, 3, 4, 5, 8, 9, 13, 251}:
    each matrix of its own drawn rank, with some columns zeroed and one row
    repeated; widths up to 10 or above 64, and B from 0 to 4."""
    f = make_field(draw(st.sampled_from([2, 3, 4, 5, 8, 9, 13, 251])))
    count = draw(st.integers(0, 4))
    m = draw(st.integers(0, 7))
    n = draw(st.one_of(st.integers(1, 10), st.integers(65, 80)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((count, m, n), dtype=np.uint8)
    for a in stack:
        a[:] = _low_rank(rng, f, m, n, int(rng.integers(0, min(m, n) + 1)))
        a[:, rng.random(n) < 0.2] = 0
        if m > 1:
            a[rng.integers(0, m)] = a[rng.integers(0, m)]
    return f, stack


@settings(max_examples=150, deadline=None)
@given(matrix_stacks())
@example((make_field(2), np.zeros((0, 3, 5), dtype=np.uint8)))
@example((make_field(251), np.array([[[250, 3, 0], [1, 1, 0]]],
                                     dtype=np.uint8)))
def test_stack_reduction_is_each_matrix_rref(case):
    f, stack = case
    reduced, pivots = _rref_stack(f, stack)
    assert reduced.shape == stack.shape and reduced.dtype == np.uint8
    n = stack.shape[2]
    for data, a, piv in zip(stack, reduced, pivots):
        alone, alone_piv = _rref(f, data)
        assert np.array_equal(a, alone) and piv[piv < n].tolist() == alone_piv
        r = int(np.count_nonzero(piv < n))
        # RREF: leading ones in rising columns, alone in their columns, then
        # zero rows
        assert piv[:r].tolist() == sorted(set(piv[:r].tolist()))
        assert (piv[r:] == n).all() and not a[r:].any()
        for i, c in enumerate(piv[:r]):
            assert a[i, c] == 1 and not a[i, :c].any()
            assert np.count_nonzero(a[:, c]) == 1
        # the same row space as the input
        assert r == ref_rank(data.tolist(), f.q)
        assert ref_rank(a.tolist() + data.tolist(), f.q) == r


@settings(max_examples=200, deadline=None)
@given(rank_matrices())
def test_packed_and_generic_rank_agree(fm):
    # the GF(2) kernel on packed ints and the q > 2 kernel on lists, each
    # against `_rref` and the textbook elimination
    f, data = fm
    assert (rank(Matrix(f, data)) == len(_rref(f, data)[1])
            == ref_rank(data.tolist(), f.q))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(0, 20), st.integers(0, 2**32 - 1))
def test_batch_rank_matches_single_rank(n, m, seed):
    # the array form of the kernel ranks the columns of each mask at once
    rng = np.random.default_rng(seed)
    bits = _low_rank(rng, make_field(2), m, n,
                     int(rng.integers(0, min(m, n) + 1)))
    rows = pack_rows(bits != 0)
    masks = pack_words(rng.integers(0, 2, size=(40, n)) != 0)[:, 0]
    batch = _rank_gf2(rows, masks.astype(mask_dtype(n)))
    assert batch.shape == masks.shape
    for mask, got in zip(masks.tolist(), batch.tolist()):
        cols = list(mask_to_positions(mask))
        assert (got == _rank_gf2(rows, mask)
                == ref_rank(bits[:, cols].tolist(), 2))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rank_invariant_under_row_ops(q):
    f = make_field(q)
    rng = np.random.default_rng(q)
    for _ in range(20):
        m, n = rng.integers(2, 9, size=2)
        data = rng.integers(0, q, size=(m, n)).astype(np.uint8)
        mat = Matrix(f, data)
        r = rank(mat)
        perm = rng.permutation(m)
        assert rank(Matrix(f, data[perm])) == r
        scaled = data.copy()
        row = rng.integers(0, m)
        c = int(rng.integers(1, q))
        scaled[row] = f.mul_arr(scaled[row], c)
        assert rank(Matrix(f, scaled)) == r


@st.composite
def field_matrices(draw):
    """A matrix over GF(q), q in {2, 3, 4, 8, 9}: zero-row, full-rank (an
    identity block among random columns), wide (more than 64 columns) or
    small, the last two of a drawn rank bound."""
    f = make_field(draw(st.sampled_from([2, 3, 4, 8, 9])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zero-row", "full-rank", "wide", "small"]))
    if kind == "zero-row":
        return f, np.zeros((0, draw(st.integers(0, 80))), dtype=np.uint8)
    m = draw(st.integers(1, 8))
    if kind == "full-rank":
        n = draw(st.integers(m, 12))
        data = np.hstack([np.eye(m, dtype=np.uint8),
                          rng.integers(0, f.q, size=(m, n - m))])
        return f, data[:, rng.permutation(n)].astype(np.uint8)
    n = draw(st.integers(65, 100) if kind == "wide" else st.integers(1, 10))
    return f, _low_rank(rng, f, m, n, draw(st.integers(0, min(m, n))))


@settings(max_examples=120, deadline=None)
@given(field_matrices())
def test_nullspace_and_code_bases_from_one_reduction(fm):
    f, data = fm
    m = Matrix(f, data)
    n = m.n_cols
    basis = nullspace(m)
    reduced = rref(m)
    r = ref_rank(data.tolist(), f.q)
    assert basis.n_rows == n - r and reduced.n_rows == r
    pivots = [int(np.flatnonzero(row)[0]) for row in reduced.data]
    free = [c for c in range(n) if c not in pivots]
    assert np.array_equal(basis.data[:, free],
                          np.eye(n - r, dtype=np.uint8))
    assert not np.any(mat_mul(f, data, basis.data.T))
    from_h = LinearCode.from_parity_check(m)
    assert from_h.generator == basis and from_h.parity_check == reduced
    from_g = LinearCode.from_generator(m)
    assert from_g.generator == reduced and from_g.parity_check == basis


def test_nullspace_identity(gf2):
    assert nullspace(Matrix(gf2, np.eye(4, dtype=np.uint8))).n_rows == 0


def test_nullspace_single_parity_check(gf2):
    ns = nullspace(Matrix(gf2, [[1, 1, 1, 1]]))
    assert ns.n_rows == 3
    assert all(int(row.sum()) % 2 == 0 for row in ns.data)
    assert rank(ns) == 3


def test_nullspace_h24_orthogonal():
    h24 = load_asset("h24")
    ns = nullspace(h24)
    assert ns.n_rows == 12
    assert not np.any(mat_mul(h24.field, h24.data, ns.data.T))


def test_dual_codewords_hamming(hamming74):
    words = dual_codewords(hamming74, include_zero=True)
    assert len(words) == 8
    # oracle: expand the 2^3 combinations of the simplex basis directly
    from itertools import product
    basis = hamming74.parity_check.data.tolist()
    expect = set()
    for c in product((0, 1), repeat=3):
        word = [0] * 7
        for ci, row in zip(c, basis):
            if ci:
                word = [a ^ b for a, b in zip(word, row)]
        expect.add(tuple(word))
    assert set(map(tuple, words.tolist())) == expect


def test_dual_codewords_golay24_self_dual(golay24):
    words = dual_codewords(golay24, include_zero=True)
    assert len(words) == 4096
    nz = dual_codewords(golay24, include_zero=False)
    assert len(nz) == 4095
    # lexicographic order, leftmost position most significant
    as_tuples = [tuple(w) for w in nz[:100].tolist()]
    assert as_tuples == sorted(as_tuples)


def test_dual_codewords_repetition(gf2):
    rep = LinearCode.from_generator(Matrix(gf2, [[1, 1, 1]]))
    words = dual_codewords(rep, include_zero=True)
    assert len(words) == 4
    assert all(int(w.sum()) % 2 == 0 for w in words)


def test_min_distance_golay(golay24, golay12):
    assert min_distance(golay24) == 8
    assert min_distance(golay12) == 6


def test_min_distance_repetition(gf2):
    for n in (3, 5, 8):
        rep = LinearCode.from_generator(Matrix(gf2, [[1] * n]))
        assert min_distance(rep) == n


def test_min_distance_zero_code(gf2):
    code = LinearCode.from_parity_check(Matrix(gf2, [[1]]))
    assert code.k == 0
    with pytest.raises(ValueError):
        code.min_distance()


def test_min_distance_matches_oracle():
    rng = np.random.default_rng(11)
    for q in (2, 3, 4, 8, 9):
        f = make_field(q)
        for _ in range(10):
            k, n = int(rng.integers(1, 4)), int(rng.integers(3, 8))
            gen = rng.integers(0, q, size=(k, n)).astype(np.uint8)
            code = LinearCode.from_generator(Matrix(f, gen))
            ref = ref_min_distance(gen.tolist(), q)
            if ref is None:
                continue
            assert code.min_distance() == ref


def test_enumerate_codewords_counts(hexacode, hamming74):
    f3 = make_field(3)
    rep = LinearCode.from_generator(Matrix(f3, [[1, 1, 1, 1]]))
    assert sum(1 for _ in enumerate_codewords(rep)) == 3

    hex_words = list(enumerate_codewords(hexacode))
    assert len(hex_words) == 64
    weights = {int(np.count_nonzero(w)) for w in hex_words}
    assert weights == {0, 4, 6}

    ham_words = list(enumerate_codewords(hamming74))
    assert len(ham_words) == 16
    assert sum(1 for w in ham_words if np.count_nonzero(w) == 3) == 7


@st.composite
def generator_bases(draw):
    """(q, n, rows): k = 0..n random rows over GF(2), GF(3), GF(4), GF(8)
    or GF(9), in no particular form and possibly dependent.  The reference
    enumerates all q^n words for the dual, so n <= 4 over GF(8) and GF(9)."""
    q = draw(st.sampled_from([2, 3, 4, 8, 9]))
    n = draw(st.integers(1, 6 if q <= 4 else 4))
    k = draw(st.integers(0, n))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=k, max_size=k))
    return q, n, rows


@settings(max_examples=80, deadline=None)
@given(generator_bases(), st.sampled_from([1, 8, linalg.SPAN_BLOCK]))
@example((9, 4, [[1, 2, 3, 4], [0, 5, 6, 7], [3, 0, 8, 1]]), 8)
def test_span_engine_matches_reference(basis, block):
    # SPAN_BLOCK = 1 or 8 leaves high rows, whose combinations are added to
    # the low block one by one; the code's parity check is a nullspace basis,
    # not in echelon form, so dual_codewords must reduce it to come out sorted
    q, n, rows = basis
    f = make_field(q)
    data = np.array(rows, np.uint8).reshape(len(rows), n)
    code = LinearCode.from_generator(Matrix(f, data))  # an rref generator
    gen = code.generator.data.tolist()
    with mock.patch.object(linalg, "SPAN_BLOCK", block):
        raw = np.concatenate(list(_enumerate_combinations(f, data)))
        lead = list(_enumerate_combinations(f, data, projective=True))
        words = [tuple(w) for w in enumerate_codewords(code)]
        dual = dual_codewords(code, include_zero=True).tolist()
        hstar = full_dual_pcm(code).data.tolist()
        if code.k:
            d, witness = code.min_distance(), code.min_weight_codeword()
    zero = [(0,) * n]
    assert [tuple(w) for w in raw.tolist()] == (
        ref_codewords(rows, q) if rows else zero)
    # projective: the combinations whose first nonzero coefficient is 1,
    # with multiplicity if the rows are dependent
    assert sorted(tuple(w) for b in lead for w in b.tolist()) == sorted(
        w for c, w in zip(product(range(q), repeat=len(rows)),
                          ref_codewords(rows, q))
        if any(c) and next(x for x in c if x) == 1)
    assert words == (ref_codewords(gen, q) if gen else zero)
    want = ref_dual_codewords(rows, q, n)
    assert [tuple(w) for w in dual] == want
    assert all(a < b for a, b in zip(dual, dual[1:]))
    assert hstar == [list(w) for w in want[1:]
                     if next(x for x in w if x) == 1]
    if code.k:
        # the least nonzero weight, witnessed by its first word in message
        # order
        weights = [n - w.count(0) for w in words]
        assert d == min(x for x in weights if x)
        assert tuple(witness.tolist()) == words[weights.index(d)]


def test_codewords_orthogonal_to_checks(golay12):
    h = golay12.parity_check
    for i, word in enumerate(enumerate_codewords(golay12)):
        if i >= 200:
            break
        assert not np.any(mat_mul(golay12.field, h.data, word[:, None]))


def test_rm_duality():
    from stopred.construct import rm_generator
    gf2 = make_field(2)
    for m in range(1, 6):
        for r in range(0, m):
            g = rm_generator(r, m)
            gd = rm_generator(m - r - 1, m)
            assert not np.any(mat_mul(gf2, g.data, gd.data.T))
            assert rank(g) + rank(gd) == 1 << m


def test_enumeration_guard(gf2):
    big = LinearCode.from_generator(Matrix(gf2, np.eye(27, dtype=np.uint8)))
    with pytest.raises(EnumerationTooLargeError):
        big.min_distance()


def test_matrix_entry_validation(gf2):
    with pytest.raises(ValueError):
        Matrix(gf2, [[0, 2]])


# a bare uint8 cast would wrap 256 to 0, truncate 1.7 to 1 and overflow on -1
@pytest.mark.parametrize("rows, shown", [(np.array([[256, 1]]), "256"),
                                         (np.array([[1.7, 1]]), "1.7"),
                                         ([[-1, 1]], "-1")],
                         ids=["wraps", "truncates", "overflows"])
def test_matrix_rejects_entries_the_cast_would_change(rows, shown):
    with pytest.raises(ValueError, match=rf"GF\(3\).*{shown}|{shown}.*GF\(3\)"):
        Matrix(make_field(3), rows)


@pytest.mark.parametrize("rows", [0, 1, 5])
@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 64, 65, 130])
def test_row_masks_match_per_entry_packing(rows, width):
    rng = np.random.default_rng(width * 8 + rows)
    data = rng.integers(0, 4, size=(rows, width)).astype(np.uint8)
    want = [sum(1 << j for j in range(width) if row[j]) for row in data]
    assert Matrix(make_field(4), data).row_masks() == tuple(want)
