import re
from contextlib import contextmanager
from dataclasses import FrozenInstanceError
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_parity_check
from reference import (f_add, f_mul, f_neg, ref_codewords, ref_ml_fails,
                       ref_peel, ref_rank)
from stopred import _bits, erasure, linalg
from stopred._bits import (mask_dtype, mask_to_positions, positions_mask,
                           weight_masks)
from stopred.cli import load_asset
from stopred.construct import rm_generator, rm_stopping_pcm
from stopred.erasure import (PsiProfile, _peel_residues, _psi_ml_by_weight,
                             _psi_ml_on_lattice, _psi_stop_by_weight,
                             _psi_stop_on_lattice, failure_curve,
                             iterative_decode, ml_decode, psi_ml, psi_stop)
from stopred.field import make_field
from stopred.linalg import (EnumerationTooLargeError, LinearCode, Matrix,
                            _rank_gf2, enumerate_codewords)
from stopred.stopping import is_stopping_set, stopping_distance


def test_peel_empty_pattern():
    h24 = load_asset("h24")
    out = iterative_decode(h24, ())
    assert out.success and not out.recovered


def test_peel_codeword_support_fails(golay24):
    h24 = load_asset("h24")
    word = golay24.min_weight_codeword()
    support = tuple(int(j) for j in np.nonzero(word)[0])
    out = iterative_decode(h24, support)
    assert not out.success
    assert out.residue
    assert is_stopping_set(h24, sorted(out.residue))


def test_peel_low_weight_always_recovers_hp24():
    hp24 = load_asset("hp24")
    rng = np.random.default_rng(2)
    for _ in range(200):
        w = int(rng.integers(0, 8))
        pattern = rng.choice(24, size=w, replace=False)
        assert iterative_decode(hp24, pattern).success


def test_peel_matches_reference():
    rng = np.random.default_rng(4)
    for q in (2, 3, 4):
        for _ in range(20):
            # n past 64 runs the int kernel beyond one machine word; sparse
            # rows make peeling do real work
            n = int(rng.integers(3, 71))
            m = int(rng.integers(1, 2 + n // 2))
            mat = random_parity_check(rng, q, n, m)
            data = mat.data.copy()
            data[rng.random(data.shape) < rng.random()] = 0
            mat = Matrix(mat.field, data)
            rows = mat.data.tolist()
            w = int(rng.integers(0, n + 1))
            pattern = tuple(int(x) for x in rng.choice(n, size=w, replace=False))
            got = iterative_decode(mat, pattern)
            assert got.residue == frozenset(ref_peel(rows, pattern))
            assert got.recovered == frozenset(pattern) - got.residue
            if n > 12:
                continue
            # the batch kernel, one weight level at a time
            for w in range(n + 1):
                level = weight_masks(n, w)
                batch = _peel_residues(mat.row_masks(), level)
                for mask, residue in zip(level, batch):
                    want = ref_peel(rows, mask_to_positions(int(mask)))
                    assert int(residue) == positions_mask(
                        want, n, "position")[0]


def _one_pass(masks, erased):
    for r in masks:
        x = erased & r
        if x and not x & (x - 1):
            erased ^= x
    return erased


def test_batched_peel_settles_patterns_at_different_passes():
    # checks {i, i + 1}, i = 6, ..., 0 in that order: a pass resolves only
    # the lowest erased position of a run above 0, so {1, ..., 7} takes 7
    # passes; position 8 is in no check, so patterns with it stay nonempty
    n = 9
    rows = [[int(j in (i, i + 1)) for j in range(n)] for i in range(6, -1, -1)]
    masks = Matrix(make_field(2), rows).row_masks()
    passes, e = 0, 0b11111110
    while e != _one_pass(masks, e):
        passes, e = passes + 1, _one_pass(masks, e)
    assert passes == 7 and e == 0
    # every pattern, shuffled so that live and settled ones interleave
    given = np.random.default_rng(16).permutation(1 << n).astype(np.uint16)
    kept = given.copy()
    got = _peel_residues(masks, given)
    assert np.array_equal(given, kept)
    assert got.dtype == given.dtype
    assert [int(x) for x in got] == [_peel_residues(masks, int(m))
                                     for m in given]
    for mask, residue in zip(given, got):
        want = ref_peel(rows, mask_to_positions(int(mask)))
        assert int(residue) == positions_mask(want, n, "position")[0]


@pytest.mark.parametrize("decode, pattern, entry", [
    (iterative_decode, [0.5, 3.9], "0.5"),
    (iterative_decode, [2, True], "True"),
    (ml_decode, np.array([True, False, True]), "np.True_"),
    (ml_decode, ["3"], "'3'"),
], ids=["float", "bool", "bool-mask", "string"])
def test_non_integer_positions_are_refused(decode, pattern, entry):
    message = re.escape(f"erased position {entry} is not an integer")
    with pytest.raises(ValueError, match=message):
        decode(load_asset("h12"), pattern)


@pytest.mark.parametrize("decode", [iterative_decode, ml_decode])
@pytest.mark.parametrize("name", ["h24", "h12"])
def test_out_of_range_positions_are_refused(decode, name):
    # each position is looked up before it is shifted, so 2**40 is refused
    # by name instead of being turned into a 2**40-bit mask
    h = load_asset(name)
    n = h.n_cols
    message = re.escape(f"erased position out of range [0, {n})")
    for bad in (-1, -n, n, 2 ** 40, np.int64(2 ** 40), -(2 ** 40)):
        with pytest.raises(ValueError, match=message):
            decode(h, [0, bad, 5])


@pytest.mark.parametrize("name", ["h24", "h12"])
def test_pattern_forms_and_repeats_agree(name):
    h = load_asset(name)
    n = h.n_cols
    assert iterative_decode(h, []) == erasure.PeelOutcome(frozenset(),
                                                          frozenset())
    assert ml_decode(h, [])
    rng = np.random.default_rng(18)
    patterns = [[], [3]] + [rng.choice(n, size=w, replace=False).tolist()
                            for w in range(1, n + 1)]
    for decode in (iterative_decode, ml_decode):
        assert decode(h, [3, 3]) == decode(h, [3])
        for pattern in patterns:
            want = decode(h, pattern)
            assert decode(h, tuple(pattern)) == want
            assert decode(h, (p for p in pattern)) == want
            assert decode(h, np.array(pattern, dtype=np.int64)) == want
            assert decode(h, pattern + pattern[::-1]) == want


def test_peel_outcome_is_immutable():
    out = iterative_decode(load_asset("h12"), [0, 1, 2])
    with pytest.raises(FrozenInstanceError):
        out.residue = frozenset()


def test_ml_decode_basics(golay24):
    h24 = load_asset("h24")
    rng = np.random.default_rng(6)
    for _ in range(50):
        w = int(rng.integers(0, 8))  # below d, always decodable
        pattern = rng.choice(24, size=w, replace=False)
        assert ml_decode(h24, pattern)
    for _ in range(20):
        pattern = rng.choice(24, size=13, replace=False)  # beyond the rank
        assert not ml_decode(h24, pattern)
    word = golay24.min_weight_codeword()
    assert not ml_decode(h24, np.nonzero(word)[0])


def test_ml_criterion_equals_support_oracle(hamming74, golay12, hexacode):
    # exhaust every erasure pattern of several n <= 12 codes against the
    # codeword-support criterion (supports enumerated once per code)
    rng = np.random.default_rng(8)
    rand_h = random_parity_check(rng, 2, 10, 5)
    rand_code = LinearCode.from_parity_check(rand_h)
    for code in (hamming74, hexacode, rand_code, golay12):
        h = code.parity_check
        supports = [frozenset(np.nonzero(w)[0].tolist())
                    for w in ref_codewords(code.generator.data.tolist(),
                                           code.field.q)]
        supports = [s for s in supports if s]
        for mask in range(1 << code.n):
            pattern = frozenset(j for j in range(code.n) if (mask >> j) & 1)
            got = ml_decode(h, pattern)
            oracle_fails = any(s <= pattern for s in supports)
            assert got == (not oracle_fails)


def _redundant_checks(rng, q, n, k):
    """(H rows, generator rows) of a random [n, k] code over GF(q), from the
    reference field operations alone: checks [A | I] and generator
    [I | -A^T], then a zero row, a copy of a check, a sum of checks and a
    multiple of one joined to H, rows shuffled, columns permuted alike."""
    r = n - k
    a = rng.integers(0, q, size=(r, k)).tolist()
    checks = [a[i] + [int(i == j) for j in range(r)] for i in range(r)]
    gen = [[int(i == j) for j in range(k)] + [f_neg(q, a[j][i])
                                              for j in range(r)]
           for i in range(k)]
    extra = [[0] * n]
    if r:
        total = [0] * n
        for i in rng.choice(r, size=int(rng.integers(1, r + 1)),
                            replace=False):
            total = [f_add(q, x, y) for x, y in zip(total, checks[i])]
        c = int(rng.integers(1, q))
        extra += [checks[int(rng.integers(r))], total,
                  [f_mul(q, c, x) for x in checks[int(rng.integers(r))]]]
    rows = checks + extra
    order, cols = rng.permutation(len(rows)), rng.permutation(n)
    return ([[rows[i][j] for j in cols] for i in order],
            [[row[j] for j in cols] for row in gen])


def test_ml_decode_on_redundant_and_rank_deficient_checks():
    # every pattern, the empty one and those heavier than rank(H) included;
    # k = n gives H of zero rows only
    rng = np.random.default_rng(14)
    for q, k_max in ((2, 6), (3, 3), (4, 3)):
        for _ in range(10):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(0, min(k_max, n) + 1))
            rows, gen = _redundant_checks(rng, q, n, k)
            assert ref_rank(rows, q) == n - k < len(rows)
            h = Matrix(make_field(q), rows)
            for mask in range(1 << n):
                pattern = mask_to_positions(mask)
                assert ml_decode(h, pattern) == \
                    (not ref_ml_fails(gen, q, pattern))
        # the all-zero H, with no rows or with two: only the empty pattern
        # is decodable
        for m in (0, 2):
            h = Matrix(make_field(q), np.zeros((m, 5), dtype=np.uint8))
            assert [ml_decode(h, mask_to_positions(mask))
                    for mask in range(1 << 5)] == [True] + [False] * 31


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 6), (3, 3), (4, 3)]), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_ml_decode_splits_pivot_columns(q_and_k, n, seed, data):
    q, k_max = q_and_k
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, min(k_max, n) + 1))
    rows, gen = _redundant_checks(rng, q, n, k)
    h = Matrix(make_field(q), rows)
    # column j of H is a non-pivot column of its reduced form iff it depends
    # on the columns before it: iff it is the last position of the support
    # of some nonzero codeword
    supports = [{j for j, x in enumerate(w) if x}
                for w in ref_codewords(gen, q) if any(w)]
    non_pivot = sorted({max(s) for s in supports})
    pivot = sorted(set(range(n)) - set(non_pivot))
    bits = h._ml_form()[2]
    assert [j for j in range(n) if bits[j]] == pivot
    assert [b for b in bits if b] == [1 << i for i in range(len(pivot))]
    patterns = [data.draw(st.lists(st.sampled_from(columns), unique=True)
                          if columns else st.just([]))
                for columns in (pivot, non_pivot, list(range(n)))]
    if supports:
        # a codeword support mixes pivot and non-pivot columns: dependent,
        # and often independent again without one of its positions
        support = data.draw(st.sampled_from(supports))
        patterns += [sorted(support | set(data.draw(st.lists(
                         st.integers(0, n - 1))))),
                     sorted(support - {data.draw(st.sampled_from(
                         sorted(support)))})]
    for pattern in patterns:
        assert ml_decode(h, pattern) == (not ref_ml_fails(gen, q, pattern))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(1, 80),
       st.integers(0, 2 ** 32 - 1))
@example(2, 70, 1)
def test_int_and_array_peel_agree(q, n, seed):
    # past 64 columns the array holds Python ints (object dtype)
    rng = np.random.default_rng(seed)
    rows, _ = _redundant_checks(rng, q, n, int(rng.integers(0, n + 1)))
    masks = Matrix(make_field(q), rows).row_masks()
    erased = rng.random((40, n)) < rng.random((40, 1))
    ints = [positions_mask(np.flatnonzero(e), n, "position")[0]
            for e in erased]
    batch = _peel_residues(masks, np.array(
        ints, dtype=object if n > 64 else mask_dtype(n)))
    got = [_peel_residues(masks, m) for m in ints]
    assert [int(x) for x in batch] == got
    for mask, residue in zip(ints, got):
        assert residue == positions_mask(
            ref_peel(rows, mask_to_positions(mask)), n, "position")[0]


def test_psi_ml_golay24(golay24):
    profile = psi_ml(golay24)
    assert profile.counts[:13] == [0, 0, 0, 0, 0, 0, 0, 0,
                                   759, 12144, 91080, 425040, 1313116]
    for w in range(13, 25):
        assert profile.counts[w] == comb(24, w)
    # the closed form over the 759 minimum-weight supports
    for w in range(8, 12):
        assert profile.counts[w] == comb(16, w - 8) * 759


def test_psi_stop_golay24():
    psi_h = psi_stop(load_asset("h24"), matrix_id="h24")
    assert psi_h.counts[:13] == [0, 0, 0, 0, 110, 2277, 19723, 100397,
                                 343035, 844459, 1568875, 2274130, 2637506]
    psi_hp = psi_stop(load_asset("hp24"), matrix_id="hp24")
    assert psi_hp.counts[:13] == [0, 0, 0, 0, 0, 0, 0, 0,
                                  3598, 82138, 585157, 1717082, 2556402]
    for w in range(13, 25):
        assert psi_h.counts[w] == psi_hp.counts[w] == comb(24, w)


def test_psi_ternary_golay(golay12):
    assert psi_ml(golay12).counts == [0, 0, 0, 0, 0, 0, 132] + \
        [comb(12, w) for w in range(7, 13)]
    assert psi_stop(load_asset("h12")).counts[:7] == [0, 0, 0, 20, 150, 456, 758]
    assert psi_stop(load_asset("hp12")).counts[:7] == [0, 0, 0, 0, 0, 0, 377]


def test_psi_invariants_random_codes():
    rng = np.random.default_rng(10)
    for q in (2, 3):
        for _ in range(6):
            n = int(rng.integers(4, 11))
            m = int(rng.integers(1, 5))
            mat = random_parity_check(rng, q, n, m)
            code = LinearCode.from_parity_check(mat)
            if code.k == 0:
                continue
            p_ml = psi_ml(code)
            p_it = psi_stop(mat)
            for w in range(n + 1):
                assert 0 <= p_ml.counts[w] <= comb(n, w)
                assert p_it.counts[w] >= p_ml.counts[w]
                if w and p_it.counts[w - 1] == comb(n, w - 1):
                    assert p_it.counts[w] == comb(n, w)


def test_psi_wmax_truncation(golay24):
    profile = psi_ml(golay24, w_max=9)
    assert profile.counts[8] == 759 and profile.counts[9] == 12144
    assert profile.counts[10] is None and profile.counts[11] is None
    assert profile.counts[13] == comb(24, 13)  # rank fill still applies
    with pytest.raises(ValueError):
        failure_curve(profile, [0.1])


@pytest.mark.parametrize("w_max", [-1, -2])
def test_negative_w_max_is_refused(golay24, w_max):
    message = f"w_max must be >= 0, got {w_max}"
    with pytest.raises(ValueError, match=message):
        psi_stop(load_asset("h24"), w_max=w_max)
    with pytest.raises(ValueError, match=message):
        psi_ml(golay24, w_max=w_max)


def test_peel_residue_is_stopping_set_and_confluent():
    h24 = load_asset("h24")
    masks = h24.row_masks()
    rng = np.random.default_rng(12)
    failing = []
    while len(failing) < 10_000:
        block = rng.random((20_000, 24)) < 0.4
        patterns = (block.astype(np.uint64) <<
                    np.arange(24, dtype=np.uint64)).sum(axis=1).astype(np.uint32)
        residues = _peel_residues(masks, patterns)
        failing.extend(int(x) for x in patterns[residues != 0])
    failing = np.array(failing[:10_000], dtype=np.uint32)
    base = _peel_residues(masks, failing)
    assert np.all(base != 0)
    for seed in (1, 2, 3):
        order = np.random.default_rng(seed).permutation(len(masks))
        again = _peel_residues([masks[i] for i in order], failing)
        assert np.array_equal(base, again)
    # every residue is itself a stopping set
    for mask in base[:200]:
        positions = [j for j in range(24) if (int(mask) >> j) & 1]
        assert is_stopping_set(h24, positions)


def test_failure_curve_endpoints_and_monotone(golay12):
    profile = psi_ml(golay12)
    pts = failure_curve(profile, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    assert pts[0][1] == 0.0  # psi(0) = 0
    assert pts[-1][1] == 1.0  # psi(n) = 1
    probs = [p for _, p in pts]
    assert all(a <= b + 1e-15 for a, b in zip(probs, probs[1:]))


def test_curve_ordering_golay24(golay24):
    p_ml = psi_ml(golay24)
    p_h = psi_stop(load_asset("h24"))
    p_hp = psi_stop(load_asset("hp24"))
    grid = [0.05 * i for i in range(1, 11)]
    c_ml = failure_curve(p_ml, grid)
    c_hp = failure_curve(p_hp, grid)
    c_h = failure_curve(p_h, grid)
    for (_, a), (_, b), (_, c) in zip(c_ml, c_hp, c_h):
        assert a <= b + 1e-12 and b <= c + 1e-12


def test_monte_carlo_matches_curve(golay24):
    """Empirical failure rate at p = 0.3 within 4 standard errors, both decoders."""
    h24 = load_asset("h24")
    masks = h24.row_masks()
    trials = 1_000_000
    rng = np.random.default_rng(42)
    block = rng.random((trials, 24)) < 0.3
    patterns = (block.astype(np.uint64) <<
                np.arange(24, dtype=np.uint64)).sum(axis=1).astype(np.uint32)

    it_rate = np.count_nonzero(_peel_residues(masks, patterns)) / trials
    it_true = failure_curve(psi_stop(h24), [0.3])[0][1]
    se = (it_true * (1 - it_true) / trials) ** 0.5
    assert abs(it_rate - it_true) <= 4 * se

    dependent = _rank_gf2(masks, patterns) < np.bitwise_count(patterns)
    ml_rate = np.count_nonzero(dependent) / trials
    ml_true = failure_curve(psi_ml(golay24), [0.3])[0][1]
    se = (ml_true * (1 - ml_true) / trials) ** 0.5
    assert abs(ml_rate - ml_true) <= 4 * se


def test_psi_csv_round_trip(golay12):
    profile = psi_ml(golay12)
    text = profile.to_csv()
    assert text.splitlines()[0] == "w,count"
    back = PsiProfile.from_csv(text)
    assert back.counts == profile.counts


def test_psi_csv_refuses_to_drop_weight_n():
    # rank(H) = n = 3, so no shortcut fills weight 3 under a w_max of 2
    h = Matrix(make_field(3), [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    truncated = psi_stop(h, w_max=2)
    assert truncated.counts == [0, 0, 0, None]
    with pytest.raises(ValueError, match="weight 3"):
        truncated.to_csv()
    full = psi_stop(h)
    assert failure_curve(full, [0.5])[0][1] == 0.125
    # a gap below n still reads back as a gap, which failure_curve refuses
    gap = PsiProfile(3, "ML", [0, 0, None, 1])
    back = PsiProfile.from_csv(gap.to_csv())
    assert back.counts == gap.counts
    with pytest.raises(ValueError):
        failure_curve(back, [0.5])


@pytest.mark.parametrize("text, message", [
    ("w,count\n-1,5\n0,0\n1,1\n", "weight -1 is negative"),
    ("w,count\n0,0\n1,1\n1,0\n", "weight 1 is repeated"),
], ids=["negative", "repeated"])
def test_psi_csv_rejects_bad_weight(text, message):
    with pytest.raises(ValueError, match=message):
        PsiProfile.from_csv(text)


@st.composite
def small_matrices(draw, max_rows_by_q):
    q = draw(st.sampled_from(sorted(max_rows_by_q)))
    n = draw(st.integers(1, 9))
    m = draw(st.integers(0, max_rows_by_q[q]))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=m, max_size=m))
    return Matrix(make_field(q), np.array(rows, dtype=np.uint8).reshape(m, n))


def _oracle_table(n, fails):
    counts = [0] * (n + 1)
    for mask in range(1 << n):
        pattern = [j for j in range(n) if (mask >> j) & 1]
        counts[len(pattern)] += bool(fails(pattern))
    return counts


@contextmanager
def lattice_chunk(size):
    """Shrink the lattice chunk so that n <= 9 spans several chunks."""
    with mock.patch.object(_bits, "LATTICE_CHUNK", size), \
            mock.patch.object(erasure, "LATTICE_CHUNK", size):
        yield


CHUNKS = st.sampled_from([1, 8, _bits.LATTICE_CHUNK])


@settings(max_examples=60, deadline=None)
@given(small_matrices({2: 11, 3: 11, 4: 11}), CHUNKS)
# no rows: every nonempty pattern fails; the identity: no stopping set,
# s = n + 1, and rank n
@example(Matrix(make_field(3), np.zeros((0, 4), dtype=np.uint8)), 1)
@example(Matrix(make_field(2), np.eye(6, dtype=np.uint8)), 8)
def test_psi_stop_lattice_matches_oracle_and_per_weight(h, chunk):
    rows = h.data.tolist()
    with lattice_chunk(chunk):
        table = _psi_stop_on_lattice(h)
    assert table == _oracle_table(h.n_cols, lambda e: ref_peel(rows, e))
    assert table == _psi_stop_by_weight(h, None)
    # every cut: the weights below s(H) are filled in, not peeled
    for w_max in range(h.n_cols + 1):
        cut = _psi_stop_by_weight(h, w_max)
        assert cut[:w_max + 1] == table[:w_max + 1]
        assert all(c is None or c == t for c, t in zip(cut, table))


# generators stay at q^k <= 169 codewords: the oracle re-enumerates the
# code for every one of the 2^n patterns
@settings(max_examples=100, deadline=None)
@given(small_matrices({2: 6, 3: 3, 4: 3, 5: 3, 13: 2}), CHUNKS)
# H gets a column led by 7, a symbol other than +-1, where -x and -1/x differ
@example(Matrix(make_field(13), [[0, 3, 5, 0, 7]]), 8)
def test_psi_ml_lattice_matches_oracle_and_per_weight(g, chunk):
    code = LinearCode.from_generator(g)
    rows, q = g.data.tolist(), g.field.q
    with lattice_chunk(chunk):
        table = _psi_ml_on_lattice(code)
    assert table == _oracle_table(g.n_cols, lambda e: ref_ml_fails(rows, q, e))
    assert table == _psi_ml_by_weight(code, None)


# n per field keeps the k = n codes at q^n <= 4096 codewords
@pytest.mark.parametrize("q, n", [(2, 8), (3, 7), (4, 6), (5, 5), (7, 4)])
def test_codeword_supports_match_every_nonzero_codeword(q, n):
    # one word per projective class marks the support of every nonzero
    # codeword, whatever the blocks of the span engine and the lattice
    rng = np.random.default_rng(q)
    f = make_field(q)
    for k in range(n + 1):
        g = Matrix(f, rng.integers(0, q, size=(k, n), dtype=np.uint8))
        code = LinearCode.from_generator(g)
        want = {int(sum(1 << j for j in np.flatnonzero(w)))
                for w in enumerate_codewords(code)} - {0}
        for chunk, span in ((1, 1), (8, 4), (_bits.LATTICE_CHUNK,
                                             linalg.SPAN_BLOCK)):
            with lattice_chunk(chunk), \
                    mock.patch.object(linalg, "SPAN_BLOCK", span):
                words = erasure._codeword_supports(code)
            got = {64 * i + b for i, word in enumerate(words.tolist())
                   for b in range(64) if word >> b & 1}
            assert got == want


def _pack_lattice(marks, n):
    """marks (one truth value per subset) as uint64 words, bit s of word i
    for subset 64 i + s."""
    words = [0] * _bits.lattice_words(n)
    for subset, marked in enumerate(marks):
        if marked:
            words[subset >> 6] |= 1 << (subset & 63)
    return np.array(words, dtype=np.uint64)


def _submasks(s):
    t = s
    while True:
        yield t
        if not t:
            return
        t = (t - 1) & s


@pytest.mark.parametrize("chunk", [1, 8, _bits.LATTICE_CHUNK])
@pytest.mark.parametrize("n", range(15))
def test_packed_closure_and_count_match_brute_force(n, chunk):
    # n = 11..14 are counted only: a whole lattice chunk then indexes up to
    # 2^8 words by popcount, and the 3^n submasks would be slow
    rng = np.random.default_rng(n)
    for density in (3 / 2 ** n, 0.3, 1):
        marks = (rng.random(2 ** n) < density).tolist()
        words = _pack_lattice(marks, n)
        with lattice_chunk(chunk):
            assert _bits.count_by_popcount(words, n) == [
                sum(m for s, m in enumerate(marks) if s.bit_count() == w)
                for w in range(n + 1)]
        if n > 10:
            continue
        closed = [any(marks[t] for t in _submasks(s)) for s in range(2 ** n)]
        with lattice_chunk(chunk):
            _bits.up_close(words, n)
            assert words.tolist() == _pack_lattice(closed, n).tolist()
            assert _bits.count_by_popcount(words, n) == [
                sum(m for s, m in enumerate(closed) if s.bit_count() == w)
                for w in range(n + 1)]


@pytest.mark.parametrize("shape, table", [((1, 0), [0]), ((0, 0), [0]),
                                          ((0, 3), [0, 3, 3, 1])],
                         ids=["n=0", "n=0-no-rows", "0x3"])
def test_lattice_edge_shapes(shape, table):
    # with no columns only the empty pattern exists, and it decodes; with
    # no rows every nonempty pattern is a stopping set and dependent
    h = Matrix(make_field(2), np.zeros(shape, dtype=np.uint8))
    code = LinearCode.from_parity_check(h)
    assert psi_stop(h).counts == _psi_stop_on_lattice(h) == table
    assert psi_ml(code).counts == _psi_ml_on_lattice(code) == table
    assert _psi_stop_by_weight(h, None) == _psi_ml_by_weight(code, None) \
        == table


@pytest.mark.parametrize("chunk", [1, _bits.LATTICE_CHUNK])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_lattice_at_the_word_boundary(n, chunk):
    # n = 5 leaves the top half of the one word clear, n = 6 fills it, and
    # n = 7 takes two words
    rng = np.random.default_rng(n)
    for q in (2, 3):
        for m in (1, 2, n // 2, n):
            h = random_parity_check(rng, q, n, m)
            code = LinearCode.from_parity_check(h)
            with lattice_chunk(chunk):
                stop, ml = _psi_stop_on_lattice(h), _psi_ml_on_lattice(code)
            assert stop == _psi_stop_by_weight(h, None)
            assert ml == _psi_ml_by_weight(code, None)


@pytest.mark.parametrize("name", ["h24", "hp24", "h12", "hp12", "hexacode"])
def test_lowest_failing_weight_is_s_and_d(name):
    h = load_asset(name)
    code = LinearCode.from_parity_check(h)
    # every complete table of these codes is cheaper on the lattice
    with mock.patch.object(erasure, "weight_masks", side_effect=AssertionError):
        psi_h = psi_stop(h).counts
        psi_c = psi_ml(code).counts
    assert min(w for w, c in enumerate(psi_h) if c) == stopping_distance(h).s
    assert min(w for w, c in enumerate(psi_c) if c) == code.min_distance()


@contextmanager
def levels_requested():
    """Record the weights whose pattern masks the per-weight path builds."""
    seen = []

    def record(n, w):
        seen.append(w)
        return weight_masks(n, w)
    with mock.patch.object(erasure, "weight_masks", side_effect=record):
        yield seen


def test_per_weight_peel_starts_at_the_stopping_distance():
    # the RM(2,5) stopping rows have s = 8: a cut at 7 peels nothing
    with levels_requested() as seen:
        counts = _psi_stop_by_weight(rm_stopping_pcm(2, 5), 7)
        # a cut at 0 needs neither the search nor the empty pattern
        assert _psi_stop_by_weight(rm_stopping_pcm(2, 5), 0)[:2] == [0, None]
    assert seen == []
    assert counts[:9] == [0] * 8 + [None]
    # a check matrix of RM(3,5), s = 4 and rank 6: only weights 4..6 are
    # peeled
    with levels_requested() as seen:
        counts = _psi_stop_by_weight(rm_stopping_pcm(1, 5), None)
    assert seen == [4, 5, 6]
    assert counts[:8] == [0, 0, 0, 0, 1800, 66288, 715712, comb(32, 7)]
    # 128 columns, past the 64-bit pattern masks: RM(2,7) generator rows
    # as checks have s = 4, so a cut at 3 needs no masks
    assert _psi_stop_by_weight(rm_generator(2, 7), 3)[:5] == [0] * 4 + [None]


def test_per_weight_guard_still_refuses_past_the_search():
    # a check matrix of RM(2,6), s = 16 at n = 64, where C(64,6) is the
    # first level past the 2^25 guard: the search stops at weight 5 and
    # nothing is peeled before the refusal
    h = rm_stopping_pcm(3, 6)
    with mock.patch.object(erasure, "stopping_distance",
                           wraps=stopping_distance) as search, \
            mock.patch.object(erasure, "weight_masks",
                              side_effect=AssertionError):
        assert _psi_stop_by_weight(h, 5)[:7] == [0] * 6 + [None]
        with pytest.raises(EnumerationTooLargeError,
                           match=r"C\(64,6\) patterns exceed the per-weight "
                                 r"2\^25 guard"):
            _psi_stop_by_weight(h, 6)
    assert [c.kwargs["cap"] for c in search.call_args_list] == [6, 6]


@pytest.mark.parametrize("q", [11, 13])
def test_reed_solomon_ml_tables_stay_on_the_lattice(q):
    # the complete ML tables of RS [11, 5] and RS [13, 5] stay on the
    # lattice: for RS [11, 5] both paths took 21-32 ms, for RS [13, 5] the
    # lattice took 57-79 ms and the per-weight path 123-206 ms
    h = Matrix(make_field(q), [[pow(x, i, q) for x in range(q)]
                               for i in range(q - 5)])
    with mock.patch.object(erasure, "_psi_ml_on_lattice",
                           wraps=_psi_ml_on_lattice) as lattice:
        counts = psi_ml(LinearCode.from_parity_check(h)).counts
    lattice.assert_called_once()
    # MDS: any q - 5 columns of h are independent, any more are dependent
    assert counts == [0] * (q - 4) + [comb(q, w) for w in range(q - 4, q + 1)]


def _bit_rows_24():
    # an all-ones row over the five bit rows of the column index: rank 6
    j = np.arange(24)
    return np.vstack([np.ones(24, dtype=int), (j >> np.arange(5)[:, None]) & 1])


@pytest.mark.parametrize("rows, d", [(np.ones((1, 24), dtype=int), 2),
                                     (_bit_rows_24(), 4)],
                         ids=["spc24", "bits24"])
def test_high_rate_tables_stay_per_weight(rows, d):
    # rank 1 or 6 on 24 positions: the per-weight path tests the 25 or
    # 190 051 patterns of weight <= rank, where the lattice would cover 2^24
    # subsets and enumerate 2^23 or 2^18 codewords
    h = Matrix(make_field(2), rows.astype(np.uint8))
    code = LinearCode.from_parity_check(h)
    with mock.patch.object(erasure, "_stopping_sets",
                           side_effect=AssertionError), \
            mock.patch.object(erasure, "_codeword_supports",
                              side_effect=AssertionError):
        psi_h = psi_stop(h).counts
        psi_c = psi_ml(code).counts
    assert min(w for w, c in enumerate(psi_h) if c) == stopping_distance(h).s
    assert min(w for w, c in enumerate(psi_c) if c) == d
    if len(rows) == 1:
        assert psi_h == psi_c == [0, 0] + [comb(24, w) for w in range(2, 25)]


def test_psi_ml_per_weight_above_32_check_rows():
    # n = 36 and n - k = 33: 64-bit pattern masks and more check rows than
    # 32 bits; the codeword supports {5, 34} and {0, 17, 33} straddle bit 32
    g = np.zeros((3, 36), dtype=np.uint8)
    g[0, [5, 34]] = 1
    g[1, [0, 17, 33]] = 1
    g[2, ::2] = 1
    code = LinearCode.from_generator(Matrix(make_field(2), g))
    assert code.n - code.k == 33
    counts = psi_ml(code, w_max=3).counts
    rows = g.tolist()
    assert counts[:4] == [sum(ref_ml_fails(rows, 2, p)
                              for p in combinations(range(36), w))
                          for w in range(4)] == [0, 0, 1, 35]
    assert counts[4:34] == [None] * 30
    assert counts[34:] == [comb(36, w) for w in (34, 35, 36)]
