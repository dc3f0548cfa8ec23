import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference import (ref_codewords, ref_greedy, ref_rank,
                       ref_stopping_distance)
from stopred._bits import (bit_planes, mask_dtype, meet_once, support_positions,
                           weight_levels)
from stopred.cli import load_asset
from stopred.construct import full_dual_pcm, rm_generator
from stopred.field import make_field
from stopred import greedy
from stopred.greedy import (RedundancyResult, exact_stopping_redundancy,
                            greedy_construct)
from stopred.linalg import LinearCode, Matrix, rank
from stopred.stopping import stopping_distance, verify_full_stopping


@st.composite
def set_families(draw, lo, hi):
    """(n, groups of sets, supports) over n in lo..hi positions; the groups
    always include an empty one and one of 64 sets, and the supports a
    single position."""
    n = draw(st.integers(lo, hi))
    masks = st.integers(0, (1 << n) - 1)
    sizes = draw(st.permutations(
        [0, 64] + draw(st.lists(st.integers(1, 130), max_size=2))))
    groups = [draw(st.lists(masks, min_size=k, max_size=k)) for k in sizes]
    supports = [1 << draw(st.integers(0, n - 1))] + draw(
        st.lists(masks, min_size=0, max_size=6))
    return n, groups, supports


@pytest.mark.parametrize("lo, hi", [(1, 32), (33, 64)],
                         ids=["uint32", "uint64"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_meet_once_is_exactly_one_common_position(lo, hi, data):
    n, groups, supports = data.draw(set_families(lo, hi))
    dt = mask_dtype(n)
    planes, starts = bit_planes(n, [np.array(g, dtype=dt) for g in groups])
    assert planes.shape == (n + 1, sum(-(-len(g) // 64) for g in groups))
    positions = support_positions(np.array(supports, dtype=dt), n)
    once = meet_once(planes, positions)
    width = max(c.bit_count() for c in supports)
    assert np.array_equal(meet_once(planes, positions[:, :width]), once)
    for c, row in zip(supports, once):
        got = int.from_bytes(row.tobytes(), "little")
        want = sum(1 << (64 * int(start) + k)
                   for g, start in zip(groups, starts)
                   for k, s in enumerate(g) if (s & c).bit_count() == 1)
        assert got == want


def test_greedy_golay24(golay24):
    h = greedy_construct(golay24)
    assert h.n_rows <= 40  # 34 expected under this tie-break
    assert rank(h) == 12
    assert verify_full_stopping(golay24, h)


def test_greedy_golay12(golay12):
    h = greedy_construct(golay12)
    assert h.n_rows <= 26  # 22 reachable under some tie-breaking orders
    assert verify_full_stopping(golay12, h)


def test_greedy_spc():
    spc = LinearCode.from_parity_check(Matrix(make_field(2), [[1] * 7]))
    h = greedy_construct(spc)
    assert h.n_rows == 1
    assert np.array_equal(h.data, np.ones((1, 7), np.uint8))


@pytest.mark.parametrize("checks", [
    lambda: load_asset("h24"),
    lambda: load_asset("h12"),
    lambda: load_asset("hexacode"),
    lambda: rm_generator(1, 4),
], ids=["golay24", "h12", "hexacode", "eh16"])
def test_greedy_batches_do_not_change_the_rows(checks, monkeypatch):
    # one candidate per batch against the default mixed-weight batches (the
    # h24 dual mixes weights 8, 12 and 16 in its stale runs)
    code = LinearCode.from_parity_check(checks())
    batched = greedy_construct(code)
    monkeypatch.setattr(greedy, "BATCH_WORDS", 1)
    single = greedy_construct(code)
    assert np.array_equal(single.data, batched.data)


@st.composite
def scored_covers(draw):
    """(q, n, check rows, picks): a small code and up to four picks of its
    projective dual classes, each taken modulo the class count."""
    q = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2, {2: 9, 3: 7}.get(q, 6)))
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=m, max_size=m))
    picks = draw(st.lists(st.integers(0, 200), max_size=4))
    return q, n, rows, picks


# the [8, 4, 4] extended Hamming code; classes 14 (all ones), 0 (11110000)
# and 13 (00001111) are nested and disjoint, so atoms are empty
EH8_NESTED = (2, 8, rm_generator(1, 3).data.tolist(), [14, 0, 13, 1])


@settings(max_examples=120, deadline=None)
@given(scored_covers())
@example(EH8_NESTED)
@example((2, 6, [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]],
          [0, 2, 6]))
def test_closed_scores_match_the_kernel(case):
    # the closed form against meet_once over the planes of the uncovered
    # sets, empty levels dropped as greedy drops them
    q, n, rows, picks = case
    code = LinearCode.from_parity_check(Matrix(make_field(q), rows))
    assume(1 <= n - code.k < n)
    d = code.min_distance()
    masks = full_dual_pcm(code).row_masks()
    chosen = list(dict.fromkeys(masks[p % len(masks)] for p in picks))
    dt = mask_dtype(n)
    cand = np.array(masks, dtype=dt)
    levels = []
    for i, level in list(enumerate(weight_levels(n, d - 1, dt)))[1:]:
        for r in chosen:
            level = level[np.bitwise_count(level & dt.type(r)) != 1]
        if level.size:
            levels.append((i, level))
    want = np.zeros(len(masks), dtype=np.int64)
    if levels:
        planes, starts = bit_planes(n, [level for _, level in levels])
        once = meet_once(planes, support_positions(cand, n))
        met = np.add.reduceat(np.bitwise_count(once), starts, axis=1,
                              dtype=np.int64)
        want = met @ [i for i, _ in levels]
    got = greedy._closed_scores(cand, chosen, n, d)
    assert got.tolist() == want.tolist()
    if chosen:
        # the last row's change, added to the scores before it
        step = greedy._closed_scores(cand, chosen, n, d,
                                     start=1 << len(chosen) - 1)
        before = greedy._closed_scores(cand, chosen[:-1], n, d)
        assert (before + step).tolist() == want.tolist()


@pytest.mark.parametrize("checks, rounds", [
    (lambda: load_asset("h24"), 9),
    (lambda: load_asset("h12"), 9),
    (lambda: load_asset("hexacode"), None),
    (lambda: rm_generator(1, 4), None),
    (lambda: ternary_hamming13_checks(), None),
], ids=["golay24", "h12", "hexacode", "eh16", "th13"])
def test_greedy_closed_rounds_do_not_change_the_rows(checks, rounds,
                                                     monkeypatch):
    # every round in closed form (the first `rounds` where every round
    # would sum 2^t subsets over 22-34 rows), against none after round 0
    code = LinearCode.from_parity_check(checks())
    default = greedy_construct(code)
    monkeypatch.setattr(greedy, "_closed_form_cheaper",
                        lambda t, words: rounds is None or t < rounds)
    closed = greedy_construct(code)
    monkeypatch.setattr(greedy, "_closed_form_cheaper",
                        lambda t, words: False)
    kernel = greedy_construct(code)
    assert np.array_equal(closed.data, default.data)
    assert np.array_equal(kernel.data, default.data)


def test_greedy_deterministic(hexacode):
    a = greedy_construct(hexacode)
    b = greedy_construct(hexacode)
    assert a == b


def test_greedy_universe_guard():
    huge = LinearCode.from_generator(
        Matrix(make_field(2), np.eye(40, dtype=np.uint8)[:1]))
    with pytest.raises(ValueError):
        greedy_construct(huge)


def test_exact_hexacode(hexacode):
    result = exact_stopping_redundancy(hexacode)
    assert result.exact
    assert result.value == 6
    # bracketed by the closed-form bounds
    assert 6 <= result.value <= 10
    # and never better than what greedy produced
    assert result.value <= greedy_construct(hexacode).n_rows


def test_exact_repetition():
    rep = LinearCode.from_generator(Matrix(make_field(2), [[1] * 5]))
    result = exact_stopping_redundancy(rep)
    assert result.exact and result.value == 4


def test_exact_spc():
    spc = LinearCode.from_parity_check(Matrix(make_field(2), [[1] * 5]))
    result = exact_stopping_redundancy(spc)
    assert result.exact and result.value == 1


def ternary_hamming13_checks():
    """One column per point of PG(2,3), leading nonzero coordinate 1."""
    points = [v for v in product(range(3), repeat=3)
              if any(v) and next(x for x in v if x) == 1]
    return Matrix(make_field(3), np.array(points, dtype=np.uint8).T)


@pytest.mark.parametrize("checks, rho", [
    (lambda: rm_generator(1, 4), 7),  # [16,11,4] extended Hamming
    (ternary_hamming13_checks, 6),    # [13,10,3] ternary Hamming
], ids=["eh16", "th13"])
def test_exact_hamming_codes(checks, rho):
    result = exact_stopping_redundancy(LinearCode.from_parity_check(checks()))
    assert result.exact and result.value == rho


@pytest.mark.parametrize("checks, rho, budget", [
    (lambda: load_asset("hexacode"), 6, 25),
    (ternary_hamming13_checks, 6, 280),
    (lambda: rm_generator(1, 4), 7, 13654),
], ids=["hexacode", "th13", "eh16"])
def test_exact_search_node_order(checks, rho, budget):
    # the smallest budget that proves the value pins the branching order:
    # fewest free coverers, first such set, candidates ascending
    code = LinearCode.from_parity_check(checks())
    assert exact_stopping_redundancy(code, budget) == \
        RedundancyResult(rho, exact=True)
    assert exact_stopping_redundancy(code, budget - 1) == \
        RedundancyResult(rho, exact=False)


def test_greedy_completes_the_span():
    # two [2,1,2] repetition codes: the one all-ones word covers every
    # 1-set but spans rank 1 of 2
    code = LinearCode.from_parity_check(
        Matrix(make_field(2), [[1, 1, 0, 0], [0, 0, 1, 1]]))
    h = greedy_construct(code)
    assert h.n_rows == 2 and rank(h) == 2
    assert verify_full_stopping(code, h)
    assert exact_stopping_redundancy(code) == RedundancyResult(2, exact=True)


def test_exact_rank_bound_prunes_the_root():
    # three [2,1,2] repetition codes: the all-ones word covers every 1-set,
    # so only the rank deficit (3 > 2 rows left under the greedy 3) proves
    # the greedy matrix optimal, in one node
    code = LinearCode.from_parity_check(Matrix(make_field(2), [
        [1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]]))
    assert greedy_construct(code).n_rows == 3
    assert exact_stopping_redundancy(code, budget=1) == \
        RedundancyResult(3, exact=True)


def _brute_force_redundancy(rows, q, n):
    """Fewest projective dual classes that span the dual and reach s = d,
    from the definitions alone."""
    r = ref_rank(rows, q)
    words = [x for x in product(range(q), repeat=n)
             if not any(sum(a * b for a, b in zip(x, row)) % q for row in rows)]
    d = min(sum(1 for v in x if v) for x in words if any(x))
    classes = set()
    for word in ref_codewords(rows, q):
        if any(word):
            lead = next(v for v in word if v)
            classes.add(tuple(v * lead % q for v in word))  # lead^2 = 1
    for size in range(len(classes) + 1):
        for pick in combinations(sorted(classes), size):
            if (ref_rank(pick, q) == r
                    and ref_stopping_distance(pick, n)[0] == d):
                return size
    raise AssertionError("the full dual reaches s = d")


@st.composite
def tiny_codes(draw):
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=m, max_size=m))
    return q, n, rows


@settings(max_examples=100, deadline=None)
@given(tiny_codes())
def test_greedy_and_exact_match_brute_force(case):
    q, n, rows = case
    code = LinearCode.from_parity_check(Matrix(make_field(q), rows))
    r = n - code.k
    assume(1 <= r < n and (q ** r - 1) // (q - 1) <= 10)
    h = greedy_construct(code)
    assert rank(h) == r
    assert verify_full_stopping(code, h)
    assert exact_stopping_redundancy(code) == \
        RedundancyResult(_brute_force_redundancy(rows, q, n), exact=True)


@st.composite
def greedy_cases(draw):
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(2, {2: 8, 3: 7}.get(q, 6)))
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=m, max_size=m))
    return q, n, rows


# a [6, 3] binary code on which scoring every uncovered set 1 point, not
# i points per i-set, picks a different cover
WEIGHTS_MATTER = [[1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 0, 1], [1, 0, 0, 1, 1, 0]]
# an [8, 4, 3] binary code on which the i points per i-set first change the
# choice after round 0, where the scores come from the closed form
WEIGHTS_MATTER_LATER = [[1, 1, 0, 0, 1, 0, 1, 0], [1, 0, 1, 0, 1, 0, 0, 1],
                        [0, 0, 1, 1, 1, 1, 1, 0], [1, 1, 0, 1, 0, 0, 1, 0]]


@settings(max_examples=150, deadline=None)
@given(greedy_cases())
@example((2, 6, WEIGHTS_MATTER))
@example((2, 8, WEIGHTS_MATTER_LATER))
def test_greedy_matches_reference(case):
    # the lazy heap over projective classes picks what rescoring every
    # dual word each round picks
    q, n, rows = case
    code = LinearCode.from_parity_check(Matrix(make_field(q), rows))
    assume(1 <= n - code.k < n)
    h = greedy_construct(code)
    assert h.data.tolist() == ref_greedy(code.parity_check.data.tolist(), q)


def test_exact_budget_exhaustion(hexacode):
    result = exact_stopping_redundancy(hexacode, budget=1)
    assert not result.exact
    assert result.value >= 6  # incumbent is only an upper bound


def test_exact_class_guard(golay24):
    with pytest.raises(ValueError):
        exact_stopping_redundancy(golay24)  # 4095 classes >> 128


def test_exact_class_guard_comes_before_the_dual(monkeypatch):
    # the guard is the class count (3^6 - 1) / 2, known before any dual
    # word or codeword is enumerated
    def enumerated(*args):
        raise AssertionError("enumerated before the guard")
    monkeypatch.setattr(greedy, "full_dual_pcm", enumerated)
    monkeypatch.setattr(LinearCode, "min_distance", enumerated)
    code = LinearCode.from_parity_check(load_asset("h12"))
    with pytest.raises(ValueError, match=re.escape(
            "364 projective dual classes exceed the 128 search guard")):
        exact_stopping_redundancy(code)


def test_greedy_respects_combined_lower_bound(golay24, hexacode):
    from stopred.bounds import bounds_report
    for code in (golay24, hexacode):
        h = greedy_construct(code)
        assert h.n_rows >= bounds_report(code).combined_lower


def test_exact_search_skips_the_1_sets():
    # GRS [7, 4, 4] over GF(7), 57 classes: rho = 9, the MDS lower bound.
    # Covering the 1-sets too, which the span completion covers anyway,
    # took 104 nodes
    f = make_field(7)
    code = LinearCode.from_generator(Matrix(
        f, [[pow(x, i, 7) if i else 1 for x in range(7)] for i in range(4)]))
    assert exact_stopping_redundancy(code, 100) == \
        RedundancyResult(9, exact=True)
    assert exact_stopping_redundancy(code, 99) == \
        RedundancyResult(9, exact=False)
