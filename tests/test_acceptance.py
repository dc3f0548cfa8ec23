"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from conftest import random_parity_check
from reference import ref_codewords
from stopred.bounds import (combination_upper, coverage_lower, decaen_lower,
                            mds_bounds, rm_count_identity, rm_row_count,
                            rm_upper_bound, schonheim_lower)
from stopred.cli import load_asset
from stopred.construct import mds_pcm, pruned_mds_pcm, rm_generator, rm_stopping_pcm
from stopred.erasure import (_peel_residues, failure_curve, ml_decode, psi_ml,
                             psi_stop)
from stopred.field import make_field
from stopred.greedy import exact_stopping_redundancy, greedy_construct
from stopred.linalg import LinearCode, Matrix, rank
from stopred.stopping import is_stopping_set, stopping_distance


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {label}")


def rs_code(n, k, q):
    f = make_field(q)
    rows = [[pow(x, i, q) if i else 1 for x in range(n)] for i in range(k)]
    return LinearCode.from_generator(Matrix(f, rows))


def test_criterion_01_golay_stopping_distances():
    with criterion(1, "stopping distances of the five reference matrices"):
        for name, want in (("h24", 4), ("hp24", 8), ("h12", 3),
                           ("hp12", 6), ("hexacode", 4)):
            report = stopping_distance(load_asset(name))
            assert report.s == want, (name, report.s, want)
            assert not report.at_least


def test_criterion_02_binary_golay_pattern_table():
    with criterion(2, "undecodable-pattern counts for the (24,12,8) code"):
        g24 = LinearCode.from_parity_check(load_asset("h24"))
        want_ml = [0, 0, 0, 0, 0, 0, 0, 0, 759, 12144, 91080, 425040, 1313116]
        want_h24 = [0, 0, 0, 0, 110, 2277, 19723, 100397, 343035, 844459,
                    1568875, 2274130, 2637506]
        want_hp24 = [0, 0, 0, 0, 0, 0, 0, 0, 3598, 82138, 585157, 1717082,
                     2556402]
        assert psi_ml(g24).counts[:13] == want_ml
        assert psi_stop(load_asset("h24")).counts[:13] == want_h24
        assert psi_stop(load_asset("hp24")).counts[:13] == want_hp24


def test_criterion_03_ternary_golay_pattern_table():
    with criterion(3, "undecodable-pattern counts for the (12,6,6) code"):
        g12 = LinearCode.from_parity_check(load_asset("h12"))
        assert psi_ml(g12).counts[6] == 132
        assert psi_ml(g12).counts[:6] == [0] * 6
        assert psi_stop(load_asset("h12")).counts[3:7] == [20, 150, 456, 758]
        assert psi_stop(load_asset("hp12")).counts[:7] == [0, 0, 0, 0, 0, 0, 377]


def test_criterion_04_golay_bound_bracket():
    with criterion(4, "(24,12,8) redundancy bracket 6 .. 2509"):
        assert coverage_lower(24, 8, 8) == 6
        assert combination_upper(12, 8) == 2509


def test_criterion_05_reed_muller_constructions():
    with criterion(5, "recursive RM check matrices for all r < m <= 5, "
                      "and r <= 2 at m = 6"):
        gf2 = make_field(2)
        for r, m in [(r, m) for m in range(1, 7) for r in range(m)
                     if m < 6 or r <= 2]:
            h = rm_stopping_pcm(r, m)
            g = rm_generator(r, m)
            assert h.n_rows == rm_row_count(r, m)
            stacked = Matrix(gf2, np.vstack([h.data, g.data]))
            assert rank(h) == rank(g) == rank(stacked)  # same row space
            want_s = 1 << (r + 1)
            report = stopping_distance(h, cap=want_s)
            assert report.s == want_s
            # exactness: a minimum-weight word of the checked code is a
            # stopping set of exactly the promised size
            dual_gen = rm_generator(m - r - 1, m)
            weights = np.count_nonzero(dual_gen.data, axis=1)
            row = dual_gen.data[int(np.argmin(weights))]
            support = tuple(int(j) for j in np.nonzero(row)[0])
            assert len(support) == want_s
            assert is_stopping_set(h, support)
        assert rm_row_count(1, 3) == 5
        for m in range(2, 9):
            assert rm_upper_bound(m - 2, m) == 2 * m - 1


def test_criterion_06_row_count_identity():
    with criterion(6, "row-count identity for all 0 <= r < m <= 20"):
        for m in range(1, 21):
            for r in range(0, m):
                assert rm_count_identity(r, m)


def test_criterion_07_hexacode_exact_redundancy():
    with criterion(7, "hexacode: exact redundancy 6 and bound set 5/6/15/10"):
        hexa = LinearCode.from_parity_check(load_asset("hexacode"))
        result = exact_stopping_redundancy(hexa)
        assert result.exact and result.value == 6
        entries = {e.name: e.value for e in mds_bounds(6, 3)}
        assert entries["mds_counting_lower"] == 5
        assert entries["mds_steiner_refined_lower"] == 6
        assert entries["mds_all_subsets_upper"] == 15
        assert entries["mds_constant_weight_upper"] == 10
        assert schonheim_lower(6, 3) == 6
        assert decaen_lower(6, 3) == Fraction(6)


def test_criterion_08_mds_constructions():
    with criterion(8, "MDS subset constructions on hexacode and RS(5,2,4)"):
        hexa = LinearCode.from_parity_check(load_asset("hexacode"))
        rs = rs_code(5, 2, 5)
        for code in (hexa, rs):
            n, k, d = code.n, code.k, code.min_distance()
            assert d == n - k + 1
            d_perp = k + 1
            full = mds_pcm(code)
            assert full.n_rows == comb(n, d - 2)
            assert rank(full) == d - 1
            assert stopping_distance(full, cap=d).s == d
            pruned = pruned_mds_pcm(code)
            assert pruned.n_rows * n <= max(d_perp, d - 1) * comb(n, d - 2)
            assert rank(pruned) == d - 1
            assert stopping_distance(pruned, cap=d).s == d
            word = code.min_weight_codeword()
            support = tuple(int(j) for j in np.nonzero(word)[0])
            assert is_stopping_set(full, support)
            assert is_stopping_set(pruned, support)


def test_criterion_09_property_suites():
    with criterion(9, "randomized property suites"):
        rng = np.random.default_rng(2026)

        # s(H) <= d(C) on 200 random codes, n <= 14, q in {2,3,4}
        done = 0
        while done < 200:
            q = int(rng.choice([2, 3, 4]))
            n = int(rng.integers(3, 15))
            m = int(rng.integers(1, min(n, 9)))
            mat = random_parity_check(rng, q, n, m)
            code = LinearCode.from_parity_check(mat)
            if code.k == 0:
                continue
            assert stopping_distance(mat).s <= code.min_distance()
            done += 1

        # d <= 3 forces s = d on 200 random binary codes
        done = 0
        while done < 200:
            n = int(rng.integers(3, 13))
            m = int(rng.integers(1, min(n, 8)))
            mat = random_parity_check(rng, 2, n, m)
            code = LinearCode.from_parity_check(mat)
            if code.k == 0 or code.min_distance() > 3:
                continue
            assert stopping_distance(mat).s == code.min_distance()
            done += 1

        # iterative failure dominates ML failure, everywhere
        g24 = LinearCode.from_parity_check(load_asset("h24"))
        ml24 = psi_ml(g24).counts
        for name in ("h24", "hp24"):
            it = psi_stop(load_asset(name)).counts
            assert all(a >= b for a, b in zip(it, ml24))
        for _ in range(8):
            q = int(rng.choice([2, 3]))
            n = int(rng.integers(4, 10))
            mat = random_parity_check(rng, q, n, int(rng.integers(1, 5)))
            code = LinearCode.from_parity_check(mat)
            if code.k == 0:
                continue
            it = psi_stop(mat).counts
            ml = psi_ml(code).counts
            assert all(a >= b for a, b in zip(it, ml))

        # rank criterion == codeword-support oracle on every pattern
        hexa = LinearCode.from_parity_check(load_asset("hexacode"))
        g12 = LinearCode.from_parity_check(load_asset("h12"))
        rand10 = LinearCode.from_parity_check(random_parity_check(rng, 2, 10, 5))
        for code in (hexa, rand10, g12):
            supports = [frozenset(np.nonzero(w)[0].tolist()) for w in
                        ref_codewords(code.generator.data.tolist(), code.field.q)]
            supports = [s for s in supports if s]
            h = code.parity_check
            for mask in range(1 << code.n):
                pattern = frozenset(j for j in range(code.n) if (mask >> j) & 1)
                assert ml_decode(h, pattern) == \
                    (not any(s <= pattern for s in supports))

        # peeling reaches the same fixpoint under any row order
        h24 = load_asset("h24")
        masks = h24.row_masks()
        failing = []
        while len(failing) < 10_000:
            block = rng.random((20_000, 24)) < 0.4
            pats = (block.astype(np.uint64) <<
                    np.arange(24, dtype=np.uint64)).sum(axis=1).astype(np.uint32)
            res = _peel_residues(masks, pats)
            failing.extend(int(x) for x in pats[res != 0])
        failing = np.array(failing[:10_000], dtype=np.uint32)
        base = _peel_residues(masks, failing)
        for seed in (5, 6):
            order = np.random.default_rng(seed).permutation(len(masks))
            alt = _peel_residues([masks[i] for i in order], failing)
            assert np.array_equal(base, alt)


def test_criterion_10_greedy_targets():
    with criterion(10, "greedy search row counts on both Golay codes"):
        g24 = LinearCode.from_parity_check(load_asset("h24"))
        h = greedy_construct(g24)
        assert rank(h) == 12
        assert stopping_distance(h, cap=8).s == 8  # hard requirement
        assert h.n_rows <= 40  # soft target 34
        g12 = LinearCode.from_parity_check(load_asset("h12"))
        h = greedy_construct(g12)
        assert rank(h) == 6
        assert stopping_distance(h, cap=6).s == 6
        assert h.n_rows <= 26  # soft target 22


def test_criterion_11_failure_curve_ordering():
    with criterion(11, "failure-curve ordering ML <= iterative(hp24) <= iterative(h24)"):
        g24 = LinearCode.from_parity_check(load_asset("h24"))
        grid = [round(0.05 * i, 2) for i in range(1, 11)]
        c_ml = failure_curve(psi_ml(g24), grid)
        c_hp = failure_curve(psi_stop(load_asset("hp24")), grid)
        c_h = failure_curve(psi_stop(load_asset("h24")), grid)
        tol = 1e-12
        for (p, a), (_, b), (_, c) in zip(c_ml, c_hp, c_h):
            assert a <= b + tol and b <= c + tol, p
            if abs(p - 0.3) < 1e-9:
                assert a < b - tol and b < c - tol  # strictly separated
