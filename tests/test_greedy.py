from itertools import product

import numpy as np
import pytest

from stopred.cli import load_asset
from stopred.construct import rm_generator
from stopred.field import make_field
from stopred.greedy import exact_stopping_redundancy, greedy_construct
from stopred.linalg import LinearCode, Matrix, rank
from stopred.stopping import stopping_distance, verify_full_stopping


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


def test_greedy_deterministic(hexacode):
    a = greedy_construct(hexacode)
    b = greedy_construct(hexacode)
    assert a == b


def test_greedy_uniform_variant(hexacode):
    h = greedy_construct(hexacode, weighted=False)
    assert verify_full_stopping(hexacode, h)


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


def test_exact_budget_exhaustion(hexacode):
    result = exact_stopping_redundancy(hexacode, budget=1)
    assert not result.exact
    assert result.value >= 6  # incumbent is only an upper bound


def test_exact_class_guard(golay24):
    with pytest.raises(ValueError):
        exact_stopping_redundancy(golay24)  # 4095 classes >> 128


def test_greedy_respects_combined_lower_bound(golay24, hexacode):
    from stopred.bounds import bounds_report
    for code in (golay24, hexacode):
        h = greedy_construct(code)
        assert h.n_rows >= bounds_report(code).combined_lower
