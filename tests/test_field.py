import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import f_add
from stopred.field import (UnsupportedOrderError, make_field, parse_symbol,
                           render_symbol)


def gf4_poly_mul(a, b):
    """Multiply two GF(4) elements as polynomials c1*x + c0 mod x^2 + x + 1."""
    a1, a0 = a >> 1, a & 1
    b1, b0 = b >> 1, b & 1
    # (a1 x + a0)(b1 x + b0) = a1 b1 x^2 + (a1 b0 + a0 b1) x + a0 b0
    c2 = a1 & b1
    c1 = (a1 & b0) ^ (a0 & b1)
    c0 = a0 & b0
    # x^2 = x + 1
    c1 ^= c2
    c0 ^= c2
    return (c1 << 1) | c0


def test_gf2_characteristic_two():
    f = make_field(2)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_gf4_matches_polynomial_arithmetic():
    f = make_field(4)
    for a in range(4):
        for b in range(4):
            assert f.mul(a, b) == gf4_poly_mul(a, b)
            assert f.add(a, b) == a ^ b
    w, wbar = 2, 3
    assert f.mul(w, wbar) == 1
    assert f.add(w, 1) == wbar


@pytest.mark.parametrize("q", [6, 8, 9, 12, 257])
def test_unsupported_orders(q):
    with pytest.raises(UnsupportedOrderError):
        make_field(q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 11, 251])
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    idx = np.arange(q)
    assert np.array_equal(f.add_table[0], idx)          # 0 is additive identity
    assert np.array_equal(f.mul_table[1], idx)          # 1 is multiplicative
    for a in range(q):
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    # commutativity comes free of the outer-product tables; spot-check closure
    assert f.add_table.max() < q and f.mul_table.max() < q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_symbol_round_trip(q):
    f = make_field(q)
    for a in range(q):
        assert parse_symbol(f, render_symbol(f, a)) == a


def test_ternary_dash_symbol():
    f3 = make_field(3)
    assert parse_symbol(f3, "-") == 2
    assert render_symbol(f3, 2) == "2"


def test_gf4_symbols():
    f4 = make_field(4)
    assert parse_symbol(f4, "w") == 2
    assert parse_symbol(f4, "W") == 3
    assert render_symbol(f4, 3) == "W"


def test_bad_symbols_rejected():
    with pytest.raises(ValueError):
        parse_symbol(make_field(2), "2")
    with pytest.raises(ValueError):
        parse_symbol(make_field(4), "x")
    with pytest.raises(ValueError):
        parse_symbol(make_field(5), "-")


@pytest.mark.parametrize("s", ["1_0", "+1", "-0", "\u0663", " 1"],
                         ids=["underscore", "plus", "minus-zero",
                              "arabic-indic-three", "space"])
def test_symbols_are_ascii_digits_only(s):
    # int() reads each of these; a matrix file must not
    with pytest.raises(ValueError, match="is not a GF"):
        parse_symbol(make_field(11), s)


def test_vectorized_ops_match_tables():
    for q in (2, 3, 4, 5, 7):
        f = make_field(q)
        a = np.repeat(np.arange(q, dtype=np.uint8), q)
        b = np.tile(np.arange(q, dtype=np.uint8), q)
        assert np.array_equal(f.add_arr(a, b), f.add_table[a, b])
        assert np.array_equal(f.mul_arr(a, b), f.mul_table[a, b])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 13, 131, 251]).flatmap(lambda q: st.tuples(
    st.just(q), st.lists(st.tuples(st.integers(0, q - 1),
                                   st.integers(0, q - 1)), max_size=40))))
def test_prime_adds_stay_uint8(case):
    # uint8 in, uint8 out, with no wrap: for q > 127 a sum can pass 255
    q, pairs = case
    pairs.append((q - 1, q - 1))
    a, b = (np.array(v, dtype=np.uint8) for v in zip(*pairs))
    f = make_field(q)
    add = f.add_arr(a, b)
    assert add.dtype == np.uint8
    assert add.tolist() == [f_add(q, x, y) for x, y in pairs]
