import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import EXTENSIONS, GF4_MUL, f_add, f_mul, f_neg, is_prime_power
from stopred.field import (MAX_ORDER, UnsupportedOrderError, make_field,
                           parse_symbol, render_symbol)


PRIMES = [q for q in range(2, MAX_ORDER + 1)
          if all(q % d for d in range(2, q))]
PRIME_POWERS_64 = [q for q in range(2, 65) if is_prime_power(q)]


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


@pytest.mark.parametrize("q", [-1, 0, 1, 6, 10, 12, 257, 512])
def test_unsupported_orders(q):
    with pytest.raises(UnsupportedOrderError,
                       match=f"order {q}: need a prime power <= 256$"):
        make_field(q)


def test_every_prime_power_up_to_the_limit_is_built():
    assert len(PRIMES) == 54 and len(PRIME_POWERS_64) == 27
    for q in range(2, MAX_ORDER + 1):
        if is_prime_power(q):
            assert make_field(q).q == q
        else:
            with pytest.raises(UnsupportedOrderError):
                make_field(q)


@pytest.mark.parametrize("q", [4] + PRIMES)
def test_tables_equal_the_closed_forms(q):
    # one builder for every field gives the prime fields their modular
    # tables and GF(4) its table, so no symbol or file changes
    f = make_field(q)
    a = np.arange(q)[:, None]
    if q == 4:
        add, mul = a ^ a.T, np.array(GF4_MUL)
        neg, inv = a[:, 0], [0, 1, 3, 2]
    else:
        add, mul = (a + a.T) % q, a * a.T % q
        neg, inv = -a[:, 0] % q, [0] + [pow(x, q - 2, q) for x in range(1, q)]
    for table, want in ((f.add_table, add), (f.mul_table, mul),
                        (f.neg_table, neg), (f.inv_table, inv)):
        assert table.dtype == np.uint8
        assert table.tolist() == np.asarray(want).tolist()


@pytest.mark.parametrize("q", sorted(EXTENSIONS))
def test_extension_fields_match_polynomial_arithmetic(q):
    # the moduli are written out in tests/reference.py, not read from
    # make_field: x^2 + x + 1, x^3 + x + 1, x^2 + 1 and x^4 + x + 1
    f = make_field(q)
    for a in range(q):
        assert f.neg(a) == f_neg(q, a)
        for b in range(q):
            assert f.add(a, b) == f_add(q, a, b)
            assert f.mul(a, b) == f_mul(q, a, b)


@pytest.mark.parametrize("q, a, b, product", [
    (8, 4, 2, 3),          # x^3 = x + 1
    (9, 3, 3, 2),          # x^2 = -1
    (16, 8, 2, 3),         # x^4 = x + 1
    (256, 128, 2, 0x1B),   # x^8 = x^4 + x^3 + x + 1
    (243, 81, 3, 5),       # x^5 = -(2x + 1) = x + 2, digits 2 1
])
def test_first_irreducible_modulus(q, a, b, product):
    assert make_field(q).mul(a, b) == product


@pytest.mark.parametrize("q", PRIME_POWERS_64)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_field_axioms(q, data):
    f = make_field(q)
    a, b, c = (data.draw(st.integers(0, q - 1)) for _ in range(3))
    # associativity and commutativity
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.add(a, b) == f.add(b, a) and f.mul(a, b) == f.mul(b, a)
    # distributivity
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    # the additive group: identity, inverse, and p * a = 0
    assert f.add(a, 0) == a and f.add(a, f.neg(a)) == 0
    total = 0
    for _ in range(f.p):
        total = f.add(total, a)
    assert total == 0
    # the multiplicative group
    assert f.mul(a, 1) == a
    if a:
        assert f.mul(a, f.inv(a)) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            f.inv(a)


@pytest.mark.parametrize("q", PRIME_POWERS_64 + [251])
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    idx = np.arange(q)
    assert np.array_equal(f.add_table[0], idx)          # 0 is additive identity
    assert np.array_equal(f.mul_table[1], idx)          # 1 is multiplicative
    for a in range(q):
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    assert f.add_table.max() < q and f.mul_table.max() < q
    add, mul = f.add_table.astype(np.intp), f.mul_table.astype(np.intp)
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (mul[1:, 1:] != 0).all()  # no zero divisors
    # associativity and distributivity on every triple (a, b, c), one c at
    # a time over the grid of (a, b)
    for c in range(q):
        assert (add[:, c][add] == add[:, add[:, c]]).all()
        assert (mul[:, c][mul] == mul[:, mul[:, c]]).all()
        assert (mul[:, add[:, c]] == add[mul, mul[:, c, None]]).all()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 256])
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
    # GF(8) reads decimal indices, not the letters of GF(4)
    with pytest.raises(ValueError, match=r"'8' out of range for GF\(8\)"):
        parse_symbol(make_field(8), "8")
    with pytest.raises(ValueError, match=r"'w' is not a GF\(8\) symbol$"):
        parse_symbol(make_field(8), "w")


@pytest.mark.parametrize("s", ["1_0", "+1", "-0", "\u0663", " 1"],
                         ids=["underscore", "plus", "minus-zero",
                              "arabic-indic-three", "space"])
def test_symbols_are_ascii_digits_only(s):
    # int() reads each of these; a matrix file must not
    with pytest.raises(ValueError, match="is not a GF"):
        parse_symbol(make_field(11), s)


def test_vectorized_ops_match_tables():
    # the odd extension fields add through the table, not by XOR or mod q
    for q in (2, 3, 4, 5, 7, 8, 9, 25, 27, 243, 251, 256):
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
