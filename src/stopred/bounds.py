"""Closed-form lower/upper bounds on the stopping redundancy of a code.

All arithmetic is exact (ints and Fractions); lower bounds are reported
ceiled and upper bounds floored, with the raw rational kept alongside.
Floating point never enters here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional, Tuple

from .linalg import LinearCode


@dataclass(frozen=True)
class BoundEntry:
    name: str
    kind: str  # "lower" | "upper"
    value: int
    raw: Optional[Fraction] = None
    method: str = ""


def bracket(entries: List[BoundEntry]) -> Tuple[Optional[int], Optional[int]]:
    """(largest lower bound, smallest upper bound); None for a missing side."""
    lows = [e.value for e in entries if e.kind == "lower"]
    ups = [e.value for e in entries if e.kind == "upper"]
    return (max(lows) if lows else None, min(ups) if ups else None)


@dataclass(frozen=True)
class BoundsReport:
    n: int
    k: int
    d: int
    d_dual: int
    q: int
    entries: List[BoundEntry]

    @property
    def combined_lower(self) -> Optional[int]:
        return bracket(self.entries)[0]

    @property
    def combined_upper(self) -> Optional[int]:
        return bracket(self.entries)[1]


def combination_upper(r: int, d: int) -> int:
    """Rows needed when all combinations of up to d-2 checks are adjoined:
    sum of C(r, i) for i = 1..d-2.  Binary codes, d >= 3."""
    if d < 3:
        raise ValueError("combination bound needs distance >= 3")
    return sum(comb(r, i) for i in range(1, d - 1))


def coverage_lower(n: int, d: int, d_dual: int) -> int:
    """Counting bound: every i-set (i < d) needs a covering row, and a row
    of weight w covers exactly w * C(n-w, i-1) of them."""
    if d < 2 or d_dual < 1:
        raise ValueError("need d >= 2 and dual distance >= 1")
    best = None
    for i in range(1, d):
        w = max(-(-(n + 1) // i) - 1, d_dual)
        if n - w < i - 1:
            continue  # no row weight can cover these i-sets; parameters bogus
        denom = w * comb(n - w, i - 1)
        val = -(-comb(n, i) // denom)
        best = val if best is None else max(best, val)
    if best is None:
        raise ValueError("length and dual distance are inconsistent")
    return best


def rm_row_count(r: int, m: int) -> int:
    """Rows in the recursive stopping construction for RM(r, m), r < m."""
    if not 0 <= r <= m - 1:
        raise ValueError(f"need 0 <= r < m, got r={r}, m={m}")
    return sum(comb(m - r - 1 + i, i) * (1 << i) for i in range(r + 1))


def rm_upper_bound(r: int, m: int) -> int:
    """Stopping-redundancy upper bound for RM(r, m), 0 <= r <= m."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    top = max(m - r - 1, 0)  # r = m degenerates to the single i = 0 term
    return sum(comb(r + i, i) * (1 << i) for i in range(top + 1))


def rm_count_identity(r: int, m: int) -> bool:
    """Exact check that the recursive row count rewrites to the conventional
    redundancy: sum C(m-r-1+i, i) 2^(r-i) == sum C(m, i), i = 0..r."""
    if not 0 <= r <= m - 1:
        raise ValueError(f"need 0 <= r < m, got r={r}, m={m}")
    lhs = sum(comb(m - r - 1 + i, i) * (1 << (r - i)) for i in range(r + 1))
    rhs = sum(comb(m, i) for i in range(r + 1))
    return lhs == rhs


def _mds_dims(n: int, k: int) -> int:
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    return n - k + 1  # the MDS distance


def mds_bounds(n: int, k: int) -> List[BoundEntry]:
    """Closed-form stopping-redundancy bounds for an (n, k) MDS code.

    In order: the counting lower bound, the all-subsets upper bound, the
    Steiner-refined lower bound (d >= 3), the constant-weight upper bound,
    the Schönheim lower bound, and the de Caen lower bound (d >= 3).
    """
    d = _mds_dims(n, k)
    d_perp = k + 1
    block = comb(n, d - 2)
    entries = [
        BoundEntry("mds_counting_lower", "lower",
                   -(-block // (d - 1)), Fraction(block, d - 1),
                   "one-cover counting over (d-1)-sets"),
        BoundEntry("mds_all_subsets_upper", "upper", block, None,
                   "one dual codeword per (n-d+2)-subset"),
    ]
    if d >= 3:
        entries.append(BoundEntry(
            "mds_steiner_refined_lower", "lower", block // (d - 1) + 1, None,
            "perfect cover forces a Steiner system that self-intersects"))
    raw = Fraction(max(d_perp, d - 1) * block, n)
    entries.append(BoundEntry(
        "mds_constant_weight_upper", "upper", raw.numerator // raw.denominator,
        raw, "subset construction pruned by constant-weight classes"))
    entries.append(BoundEntry(
        "schonheim_lower", "lower", schonheim_lower(n, k), None,
        "recursive covering-number bound"))
    if d >= 3:
        raw = decaen_lower(n, k)
        entries.append(BoundEntry(
            "decaen_lower", "lower", -(-raw.numerator // raw.denominator),
            raw, "covering-number bound of de Caen type"))
    return entries


def schonheim_lower(n: int, k: int) -> int:
    """Nested-ceiling covering-number bound for C(n, k+1, k)."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")

    def rec(v: int, b: int) -> int:
        if b == 2:
            return -(-v // 2)
        return -(-v * rec(v - 1, b - 1) // b)

    return rec(n, k + 1)


def decaen_lower(n: int, k: int) -> Fraction:
    """Covering-number bound (k+1) / ((k+2)(d-2)) * C(n, d-2); caller ceils."""
    d = _mds_dims(n, k)
    if d < 3:
        raise ValueError("bound needs distance >= 3")
    return Fraction((k + 1) * comb(n, d - 2), (k + 2) * (d - 2))


def _recognize_rm(n: int, k: int, d: int) -> Optional[tuple]:
    m = n.bit_length() - 1
    if 1 << m != n:
        return None
    for r in range(m + 1):
        if k == sum(comb(m, i) for i in range(r + 1)) and d == 1 << (m - r):
            return r, m
    return None


def bounds_report(c: LinearCode) -> BoundsReport:
    """Every applicable bound for the code, plus the combined bracket."""
    n, k, q = c.n, c.k, c.field.q
    d = c.min_distance()
    dual = LinearCode.from_generator(c.parity_check)
    d_dual = dual.min_distance()
    r = n - k
    entries: List[BoundEntry] = [
        BoundEntry("coverage_lower", "lower", coverage_lower(n, d, d_dual),
                   None, "i-set covering count"),
        BoundEntry("all_dual_words_upper", "upper", (q ** r - 1) // (q - 1),
                   None, "all nonzero dual words up to scalars"),
    ]
    if q == 2 and d >= 3:
        entries.append(BoundEntry(
            "combination_upper", "upper", combination_upper(r, d), None,
            "combinations of up to d-2 independent checks"))
    if d == n - k + 1 and 1 <= k < n:
        entries.extend(mds_bounds(n, k))
    if q == 2:
        rm = _recognize_rm(n, k, d)
        if rm is not None:
            entries.append(BoundEntry(
                "rm_recursive_upper", "upper", rm_upper_bound(*rm), None,
                f"recursive construction for RM{rm} parameters"))
    return BoundsReport(n, k, d, d_dual, q, entries)
