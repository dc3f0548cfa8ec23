"""Independent brute-force oracles used to check the package implementations.

Everything here is written directly from definitions with plain Python
(lists, itertools), on purpose: slow and obvious beats fast and shared.
"""

from itertools import combinations, product

# GF(4) in the basis x^2 = x + 1, elements ordered 0, 1, w, w+1.
GF4_MUL = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
]


def f_add(q, a, b):
    return a ^ b if q == 4 else (a + b) % q


def f_mul(q, a, b):
    return GF4_MUL[a][b] if q == 4 else (a * b) % q


def f_neg(q, a):
    return a if q == 4 else (-a) % q


def f_inv(q, a):
    for b in range(1, q):
        if f_mul(q, a, b) == 1:
            return b
    raise ZeroDivisionError


def ref_rank(rows, q):
    """Row rank by textbook Gaussian elimination over GF(q)."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n = len(m[0])
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = f_inv(q, m[rank][col])
        m[rank] = [f_mul(q, inv, x) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [f_add(q, x, f_neg(q, f_mul(q, c, y)))
                        for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def ref_codewords(gen_rows, q):
    """All codewords spanned by gen_rows (with multiplicity if dependent)."""
    if not gen_rows:
        return [tuple()]
    n = len(gen_rows[0])
    out = []
    for coeffs in product(range(q), repeat=len(gen_rows)):
        word = [0] * n
        for c, row in zip(coeffs, gen_rows):
            if c:
                for j in range(n):
                    word[j] = f_add(q, word[j], f_mul(q, c, row[j]))
        out.append(tuple(word))
    return out


def ref_dual_codewords(gen_rows, q, n):
    """Every length-n word orthogonal to all gen_rows, lexicographic order
    (position 0 most significant), the zero word first."""
    out = []
    for word in product(range(q), repeat=n):
        dots = [0] * len(gen_rows)
        for i, row in enumerate(gen_rows):
            for x, y in zip(word, row):
                dots[i] = f_add(q, dots[i], f_mul(q, x, y))
        if not any(dots):
            out.append(word)
    return out


def ref_min_distance(gen_rows, q):
    best = None
    for word in ref_codewords(gen_rows, q):
        w = sum(1 for x in word if x)
        if w and (best is None or w < best):
            best = w
    return best


def ref_is_stopping_set(h_rows, positions):
    pos = set(positions)
    for row in h_rows:
        if sum(1 for j in pos if row[j]) == 1:
            return False
    return True


def ref_stopping_distance(h_rows, n):
    """Smallest stopping set by direct subset enumeration; n+1 when none."""
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if ref_is_stopping_set(h_rows, subset):
                return size, subset
    return n + 1, None


def ref_peel(h_rows, pattern):
    """Set-based peeling; returns the residual erased set."""
    remaining = set(pattern)
    supports = [set(j for j, x in enumerate(row) if x) for row in h_rows]
    progress = True
    while progress and remaining:
        progress = False
        for sup in supports:
            hit = sup & remaining
            if len(hit) == 1:
                remaining -= hit
                progress = True
    return remaining


def ref_ml_fails(gen_rows, q, pattern):
    """ML failure oracle: the pattern contains a nonzero codeword support."""
    pos = set(pattern)
    for word in ref_codewords(gen_rows, q):
        support = set(j for j, x in enumerate(word) if x)
        if support and support <= pos:
            return True
    return False


def ref_greedy(check_rows, q, weighted=True):
    """The greedy cover from its definition: each round rescore every
    nonzero dual word (lexicographic order) and adjoin the first of maximal
    score, a word scoring i (or 1, unweighted) for each uncovered i-set,
    i < d, that it meets exactly once.  Then append the check rows that
    raise the rank until the rows span the dual."""
    n = len(check_rows[0])
    d = min(sum(1 for x in word if x)
            for word in ref_dual_codewords(check_rows, q, n) if any(word))
    words = sorted(set(w for w in ref_codewords(check_rows, q) if any(w)))
    uncovered = [s for i in range(1, d) for s in combinations(range(n), i)]

    def covers(word, s):
        return sum(1 for j in s if word[j]) == 1

    chosen = []
    while uncovered:
        scores = [sum(len(s) if weighted else 1
                      for s in uncovered if covers(word, s)) for word in words]
        best = max(scores)
        if best == 0:
            raise ValueError("coverage unreachable")
        word = words[scores.index(best)]
        chosen.append(word)
        uncovered = [s for s in uncovered if not covers(word, s)]
    out = [list(w) for w in chosen]
    target = ref_rank(check_rows, q)
    for row in check_rows:
        if ref_rank(out, q) == target:
            break
        if ref_rank(out + [list(row)], q) > ref_rank(out, q):
            out.append(list(row))
    return out
