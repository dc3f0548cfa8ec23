"""Independent brute-force oracles used to check the package implementations.

Everything here is written directly from definitions with plain Python
(lists, itertools), on purpose: slow and obvious beats fast and shared.
"""

from itertools import combinations, product

# GF(4) in the basis x^2 = x + 1, elements ordered 0, 1, w, w+1, written
# out as a table: the polynomial arithmetic below must give the same.
GF4_MUL = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
]

# Extension fields in the polynomial basis: element index sum(c_i p^i)
# holds the coefficient c_i of x^i.  Each entry is (p, the lower
# coefficients of the irreducible modulus x^m + ..., constant first):
# x^2 + x + 1, x^3 + x + 1, x^2 + 1 and x^4 + x + 1.
EXTENSIONS = {4: (2, [1, 1]), 8: (2, [1, 1, 0]), 9: (3, [1, 0]),
              16: (2, [1, 1, 0, 0])}


def poly_digits(q, a):
    p, low = EXTENSIONS[q]
    return [a // p ** i % p for i in range(len(low))]


def poly_index(q, coeffs):
    p = EXTENSIONS[q][0]
    return sum(c % p * p ** i for i, c in enumerate(coeffs))


def poly_add(q, a, b):
    return poly_index(q, [x + y for x, y in zip(poly_digits(q, a),
                                                poly_digits(q, b))])


def poly_mul(q, a, b):
    """Schoolbook product of the two polynomials, then each term x^t with
    t >= m replaced by x^(t-m) times x^m = -(c_0 + c_1 x + ...)."""
    p, low = EXTENSIONS[q]
    m = len(low)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(poly_digits(q, a)):
        for j, y in enumerate(poly_digits(q, b)):
            prod[i + j] += x * y
    for t in range(2 * m - 2, m - 1, -1):
        c, prod[t] = prod[t], 0
        for j, coeff in enumerate(low):
            prod[t - m + j] -= c * coeff
    return poly_index(q, prod[:m])


# the extension fields' tables, written out once from the polynomials: the
# brute-force oracles below ask for the same sums and products many times
ADD = {q: [[poly_add(q, a, b) for b in range(q)] for a in range(q)]
       for q in EXTENSIONS}
MUL = {q: [[poly_mul(q, a, b) for b in range(q)] for a in range(q)]
       for q in EXTENSIONS}


def f_add(q, a, b):
    return ADD[q][a][b] if q in ADD else (a + b) % q


def f_mul(q, a, b):
    return MUL[q][a][b] if q in MUL else (a * b) % q


def f_neg(q, a):
    return ADD[q][a].index(0) if q in ADD else (-a) % q


def is_prime_power(q):
    """q > 1 has one prime factor: divide out the least one, 1 is left."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def f_inv(q, a):
    for b in range(1, q):
        if f_mul(q, a, b) == 1:
            return b
    raise ZeroDivisionError


def ref_mat_mul(a, b, q):
    """Matrix product over GF(q), one dot product per entry."""
    out = []
    for row in a:
        out.append([])
        for col in zip(*b):
            acc = 0
            for x, y in zip(row, col):
                acc = f_add(q, acc, f_mul(q, x, y))
            out[-1].append(acc)
    return out


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


def ref_exact_search(code, budget):
    """The exact stopping-redundancy search node by node, each test read
    from its definition; returns (value, exact, nodes).

    The candidates are the nonzero dual words with leading symbol 1 (one
    per projective class), lexicographic; the sets are the i-sets,
    i = 2..d-1, by size, then by mask (bit j for position j); a word
    covers a set it meets exactly once.  The greedy cover seeds the
    incumbent.  A node (a chosen list with some uncovered sets) counts
    against the budget.  With an allowance of a rows left under the
    incumbent it is pruned unless some class not yet banned covers
    ceil(uncovered / a) sets, and unless the chosen rows can still span
    the dual within a rows.  It branches on the first uncovered set with
    the fewest free coverers, stopping at the first with at most one,
    over those coverers ascending, banning each after its subtree.  A
    cover completes with the rank deficit in rows."""
    q = code.field.q
    check_rows = code.parity_check.data.tolist()
    n = len(check_rows[0])
    full = ref_rank(check_rows, q)
    d = ref_min_distance(code.generator.data.tolist(), q)
    classes = sorted({tuple(f_mul(q, f_inv(q, next(x for x in w if x)), x)
                            for x in w)
                      for w in ref_codewords(check_rows, q) if any(w)})
    sets = sorted((s for i in range(2, d) for s in combinations(range(n), i)),
                  key=lambda s: (len(s), sum(1 << j for j in s)))
    covers = [{si for si, s in enumerate(sets)
               if sum(1 for j in s if word[j]) == 1} for word in classes]
    best = len(ref_greedy(check_rows, q))
    nodes = 0

    def deficit(chosen):
        return full - ref_rank([classes[ci] for ci in chosen], q)

    def dfs(uncovered, banned, chosen):
        nonlocal best, nodes
        if not uncovered:
            best = min(best, len(chosen) + deficit(chosen))
            return True
        if nodes == budget:
            return False
        nodes += 1
        allowance = best - 1 - len(chosen)
        if allowance <= 0:
            return True
        free = [ci for ci in range(len(classes)) if ci not in banned]
        need = -(-len(uncovered) // allowance)
        if all(len(covers[ci] & uncovered) < need for ci in free):
            return True
        if deficit(chosen) > allowance:
            return True
        avail = {si: sum(1 for ci in free if si in covers[ci])
                 for si in uncovered}
        enough = max(min(avail.values()), 1)
        target = min(si for si in uncovered if avail[si] <= enough)
        for ci in free:
            if target in covers[ci]:
                if not dfs(uncovered - covers[ci], banned, chosen + [ci]):
                    return False
                banned = banned | {ci}
        return True

    exact = dfs(frozenset(range(len(sets))), frozenset(), [])
    return best, exact, nodes
