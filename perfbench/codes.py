"""Input matrices of the benchmark and the seeded transform applied to them.

Every input is a parity-check matrix given as a numpy array of element
indices over GF(q).  Before the program sees a matrix, the workload seed
permutes its columns, reorders its rows and, for q > 2, scales each row by
a nonzero constant.  These maps send the code to an equivalent code and
keep every row support (up to the column permutation), so the exact
answers the benchmark checks -- psi tables, s(H), d, rho and the bounds --
are the same for every seed.

Nothing here calls stopred: the base matrices are written out from their
textbook definitions (the Golay and hexacode matrices are the program's
embedded assets, passed in as text by the caller).
"""

from __future__ import annotations

import zlib
from itertools import product

import numpy as np

# GF(4) multiplication in the basis x^2 = x + 1 with elements 0, 1, w, W.
GF4_MUL = np.array([[0, 0, 0, 0],
                    [0, 1, 2, 3],
                    [0, 2, 3, 1],
                    [0, 3, 1, 2]], dtype=np.uint8)
GF4_SYMBOLS = ("0", "1", "w", "W")


def rng_for(seed: int, name: str, stream: int = 0) -> np.random.Generator:
    """An independent generator per (seed, input name, purpose)."""
    return np.random.default_rng([seed, zlib.crc32(name.encode()), stream])


def scale_rows(q: int, data: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    if q == 4:
        return GF4_MUL[coeffs[:, None], data]
    return ((data.astype(np.int64) * coeffs[:, None].astype(np.int64)) % q
            ).astype(np.uint8)


def transform(q: int, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Column permutation, row order and (q > 2) nonzero row scalings."""
    rows, cols = data.shape
    out = data[rng.permutation(rows)][:, rng.permutation(cols)]
    if q > 2:
        out = scale_rows(q, out, rng.integers(1, q, size=rows))
    return np.ascontiguousarray(out, dtype=np.uint8)


def parse_text(text: str):
    """Matrix file text -> (q, array).  GF(3) '-' reads as 2."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    q, n = int(lines[0][0]), int(lines[0][1])
    if q == 4:
        table = {s: i for i, s in enumerate(GF4_SYMBOLS)}
        rows = [[table[s] for s in ln] for ln in lines[1:]]
    else:
        rows = [[2 if s == "-" else int(s) for s in ln] for ln in lines[1:]]
    data = np.array(rows, dtype=np.uint8).reshape(len(rows), n)
    return q, data


def render_text(q: int, data: np.ndarray) -> str:
    symbols = GF4_SYMBOLS if q == 4 else tuple(str(i) for i in range(q))
    lines = [f"{q} {data.shape[1]}"]
    lines += [" ".join(symbols[int(x)] for x in row) for row in data]
    return "\n".join(lines) + "\n"


def rs_parity_check(q: int, k: int) -> np.ndarray:
    """Checks of the full-length Reed-Solomon code RS(q, k) over prime GF(q).

    With every field element as an evaluation point, the dual of RS(q, k)
    is RS(q, q - k), so its Vandermonde rows are a parity-check matrix.
    """
    return np.array([[pow(x, i, q) if i else 1 for x in range(q)]
                     for i in range(q - k)], dtype=np.uint8)


def ternary_hamming_13() -> np.ndarray:
    """Checks of the [13,10,3] ternary Hamming code: one column per point
    of PG(2,3), leading nonzero coordinate 1."""
    points = [v for v in product(range(3), repeat=3)
              if any(v) and next(x for x in v if x) == 1]
    return np.array(points, dtype=np.uint8).T.copy()


def extended_hamming_16() -> np.ndarray:
    """Checks of the [16,11,4] extended Hamming code."""
    bits = [[(j >> b) & 1 for j in range(16)] for b in range(4)]
    return np.array([[1] * 16] + bits, dtype=np.uint8)


def rm_generator(r: int, m: int) -> np.ndarray:
    """Plotkin-recursive generator of RM(r, m)."""
    if r == m:
        return np.eye(1 << m, dtype=np.uint8)
    if r == 0:
        return np.ones((1, 1 << m), dtype=np.uint8)
    a, b = rm_generator(r, m - 1), rm_generator(r - 1, m - 1)
    return np.vstack([np.hstack([a, a]),
                      np.hstack([np.zeros((b.shape[0], a.shape[1]), np.uint8), b])])


def rm_stopping_rows(r: int, m: int) -> np.ndarray:
    """The redundant RM(r, m) generator with stopping distance 2^(r+1):
    [a a; 0 b; b 0] with a, b the matrices for (r, m-1) and (r-1, m-1)."""
    if r == 0 or r >= m - 1:
        return rm_generator(r, m)
    a, b = rm_stopping_rows(r, m - 1), rm_stopping_rows(r - 1, m - 1)
    zero = np.zeros((b.shape[0], a.shape[1]), np.uint8)
    return np.vstack([np.hstack([a, a]), np.hstack([zero, b]),
                      np.hstack([b, zero])])


def gf2_rank(data: np.ndarray) -> int:
    """Rank over GF(2), rows packed into Python ints."""
    basis = []
    for row in data:
        v = int("".join("1" if x else "0" for x in row) or "0", 2)
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def row_masks(data: np.ndarray) -> list:
    return [sum(1 << int(j) for j in np.nonzero(row)[0]) for row in data]


def sample_patterns(rng: np.random.Generator, n: int, count: int) -> list:
    """Erasure patterns as sorted position lists.  The weight is uniform on
    1..n/2+2, so light patterns that peel, patterns stuck on stopping sets
    and patterns heavier than rank(H) all occur."""
    weights = rng.integers(1, n // 2 + 3, size=count)
    order = np.argsort(rng.random((count, n)), axis=1)
    return [sorted(order[i, :w].tolist()) for i, w in enumerate(weights)]
