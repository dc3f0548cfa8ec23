"""The three workloads: their inputs, their operations and the gold answers.

An operation is what a user would type, `stopred.cli.main([...])` run in
process with stdout captured, or the public library call where no command
exists.  Each has a class (`table`, `matrix` or `decode`) and a check that
raises `Wrong` when the answer differs from the gold value.

Gold values and where they come from:
  [acc]   the acceptance integers of the test suite (Golay tables, s of the
          five assets, bracket 6..2509, rho(hexacode) = 6);
  [form]  closed forms: a pattern heavier than rank(H) always fails; for an
          MDS code psi_ml[w] = C(n,w) exactly when w > n-k; RM(3,5) has
          A4 = 1240 words of weight 4, and each weight-5 ML failure holds
          exactly one of them (two would differ in a weight-2 codeword), so
          psi_ml[5] = 1240 * 28; the RM and combination row counts; s = d
          after the certified constructions;
  [seed]  output of stopred at commit 7bb92ce, recorded here.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Optional

import numpy as np

import codes

PGRID = [round(0.05 * i, 2) for i in range(1, 11)]
DECODE_PATTERNS = 20_000


class Wrong(Exception):
    """An operation returned an answer that differs from the gold value."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def _full(n: int, head: List[int]) -> List[int]:
    """A complete table: the given low weights, then C(n, w) [form]."""
    return head + [comb(n, w) for w in range(len(head), n + 1)]


def _mds_ml(n: int, k: int) -> List[int]:
    return [0] * (n - k + 1) + [comb(n, w) for w in range(n - k + 1, n + 1)]


GOLD_PSI = {
    # [acc] weights 0..12, [form] weights above rank 12
    ("ml", "h24"): _full(24, [0] * 8 + [759, 12144, 91080, 425040, 1313116]),
    ("stop", "h24"): _full(24, [0, 0, 0, 0, 110, 2277, 19723, 100397, 343035,
                                844459, 1568875, 2274130, 2637506]),
    ("stop", "hp24"): _full(24, [0] * 8 + [3598, 82138, 585157, 1717082,
                                           2556402]),
    ("ml", "h12"): _full(12, [0] * 6 + [132]),                   # [acc]
    ("ml", "hexacode"): _mds_ml(6, 3),                           # [form]
    ("ml", "rs11"): _mds_ml(11, 5),                              # [form]
    ("ml", "rs13"): _mds_ml(13, 5),                              # [form]
    ("ml", "rm15"): _full(32, [0, 0, 0, 0, 1240, 1240 * 28,
                               461776]),                         # [form][seed]
    ("stop", "rm15"): _full(32, [0, 0, 0, 0, 1800, 66288, 715712]),  # [seed]
}
# psi stop --wmax 7 on the RM(2,5) checks: s = 8 so nothing below 8 fails,
# rank 16 so everything above 16 fails; weights 8..16 are not enumerated.
GOLD_RM25_TRUNCATED = {w: 0 for w in range(8)}
GOLD_RM25_TRUNCATED.update({w: comb(32, w) for w in range(17, 33)})

GOLD_SD = {"h24": "4", "hp24": "8", "h12": "3", "hp12": "6",
           "hexacode": "4"}                                      # [acc]
GOLD_RHO = {"hexacode": "6", "th13": "6", "eh16": "7"}           # [acc][seed]
GOLD_BOUNDS = {                                                  # [seed]
    "h24": ("coverage_lower                   lower 6\n"
            "all_dual_words_upper             upper 4095\n"
            "combination_upper                upper 2509\n"
            "combined                         range 6 .. 2509\n"),
    "h12": ("coverage_lower                   lower 9\n"
            "all_dual_words_upper             upper 364\n"
            "combined                         range 9 .. 364\n"),
    "mds63": ("mds_counting_lower               lower 5\n"
              "mds_all_subsets_upper            upper 15\n"
              "mds_steiner_refined_lower        lower 6\n"
              "mds_constant_weight_upper        upper 10\n"
              "schonheim_lower                  lower 6\n"
              "decaen_lower                     lower 6\n"
              "combined                         range 6 .. 10\n"),
}
GOLD_PRUNED_ROWS = 1056                                          # [seed]
RANK = {"h24": 12, "hp24": 12, "h12": 6, "hp12": 6}


def load_inputs(asset_text: Dict[str, str]) -> Dict[str, tuple]:
    """Every base matrix as (q, array), before the seeded transform."""
    base = {name: codes.parse_text(text) for name, text in asset_text.items()}
    base.update({
        "rs11": (11, codes.rs_parity_check(11, 5)),
        "rs13": (13, codes.rs_parity_check(13, 5)),
        "th13": (3, codes.ternary_hamming_13()),
        "eh16": (2, codes.extended_hamming_16()),
        "rm15": (2, codes.rm_stopping_rows(1, 5)),
        "rm25": (2, codes.rm_stopping_rows(2, 5)),
        "rm26": (2, codes.rm_stopping_rows(2, 6)),
    })
    return base


class Op:
    """One operation: `run(ctx)` is timed, `check(ctx, out)` is not.
    `save` names a work file that receives the captured stdout, for a later
    operation of the same cycle to read."""

    def __init__(self, name: str, cls: str, run: Callable,
                 check: Callable, save: Optional[str] = None,
                 calls: int = 1):
        self.name, self.cls, self.run, self.check = name, cls, run, check
        self.save, self.calls = save, calls


def cli_op(name: str, cls: str, argv: List[str], check: Callable,
           save: Optional[str] = None) -> Op:
    def run(ctx):
        return ctx.cli([ctx.path(a) for a in argv])
    return Op(name, cls, run, lambda ctx, out: check(ctx, _ok(out)), save)


def _ok(out) -> str:
    code, text, err = out
    expect(code == 0, f"exit code {code}: {err.strip()}")
    return text


# ---------------------------------------------------------------- parsers

def _psi_counts(text: str) -> Dict[int, int]:
    lines = text.strip().splitlines()
    expect(lines[0] == "w,count", "psi CSV header")
    return {int(w): int(c) for w, c in (ln.split(",") for ln in lines[1:])}


def _curve(text: str) -> List[tuple]:
    lines = text.strip().splitlines()
    expect(lines[0] == "p,prob", "curve CSV header")
    return [(float(p), float(v)) for p, v in (ln.split(",") for ln in lines[1:])]


# ----------------------------------------------------------------- checks

def check_psi(gold: Dict[int, int]):
    def check(ctx, text):
        got = _psi_counts(text)
        expect(got == gold, "psi table differs from the gold table")
    return check


def check_curve(table: List[int]):
    """Failure curve against the exact rational value of the gold table."""
    n = len(table) - 1

    def check(ctx, text):
        got = _curve(text)
        expect([p for p, _ in got] == PGRID, "curve grid")
        for p, value in got:
            x = Fraction(str(p))
            exact = float(sum(c * x ** w * (1 - x) ** (n - w)
                              for w, c in enumerate(table)))
            expect(abs(value - exact) <= 1e-12 * max(exact, 1e-300) + 1e-300,
                   f"curve value at p={p}")
    return check


def check_text(gold: str):
    def check(ctx, text):
        expect(text.strip() == gold.strip(), f"expected {gold.strip()!r}, "
                                             f"got {text.strip()[:80]!r}")
    return check


def _in_dual(ctx, code_name: str, data: np.ndarray) -> bool:
    code = ctx.codes[code_name]
    linalg = ctx.mods["linalg"]
    prod = linalg.mat_mul(code.field, code.generator.data, data.T)
    return not np.any(prod)


def check_full_stopping(code_name: str, rows: Optional[int] = None):
    """rank n-k, rows in the dual, s = d: verify_full_stopping and rank."""
    def check(ctx, text):
        q, data = codes.parse_text(text)
        code = ctx.codes[code_name]
        linalg, stopping = ctx.mods["linalg"], ctx.mods["stopping"]
        h = linalg.Matrix(code.field, data)
        if rows is not None:
            expect(h.n_rows == rows, f"{h.n_rows} rows, expected {rows}")
        expect(linalg.rank(h) == code.n - code.k, "rank differs from n-k")
        expect(stopping.verify_full_stopping(code, h), "s(H) != d")
    return check


def check_all_dual(ctx, text):
    """construct hstar: every nonzero dual word of the (24,12) code once."""
    q, data = codes.parse_text(text)
    expect(data.shape[0] == 4095, f"{data.shape[0]} rows, expected 4095")
    expect(np.all(data.any(axis=1)), "zero row")
    expect(len({row.tobytes() for row in data}) == 4095, "repeated row")
    expect(_in_dual(ctx, "h24", data), "row outside the dual code")


def check_combinations(ctx, text):
    """construct thm4: 2509 = sum C(12, i), i <= 6, rows [acc], in the dual."""
    q, data = codes.parse_text(text)
    expect(data.shape[0] == 2509, f"{data.shape[0]} rows, expected 2509")
    expect(codes.gf2_rank(data) == 12, "rank differs from 12")
    expect(_in_dual(ctx, "h24", data), "row outside the dual code")


def check_rm(r: int, m: int):
    """construct rm: row count of the recursion, and the row space of
    RM(r, m): rank dim RM(r, m), unchanged by stacking the generator."""
    want_rows = sum(comb(m - r - 1 + i, i) * (1 << i) for i in range(r + 1))
    dim = sum(comb(m, i) for i in range(r + 1))
    gen = codes.rm_generator(r, m)

    def check(ctx, text):
        q, data = codes.parse_text(text)
        expect(data.shape == (want_rows, 1 << m), f"shape {data.shape}")
        expect(codes.gf2_rank(data) == dim, "rank differs from dim RM(r, m)")
        expect(codes.gf2_rank(np.vstack([data, gen])) == dim, "row space")
    return check


def check_true(ctx, out):
    expect(out is True, f"expected True, got {out!r}")


# ------------------------------------------------------------ decode batch

def decode_op(name: str, decoder: str) -> Op:
    """`DECODE_PATTERNS` single-pattern calls on one matrix.  The result is
    (outputs, latencies in seconds); a call that raised has output None."""
    def run(ctx):
        fn = getattr(ctx.mods["erasure"], decoder)
        h = ctx.matrices[name]
        clock = time.perf_counter
        outs, lat = [], []
        for pattern in ctx.patterns[name]:
            t0 = clock()
            try:
                out = fn(h, pattern)
            except Exception:  # counted as a wrong answer by the check
                out = None
            lat.append(clock() - t0)
            outs.append(out)
        return outs, lat

    def check(ctx, result) -> int:
        outs, _ = result
        masks = ctx.row_masks[name]
        wrong = 0
        peeled = ctx.peeled.setdefault(name, [])
        for i, (pattern, out) in enumerate(zip(ctx.patterns[name], outs)):
            if out is None:
                wrong += 1
                if decoder == "iterative_decode":
                    peeled.append(False)
                continue
            if decoder == "iterative_decode":
                pset = frozenset(pattern)
                residue = sum(1 << j for j in out.residue)
                ok = (out.recovered | out.residue == pset
                      and not out.recovered & out.residue
                      and not any(x and not x & (x - 1)
                                  for x in (r & residue for r in masks)))
                peeled.append(out.success)
            else:
                ok = (out is True or out is False) and \
                    not (len(pattern) > RANK[name] and out) and \
                    not (peeled[i] and not out)
            wrong += not ok
        return wrong

    return Op(f"{decoder}:{name}", "decode", run, check,
              calls=DECODE_PATTERNS)


# -------------------------------------------------------------- workloads

def golay24_tables() -> dict:
    ops = [
        cli_op("psi ml h24", "table", ["psi", "ml", "--file", "@h24",
               "--format", "csv"], check_psi(dict(enumerate(GOLD_PSI["ml", "h24"]))),
               save="psi-ml-h24.csv"),
        cli_op("psi stop h24", "table", ["psi", "stop", "--file", "@h24",
               "--format", "csv"], check_psi(dict(enumerate(GOLD_PSI["stop", "h24"]))),
               save="psi-stop-h24.csv"),
        cli_op("psi stop hp24", "table", ["psi", "stop", "--file", "@hp24",
               "--format", "csv"], check_psi(dict(enumerate(GOLD_PSI["stop", "hp24"]))),
               save="psi-stop-hp24.csv"),
    ]
    grid = ",".join(str(p) for p in PGRID)
    for dec, name in (("ml", "h24"), ("stop", "h24"), ("stop", "hp24")):
        ops.append(cli_op(f"curve {dec} {name}", "table",
                          ["curve", "--psi", f"@psi-{dec}-{name}.csv",
                           "--pgrid", grid], check_curve(GOLD_PSI[dec, name])))
    return {"inputs": ["h24", "hp24"], "codes": ["h24"], "decode": [],
            "ops": ops}


def redundancy_search() -> dict:
    ops = []
    for name in ("h24", "h12"):
        ops.append(cli_op(f"greedy {name}", "matrix",
                          ["greedy", "--file", f"@{name}"],
                          check_full_stopping(name), save=f"greedy-{name}.mat"))
        ops.append(verify_op(name, f"greedy-{name}.mat"))
    for name, s in GOLD_SD.items():
        ops.append(cli_op(f"sd {name}", "matrix", ["sd", "--file", f"@{name}"],
                          check_text(s)))
    ops += [
        cli_op("construct hstar h24", "matrix",
               ["construct", "hstar", "--file", "@h24"], check_all_dual,
               save="hstar.mat"),
        cli_op("sd --cap 8 hstar", "matrix",
               ["sd", "--file", "@hstar.mat", "--cap", "8"], check_text(">= 8")),
        cli_op("construct thm4 h24", "matrix",
               ["construct", "thm4", "--file", "@h24"], check_combinations,
               save="thm4.mat"),
        cli_op("sd --cap 8 thm4", "matrix",
               ["sd", "--file", "@thm4.mat", "--cap", "8"], check_text(">= 8")),
        cli_op("sd --cap 8 rm26", "matrix",
               ["sd", "--file", "@rm26", "--cap", "8"], check_text(">= 8")),
    ]
    for m in range(1, 7):
        for r in range(m):
            ops.append(cli_op(f"construct rm {r} {m}", "matrix",
                              ["construct", "rm", "--r", str(r), "--m", str(m)],
                              check_rm(r, m)))
    for kind, rows in (("mds", comb(13, 7)), ("mds-pruned", GOLD_PRUNED_ROWS)):
        ops.append(cli_op(f"construct {kind} rs13", "matrix",
                          ["construct", kind, "--file", "@rs13"],
                          check_full_stopping("rs13", rows), save=f"{kind}.mat"))
        ops.append(verify_op("rs13", f"{kind}.mat"))
    for name, rho in GOLD_RHO.items():
        ops.append(cli_op(f"rho-exact {name}", "matrix",
                          ["rho-exact", "--file", f"@{name}"], check_text(rho)))
    for name in ("h24", "h12"):
        ops.append(cli_op(f"bounds {name}", "matrix",
                          ["bounds", "--file", f"@{name}"],
                          check_text(GOLD_BOUNDS[name])))
    ops.append(cli_op("bounds mds 6 3", "matrix",
                      ["bounds", "--n", "6", "--k", "3", "--mds"],
                      check_text(GOLD_BOUNDS["mds63"])))
    return {"inputs": ["h24", "hp24", "h12", "hp12", "hexacode", "rs13",
                       "th13", "eh16", "rm26"],
            "codes": ["h24", "h12", "rs13"], "decode": [], "ops": ops}


def verify_op(code_name: str, matrix_file: str) -> Op:
    """Library call (no CLI command certifies a matrix): read the code's
    checks and the candidate matrix, then verify_full_stopping."""
    def run(ctx):
        cli, linalg = ctx.mods["cli"], ctx.mods["linalg"]
        code = linalg.LinearCode.from_parity_check(
            cli.read_matrix(ctx.path(f"@{code_name}")))
        h = cli.read_matrix(ctx.path(f"@{matrix_file}"))
        return ctx.mods["stopping"].verify_full_stopping(code, h)
    return Op(f"verify {matrix_file}", "matrix", run, check_true)


def erasure_mixed() -> dict:
    grid = ",".join(str(p) for p in PGRID)
    ops = []
    for dec, name in (("ml", "h12"), ("ml", "hexacode"), ("ml", "rs11"),
                      ("ml", "rs13"), ("stop", "rm15"), ("ml", "rm15")):
        table = GOLD_PSI[dec, name]
        ops.append(cli_op(f"psi {dec} {name}", "table",
                          ["psi", dec, "--file", f"@{name}", "--format", "csv"],
                          check_psi(dict(enumerate(table))),
                          save=f"psi-{dec}-{name}.csv"))
        ops.append(cli_op(f"curve {dec} {name}", "table",
                          ["curve", "--psi", f"@psi-{dec}-{name}.csv",
                           "--pgrid", grid], check_curve(table)))
    ops.append(cli_op("psi stop --wmax 7 rm25", "table",
                      ["psi", "stop", "--file", "@rm25", "--wmax", "7",
                       "--format", "csv"], check_psi(GOLD_RM25_TRUNCATED)))
    decode = ["h24", "hp24", "h12", "hp12"]
    for name in decode:
        ops.append(decode_op(name, "iterative_decode"))
        ops.append(decode_op(name, "ml_decode"))
    return {"inputs": ["h12", "hexacode", "rs11", "rs13", "rm15", "rm25",
                       "h24", "hp24", "hp12"],
            "codes": ["h12", "hexacode", "rs11", "rs13", "rm15"],
            "decode": decode, "ops": ops}


WORKLOADS = {
    "golay24-tables": golay24_tables,
    "redundancy-search": redundancy_search,
    "erasure-mixed": erasure_mixed,
}
