"""Command-line front end, matrix file I/O, and embedded reference matrices.

Matrix file format: a header line "q n" (field order, column count), then
one whitespace-separated row of symbols, decimal element indices, per line.
GF(3) accepts "-" for 2 on input and always emits "2"; GF(4) uses 0 1 w W.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import List, Optional

import numpy as np

from . import bounds as bounds_mod
from . import construct, erasure, greedy, stopping
from .field import make_field, parse_symbol
from .linalg import LinearCode, Matrix, min_distance

# Reference parity-check matrices, stored in the matrix file format.
# h24 / h12: systematic double-circulant checks of the (24,12,8) binary and
# (12,6,6) ternary Golay codes; hp24 / hp12: redundant checks for the same
# codes with full stopping distance (34 and 22 rows); hexacode: a 6-row
# check for the (6,3,4) code over GF(4) with stopping distance 4.
ASSET_TEXT = {
    "h24": """\
2 24
1 1 0 0 0 0 0 0 0 0 0 0 0 1 1 0 1 1 1 0 0 0 1 0
1 0 1 0 0 0 0 0 0 0 0 0 0 0 1 1 0 1 1 1 0 0 0 1
1 0 0 1 0 0 0 0 0 0 0 0 0 1 0 1 1 0 1 1 1 0 0 0
1 0 0 0 1 0 0 0 0 0 0 0 0 0 1 0 1 1 0 1 1 1 0 0
1 0 0 0 0 1 0 0 0 0 0 0 0 0 0 1 0 1 1 0 1 1 1 0
1 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 1 0 1 1 0 1 1 1
1 0 0 0 0 0 0 1 0 0 0 0 0 1 0 0 0 1 0 1 1 0 1 1
1 0 0 0 0 0 0 0 1 0 0 0 0 1 1 0 0 0 1 0 1 1 0 1
1 0 0 0 0 0 0 0 0 1 0 0 0 1 1 1 0 0 0 1 0 1 1 0
1 0 0 0 0 0 0 0 0 0 1 0 0 0 1 1 1 0 0 0 1 0 1 1
1 0 0 0 0 0 0 0 0 0 0 1 0 1 0 1 1 1 0 0 0 1 0 1
0 0 0 0 0 0 0 0 0 0 0 0 1 1 1 1 1 1 1 1 1 1 1 1
""",
    "hp24": """\
2 24
0 0 0 0 0 0 0 0 0 0 1 1 0 1 1 0 0 1 0 0 1 1 1 0
0 0 0 0 0 0 0 0 0 0 1 1 1 0 0 1 1 0 1 1 0 0 0 1
0 0 0 0 0 0 0 0 1 1 0 0 0 0 0 1 0 0 1 1 1 0 1 1
0 0 0 0 0 0 0 1 1 0 0 0 1 1 0 1 1 0 0 0 1 0 0 1
0 0 0 0 0 0 1 0 0 1 1 1 1 1 1 0 0 0 0 1 0 0 0 0
0 0 0 0 0 0 1 1 0 1 0 1 1 0 0 1 1 1 0 0 0 0 0 0
0 0 0 0 1 0 1 1 0 1 0 0 0 0 0 1 0 0 1 0 0 1 1 0
0 0 0 0 1 1 1 0 1 1 0 1 1 0 0 0 0 0 0 0 0 1 0 0
0 0 0 0 1 1 1 1 0 0 0 0 1 0 0 0 1 0 1 0 0 0 0 1
0 0 0 1 0 0 0 1 0 0 0 0 0 0 0 1 1 1 1 0 0 0 1 1
0 0 0 1 1 0 0 0 0 0 0 0 0 1 1 1 0 1 1 0 0 1 0 0
0 0 0 1 1 0 1 1 1 0 0 1 0 0 0 0 0 1 1 0 0 0 0 0
0 0 0 1 1 1 0 0 0 0 0 1 1 1 0 0 0 0 1 1 0 0 0 0
0 0 1 0 0 0 1 1 0 1 0 0 0 0 0 0 1 0 0 0 1 0 1 1
0 0 1 0 1 1 1 1 1 0 0 0 0 0 1 0 0 0 0 0 0 0 1 0
0 0 1 1 1 0 0 1 0 0 1 1 0 1 1 0 0 0 0 0 0 0 0 0
0 1 0 0 0 0 0 0 0 0 1 0 1 0 1 0 1 0 0 1 0 1 1 0
0 1 0 0 0 0 0 0 1 0 1 1 0 1 1 0 1 0 0 0 0 0 0 1
0 1 0 0 0 1 0 0 1 0 1 0 0 0 1 0 0 0 1 0 1 0 1 0
0 1 0 0 0 1 1 1 1 0 0 1 0 0 0 0 1 0 0 0 1 0 0 0
0 1 1 0 0 1 0 0 1 0 0 0 0 0 1 0 1 1 0 1 0 0 0 0
0 1 1 1 0 0 0 1 0 0 0 0 0 1 0 0 0 1 1 1 0 0 0 0
1 0 0 0 0 0 1 0 0 0 1 1 1 0 0 1 0 0 0 0 0 1 1 0
1 0 0 0 0 1 0 0 0 0 1 1 0 1 1 1 0 0 1 0 0 0 0 0
1 0 0 1 1 0 0 0 1 0 0 0 0 0 0 1 0 1 0 0 1 0 0 1
1 0 1 0 0 0 0 0 0 1 1 0 1 0 0 0 0 0 0 1 0 0 1 1
1 0 1 1 0 0 0 0 0 0 0 1 0 0 1 1 0 0 0 0 1 1 0 0
1 0 1 1 0 1 0 0 0 0 0 0 1 0 0 0 0 1 0 1 1 0 0 0
1 0 1 1 1 0 0 0 0 0 0 0 0 1 0 0 0 0 0 1 0 1 0 1
1 1 0 0 0 1 1 0 0 0 0 0 1 0 0 0 1 1 0 0 0 1 0 0
1 1 0 0 1 0 1 0 0 1 1 0 0 0 0 0 0 0 0 1 0 1 0 0
1 1 0 1 0 0 0 0 0 1 0 0 0 1 0 0 0 1 0 0 1 1 0 0
1 1 1 0 1 1 0 0 1 0 0 0 0 0 0 0 0 0 0 0 1 1 0 0
1 1 1 1 0 0 0 0 1 1 0 0 0 0 0 1 0 0 0 1 0 0 0 0
""",
    "h12": """\
3 12
1 0 0 0 0 0 0 1 1 1 1 1
0 1 0 0 0 0 1 0 1 - - 1
0 0 1 0 0 0 1 1 0 1 - -
0 0 0 1 0 0 1 - 1 0 1 -
0 0 0 0 1 0 1 - - 1 0 1
0 0 0 0 0 1 1 1 - - 1 0
""",
    "hp12": """\
3 12
0 0 0 0 0 1 1 1 - - 1 0
1 1 - - 1 0 0 0 0 0 0 -
0 0 0 - 1 0 0 0 1 1 - -
- - 1 0 0 1 1 1 0 0 0 0
0 0 - 0 0 1 0 0 - 1 - 1
1 - 0 1 1 0 1 - 0 0 0 0
1 1 0 0 0 0 1 1 - 0 0 -
0 1 0 1 0 1 0 0 1 1 1 0
1 0 - 0 1 0 0 - 0 1 - 0
0 0 - 1 1 0 1 0 0 0 - 1
1 0 0 1 1 1 0 0 0 1 0 1
0 0 1 0 1 1 0 1 1 1 0 0
- 1 0 0 0 0 1 - 0 1 1 0
0 - - 1 0 0 - 1 0 0 0 -
0 0 0 0 1 1 - 0 1 0 1 1
- 0 1 1 0 1 0 0 - - 0 0
0 - 1 0 - 1 0 0 - 0 1 0
- 0 0 - 1 0 0 - 0 0 1 1
0 - 0 - 1 0 - 0 0 - 0 1
1 0 - 0 1 1 1 0 - 0 0 0
1 0 1 1 1 0 0 0 1 0 1 0
0 1 0 - - 1 0 0 0 0 - 1
""",
    "hexacode": """\
4 6
W w 0 1 0 1
W w 1 0 1 0
0 1 W w 0 1
1 0 W w 1 0
0 1 0 1 W w
1 0 1 0 W w
""",
}

def parse_matrix_text(text: str) -> Matrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    # ASCII digits only, as in symbols; a minus is read so that a negative
    # count is named as such
    if len(header) != 2 or not all(re.fullmatch("-?[0-9]+", t)
                                   for t in header):
        raise ValueError(f"header must be two integers: q n, got {lines[0]!r}")
    q, n = map(int, header)
    if n < 1:
        raise ValueError(f"header column count n must be >= 1, got {n}")
    f = make_field(q)
    if len(lines) < 2:
        raise ValueError("matrix file needs at least one row")
    values = {}  # each distinct symbol, parsed once
    tokens = []
    for ln in lines[1:]:
        row = ln.split()
        if len(row) != n:
            raise ValueError(f"row has {len(row)} symbols, expected {n}")
        if not values.keys() >= set(row):
            for s in row:  # in reading order, so the first bad one is named
                if s not in values:
                    values[s] = parse_symbol(f, s)
        tokens += row
    data = np.fromiter(map(values.__getitem__, tokens), dtype=np.uint8,
                       count=len(tokens))
    return Matrix(f, data.reshape(-1, n))


def render_matrix_text(m: Matrix) -> str:
    symbol = m.field.symbols.__getitem__
    lines = [f"{m.field.q} {m.n_cols}"]
    lines += [" ".join(map(symbol, row)) for row in m.data.tolist()]
    return "\n".join(lines) + "\n"


def load_asset(name: str) -> Matrix:
    if name not in ASSET_TEXT:
        raise ValueError(f"unknown asset {name!r}; "
                         f"choose from {sorted(ASSET_TEXT)}")
    return parse_matrix_text(ASSET_TEXT[name])


def read_matrix(path: str) -> Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def _input_matrix(args) -> Matrix:
    path, asset = args.file, args.assets
    if (path is None) == (asset is None):
        raise ValueError("exactly one of --file or --assets is required")
    if asset is not None:
        return load_asset(asset)
    return read_matrix(path)


def _cmd_sd(args) -> int:
    h = _input_matrix(args)
    report = stopping.stopping_distance(h, cap=args.cap)
    if args.format == "json":
        print(json.dumps({"s": report.s, "at_least": report.at_least,
                          "witness": list(report.witness) if report.witness else None}))
    elif args.format == "csv":
        print("s,at_least")
        print(f"{report.s},{str(report.at_least).lower()}")
    else:
        print(f">= {report.s}" if report.at_least else str(report.s))
    return 0


def _cmd_mindist(args) -> int:
    code = LinearCode.from_parity_check(_input_matrix(args))
    print(min_distance(code))
    return 0


def _cmd_bounds(args) -> int:
    if args.n is not None or args.k is not None or args.mds:
        if args.file is not None or args.assets is not None:
            raise ValueError("--n, --k and --mds take no --file or --assets")
        if args.n is None or args.k is None or not args.mds:
            raise ValueError("parameter mode needs --n, --k and --mds together")
        entries = bounds_mod.mds_bounds(args.n, args.k)
    else:
        entries = bounds_mod.bounds_report(
            LinearCode.from_parity_check(_input_matrix(args))).entries
    combined = bounds_mod.bracket(entries)
    if args.format == "json":
        print(json.dumps({
            "entries": [{"name": e.name, "kind": e.kind, "value": e.value,
                         "theorem": e.method} for e in entries],
            "combined_lower": combined[0],
            "combined_upper": combined[1],
        }))
    elif args.format == "csv":
        print("name,kind,value")
        for e in entries:
            print(f"{e.name},{e.kind},{e.value}")
    else:
        for e in entries:
            print(f"{e.name:32s} {e.kind:5s} {e.value}")
        print(f"{'combined':32s} range {combined[0]} .. {combined[1]}")
    return 0


def _cmd_construct(args) -> int:
    kind = args.kind
    if kind == "rm":
        if args.r is None or args.m is None:
            raise ValueError("construct rm needs --r and --m")
        out = (construct.rm_generator(args.r, args.m) if args.generator
               else construct.rm_stopping_pcm(args.r, args.m))
    elif kind == "directsum":
        h1 = _input_matrix(args)
        if (args.file2 is None) == (args.assets2 is None):
            raise ValueError("exactly one of --file2 or --assets2 is required")
        h2 = load_asset(args.assets2) if args.assets2 else read_matrix(args.file2)
        out = construct.direct_sum_pcm(h1, h2)
    else:
        h = _input_matrix(args)
        if kind == "uu":
            out = construct.uu_pcm(h)
        elif kind == "extend":
            out = construct.extend_pcm(h)
        else:
            code = LinearCode.from_parity_check(h)
            if kind == "hstar":
                out = construct.full_dual_pcm(code)
            elif kind == "thm4":
                t_max = args.tmax
                if t_max is None:
                    t_max = code.min_distance() - 2
                out = construct.combination_pcm(code.parity_check, t_max)
            elif kind == "mds":
                out = construct.mds_pcm(code)
            elif kind == "mds-pruned":
                out = construct.pruned_mds_pcm(code)
            else:
                raise ValueError(f"unknown construction {kind!r}")
    sys.stdout.write(render_matrix_text(out))
    return 0


def _cmd_greedy(args) -> int:
    code = LinearCode.from_parity_check(_input_matrix(args))
    out = greedy.greedy_construct(code)
    sys.stdout.write(render_matrix_text(out))
    return 0


def _cmd_rho_exact(args) -> int:
    code = LinearCode.from_parity_check(_input_matrix(args))
    result = greedy.exact_stopping_redundancy(code, budget=args.budget)
    if args.format == "json":
        print(json.dumps({"rho": result.value, "exact": result.exact}))
    else:
        suffix = "" if result.exact else " (upper bound only)"
        print(f"{result.value}{suffix}")
    return 0


def _cmd_psi(args) -> int:
    h = _input_matrix(args)
    if args.decoder == "ml":
        profile = erasure.psi_ml(LinearCode.from_parity_check(h), w_max=args.wmax)
    else:
        label = args.assets if args.assets else "file"
        profile = erasure.psi_stop(h, w_max=args.wmax, matrix_id=label)
    if args.format == "json":
        print(json.dumps({"n": profile.n, "decoder": profile.decoder,
                          "counts": profile.counts}))
    elif args.format == "csv":
        sys.stdout.write(profile.to_csv())
    else:
        print(f"# decoder: {profile.decoder}")
        for w, count in enumerate(profile.counts):
            if count is not None:
                print(f"{w:3d} {count}")
    return 0


def _pgrid(text: str) -> List[float]:
    """The erasure probabilities of `--pgrid`; blank entries are skipped."""
    grid = []
    for tok in filter(None, (tok.strip() for tok in text.split(","))):
        try:
            grid.append(float(tok))
        except ValueError:
            raise ValueError(f"--pgrid entry {tok!r} is not a number") \
                from None
    if not grid:
        raise ValueError("--pgrid needs at least one erasure probability")
    return grid


def _cmd_curve(args) -> int:
    grid = _pgrid(args.pgrid)
    with open(args.psi, "r", encoding="utf-8") as fh:
        profile = erasure.PsiProfile.from_csv(fh.read())
    points = erasure.failure_curve(profile, grid)
    if args.format == "json":
        print(json.dumps([{"p": p, "prob": pr} for p, pr in points]))
    else:
        sys.stdout.write(erasure.curve_to_csv(points))
    return 0


def _cmd_assets(args) -> int:
    sys.stdout.write(render_matrix_text(load_asset(args.name)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stopred",
        description="stopping distances, stopping-redundancy bounds, and "
                    "exact erasure-failure analysis for small linear codes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_opts(p):
        p.add_argument("--file", "-f", help="matrix file (header 'q n')")
        p.add_argument("--assets", choices=sorted(ASSET_TEXT),
                       help="use an embedded reference matrix")

    def add_format(p):
        p.add_argument("--format", choices=["text", "csv", "json"],
                       default="text")

    p = sub.add_parser("sd", help="stopping distance of a parity-check matrix")
    add_matrix_opts(p)
    p.add_argument("--cap", type=int, default=None,
                   help="stop after confirming s >= cap")
    add_format(p)
    p.set_defaults(func=_cmd_sd)

    p = sub.add_parser("mindist", help="minimum distance of the code")
    add_matrix_opts(p)
    p.set_defaults(func=_cmd_mindist)

    p = sub.add_parser("bounds", help="stopping-redundancy bounds")
    add_matrix_opts(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mds", action="store_true",
                   help="parameter mode: bounds for an (n,k) MDS code")
    add_format(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", help="build a redundant parity-check matrix")
    p.add_argument("kind", choices=["hstar", "thm4", "directsum", "uu",
                                    "extend", "rm", "mds", "mds-pruned"])
    add_matrix_opts(p)
    p.add_argument("--file2", help="second matrix for directsum")
    p.add_argument("--assets2", choices=sorted(ASSET_TEXT))
    p.add_argument("--tmax", type=int, default=None,
                   help="combination depth (default d-2)")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--generator", action="store_true",
                   help="with rm: emit the plain recursive generator")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("greedy", help="greedy full-stopping-distance matrix")
    add_matrix_opts(p)
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("rho-exact", help="exact stopping redundancy (tiny codes)")
    add_matrix_opts(p)
    p.add_argument("--budget", type=int, default=2_000_000)
    add_format(p)
    p.set_defaults(func=_cmd_rho_exact)

    p = sub.add_parser("psi", help="undecodable-pattern counts by weight")
    p.add_argument("decoder", choices=["ml", "stop"])
    add_matrix_opts(p)
    p.add_argument("--wmax", type=int, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("curve", help="failure probability from a psi CSV")
    p.add_argument("--psi", required=True, help="CSV file with header w,count")
    p.add_argument("--pgrid", required=True,
                   help="comma-separated erasure probabilities")
    add_format(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("assets", help="print an embedded reference matrix")
    p.add_argument("name", choices=sorted(ASSET_TEXT))
    p.set_defaults(func=_cmd_assets)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that `main` reuses, built on its first call: building it
    costs more than parsing, and a process may call `main` many times."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
