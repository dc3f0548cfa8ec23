"""Per-layer timings of stopred on fixed inputs, written to BENCH_<tag>.json.

    python3 benchmarks/layers.py --tag T --src PATH

PATH is the `src` directory of the checkout to time; the same script times
any commit, so two files from one machine compare two commits layer by
layer.  Each layer runs on fixed, seeded inputs; its time is the best of
REPEATS runs (fewer for the layers in SLOW_REPEATS), and its answer is
stored next to the time so that two files can be checked to have computed
the same thing.  Only public calls (plus `Matrix.row_masks` of a new
`Matrix`, which caches its masks, `cli.main`, and the lattice count
`_bits.count_by_popcount`, there since the packed lattice) are timed, so
the script runs on older commits too.  The JSON file goes next to this script.

Raw seconds drift with the speed the machine gives the run, so the
script also times perfbench's stopred-free reference kernel before each
layer and after the last, stores the median as `ref_s`, and gives each
layer's best time over it as `best_ref`; two files compare by that ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import reference_seconds  # noqa: E402  (perfbench's, read only)

REPEATS = 5
# layers too slow for REPEATS runs: name -> runs
SLOW_REPEATS = {"greedy_construct rm25": 1}
CLI_CALLS = 50
DECODE_PATTERNS = 4000
DECODE_ASSETS = ("h24", "hp24", "h12", "hp12")


def best_of(fn, repeats):
    """(best wall time in seconds over `repeats` runs, the last answer)."""
    best, answer = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        answer = fn()
        best = min(best, time.perf_counter() - t0)
    return best, answer


def decode_patterns(n: int, seed: int) -> list:
    """Seeded patterns with a weight drawn uniformly from 0..n."""
    rng = np.random.default_rng(seed)
    return [rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            for _ in range(DECODE_PATTERNS)]


def digest(m) -> str:
    """sha256 of a Matrix's shape and entries."""
    return hashlib.sha256(repr(m.data.shape).encode()
                          + m.data.tobytes()).hexdigest()


def layers() -> dict:
    """name -> (zero-argument call, calls per run, answer -> JSON value)."""
    import stopred
    from stopred import _bits, cli, construct, field
    from stopred.linalg import LinearCode, Matrix

    def code_of(h):
        return LinearCode.from_parity_check(h)

    points = [v for v in product(range(3), repeat=3)
              if any(v) and next(x for x in v if x) == 1]
    hp24 = cli.load_asset("hp24")
    h24 = cli.load_asset("h24")
    rm26 = construct.rm_generator(2, 6)
    # the RM(2,6) stopping rows that perfbench's `sd --cap 8 rm26` times,
    # under a seeded column permutation as there
    rm26_checks = construct.rm_stopping_pcm(2, 6)
    rm26_checks = Matrix(rm26_checks.field, rm26_checks.data[
        :, np.random.default_rng(0).permutation(rm26_checks.n_cols)])
    hstar = construct.full_dual_pcm(code_of(h24))  # all 4095 dual words
    # perfbench's rs13, the [13, 5, 9] Reed-Solomon code: 13^5 codewords
    rs13 = Matrix(field.make_field(13),
                  [[pow(x, i, 13) for x in range(13)] for i in range(8)])
    grs744 = Matrix(field.make_field(7), [[pow(x, i, 7) if i else 1
                                           for x in range(7)]
                                          for i in range(4)])
    thm4 = construct.combination_pcm(h24, 6)  # 2509 rows
    h12 = cli.load_asset("h12")
    rm37 = construct.rm_generator(3, 7)  # 64 x 128: two words per node
    # distances are cached on a code: find them before the timed builds
    rs13_code = code_of(rs13)
    h24_code = code_of(h24)
    h12_code = code_of(h12)
    rep70 = LinearCode.from_generator(  # [70, 1, 70]: 2415 rows of weight 2
        Matrix(field.make_field(2), np.ones((1, 70), dtype=np.uint8)))
    for c in (rs13_code, rep70):
        c.min_distance()
    # the 1716 x 13 GF(13) rows that perfbench's `verify mds.mat` ranks
    mds_rs13 = construct.mds_pcm(rs13_code)
    hstar_text = cli.render_matrix_text(hstar)
    rm25_code = code_of(construct.rm_generator(2, 5))  # [32, 16, 8]
    rm25_code.min_distance()
    rm25_checks = construct.rm_stopping_pcm(2, 5)
    # a seeded n = 24 subset lattice, one bit per subset, about half set
    lattice24 = np.random.default_rng(0).integers(
        0, 2 ** 64, size=1 << 18, dtype=np.uint64)

    def cli_calls(argv):
        """CLI_CALLS in-process `cli.main` calls, stdout captured."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [cli.main(list(argv)) for _ in range(CLI_CALLS)]
        return codes, out.getvalue()
    out = {
        # a new Matrix each run, so that the masks are packed, not copied
        "row_masks hp24": (
            lambda: Matrix(hp24.field, hp24.data).row_masks(), 1,
            lambda m: sum(m) % 1_000_003),
    }
    for i, name in enumerate(DECODE_ASSETS):
        h = cli.load_asset(name)
        pats = decode_patterns(h.n_cols, seed=i)
        out[f"iterative_decode {name}"] = (
            lambda h=h, pats=pats: [stopred.iterative_decode(h, p).success
                                    for p in pats],
            len(pats), sum)
        out[f"ml_decode {name}"] = (
            lambda h=h, pats=pats: [stopred.ml_decode(h, p) for p in pats],
            len(pats), sum)
    out.update({
        "psi_stop rm25 w_max=7": (
            lambda: stopred.psi_stop(construct.rm_generator(2, 5), w_max=7),
            1, lambda p: p.counts),
        # stopping rows with s(H) above the cut: the per-weight table peels
        # no pattern below s(H), where the generator above has s = 4 and
        # peels weights 4..7; the RM(2,5) stopping rows have s = 8 at
        # n = 32, and those of RM(2,6) s = 8 at n = 64
        "psi_stop rm25-checks w_max=7": (
            lambda: stopred.psi_stop(construct.rm_stopping_pcm(2, 5),
                                     w_max=7),
            1, lambda p: p.counts),
        "psi_stop rm26-checks w_max=5": (
            lambda: stopred.psi_stop(rm26_checks, w_max=5), 1,
            lambda p: p.counts),
        "psi_ml rm15-checks": (
            lambda: stopred.psi_ml(code_of(construct.rm_generator(1, 5))),
            1, lambda p: p.counts),
        # RM(2,6) = [64, 22]: 42 check rows, more than 32 bits
        "psi_ml rm26 w_max=3": (
            lambda: stopred.psi_ml(LinearCode.from_generator(rm26), w_max=3),
            1, lambda p: p.counts),
        # complete tables on the subset lattice; rs13 marks q > 2 supports
        "psi_stop h24": (lambda: stopred.psi_stop(h24), 1,
                         lambda p: p.counts),
        "psi_stop hp24": (lambda: stopred.psi_stop(hp24), 1,
                          lambda p: p.counts),
        "psi_ml h24": (lambda: stopred.psi_ml(h24_code), 1,
                       lambda p: p.counts),
        "psi_ml rs13": (lambda: stopred.psi_ml(rs13_code), 1,
                        lambda p: p.counts),
        # the complete ternary Golay table, 364 projective classes of 729
        # codewords on a 2^12 lattice
        "psi_ml h12": (lambda: stopred.psi_ml(h12_code), 1,
                       lambda p: p.counts),
        "count_by_popcount n=24": (
            lambda: _bits.count_by_popcount(lattice24, 24), 1, list),
        # a w_max cut keeps the ternary Golay table off the lattice: the
        # q > 2 ML test one pattern at a time, 2510 patterns
        "psi_ml h12 w_max=6": (lambda: stopred.psi_ml(h12_code, w_max=6), 1,
                               lambda p: p.counts),
        "rank hstar-h24": (lambda: stopred.rank(hstar), 1, int),
        "rank mds-rs13": (lambda: stopred.rank(mds_rs13), 1, int),
        # a new code each run: the distance is cached on the code
        "min_distance rs13": (lambda: code_of(rs13).min_distance(), 1, int),
        # H*: every projective dual class, 4095 binary rows and 364
        # ternary ones
        "full_dual_pcm h24": (lambda: construct.full_dual_pcm(h24_code), 1,
                              digest),
        "full_dual_pcm h12": (lambda: construct.full_dual_pcm(h12_code), 1,
                              digest),
        "dual_codewords h24": (
            lambda: stopred.dual_codewords(code_of(h24)), 1,
            lambda w: hashlib.sha256(w.tobytes()).hexdigest()),
        "stopping_distance h24": (
            lambda: stopred.stopping_distance(h24), 1, lambda r: r.s),
        "stopping_distance hstar-h24 cap=8": (
            lambda: stopred.stopping_distance(hstar, cap=8), 1,
            lambda r: [r.s, r.at_least]),
        "stopping_distance thm4-h24 cap=8": (
            lambda: stopred.stopping_distance(thm4, cap=8), 1,
            lambda r: [r.s, r.at_least]),
        "stopping_distance rm26 cap=8": (
            lambda: stopred.stopping_distance(rm26, cap=8), 1, lambda r: r.s),
        "stopping_distance rm26-checks cap=8": (
            lambda: stopred.stopping_distance(rm26_checks, cap=8), 1,
            lambda r: [r.s, r.at_least]),
        "stopping_distance rm37-gen cap=8": (
            lambda: stopred.stopping_distance(rm37, cap=8), 1,
            lambda r: [r.s, r.at_least]),
        # the RM(2,5) stopping rows, s = 8 at n = 32: uncapped, 2^32
        # subsets go to the branch-and-bound; cap 8 is the scan that
        # `psi stop --wmax 7` runs on them
        "stopping_distance rm25-checks": (
            lambda: stopred.stopping_distance(rm25_checks), 1,
            lambda r: [r.s, list(r.witness)]),
        "stopping_distance rm25-checks cap=8": (
            lambda: stopred.stopping_distance(rm25_checks, cap=8), 1,
            lambda r: [r.s, r.at_least]),
        "greedy_construct golay24": (
            lambda: stopred.greedy_construct(code_of(h24)), 1, digest),
        # the ternary Golay code: 364 projective classes of 728 dual words
        "greedy_construct h12": (
            lambda: stopred.greedy_construct(code_of(cli.load_asset("h12"))),
            1, digest),
        # the [13, 10, 3] ternary Hamming code: 13 classes and 91 i-sets,
        # a watch on greedy's fixed costs for tiny families
        "greedy_construct th13": (
            lambda: stopred.greedy_construct(code_of(Matrix(
                field.make_field(3), np.array(points, dtype=np.uint8).T))),
            1, digest),
        # RM(2,5): 65 535 dual classes against 4.5 M i-sets, 26 rows
        "greedy_construct rm25": (
            lambda: stopred.greedy_construct(rm25_code), 1, digest),
        # building the argument parser is most of this command
        "cli.main bounds mds 6 3": (
            lambda: cli_calls(["bounds", "--mds", "--n", "6", "--k", "3"]),
            CLI_CALLS,
            lambda r: [sorted(set(r[0])),
                       hashlib.sha256(r[1].encode()).hexdigest()]),
        "exact_stopping_redundancy eh16": (
            lambda: stopred.exact_stopping_redundancy(
                code_of(construct.rm_generator(1, 4))),
            1, lambda r: [r.value, r.exact]),
        "exact_stopping_redundancy th13": (
            lambda: stopred.exact_stopping_redundancy(code_of(Matrix(
                field.make_field(3), np.array(points, dtype=np.uint8).T))),
            1, lambda r: [r.value, r.exact]),
        # GRS [7, 4, 4] over GF(7): 57 classes, 100 nodes, the rank of
        # the chosen classes over q > 2
        "exact_stopping_redundancy grs744": (
            lambda: stopred.exact_stopping_redundancy(
                LinearCode.from_generator(grs744)),
            1, lambda r: [r.value, r.exact]),
        # 472 rows over GF(3): sizes 1..4 of the 6 checks, 2^size
        # coefficient tuples each
        "combination_pcm h12 t=4": (
            lambda: construct.combination_pcm(h12, 4), 1, digest),
        "mds_pcm rs13": (lambda: construct.mds_pcm(rs13_code), 1, digest),
        "pruned_mds_pcm rs13": (
            lambda: construct.pruned_mds_pcm(rs13_code), 1, digest),
        "mds_pcm rep70": (lambda: construct.mds_pcm(rep70), 1, digest),
        "from_parity_check rm26-checks": (
            lambda: code_of(rm26_checks), 1,
            lambda c: [digest(c.generator), digest(c.parity_check)]),
        "nullspace rm26": (lambda: stopred.nullspace(rm26), 1,
                           lambda m: m.n_rows),
        "nullspace hp24": (lambda: stopred.nullspace(hp24), 1,
                           lambda m: m.n_rows),
        # the matrix files that perfbench's redundancy-search writes and
        # reads back every cycle
        "parse_matrix_text hstar-h24": (
            lambda: cli.parse_matrix_text(hstar_text), 1, digest),
        "render_matrix_text mds-rs13": (
            lambda: cli.render_matrix_text(mds_rs13), 1,
            lambda t: hashlib.sha256(t.encode()).hexdigest()),
    })
    return out


def git_state(path: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(path), *args],
                              capture_output=True, text=True, check=True
                              ).stdout.strip()
    try:
        return {"git_commit": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain", "--", "."))}
    except (OSError, subprocess.CalledProcessError):
        return {"git_commit": None, "git_dirty": None}


def cpu_name() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--src", required=True,
                        help="the src directory of the checkout to time")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import stopred
    if Path(stopred.__file__).resolve().parent.parent != src:
        raise SystemExit(f"stopred imported from {stopred.__file__}, "
                         f"not from {src}")
    results, refs = {}, []
    for name, (fn, calls, answer_of) in layers().items():
        refs.append(reference_seconds())
        repeats = SLOW_REPEATS.get(name, REPEATS)
        best, answer = best_of(fn, repeats)
        results[name] = {"best_s": best, "calls": calls, "repeats": repeats,
                         "per_call_us": best / calls * 1e6,
                         "answer": answer_of(answer)}
        print(f"{name:36s} {best:9.4f} s  {best / calls * 1e6:12.1f} us/call",
              flush=True)
    refs.append(reference_seconds())
    ref = statistics.median(refs)
    for entry in results.values():
        entry["best_ref"] = entry["best_s"] / ref
    print(f"ref_s {ref:.4f} (median of {len(refs)})")
    record = {"tag": args.tag, **git_state(src),
              "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_name(),
              "python": platform.python_version(),
              "numpy": np.__version__, "repeats": REPEATS,
              "ref_s": ref, "ref_samples": refs, "layers": results}
    out = Path(__file__).resolve().parent / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
