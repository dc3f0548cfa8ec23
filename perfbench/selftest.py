"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
  * the seeded transform keeps every exact answer on a small code over each
    of GF(2), GF(3) and GF(4): psi tables, s(H), d, rho and the bounds;
  * a corrupted answer, a raising operation and a wrong decode all count as
    failed operations;
  * the tracer wraps every binding of a traced function and restores them,
    and the self times of one operation's spans sum to its root span;
  * BENCHMARK.json lists exactly the workloads and metrics the runner emits.
Exits 0 when everything holds, 1 with the failures listed otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run
from run import ROOT

sys.path.insert(0, str(ROOT / "src"))

import codes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def check(cond: bool, what: str) -> None:
    if not cond:
        FAILURES.append(what)


def answers(mods, q: int, data, work: Path) -> dict:
    """Every exact answer the benchmark relies on, for one matrix."""
    cli, linalg, erasure = mods["cli"], mods["linalg"], mods["erasure"]
    path = work / "m.mat"
    path.write_text(codes.render_text(q, data), encoding="utf-8")
    h = cli.read_matrix(str(path))
    code = linalg.LinearCode.from_parity_check(h)
    rho = mods["greedy"].exact_stopping_redundancy(code)
    ctx = run.Context(work, {}, {})
    ctx.mods = mods
    return {
        "psi_stop": erasure.psi_stop(h).counts,
        "psi_ml": erasure.psi_ml(code).counts,
        "s": mods["stopping"].stopping_distance(h).s,
        "d": code.min_distance(),
        "rho": (rho.value, rho.exact),
        "bounds": ctx.cli(["bounds", "--file", str(path)]),
    }


def test_transform(mods, work: Path) -> None:
    small = {
        2: codes.extended_hamming_16()[[0, 1, 2, 3]][:, :8],  # [8,4,4]
        3: codes.ternary_hamming_13(),
        4: codes.parse_text(mods["cli"].ASSET_TEXT["hexacode"])[1],
    }
    for q, data in small.items():
        base = answers(mods, q, data, work)
        for seed in (0, 1, 2):
            moved = codes.transform(q, data, codes.rng_for(seed, f"gf{q}"))
            check(moved.shape == data.shape and not (moved == data).all(),
                  f"GF({q}) seed {seed}: transform left the matrix unchanged")
            got = answers(mods, q, moved, work)
            for key, value in base.items():
                check(got[key] == value,
                      f"GF({q}) seed {seed}: {key} changed {value} -> {got[key]}")


class CorruptCli:
    """Stands in for stopred.cli: runs the real command, then changes the
    last digit of its output."""

    def __init__(self, real):
        self.real = real

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.real.main(argv)
        text = buf.getvalue().rstrip("\n")
        sys.stdout.write(text[:-1] + str((int(text[-1]) + 1) % 10) + "\n")
        return code


def test_failures_count(mods, work: Path) -> None:
    workloads.DECODE_PATTERNS = 300
    spec = {"inputs": ["hexacode", "h12"], "codes": ["hexacode"],
            "decode": ["h12"],
            "ops": [workloads.cli_op(
                "psi ml hexacode", "table",
                ["psi", "ml", "--file", "@hexacode", "--format", "csv"],
                workloads.check_psi(dict(enumerate(
                    workloads.GOLD_PSI["ml", "hexacode"]))))]}
    spec["ops"] += [workloads.decode_op("h12", "iterative_decode"),
                    workloads.decode_op("h12", "ml_decode")]
    ctx = run.prepare(spec, 7, work, mods["cli"].ASSET_TEXT)
    run.setup(ctx, spec)
    clean = run.run_cycle(ctx, spec["ops"])
    check(clean["failed"] == 0 and clean["attempted"] == 601,
          f"clean cycle: {clean['failed']} failed of {clean['attempted']}")

    real_cli = ctx.mods["cli"]
    ctx.mods["cli"] = CorruptCli(real_cli)
    bad = run.run_cycle(ctx, spec["ops"][:1])
    check(bad["failed"] == 1, "a corrupted table was not counted as failed")
    ctx.mods["cli"] = real_cli

    raising = workloads.Op("raises", "matrix",
                           lambda c: 1 // 0, workloads.check_true)
    out = run.run_cycle(ctx, [raising])
    check(out["failed"] == 1, "a raising operation was not counted as failed")

    erasure = ctx.mods["erasure"]
    real_peel = erasure.iterative_decode
    erasure.iterative_decode = lambda h, e: erasure.PeelOutcome(
        frozenset(e), frozenset())  # claims every pattern peels
    out = run.run_cycle(ctx, spec["ops"][1:])
    erasure.iterative_decode = real_peel
    check(out["failed"] > 0, "a wrong peeling decoder was not caught")


def test_tracer(mods, work: Path) -> None:
    tracer = tracing.Tracer()
    stopred_mods = [m for k, m in sys.modules.items()
                    if k == "stopred" or k.startswith("stopred.")]
    originals = {}
    for mod_name, attr, span, _ in tracing.TARGETS:
        owner = sys.modules[mod_name]
        if "." not in attr:
            originals[span] = getattr(owner, attr)
    before = [(m, k, v) for m in stopred_mods for k, v in vars(m).items()
              if any(v is fn for fn in originals.values())]
    tracer.install()
    for span, fn in originals.items():
        left = [f"{m.__name__}.{k}" for m in stopred_mods
                for k, v in vars(m).items() if v is fn]
        check(not left, f"{span}: unwrapped bindings {left}")
    check(len(tracer.bound_names().get("linalg.rank", [])) >= 6,
          "rank is bound in fewer modules than expected")
    tracer.uninstall()
    for m, k, v in before:
        check(getattr(m, k) is v, f"{m.__name__}.{k} not restored")

    spec = workloads.redundancy_search()
    ops = [op for op in spec["ops"] if op.name in
           ("greedy h12", "verify greedy-h12.mat", "construct mds rs13",
            "rho-exact hexacode", "bounds h12")]
    spec = dict(spec, inputs=["h12", "rs13", "hexacode"], codes=["h12", "rs13"])
    ctx = run.prepare(spec, 3, work, mods["cli"].ASSET_TEXT)
    run.setup(ctx, spec)
    cyc = run.run_cycle(ctx, ops, tracer)
    check(cyc["failed"] == 0, f"traced cycle failed: {cyc['errors']}")
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    roots = [i for i, rec in enumerate(spans) if rec[tracing.PARENT] == -1]
    check(len(roots) == len(ops), f"{len(roots)} root spans for {len(ops)} ops")
    for i in roots:
        members = {i}
        for j in range(i + 1, len(spans)):
            p = spans[j][tracing.PARENT]
            if p in members:
                members.add(j)
        total = sum(selfs[j] for j in members)
        dur = spans[i][tracing.END] - spans[i][tracing.START]
        check(abs(total - dur) <= 1e-9 * len(members) + 1e-12,
              f"{spans[i][tracing.NAME]}: self times sum {total} != span {dur}")
    layers = cyc["layers"]
    check(layers.get("construct.mds_pcm.rows") == 1716, "mds rows counter")
    check(layers.get("linalg.nullspace.calls", 0) >= 1716, "nullspace calls")
    check(layers.get("greedy.exact_stopping_redundancy.value") == 6, "rho value")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from the runner's")
    check({m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END),
          "BENCHMARK.json end_to_end metrics differ from the runner's")
    check([m["name"] for m in spec["per_layer"]] == run.PER_LAYER,
          "BENCHMARK.json per_layer metrics differ from the runner's")
    for m in spec["end_to_end"] + spec["per_layer"]:
        want = run.END_TO_END.get(m["name"]) or run.unit_of(m["name"])
        check(m["unit"] == want, f"{m['name']}: unit {m['unit']} != {want}")


def main() -> int:
    mods = run.import_stopred()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        test_transform(mods, work)
        test_failures_count(run.import_stopred(), work)
        test_tracer(run.import_stopred(), work)
    test_benchmark_json()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print("selftest:", "ok" if not FAILURES else f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
