"""stopred benchmark: one process, one client, closed loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports stopred from `src/` there.
Each operation starts after the previous one returns.  A cycle runs every
operation of the workload once, in order.  The first cycle always runs in
full; after it, operations go on in the same order until `--seconds` have
passed since the first one started, so a run measures for about
`--seconds` or one cycle, whichever is longer.  Every answer is checked
after its operation returns, outside the timed interval.

--trace 0 prints the end-to-end metrics:
  setup_s      median time of a fresh import of stopred followed by parsing
               the workload's matrices and building its LinearCodes, set up
               again between operations all through the run;
  wall_ref     one cycle's wall time `wall_s` (the sum over operations of
               each one's median time) divided by `ref_s`, the median time of
               a fixed reference kernel timed between operations in the same
               run.  On a shared 2-vCPU virtual machine the speed drifted by
               up to 1.3x over minutes and moved both alike, so the ratio is
               the steady gate; `wall_s` itself is on the detail line;
  peak_rss_mb  peak resident memory after set-up and the first cycle.
--trace 1 runs one untraced and one traced cycle and prints the per-layer
metrics of the traced one (see tracing.py) plus `trace_overhead_s`, the
traced minus the untraced cycle time.

The line before the last holds `wall_s`, `ref_s`, the per-class times
(`table_s`, `matrix_s`; `decode_p50_us`, `decode_p99_us` with their sample
count) of the classes the workload runs, `failed_frac`, the per-operation
median times and the environment record.  The last line is the JSON result.
Both also go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import codes
import workloads
from tracing import Tracer, layer_totals, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE_EVERY = 0.5  # seconds of operations between reference samples

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}


def _layer_metric_names() -> list:
    names = ["bits.weight_masks.calls", "bits.weight_masks.self_s",
             "bits.weight_masks.masks"]
    for fn in ("rank", "rref", "nullspace", "min_distance", "dual_codewords"):
        names += [f"linalg.{fn}.calls", f"linalg.{fn}.self_s"]
    names.append("linalg.dual_codewords.words")
    names += [f"stopping.stopping_distance.{k}" for k in
              ("calls", "self_s", "scan_calls", "bnb_calls", "subsets")]
    names += ["stopping.verify_full_stopping.calls",
              "stopping.verify_full_stopping.self_s"]
    names += [f"greedy.greedy_construct.{k}" for k in ("calls", "self_s", "rows")]
    names += [f"greedy.exact_stopping_redundancy.{k}" for k in
              ("calls", "self_s", "value", "exact")]
    for fn in ("full_dual_pcm", "combination_pcm", "rm_stopping_pcm",
               "mds_pcm", "pruned_mds_pcm"):
        names += [f"construct.{fn}.self_s", f"construct.{fn}.rows"]
    names += ["bounds.bounds_report.calls", "bounds.bounds_report.self_s"]
    for fn in ("psi_stop", "psi_ml"):
        names += [f"erasure.{fn}.{k}" for k in ("calls", "self_s", "patterns")]
    for fn in ("iterative_decode", "ml_decode"):
        names += [f"erasure.{fn}.calls", f"erasure.{fn}.self_s"]
    names += ["erasure.failure_curve.calls", "erasure.failure_curve.self_s"]
    names += ["cli.main.calls", "cli.main.self_s", "trace_overhead_s"]
    return names


PER_LAYER = _layer_metric_names()


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class Context:
    """What operations and checks share: work files, parsed inputs, the
    freshly imported stopred modules and per-cycle decode outcomes."""

    def __init__(self, work: Path, inputs: dict, patterns: dict):
        self.work = work
        self.inputs = inputs          # name -> (q, transformed array)
        self.patterns = patterns      # name -> list of erasure patterns
        self.row_masks = {}
        self.mods = {}
        self.matrices = {}
        self.codes = {}
        self.peeled = {}

    def path(self, arg: str) -> str:
        if not arg.startswith("@"):
            return arg
        name = arg[1:]
        return str(self.work / (f"{name}.mat" if name in self.inputs else name))

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.mods["cli"].main(argv)
            except SystemExit as exc:  # argparse usage error
                code = exc.code
        return code, out.getvalue(), err.getvalue()


def import_stopred():
    """Import stopred from this checkout's src/ afresh; return its modules."""
    for key in [k for k in sys.modules if k == "stopred" or k.startswith("stopred.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    pkg = importlib.import_module("stopred")
    where = Path(pkg.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"stopred imported from {where}, not {ROOT / 'src'}")
    return {name: importlib.import_module(f"stopred.{name}") for name in
            ("cli", "linalg", "erasure", "stopping", "construct", "greedy",
             "bounds", "_bits")}


def setup(ctx: Context, spec: dict) -> float:
    """One timed set-up: import stopred afresh, parse the workload's
    matrices, build its codes.  The operations that follow use these."""
    gc.collect()
    t0 = time.perf_counter()
    mods = import_stopred()
    matrices = {name: mods["cli"].read_matrix(ctx.path("@" + name))
                for name in spec["inputs"]}
    codes_ = {name: mods["linalg"].LinearCode.from_parity_check(matrices[name])
              for name in spec["codes"]}
    elapsed = time.perf_counter() - t0
    ctx.mods, ctx.matrices, ctx.codes = mods, matrices, codes_
    return elapsed


def reference_seconds() -> float:
    """Time of fixed work that does not touch stopred, in the three kinds
    the program does: numpy bit operations on a 4 MiB array, small numpy
    calls made one at a time, and interpreter loops over ints and sets.
    Its time tracks the speed the machine gives this run."""
    t0 = time.perf_counter()
    x = np.arange(1 << 20, dtype=np.uint32)
    one = np.uint32(1)
    for r in (0x0F0F0F0F, 0x33333333, 0x55555555, 0x00FF00FF):
        y = x & np.uint32(r)
        x = np.where((y != 0) & ((y & (y - one)) == 0), x ^ y, x)
    row = (np.arange(24) % 3 == 0).astype(np.uint8)
    acc = 0
    for _ in range(1500):
        acc += len(np.nonzero(row)[0].tolist())
    seen = set()
    for i in range(40_000):
        seen ^= {i & 63, acc & i}
    return time.perf_counter() - t0


def run_cycle(ctx: Context, ops: list, tracer=None, stop=None,
              between=None) -> dict:
    """Run the operations in order, each checked after it returns.  Before
    each one, end the cycle early if `stop()` says the time is up, and call
    `between()` (untimed) once at least SAMPLE_EVERY seconds of operations
    have run since its last call."""
    ctx.peeled = {}
    first = len(tracer.spans) if tracer else 0
    cyc = {"ops": {}, "lat": [], "attempted": 0, "failed": 0, "errors": []}
    since = None
    for op in ops:
        if stop is not None and stop():
            break
        if between is not None and (since is None or since >= SAMPLE_EVERY):
            between()
            since = 0.0
        gc.collect()  # each operation starts without the last one's garbage
        if tracer:
            tracer.install()
            rec = tracer.root("op:" + op.name)
        t0 = time.perf_counter()
        try:
            out, err = op.run(ctx), None
        except Exception as exc:  # a raising operation is a failed one
            out, err = None, exc
        cyc["ops"][op.name] = time.perf_counter() - t0
        if since is not None:
            since += cyc["ops"][op.name]
        if tracer:
            tracer.close(rec)
            tracer.uninstall()
        cyc["attempted"] += op.calls
        if err is not None:
            cyc["failed"] += op.calls
            cyc["errors"].append(f"{op.name}: {type(err).__name__}: {err}")
            continue
        if op.save:
            (ctx.work / op.save).write_text(out[1], encoding="utf-8")
        if op.cls == "decode":
            cyc["lat"] += out[1]
        try:
            bad = op.check(ctx, out) or 0
        except Exception as exc:  # Wrong, or a malformed answer
            bad = op.calls
            cyc["errors"].append(f"{op.name}: {type(exc).__name__}: {exc}")
        cyc["failed"] += bad
        if bad and op.cls == "decode":
            cyc["errors"].append(f"{op.name}: {bad} wrong answers")
    if tracer:
        cyc["layers"] = layer_totals(tracer.spans, first)
    return cyc


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None  # a checkout exported without .git has no commit to read
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": commit, "seed": seed}


def prepare(spec: dict, seed: int, work: Path, asset_text: dict) -> Context:
    """Seeded inputs: transformed matrices on disk, sampled patterns."""
    base = workloads.load_inputs(asset_text)
    inputs = {}
    for name in spec["inputs"]:
        q, data = base[name]
        inputs[name] = (q, codes.transform(q, data, codes.rng_for(seed, name)))
        (work / f"{name}.mat").write_text(codes.render_text(*inputs[name]),
                                          encoding="utf-8")
    patterns = {name: codes.sample_patterns(codes.rng_for(seed, name, 1),
                                            inputs[name][1].shape[1],
                                            workloads.DECODE_PATTERNS)
                for name in spec["decode"]}
    ctx = Context(work, inputs, patterns)
    ctx.row_masks = {name: codes.row_masks(inputs[name][1])
                     for name in spec["decode"]}
    return ctx


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.WORKLOADS[workload]()
    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = prepare(spec, seed, work, import_stopred()["cli"].ASSET_TEXT)
        gc.collect()
        gc.freeze()  # long-lived inputs stay out of every later collection
        setup_times = [setup(ctx, spec)]
        refs = []

        def between() -> None:
            """Sample the reference kernel and, every second time in an
            untraced run, set up afresh, so that both spread over the run."""
            refs.append(reference_seconds())
            if not trace and len(refs) % 2 == 0:
                setup_times.append(setup(ctx, spec))

        t_start = time.perf_counter()

        def over() -> bool:
            return time.perf_counter() - t_start >= seconds

        ops = spec["ops"]
        plain = [run_cycle(ctx, ops, between=between)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            tracer = Tracer()
            traced = run_cycle(ctx, ops, tracer, between=between)
            write_spans(str(out_dir / f"spans-{workload}-seed{seed}.csv"),
                        tracer.spans)
        else:
            while not over():
                plain.append(run_cycle(ctx, ops, stop=over, between=between))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cycles = plain + ([traced] if trace else [])
    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    op_s = {op.name: median(c["ops"][op.name] for c in plain
                            if op.name in c["ops"]) for op in ops}
    lat = [x for c in plain for x in c["lat"]]
    detail = {"workload": workload, "cycles": len(plain),
              "op_samples": sum(len(c["ops"]) for c in plain)}
    wall_s = sum(op_s.values())
    ref_s = median(refs)
    detail.update(wall_s=wall_s, ref_s=ref_s, ref_samples=len(refs),
                  setup_samples=len(setup_times))
    for cls in sorted({op.cls for op in ops} - {"decode"}):
        detail[f"{cls}_s"] = sum(op_s[op.name] for op in ops if op.cls == cls)
    if lat:
        detail.update(decode_p50_us=percentile(lat, 0.50) * 1e6,
                      decode_p99_us=percentile(lat, 0.99) * 1e6,
                      decode_samples=len(lat))
    detail.update(failed_frac=failed / attempted, op_s=op_s,
                  errors=[e for c in cycles for e in c["errors"]][:20],
                  env=environment(seed))
    if trace:
        values = {name: traced["layers"].get(name, 0) for name in PER_LAYER}
        values["trace_overhead_s"] = (sum(traced["ops"].values())
                                      - sum(plain[0]["ops"].values()))
        metrics = {name: {"value": values[name], "unit": unit_of(name)}
                   for name in PER_LAYER}
    else:
        values = {"setup_s": median(setup_times), "wall_ref": wall_s / ref_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1),
        encoding="utf-8")
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "stopred" / "__init__.py").is_file():
        print(f"error: no stopred sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        detail, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import stopred: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
