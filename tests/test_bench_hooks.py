"""The names by which the benchmark harness in perfbench/ reaches stopred.

`Tracer.install` in perfbench/tracing.py looks up every TARGETS entry with
getattr, and the workloads call more functions and constants directly.  A
rename in stopred would break the traced benchmark runs while every other
test stays green.  The tracer is compiled from its source text, so nothing
is written under perfbench/.
"""

import importlib
import sys
from pathlib import Path
from types import ModuleType

import pytest

# every module the tracer patches must be loaded before it installs
from stopred import (_bits, bounds, cli, construct, erasure,  # noqa: F401
                     field, greedy, linalg, stopping)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> ModuleType:
    mod = ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         mod.__dict__)
    return mod


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


tracing = _load_tracing()

# what perfbench/run.py, workloads.py and selftest.py call besides TARGETS
DIRECT = [
    ("stopred.stopping", "SCAN_BUDGET"),
    ("stopred.cli", "ASSET_TEXT"),
    ("stopred.cli", "read_matrix"),
    ("stopred.cli", "main"),
    ("stopred.linalg", "Matrix"),
    ("stopred.linalg", "mat_mul"),
    ("stopred.linalg", "LinearCode.from_parity_check"),
    ("stopred.stopping", "stopping_distance"),
    ("stopred.stopping", "verify_full_stopping"),
    ("stopred.erasure", "iterative_decode"),
    ("stopred.erasure", "ml_decode"),
    ("stopred.erasure", "PeelOutcome"),
    ("stopred.greedy", "exact_stopping_redundancy"),
]


@pytest.mark.parametrize("module, attr",
                         [(m, a) for m, a, _, _ in tracing.TARGETS])
def test_every_traced_target_resolves(module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize("module, attr", DIRECT)
def test_names_the_workloads_call_resolve(module, attr):
    value = _resolve(module, attr)
    if attr == "SCAN_BUDGET":
        assert isinstance(value, int) and value > 0
    elif attr == "ASSET_TEXT":
        assert {"h24", "h12", "hexacode"} <= set(value)
    else:
        assert callable(value)


def test_tracer_wraps_every_target_and_restores_it():
    tracer = tracing.Tracer()
    before = {(m, a): _resolve(m, a) for m, a, _, _ in tracing.TARGETS}
    tracer.install()
    try:
        wrapped = {span for _, _, span, _ in tracing.TARGETS}
        assert {w.span_name for _, _, _, w in tracer._swaps} == wrapped
        for (module, attr), orig in before.items():
            if "." not in attr:  # methods are patched on their class
                assert getattr(sys.modules[module], attr) is not orig
    finally:
        tracer.uninstall()
    for (module, attr), orig in before.items():
        assert _resolve(module, attr) is orig
