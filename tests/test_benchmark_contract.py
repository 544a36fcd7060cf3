"""The benchmark harness in perfbench/ reaches into the package by name:
its tracer wraps module attributes and its workloads call package names.
Every one of those names must keep resolving, or traced runs fail every op."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import gree

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    assert tracing.WRAPPED
    for module, func in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module("gree." + module), func)), (module, func)
    # the package attribute `gree.gree` is the function, not the module
    assert callable(sys.modules["gree.gree"].minimize)


def test_every_workload_name_resolves():
    text = (ROOT / "perfbench" / "workload.py").read_text()
    names = sorted(set(re.findall(r"\blib\.(\w+)", text)))
    assert names
    assert [name for name in names if not hasattr(gree, name)] == []
