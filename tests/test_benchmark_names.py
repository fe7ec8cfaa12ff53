"""The traced benchmark's function metrics name functions of the package.

Each `<layer>.<function>.calls` and `<layer>.<function>.self_s` metric
in the `per_layer` list of BENCHMARK.json is read off the tracer, which
wraps the public functions that `ttlab.<layer>` itself defines.  A name
that is renamed, made private or moved to another module is missing from
the tracer's table, and `perfbench/run.py --trace 1` then stops with a
KeyError.  These tests read the file and check every such name.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def traced_functions():
    """The (layer, function) pairs of BENCHMARK.json's function metrics."""
    per_layer = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    pairs = []
    for metric in per_layer:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("calls", "self_s"):
            pairs.append((parts[0], parts[1]))
    return pairs


def is_traced(layer, name):
    """True when the tracer wraps ttlab.<layer>.<name>: a public function
    that the module defines, not one it imports."""
    module = importlib.import_module(f"ttlab.{layer}")
    value = getattr(module, name, None)
    return (not name.startswith("_") and inspect.isfunction(value)
            and value.__module__ == module.__name__)


def test_every_traced_metric_names_a_public_function_of_its_layer():
    pairs = traced_functions()
    # 16 call counts and 24 self times
    assert len(pairs) == 40
    assert [p for p in pairs if not is_traced(*p)] == []


def test_the_check_sees_a_name_the_tracer_would_miss():
    assert is_traced("linalg", "rank")
    # private, imported from cover, gone, and a class
    assert not is_traced("specfile", "_rational")
    assert not is_traced("classify", "holonomy_double_cover")
    assert not is_traced("cover", "no_such_function")
    assert not is_traced("probe", "ProbeReport")
