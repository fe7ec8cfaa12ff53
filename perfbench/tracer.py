"""Outside-in layer trace for ttlab: spans around its public functions.

The tracer replaces every public function of the layer modules with a
timing wrapper, wherever a ttlab module bound that function object to
a name (its own module, ``from .x import f`` in a caller, the package
``__init__``).  Nothing in ttlab changes; ``uninstall`` puts the
originals back.

Each wrapped call is a span.  A span's self time is its duration minus
the time covered by the spans it caused, so the self times of all
layers plus the time outside every span add up to the traced time.
Counters that measure work are read from arguments, return values and
raised exceptions at the same boundaries.
"""

import importlib
import inspect
import sys
import time

PACKAGE = "ttlab"
LAYERS = ("specfile", "topology", "ribbon", "surface", "cover",
          "linalg", "classify", "spin", "saddle", "probe")


# Work counters read at the span boundaries, by name.
COUNTERS = ("specfile.parse_spec.bytes", "specfile.write_spec.bytes",
            "topology.configs", "cover.cover_edges",
            "linalg.rank.cells", "linalg.nullspace.cells",
            "spin.loops", "spin.refused",
            "saddle.placements", "saddle.connections", "saddle.cap_exceeded",
            "saddle.radius_too_small", "probe.samples", "probe.dropped")


def _cells(matrix):
    return len(matrix) * len(matrix[0]) if matrix else 0


def _on_return(counters, name, args, result):
    if name == "specfile.parse_spec":
        counters["specfile.parse_spec.bytes"] += len(args[0].encode())
    elif name == "specfile.write_spec":
        counters["specfile.write_spec.bytes"] += len(result.encode())
    elif name == "topology.enumerate_pants_configs":
        counters["topology.configs"] += len(result)
    elif name == "cover.holonomy_double_cover":
        counters["cover.cover_edges"] += result.n_cover_edges
    elif name in ("linalg.rank", "linalg.nullspace"):
        counters[name + ".cells"] += _cells(args[0])
    elif name == "spin.winding_form":
        counters["spin.loops"] += len(result.cycles)
    elif name == "saddle.saddle_connections_up_to":
        counters["saddle.placements"] += result.placements
        counters["saddle.connections"] += len(result.connections)
        counters["saddle.cap_exceeded"] += int(result.cap_exceeded)
    elif name == "probe.run_probe":
        for stats in result.per_time:
            counters["probe.samples"] += stats.kept + stats.dropped + stats.censored
            counters["probe.dropped"] += stats.dropped


def _on_raise(counters, name, exc):
    kind = type(exc).__name__
    if name == "saddle.saddle_connections_up_to" and kind == "RadiusTooSmall":
        counters["saddle.radius_too_small"] += 1
    elif name == "spin.spin_parity" and kind in ("NoSpinStructure", "NotAbelianSquare"):
        counters["spin.refused"] += 1


class Tracer:
    """Span and counter store for one traced stretch of commands."""

    def __init__(self):
        self.calls = {}                    # "layer.func" -> calls
        self.self_s = {}                   # "layer.func" -> self seconds
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.covered_s = 0.0               # time inside outermost spans
        self._open = []                    # child time of each open span
        self._patched = []

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._open
        calls, self_s, counters = self.calls, self.self_s, self.counters

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                _on_raise(counters, name, exc)
                raise
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    self.covered_s += duration
                calls[name] += 1
                self_s[name] += duration - children
            _on_return(counters, name, args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        return span

    def install(self):
        """Wrap every public layer function under every name bound to it."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(value)] = (value, self._wrap(name, value))
                    # every wrapped function reports, called or not
                    self.calls.setdefault(name, 0)
                    self.self_s.setdefault(name, 0.0)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
