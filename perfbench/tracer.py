"""Outside-in layer tracer for ``fingerloc``.

The program has no spans of its own, so this module wraps the public
functions of each layer module from outside: every name in a layer
module's ``__all__`` that the module defines, plus the methods listed in
``METHODS``.  Every attribute of every loaded ``fingerloc.*`` module that is
bound to a wrapped function is rebound to its wrapper, so calls made through
``from ..stats import fit_gaussian`` are seen too.  Calls that reach a
function through another reference (a registry dict, a default argument)
are not seen.

Spans and their parent links stay in memory until :meth:`Tracer.write`.
A span's self time is its duration minus that of its direct child spans,
whatever their layer.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time

# layer name -> module; the layer names are the module names
LAYERS = {
    "simulate": "fingerloc.simulate",
    "features": "fingerloc.features",
    "stats": "fingerloc.stats",
    "interp": "fingerloc.interp",
    "database": "fingerloc.database",
    "matching": "fingerloc.matching",
    "tracking": "fingerloc.tracking",
    "lighting": "fingerloc.lighting",
    "simplex": "fingerloc.simplex",
    "experiments": "fingerloc.experiments.common",
}
# experiments.common also exports formatting helpers; only its writers do I/O
ONLY = {"experiments": ("write_json", "write_csv")}
METHODS = {"lighting": (("LightingScenario", "gain_matrix"),)}
# functions whose ``path`` argument names a file whose size is counted
FILE_BYTES = {("database", "save_database"): "bytes_written",
              ("database", "load_database"): "bytes_read"}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        # (id, parent id, layer, function, verb, start, end, self seconds, raised)
        self.spans = []
        self.file_bytes = {}
        self.functions = []  # (layer, function) of every wrapped function
        self.verb = None
        self._stack = []  # [span id, seconds covered by child spans]

    def install(self) -> None:
        """Wrap every layer function and rebind all references to it."""
        wrappers = {}
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for name in ONLY.get(layer, module.__all__):
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(layer, meth, cls.__dict__[meth]))
        for modname, module in list(sys.modules.items()):
            if modname != "fingerloc" and not modname.startswith("fingerloc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, layer: str, name: str, fn):
        self.functions.append((layer, name))
        spans, stack = self.spans, self._stack
        bytes_key = FILE_BYTES.get((layer, name))
        signature = inspect.signature(fn) if bytes_key else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            raised = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, layer, name, self.verb,
                              start, end, end - start - frame[1], raised))
                if bytes_key and not raised:
                    path = signature.bind(*args, **kwargs).arguments.get("path")
                    if path is not None:
                        key = f"{layer}.{bytes_key}"
                        self.file_bytes[key] = (self.file_bytes.get(key, 0)
                                                + os.path.getsize(path))

        return traced

    def totals(self) -> dict:
        """Per layer and per function: calls, self seconds and errors.

        Keys are ``<layer>`` and ``<layer>.<function>``; every wrapped
        function and every layer is present, with zeros when never called.
        Calls are also split by verb under ``"by_verb"``.
        """
        out = {}
        for layer, name in self.functions:
            for key in (layer, f"{layer}.{name}"):
                out.setdefault(key, {"calls": 0, "self_s": 0.0, "errors": 0,
                                     "by_verb": {}})
        for _, _, layer, name, verb, _, _, self_s, raised in self.spans:
            for key in (layer, f"{layer}.{name}"):
                agg = out[key]
                agg["calls"] += 1
                agg["self_s"] += self_s
                agg["errors"] += raised
                agg["by_verb"][verb] = agg["by_verb"].get(verb, 0) + 1
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, in the order they ended."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ("id", "parent", "layer", "fn", "verb", "start", "end",
                  "self_s", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
