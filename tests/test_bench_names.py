"""The traced benchmark's metric names must name functions the program has.

``perfbench/run.py`` looks up every ``per_layer`` metric of ``BENCHMARK.json``
in the tracer's totals and raises ``KeyError`` on a missing one, and the
tracer only wraps the public functions of each layer module (``__all__``,
narrowed by ``ONLY``) and the methods in ``METHODS``.  Deleting or renaming
such a function would break the traced benchmark without failing any other
test, so this one reads the tracer's tables (importing ``tracer.py`` only;
``install()`` is never called) and checks every name against the modules.
"""

import importlib
import importlib.util
import inspect
import json
import pathlib
import pkgutil
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# per_layer names that run.py derives from several functions
DERIVED = {"experiments.write": ("write_json", "write_csv")}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


def traced_names(layer: str) -> set:
    """The function and method names the tracer wraps in one layer."""
    modname = TRACER.LAYERS[layer]
    module = importlib.import_module(modname)
    names = {name for name in TRACER.ONLY.get(layer, module.__all__)
             if inspect.isfunction(getattr(module, name, None))
             and getattr(module, name).__module__ == modname}
    return names | {meth for _cls, meth in TRACER.METHODS.get(layer, ())}


def benchmark_functions() -> list:
    """(layer, function) of every function-level per_layer metric."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    out = set()
    for metric in metrics:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[0] in TRACER.LAYERS:
            layer, fn, _stat = parts
            for name in DERIVED.get(f"{layer}.{fn}", (fn,)):
                out.add((layer, name))
    return sorted(out)


def run_py_lookups() -> list:
    """(layer, function) that run.py indexes directly in the tracer's totals."""
    source = (ROOT / "perfbench" / "run.py").read_text()
    keys = re.findall(r'(?:layers\[|verb_calls\()"([a-z_]+)\.([a-z_]+)"', source)
    return sorted(set(keys))


@pytest.mark.parametrize("layer,fn", benchmark_functions())
def test_benchmark_metric_names_a_traced_function(layer, fn):
    assert fn in traced_names(layer), (
        f"BENCHMARK.json names {layer}.{fn}, which the tracer does not wrap")


@pytest.mark.parametrize("layer,fn", run_py_lookups())
def test_run_py_lookup_names_a_traced_function(layer, fn):
    assert fn in traced_names(layer), (
        f"perfbench/run.py reads {layer}.{fn}, which the tracer does not wrap")


@pytest.mark.parametrize("layer,fn", sorted(TRACER.FILE_BYTES))
def test_file_byte_counter_names_a_function_with_a_path_parameter(layer, fn):
    # the tracer binds the call's arguments and reads the one named ``path``;
    # under another name the bytes_read/bytes_written counters would stay 0
    assert fn in traced_names(layer)
    module = importlib.import_module(TRACER.LAYERS[layer])
    assert "path" in inspect.signature(getattr(module, fn)).parameters, (
        f"{layer}.{fn} has no 'path' parameter for the tracer's file-size counter")


def test_the_guard_sees_the_names_it_must_cover():
    functions = benchmark_functions()
    assert ("stats", "kriging_fit") in functions
    assert ("interp", "freq_interp_xcorr") in functions
    assert ("experiments", "write_json") in functions
    assert ("tracking", "resample_systematic") in run_py_lookups()


def _fingerloc_modules() -> list:
    package = importlib.import_module("fingerloc")
    return sorted(info.name for info in pkgutil.walk_packages(package.__path__, "fingerloc."))


@pytest.mark.parametrize("modname", _fingerloc_modules())
def test_every_public_name_resolves(modname):
    # the tracer getattr()s every __all__ entry of a layer module with no
    # default, so a stale entry would crash the traced benchmark
    module = importlib.import_module(modname)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == [], f"{modname}.__all__ names {missing}, which the module lacks"


def test_the_public_name_check_sees_every_layer_module():
    assert set(TRACER.LAYERS.values()) <= set(_fingerloc_modules())
