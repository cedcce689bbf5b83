"""The benchmark tracer's counters name zodom functions by their dotted
span names; a rename in zodom would silently leave such a counter at 0."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("span", sorted(set(tracer.COUNTED) | set(tracer.TIMED)))
def test_counted_span_resolves_to_a_wrapped_function(span):
    layer, *path = span.split(".")
    assert layer in tracer.LAYERS
    module = obj = importlib.import_module(f"zodom.{layer}")
    for part in path:
        assert part in vars(obj), f"{span}: no {part!r} in {obj!r}"
        obj = vars(obj)[part]
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    assert inspect.isfunction(obj), span
    assert obj.__code__.co_filename == module.__file__, span
    # the tracer wraps public names, and these dunders of classes
    assert not path[-1].startswith("_") or (len(path) == 2 and path[-1] in tracer._DUNDERS)


def test_tracer_installs_on_every_layer_and_uninstalls():
    # a class attribute the tracer cannot wrap, such as a classmethod around
    # a functools.cache wrapper, would stop every traced benchmark run
    modules = [importlib.import_module(f"zodom.{layer}") for layer in tracer.LAYERS]

    def namespaces():
        spaces = [dict(vars(m)) for m in modules]
        classes = [obj for ns in spaces for obj in ns.values() if inspect.isclass(obj)]
        return spaces + [dict(vars(cls)) for cls in classes if cls.__module__.startswith("zodom.")]

    before = namespaces()
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert namespaces() == before
