"""Every layer the benchmark traces names a function that exists, and
every work counter accepts that function's arguments.

`benchmarks/tracing.py` wraps functions by (module, class, attribute), so a
renamed or moved function would silently drop out of a traced run. The
module is loaded by path and only its LAYERS and WORK tables are read;
nothing is installed, so the library stays unpatched for the other tests.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_traced_layers", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _layers():
    return _tracing().LAYERS


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    assert len({prefix for prefix, *_ in layers}) == len(layers)
    for prefix, module, owner, attr in layers:
        mod = importlib.import_module(f"quadlie.{module}")
        if owner is None:
            assert callable(getattr(mod, attr, None)), prefix
        else:
            # methods are wrapped where their class defines them
            assert attr in vars(getattr(mod, owner)), prefix


def test_work_counters_bind_to_their_layers():
    # the tracer calls work(*args, result, **kwargs) after each call, so a
    # counter must take exactly its layer's parameters plus the result
    mod = _tracing()
    where = {prefix: rest for prefix, *rest in mod.LAYERS}
    assert mod.WORK
    for prefix, (work, _) in mod.WORK.items():
        module, owner, attr = where[prefix]
        m = importlib.import_module(f"quadlie.{module}")
        fn = getattr(m, attr) if owner is None else \
            vars(getattr(m, owner))[attr]
        params = inspect.signature(fn).parameters.values()
        assert all(p.kind == p.POSITIONAL_OR_KEYWORD for p in params), prefix
        counter = inspect.signature(work)
        names = [p.name for p in params]
        counter.bind(*names, "result")
        required = [p.name for p in params if p.default is p.empty]
        counter.bind(*required, "result")
