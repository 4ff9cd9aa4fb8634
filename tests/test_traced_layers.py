"""Every layer the benchmark traces names a function that exists.

`benchmarks/tracing.py` wraps functions by (module, class, attribute), so a
renamed or moved function would silently drop out of a traced run. The
module is loaded by path and only its LAYERS table is read; nothing is
installed, so the library stays unpatched for the other tests.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_traced_layers", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


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
