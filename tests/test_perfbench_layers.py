"""The benchmark's per-layer tracer wraps library functions by name; a
rename in the library must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_wrapped_attribute_resolves():
    wrapped = 0
    for modname, funcs in load_layers().values():
        mod = importlib.import_module(modname)
        for attr, _, _ in funcs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                assert isinstance(cls.__dict__.get(meth), classmethod), attr
            else:
                assert callable(getattr(mod, attr, None)), f"{modname}.{attr}"
            wrapped += 1
    assert wrapped > 0
