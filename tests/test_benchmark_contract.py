"""The names the benchmark harness under perfbench/ looks up in the package.

A rename of a traced function or a module must fail here rather than break
the benchmark.  The harness files are only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(stem):
    name = f"_perfbench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("metric, module, path", _load("tracer").LAYER_FUNCTIONS)
def test_traced_function_resolves(metric, module, path):
    owner = importlib.import_module(f"ordcurves.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name)), metric
    else:
        assert callable(getattr(owner, path)), metric


@pytest.mark.parametrize("module", _load("workloads").MODULES)
def test_benchmark_module_imports(module):
    importlib.import_module(f"ordcurves.{module}")
