"""The package surface the benchmark in ``perfbench/`` calls and traces.

The benchmark imports ``ttmera`` from outside ``src/`` and reaches it by
name, so a rename or deletion here breaks only the benchmark, and only a
traced run of it, unless this test notices first.
"""

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

import ttmera
from ttmera import experiments
from ttmera.dense import DenseTensor

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    for name in ttmera.__all__:
        assert hasattr(ttmera, name), name


# The modules whose exports the package re-exports.
_CORE = ("dense", "errors", "kernels", "train", "tucker", "mera")


def _core_modules():
    return [importlib.import_module(f"ttmera.{name}") for name in _CORE]


def test_core_exports_are_the_defining_objects():
    for module in _core_modules():
        for name in module.__all__:
            assert getattr(ttmera, name) is getattr(module, name), (
                f"ttmera.{name} is not {module.__name__}.{name}"
            )


def test_no_name_exported_by_two_modules():
    # The package star-imports the core modules, so a second export of a
    # name would silently shadow the first.
    seen = {}
    for module in _core_modules():
        for name in module.__all__:
            assert name not in seen, f"{name} in {seen.get(name)} and {module.__name__}"
            seen[name] = module.__name__


def test_package_exports_exactly_the_core_names():
    core = [name for module in _core_modules() for name in module.__all__]
    assert len(ttmera.__all__) == len(set(ttmera.__all__))
    assert set(ttmera.__all__) == {*core, "__version__"}
    assert len(ttmera.__all__) == 44


def test_traced_functions_exist():
    for mod_name, fn_name in _tracing().TRACED:
        module = importlib.import_module(f"ttmera.{mod_name}")
        # The tracer only wraps plain functions bound under this name.
        assert isinstance(getattr(module, fn_name, None), types.FunctionType), (
            f"ttmera.{mod_name}.{fn_name}"
        )
    assert isinstance(DenseTensor.mode_product, types.FunctionType)


# Keywords the benchmark's workloads pass.
_WORKLOAD_KEYWORDS = {
    experiments.run_planted: ("I", "rprime", "seed", "trace_stride"),
    experiments.run_mera12: ("seed", "max_iters", "strategies"),
    ttmera.tt_to_mera: ("layers", "strategy", "max_output_dim"),
    ttmera.mera_to_tt: ("round_eps",),
}


@pytest.mark.parametrize("fn", list(_WORKLOAD_KEYWORDS), ids=lambda fn: fn.__name__)
def test_workload_keywords_are_parameters(fn):
    params = inspect.signature(fn).parameters
    for kw in _WORKLOAD_KEYWORDS[fn]:
        assert kw in params, f"{fn.__name__}({kw}=)"
