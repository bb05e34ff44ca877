"""The benchmark's tracer wraps lemtag functions by name; these tests keep
those names and the argument it reads in step with the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"


def load_spantrace():
    spec = importlib.util.spec_from_file_location("perfbench_spantrace", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for module, function in load_spantrace().LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"lemtag.{module}"), function, None)), \
            f"lemtag.{module}.{function}"


def test_decode_step_rows_come_from_prev_ids():
    from lemtag.model import decode_step
    assert list(inspect.signature(decode_step).parameters)[1] == "prev_ids"
