"""The benchmark's tracing table names functions that exist.

perfbench/tracing.py wraps segphrase functions by (module, name); a
renamed function would otherwise surface only as a `perfbench: not
found` line in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
_TABLE = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_TABLE)


@pytest.mark.parametrize("module, function", [
    (module, function) for module, function, _ in _TABLE.SPANNED + _TABLE.COUNTED
])
def test_traced_function_exists(module, function):
    home = importlib.import_module(f"segphrase.{module}")
    assert callable(getattr(home, function, None)), f"segphrase.{module}.{function}"
