"""Every name the benchmark's traced run wraps still resolves.

The traced run (``perfbench/run.py --trace 1``) wraps functions on the
bindings listed in ``perfbench/tracing.py``'s ``TARGETS``.  A binding
that no longer resolves makes that run fail, so a rename or a dropped
import is caught here first.  The check only looks bindings up; it
wraps nothing.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
BINDINGS = [b for _, bindings, _ in tracing.TARGETS for b in bindings]


@pytest.mark.parametrize("binding", BINDINGS)
def test_traced_binding_resolves(binding):
    owner, attr = tracing._resolve(binding)
    # The tracer swaps the object stored on the owner itself.
    assert attr in vars(owner), binding
    assert callable(vars(owner)[attr]), binding
