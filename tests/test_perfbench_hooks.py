"""Every function the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` names the traced functions by layer and the traced
methods of ``NumericalSemigroup``; ``Tracer.install`` looks each one up and
fails on a name the program no longer has.  This reads ``perfbench/`` and
writes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

from monocurves.semigroup import NumericalSemigroup

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = load_tracing()
    missing = [f"{layer}.{name}" for layer, names in tracing.FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"monocurves.{layer}"),
                                       name, None))]
    assert not missing


def test_traced_semigroup_methods_exist():
    # install() takes each method from the class's own namespace
    tracing = load_tracing()
    missing = [m for m in tracing.SEMIGROUP_METHODS
               if not callable(NumericalSemigroup.__dict__.get(m))]
    assert not missing
