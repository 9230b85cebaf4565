"""The package's top-level names are its library modules' ``__all__``, each
declared once."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import eventlift as el

MODULES = [
    "ar", "baselines", "dataio", "errors", "evaluation", "forecaster", "impact",
    "montecarlo", "panel",
]


def modules():
    return [importlib.import_module(f"eventlift.{name}") for name in MODULES]


def test_all_joins_the_module_lists_and_names_each_once():
    joined = [name for module in modules() for name in module.__all__]
    assert el.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_each_top_level_name_is_its_module_object():
    for module in modules():
        for name in module.__all__:
            assert getattr(el, name) is getattr(module, name), (module.__name__, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from eventlift import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(el.__all__)


def test_import_loads_the_library_modules_only():
    """Not ``cli`` nor ``reports``: the package import stays as light as the
    library it exports."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, eventlift\n"
         "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'eventlift')))"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(el.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["eventlift", *(f"eventlift.{name}" for name in MODULES)]
