"""Every function the benchmark's tracer wraps still exists in eventlift.

``perfbench/spans.py`` lists its targets as (module, attribute) pairs and
patches them by name, so a renamed or deleted function would otherwise show
up only when the benchmark runs.  The file imports only the standard
library; it is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


def test_targets_are_listed():
    assert len(TARGETS) > 0


@pytest.mark.parametrize(
    "module, attribute", [(m, a) for m, a, *_ in TARGETS], ids=[f"{m}.{a}" for m, a, *_ in TARGETS]
)
def test_target_is_a_callable_of_its_module(module, attribute):
    owner = importlib.import_module(f"eventlift.{module}")
    assert callable(getattr(owner, attribute, None)), f"eventlift.{module}.{attribute}"
