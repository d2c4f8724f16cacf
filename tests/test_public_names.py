"""Every exported name and every function the benchmark tracer wraps exists.

The tracer (perfbench/tracer.py) patches whiterec functions by name; a
refactor that renames or deletes one would otherwise break only traced
benchmark runs. The tracer module imports only the standard library when
loaded as a module, so it is read here by file path.
"""

import importlib
import importlib.util
from pathlib import Path

import whiterec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(m, name) for m, names in module.TARGETS.items() for name in names]


def test_exported_names_resolve():
    assert [name for name in whiterec.__all__ if not hasattr(whiterec, name)] == []


def test_traced_functions_exist():
    missing = [f"{module_name}.{name}" for module_name, name in _tracer_targets()
               if not callable(getattr(importlib.import_module(f"whiterec.{module_name}"),
                                       name, None))]
    assert missing == []


def test_list_shaped_oracles_not_exported():
    # No command runs them; they stay in their modules for tests and the tracer.
    oracles = {"RankedList", "batch_recommend", "score_user", "top_n",
               "recall_at_r", "ndcg_at_r"}
    assert oracles.isdisjoint(whiterec.__all__)
