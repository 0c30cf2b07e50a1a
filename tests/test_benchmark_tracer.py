"""The benchmark's tracer wraps package functions named by string, so a
rename or deletion in the package must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_resolves_in_the_package(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclass looks itself up there
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, path in tracer.TRACED.values():
        target = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for attr in path.split("."):
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(f"{module_name}.{path}")
    assert tracer.TRACED
    assert missing == []
