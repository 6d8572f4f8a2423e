"""The benchmark's tracer patches names in the package: they must all exist.

`wpbench/tracer.py` is loaded read-only from the source tree and each of
its TARGETS is resolved the way `Tracer.install` resolves it, so a refactor
that renames or drops a traced name fails here instead of silently
dropping a per-layer metric.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "wpbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("wpbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    missing = []
    for module_name, path, *_ in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module_name}.{path}")
                break
        else:
            assert callable(owner), f"{module_name}.{path} is not callable"
    assert missing == []
