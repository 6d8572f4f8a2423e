"""The benchmark's view of the package: traced names and workload checks.

`wpbench/tracer.py` is loaded read-only from the source tree and each of
its TARGETS is resolved the way `Tracer.install` resolves it, so a refactor
that renames or drops a traced name fails here instead of silently
dropping a per-layer metric.  `wpbench/workloads.py` is loaded the same way
and one op of each workload must pass its own output check, so a refactor
that breaks a field the benchmark reads fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

WPBENCH = Path(__file__).resolve().parent.parent / "wpbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"wpbench_{name}",
                                                  WPBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = _load("tracer").TARGETS
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


def test_one_op_of_each_workload_passes_its_check(tmp_path):
    workloads = _load("workloads")
    assert workloads.early_exit_problems() == []
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(1)
        outdir = tmp_path / name
        problems, _ = workload.check(0, workload.op(0, outdir), outdir)
        assert problems == [], name
