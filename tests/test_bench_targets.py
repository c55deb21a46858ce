"""The benchmark's trace targets must resolve against the library.

bench/spans.py patches gcquant functions and methods by name; a renamed or
deleted target would break `bench/run.py --trace 1`.  The file is loaded
read-only and its TARGETS table checked here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("gcquant_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    missing = []
    for module, attr, _ in load_targets():
        mod = importlib.import_module(f"gcquant.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            ok = meth in vars(getattr(mod, cls_name, object))
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            missing.append(f"{module}.{attr}")
    assert not missing, missing
