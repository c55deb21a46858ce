"""The names the benchmark uses must resolve against the library.

bench/spans.py patches gcquant functions and methods by name; a renamed or
deleted target would break `bench/run.py --trace 1`.  The file is loaded
read-only and its TARGETS table checked here.  Every other gcquant name a
bench/*.py file imports or reads is checked from the files' syntax trees.
"""

import ast
import importlib
import importlib.util
import inspect
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


def bindings(tree) -> dict:
    """Local name -> dotted gcquant name, for every import from gcquant in the
    file and for `cli = import_cli()`, the checkout's gcquant.cli."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gcquant"):
            out.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Import):
            out.update((a.asname or "gcquant", a.name if a.asname else "gcquant")
                       for a in node.names if a.name.startswith("gcquant"))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            if getattr(func, "id", getattr(func, "attr", "")) == "import_cli":
                out.update((t.id, "gcquant.cli") for t in node.targets if isinstance(t, ast.Name))
    return out


def bench_reads() -> dict:
    """Dotted gcquant name -> the bench/*.py files that import it, read it as
    an attribute of a gcquant module or class, or patch it by
    `setattr(owner, "name", ...)`."""
    reads = {}
    for path in sorted(SPANS.parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = bindings(tree)
        names = set(bound.values())
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in bound:
                names.add(".".join([bound[node.id]] + chain))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "setattr" \
                    and len(node.args) > 1 and getattr(node.args[0], "id", None) in bound \
                    and isinstance(node.args[1], ast.Constant):
                names.add(f"{bound[node.args[0].id]}.{node.args[1].value}")
        for name in names:
            reads.setdefault(name, []).append(path.name)
    return reads


def unresolved(dotted: str):
    """The shortest prefix of `dotted` that names nothing, or None.  Attributes
    are followed through gcquant modules and classes only (a function's
    attributes, such as a tracer's __wrapped__, are not library names)."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i in range(1, len(parts)):
        owner = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", "")
        if not (inspect.ismodule(obj) or inspect.isclass(obj)) or \
                not owner.startswith("gcquant"):
            return None
        prefix = ".".join(parts[: i + 1])
        if hasattr(obj, parts[i]):
            obj = getattr(obj, parts[i])
            continue
        try:
            obj = importlib.import_module(prefix)
        except ImportError:
            return prefix
    return None


def test_every_gcquant_name_bench_reads_resolves():
    # so that no name bench/ still uses is deleted from the library by mistake
    reads = bench_reads()
    missing = {unresolved(name) for name in reads} - {None}
    assert not missing, {m: reads.get(m) for m in missing}
    assert {"gcquant.toric.SectionDensity", "gcquant.cli.write_csv", "gcquant.cli.fmt",
            "gcquant.cli.gc_vs_torus_moment_check",
            "gcquant.polytope.DelzantPolytope.lattice_points"} <= set(reads)
