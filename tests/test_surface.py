"""Every public definition in src/ has a caller.

A public function, class or method of `gcquant` must be referenced somewhere
else in src/ or in a bench/*.py file (bench/spans.py names its trace targets
as strings, which count), unless it is on KEEP: a claim of the paper that only
the acceptance suite checks, cited with the criteria whose `test_cNN` bodies
read it (a name the body binds itself, such as a local function, does not
count).  A name used by unit tests alone is a second spelling of something
src/ already does, and is deleted with its tests.
References are matched by name, as calls, attribute reads, imports or
"module.attr" strings; `__all__` does not count.

The match is by bare name, with no class or module attached, so a definition
counts as called whenever anything reads the same name.  A method that
shares its name with another one in use is never flagged: the unused
`SymplecticPotential.value` passed because `ConvexDeformation.value` is read
as `deformer.value`.  So every public name that src/ defines more than once
is on SHARED, each of its definitions with the src/ function or method whose
body reads it, checked the way the criteria's bodies are for KEEP.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "gcquant").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# name -> the acceptance criteria that check it
KEEP = {
    "loop_phase": "c06, c09",
    "torus_loop": "c06",
    "tangent_frame": "c05",
    "transport_frame": "c05",
    "omega_matrix": "c05",
    "section_equality_on_v0": "c08",
    "analytic_decay_rate": "c07",
    "moment_to_log_complex": "c04",
    "complex_to_moment_log": "c04",
    # the GCPattern checks of flag.gc_map's one-flag patterns, which go with
    # gc_map once bench/ stops naming it
    "interlacing_ok": "c02",
    "flatten": "c02",
}

# qualified definition -> the src/ definition whose body reads it, for every
# public name defined more than once in src/
SHARED = {
    "toric.ConvexDeformation.grad": "toric.SymplecticPotential.grad",
    "toric.ConvexDeformation.hess": "toric.SymplecticPotential.hess",
    "toric.SymplecticPotential.grad": "toric.moment_to_log_complex",
    "toric.SymplecticPotential.hess": "toric.complex_to_moment_log",
}

DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def definitions(tree):
    """(qualified name, node) of the public top-level functions and classes
    ("name") and of the public methods of top-level classes ("Class.name")."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def src_definitions() -> dict:
    """module.qualified name -> node of each public definition in src/."""
    return {f"{p.stem}.{q}": node for p in SRC for q, node in definitions(ast.parse(p.read_text()))}


def bare(qualified: str) -> str:
    return qualified.rsplit(".", 1)[-1]


def references(tree) -> Counter:
    """How often the module reads each name, outside `__all__`."""
    skipped = set()
    names = Counter()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skipped.update(id(n) for n in ast.walk(node))
        elif isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            names.update(node.value.split("."))
    return names


def unreferenced() -> dict:
    """module.qualified name -> name of each public definition that nothing
    reads but its own body."""
    trees = {p: ast.parse(p.read_text()) for p in SRC + BENCH}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    return {f"{p.stem}.{q}": bare(q) for p in SRC for q, node in definitions(trees[p])
            if everywhere[bare(q)] == references(node)[bare(q)]}


def body_reads(node) -> set:
    """The names a function's body reads and does not bind itself; its own
    name is not a binding of the body, which may read a namesake."""
    inner = [n for n in ast.walk(node) if n is not node]
    bound = {n.name for n in inner if isinstance(n, ast.FunctionDef)}
    bound |= {n.arg for n in inner if isinstance(n, ast.arg)}
    bound |= {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return set(references(node)) - bound


def criterion_reads() -> dict:
    """cNN -> the names its acceptance test reads and does not bind itself."""
    reads = {}
    for node in ast.parse(ACCEPTANCE.read_text()).body:
        match = re.match(r"test_(c\d\d)_", getattr(node, "name", ""))
        if isinstance(node, ast.FunctionDef) and match:
            reads[match.group(1)] = body_reads(node)
    return reads


def test_every_public_definition_has_a_caller():
    assert sorted(q for q, name in unreferenced().items() if name not in KEEP) == []


def test_every_keep_entry_is_defined_and_has_no_caller():
    # an entry that src/ or bench/ now calls, or that is gone, is stale
    assert sorted(set(KEEP) - set(unreferenced().values())) == []


def test_every_keep_entry_is_read_by_its_criteria():
    reads = criterion_reads()
    assert len(reads) == 11
    assert sorted((name, c) for name, cited in KEEP.items() for c in cited.split(", ")
                  if name not in reads.get(c, ())) == []


def test_every_shared_name_is_on_shared():
    # exactly the definitions whose bare name src/ defines more than once
    defs = src_definitions()
    counts = Counter(bare(q) for q in defs)
    assert sorted(SHARED) == sorted(q for q in defs if counts[bare(q)] > 1)


def test_every_shared_entry_is_read_by_its_caller():
    defs = src_definitions()
    assert sorted((q, caller) for q, caller in SHARED.items()
                  if caller == q or caller not in defs
                  or bare(q) not in body_reads(defs[caller])) == []
