"""The four benchmark workloads: gcq argument lists per seed.

Each workload is a list of CLI invocations (operations); one pass runs them
all in order.  Only `gccheck` depends on the seed: it selects the flag
ensemble.  Reasons for each choice are in README.md next to this file.
"""

from __future__ import annotations

# Flag-ensemble seeds with committed reference outputs.  A benchmark seed n
# runs ensemble n % GC_SEED_POOL, so every seed has a reference to check.
GC_SEED_POOL = 64

NAMES = ("combined", "gccheck", "toric3d", "lattice")

# (n, a): dimensions 6 and 10, so the recursion runs at two depths.
LATTICE_CASES = ((4, "3,3,3"), (5, "2,2,1,1"))


def gc_seed(seed: int) -> int:
    return seed % GC_SEED_POOL


def operations(name: str, seed: int) -> list[list[str]]:
    """gcq argument lists (without `--out`) of one pass of `name`."""
    if name == "combined":
        return [["lab", "combined"]]
    if name == "gccheck":
        return [["lab", "gc-check", "--t", "0.1,0.02", "--samples", "20",
                 "--seed", str(gc_seed(seed))]]
    if name == "toric3d":
        return [["toric", "concentrate", "--delta", "0..3,0..3,0..3", "--m", "1,1,1",
                 "--s", "10,20,40", "--per-axis", "96"]]
    if name == "lattice":
        return [["polytope", "count", "--n", str(n), "--a", a] for n, a in LATTICE_CASES]
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
