"""Per-operation correctness check of gcq outputs against reference.json.

reference.json holds the outputs of the commit named in it (make_reference.py
writes it).  Tolerances:

* Lattice counts are exact and must equal the Weyl dimension.
* Flow-free values (toric-route masses, sups and pairings, the slope fitted
  to them, s and t) must match to RTOL relative.
* Flow-route values may move as far as the stated accuracy of the flowed
  moment points, FLOW_ACCURACY in the sup norm, lets them.  For
  `outside_mass_flow`, log of the mass is a difference of two log-sum-exps
  over the log-densities at the flowed points; moving each point by
  FLOW_ACCURACY moves it by at most S * FLOW_ACCURACY, where S is that
  cell's density-weighted sum of log-density gradient norms (stored per
  cell in the reference; make_reference.py computes it).  For the
  `gc_check.csv` discrepancy, xi = A x moves by at most ||A||_inf *
  FLOW_ACCURACY and the max-norm gap by no more.
* `spot_logdens_dev` (ungated by the program) and `spot_phase_norm_dev`
  (zero by construction) are not compared, nor is manifest.json (it carries
  a timestamp).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import gc_seed

RTOL = 1e-9
# Sup-norm accuracy of flowed ambient moment points: twice the 5e-9 gap
# between RK4 at h=1e-2 and h=1e-3 on the 475-point lab combined grid.
FLOW_ACCURACY = 1e-8

EXACT_COLUMNS = ("s", "flow_points", "flow_failures")
FLOW_FREE_COLUMNS = ("t", "outside_mass", "sup_outside")
FLOW_ROUTE_COLUMNS = ("outside_mass_flow",)
SKIPPED_COLUMNS = ("spot_logdens_dev", "spot_phase_norm_dev")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def _value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def read_cells(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: _value(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    if isinstance(want, bool) or want is None:
        return got == want
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    return math.isclose(got, want, rel_tol=rtol, abs_tol=atol)


def _compare(problems: list, label: str, got, want, rtol: float, atol: float = 0.0):
    if not _close(got, want, rtol, atol):
        problems.append(f"{label}: got {got!r}, reference {want!r}")


def _compare_cells(problems: list, got_rows: list, ref_rows: list, flow_tol: list):
    if len(got_rows) != len(ref_rows):
        problems.append(f"cells.csv: {len(got_rows)} rows, reference {len(ref_rows)}")
        return
    for i, (got, want) in enumerate(zip(got_rows, ref_rows)):
        for col, ref_val in want.items():
            label = f"cells.csv row {i} {col}"
            if col in SKIPPED_COLUMNS:
                continue
            if col not in got:
                problems.append(f"{label}: column missing")
            elif col in EXACT_COLUMNS:
                _compare(problems, label, got[col], ref_val, 0.0)
            elif col in FLOW_FREE_COLUMNS or col.startswith("pairing_"):
                _compare(problems, label, got[col], ref_val, RTOL)
            elif col in FLOW_ROUTE_COLUMNS:
                _compare(problems, label, got[col], ref_val, flow_tol[i])
            else:
                raise RuntimeError(f"reference column {col!r} has no tolerance rule")


def flow_mass_rtol(sensitivity: float) -> float:
    """Relative tolerance of a flow-route mass with the given sensitivity of
    its log to a sup-norm shift of the flowed points."""
    return math.expm1(sensitivity * FLOW_ACCURACY) + RTOL


def _check_combined(out: Path, ref: dict) -> list[str]:
    problems: list[str] = []
    tol = [flow_mass_rtol(S) for S in ref["flow_mass_sensitivity"]]
    _compare_cells(problems, read_cells(out / "cells.csv"), ref["cells"], tol)
    summary = json.loads((out / "summary.json").read_text())
    _compare(problems, "summary slope", summary.get("slope"), ref["slope"], RTOL)
    for key in ("monotone", "incomplete", "lift"):
        if summary.get(key) != ref[key]:
            problems.append(f"summary {key}: got {summary.get(key)!r}, reference {ref[key]!r}")
    xi_star = summary.get("xi_star") or []
    if len(xi_star) != len(ref["xi_star"]):
        problems.append(f"summary xi_star: got {xi_star!r}, reference {ref['xi_star']!r}")
    for got, want in zip(xi_star, ref["xi_star"]):
        _compare(problems, "summary xi_star", got, want, RTOL)
    return problems


def _check_toric(out: Path, ref: dict) -> list[str]:
    problems: list[str] = []
    _compare_cells(problems, read_cells(out / "cells.csv"), ref["cells"], [])
    summary = json.loads((out / "summary.json").read_text())
    _compare(problems, "summary slope", summary.get("slope"), ref["slope"], RTOL)
    return problems


def _check_lattice(out: Path, ref: dict) -> list[str]:
    summary = json.loads((out / "summary.json").read_text())
    got = (summary.get("lattice"), summary.get("weyl"), summary.get("match"))
    want = (ref["lattice"], ref["weyl"], True)
    if got != want or ref["lattice"] != ref["weyl"]:
        return [f"lattice/weyl/match: got {got}, reference {want}"]
    return []


def _check_gccheck(out: Path, ref: dict, seed: int) -> list[str]:
    problems: list[str] = []
    rows = read_cells(out / "gc_check.csv")
    want = ref["discrepancy"][str(gc_seed(seed))]
    if len(rows) != len(ref["t"]):
        return [f"gc_check.csv: {len(rows)} rows, reference {len(ref['t'])}"]
    atol = ref["xi_lipschitz"] * FLOW_ACCURACY
    for i, row in enumerate(rows):
        _compare(problems, f"gc_check.csv row {i} t", row.get("t"), ref["t"][i], RTOL)
        _compare(problems, f"gc_check.csv row {i} discrepancy", row.get("discrepancy"),
                 want[i], RTOL, atol)
    return problems


def check_operation(name: str, index: int, seed: int, rc, out: Path, ref: dict) -> list[str]:
    """Problems with operation `index` of a `name` pass; empty when correct."""
    if rc != 0:
        return [f"exit code {rc!r}"]
    try:
        if name == "combined":
            return _check_combined(out, ref["combined"])
        if name == "toric3d":
            return _check_toric(out, ref["toric3d"])
        if name == "lattice":
            return _check_lattice(out, ref["lattice"][index])
        if name == "gccheck":
            return _check_gccheck(out, ref["gccheck"], seed)
    except (OSError, ValueError, KeyError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]
    raise KeyError(name)

