"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from check import FLOW_ACCURACY, RTOL, check_operation, flow_mass_rtol, load_reference

BENCH = Path(__file__).resolve().parent
cli = run.import_cli()
REF = load_reference()


def write_reference_outputs(out: Path, name: str, index: int = 0, seed: int = 0):
    """Outputs equal to the reference, written the way gcq writes them."""
    out.mkdir(parents=True, exist_ok=True)
    if name == "lattice":
        ref = REF["lattice"][index]
        cli.write_json(out / "summary.json",
                       {"lattice": ref["lattice"], "weyl": ref["weyl"], "match": True})
        return
    if name == "gccheck":
        ref = REF["gccheck"]
        rows = list(zip(ref["t"], ref["discrepancy"][str(seed)]))
        cli.write_csv(out / "gc_check.csv", ["t", "discrepancy"], rows)
        return
    ref = REF[name]
    header = list(ref["cells"][0])
    cli.write_csv(out / "cells.csv", header, [[r[k] for k in header] for r in ref["cells"]])
    summary = {k: v for k, v in ref.items() if k not in ("cells", "flow_mass_sensitivity")}
    cli.write_json(out / "summary.json", summary)


def perturb_cell(out: Path, row: int, column: str, factor: float, csv: str = "cells.csv"):
    lines = (out / csv).read_text().splitlines()
    header = lines[0].split(",")
    values = lines[row + 1].split(",")
    j = header.index(column)
    values[j] = cli.fmt(float(values[j]) * factor)
    lines[row + 1] = ",".join(values)
    (out / csv).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name,index", [("combined", 0), ("toric3d", 0), ("gccheck", 0),
                                        ("lattice", 0), ("lattice", 1)])
def test_reference_outputs_pass(tmp_path, name, index):
    write_reference_outputs(tmp_path, name, index)
    assert check_operation(name, index, 0, 0, tmp_path, REF) == []


def test_nonzero_exit_fails(tmp_path):
    write_reference_outputs(tmp_path, "toric3d")
    assert check_operation("toric3d", 0, 0, 1, tmp_path, REF)


@pytest.mark.parametrize("name,column", [("toric3d", "outside_mass"), ("toric3d", "pairing_x1"),
                                         ("combined", "sup_outside"),
                                         ("combined", "pairing_dist2")])
def test_flow_free_columns_hold_rtol(tmp_path, name, column):
    write_reference_outputs(tmp_path, name)
    perturb_cell(tmp_path, 1, column, 1 + RTOL / 4)
    assert check_operation(name, 0, 0, 0, tmp_path, REF) == []
    perturb_cell(tmp_path, 1, column, 1 + 4 * RTOL)
    assert check_operation(name, 0, 0, 0, tmp_path, REF)


def test_flow_route_tolerance_is_derived(tmp_path):
    row = 4
    rtol = flow_mass_rtol(REF["combined"]["flow_mass_sensitivity"][row])
    assert RTOL < rtol < 1e-4
    write_reference_outputs(tmp_path, "combined")
    perturb_cell(tmp_path, row, "outside_mass_flow", 1 + rtol / 2)
    assert check_operation("combined", 0, 0, 0, tmp_path, REF) == []
    perturb_cell(tmp_path, row, "outside_mass_flow", 1 + 2 * rtol)
    assert check_operation("combined", 0, 0, 0, tmp_path, REF)


def test_skipped_columns_are_not_compared(tmp_path):
    write_reference_outputs(tmp_path, "combined")
    perturb_cell(tmp_path, 2, "spot_logdens_dev", 2.0)
    assert check_operation("combined", 0, 0, 0, tmp_path, REF) == []


def test_gccheck_discrepancy_tolerance(tmp_path):
    d = REF["gccheck"]["discrepancy"]["0"][1]
    atol = REF["gccheck"]["xi_lipschitz"] * FLOW_ACCURACY
    for shift, ok in ((atol / 2, True), (3 * atol, False)):
        write_reference_outputs(tmp_path, "gccheck")
        perturb_cell(tmp_path, 1, "discrepancy", 1 + shift / d, "gc_check.csv")
        assert (check_operation("gccheck", 0, 0, 0, tmp_path, REF) == []) is ok


def test_every_seed_has_a_gccheck_reference(tmp_path):
    write_reference_outputs(tmp_path, "gccheck", seed=5)
    assert check_operation("gccheck", 0, 5 + 64 * 3, 0, tmp_path, REF) == []


def test_off_by_one_lattice_count_counts_as_failed(tmp_path, monkeypatch):
    from gcquant.polytope import DelzantPolytope

    orig = DelzantPolytope.lattice_points
    monkeypatch.setattr(DelzantPolytope, "lattice_points", lambda self: orig(self)[:-1])
    metrics, attempted, failed = run.traced(cli, "lattice", 0, 0, REF, tmp_path)
    assert (attempted, failed) == (4, 4)
    assert metrics["failed_frac"] == (1.0, "ratio")


def test_perturbed_output_counts_as_failed(tmp_path, monkeypatch):
    orig = cli.gc_vs_torus_moment_check
    monkeypatch.setattr(cli, "gc_vs_torus_moment_check",
                        lambda *a, **k: orig(*a, **k) * (1 + 1e-5))
    metrics, attempted, failed = run.traced(cli, "gccheck", 0, 0, REF, tmp_path)
    assert (attempted, failed) == (2, 2)
    assert metrics["failed_frac"] == (1.0, "ratio")


def _repeatable(metrics: dict) -> dict:
    return {k: v for k, (v, _) in metrics.items()
            if k.endswith((".calls", ".points", ".useful_ratio")) or k == "flow.flow.steps"}


# Counts the trace must reproduce at the reference commit.
EXPECTED = {
    "combined": {"flow.flow.calls": 35, "flow.z_field.calls": 53_340,
                 # 475 starts flowed to sum(t) = 1.5218 per start, plus 6 spot
                 # points per cell flowed again; each start needs only |tau| = 1
                 "flow.flow.useful_ratio": pytest.approx(0.6489, abs=1e-4)},
    "gccheck": {"flag.gc_map.calls": 40,
                # 20 starts flowed for |tau| = 0.9 and 0.98; only the longer is needed
                "flow.flow.useful_ratio": pytest.approx(0.98 / 1.88)},
    "toric3d": {"flow.flow.calls": 0, "toric.polytope_grid.useful_ratio": 1 / 12,
                "toric.section_log_density.useful_ratio": 3 / 12},
    "lattice": {"flow.flow.calls": 0, "polytope.lattice_points.points": 4096 + 8400},
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_trace_counts_repeat_exactly(tmp_path, name):
    first, _, failed1 = run.traced(cli, name, 0, 0, REF, tmp_path)
    second, _, failed2 = run.traced(cli, name, 0, 0, REF, tmp_path)
    assert failed1 == failed2 == 0
    assert _repeatable(first) == _repeatable(second)
    for key, want in EXPECTED[name].items():
        assert first[key][0] == want, key


def test_patches_reach_names_imported_by_callers():
    import gcquant.flag
    import gcquant.lab
    import gcquant.toric
    from gcquant.flow import DegenerationFamily

    orig_grid, orig_map = gcquant.toric.polytope_grid, gcquant.flag.gc_map
    orig_flow = DegenerationFamily.flow
    with spans.Tracer().installed():
        assert gcquant.lab.polytope_grid is gcquant.toric.polytope_grid
        assert gcquant.lab.polytope_grid.__wrapped__ is orig_grid
        assert cli.gc_map is gcquant.lab.gc_map is gcquant.flag.gc_map
        assert cli.gc_map.__wrapped__ is orig_map
        assert DegenerationFamily.flow.__wrapped__ is orig_flow
    assert gcquant.lab.polytope_grid is gcquant.toric.polytope_grid is orig_grid
    assert cli.gc_map is gcquant.lab.gc_map is orig_map
    assert DegenerationFamily.flow is orig_flow


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer, _, _ = run.traced(cli, "lattice", 0, 0, REF, tmp_path)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in spec["per_layer"])
    e2e, _, _ = run.end_to_end(cli, "lattice", 0, 0, REF, tmp_path)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    for m in spec["end_to_end"]:
        value, unit = e2e[m["name"]]
        assert unit == m["unit"] and value > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "0",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
