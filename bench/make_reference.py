#!/usr/bin/env python3
"""Write bench/reference.json from the outputs of the checked-out commit.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are the reference (a change that may
move them must be checked against the old file, not regenerate it).  Takes
about two minutes: one pass of each workload, the gc-check ensemble of every
seed in the pool, and the lab combined flows once more to get the
sensitivity of the flow-route mass to the flowed points (check.py explains
the use).
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from check import FLOW_ACCURACY, REFERENCE_PATH, read_cells
from run import ROOT, Pass, git_commit, import_cli
from workloads import GC_SEED_POOL, LATTICE_CASES, operations


def run_outputs(cli, name: str, seed: int, work: Path) -> list[Path]:
    p = Pass(cli, operations(name, seed), work)
    if any(rc != 0 for rc in p.codes):
        raise SystemExit(f"{name} seed {seed}: exit codes {p.codes}")
    return p.outs


def flow_mass_sensitivity() -> list[float]:
    """Per lab-combined cell, the first-order sensitivity of log
    outside_mass_flow to a sup-norm shift of the flowed moment points:
    sum_i (p_i + q_i) L_i, with p the normalized density weights of the
    flowed points, q the same restricted to the points outside the eps-ball,
    and L_i the l1 norm of grad log|sigma_m| at point i.  The gradient is
    sum_j (l_j(m) / (2 l_j(x)) - 1/2) r_j - 2 pi s H_nu (x - m); its wall
    terms are taken at the nearest a shift of FLOW_ACCURACY can bring x to
    each wall, since the closest flowed points lie within 1e-7 of one."""
    from scipy.special import logsumexp

    from gcquant.flow import DegenerationFamily
    from gcquant.lab import ExperimentConfig, GCTorusModel
    from gcquant.toric import (ConvexDeformation, SectionDensity, SymplecticPotential,
                               polytope_grid)

    cfg = ExperimentConfig()            # the lab combined defaults
    model = GCTorusModel(cfg.a)
    xi_star = model.xi_of_pattern(cfg.pattern)
    m = model.lifts(xi_star)[0].astype(float)
    img = model.image_delta()
    pts, _ = polytope_grid(img, cfg.flow_per_axis)
    xi_flow = pts[img.support_values(pts).min(axis=-1) > 1e-9]
    outside = np.linalg.norm(xi_flow - xi_star, axis=-1) > cfg.eps
    fam = DegenerationFamily(cfg.a)
    v0 = model.v0_state(xi_flow, fam=fam)
    P = model.ambient_delta()
    deformer = ConvexDeformation(cfg.nu, iota_star=model.A.astype(float))
    pot0 = SymplecticPotential(P, 0.0, deformer)
    R, lm = P.normal_matrix, P.support_values(m)
    wall_shift = FLOW_ACCURACY * np.abs(R).sum(axis=1)
    out = []
    for s in cfg.s_grid:
        x = fam.moment(fam.flow(v0, -cfg.schedule.t(s), h=cfg.h).state)
        lx = P.support_values(x)
        if np.any(lx <= 2 * wall_shift):
            raise SystemExit(f"s={s}: a flowed point lies within the stated accuracy of a wall")
        grad = ((0.5 * lm / lx) - 0.5) @ R \
            - 2 * math.pi * s * np.einsum("...ij,...j->...i", deformer.hess(x), x - m)
        L = np.abs(grad).sum(axis=-1) + (0.5 * lm * (1 / (lx - wall_shift) - 1 / lx)) \
            @ np.abs(R).sum(axis=1)
        logdens = SectionDensity(pot0.at_s(float(s)), tuple(m)).log_magnitude(x)
        p = np.exp(logdens - logsumexp(logdens))
        q = np.where(outside, np.exp(logdens - logsumexp(logdens[outside])), 0.0)
        out.append(float(np.sum((p + q) * L)))
    return out


def main():
    cli = import_cli()
    from gcquant.lab import GCTorusModel

    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        (c,) = run_outputs(cli, "combined", 0, work)
        summary = json.loads((c / "summary.json").read_text())
        combined = {k: summary[k] for k in ("slope", "monotone", "incomplete", "lift", "xi_star")}
        combined["cells"] = read_cells(c / "cells.csv")
        combined["flow_mass_sensitivity"] = flow_mass_sensitivity()

        (t,) = run_outputs(cli, "toric3d", 0, work)
        toric = {"cells": read_cells(t / "cells.csv"),
                 "slope": json.loads((t / "summary.json").read_text())["slope"]}

        lattice = []
        for (n, a), out in zip(LATTICE_CASES, run_outputs(cli, "lattice", 0, work)):
            s = json.loads((out / "summary.json").read_text())
            lattice.append({"n": n, "a": a, "lattice": s["lattice"], "weyl": s["weyl"]})

        disc = {}
        for seed in range(GC_SEED_POOL):
            (g,) = run_outputs(cli, "gccheck", seed, work)
            rows = read_cells(g / "gc_check.csv")
            disc[str(seed)] = [r["discrepancy"] for r in rows]
        A = GCTorusModel((1.0, 1.0)).A
        gccheck = {"t": [r["t"] for r in rows], "discrepancy": disc,
                   "xi_lipschitz": float(np.abs(A).sum(axis=1).max())}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ref = {"commit": git_commit(), "combined": combined, "toric3d": toric,
           "lattice": lattice, "gccheck": gccheck}
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
