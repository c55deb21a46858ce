"""Command-line front end.

Subcommands dispatch to the library modules; every run writes its data files
plus a manifest with content digests.  Identical config and seed reproduce
byte-identical data payloads (the manifest carries the only timestamp).

Exit codes: 0 success, 1 numerical-tolerance failure (the failing invariant is
named on stderr), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import ToleranceError, __version__
from .polytope import (
    MAX_LATTICE_POINTS,
    box_polytope,
    gc_polytope,
    gc_variable_names,
    gc_weight,
    integer_weights,
    polytope_to_json,
    weyl_dim,
)
from .flag import gc_map, random_flags
from .flow import DegenerationFamily
from .lab import (
    ExperimentConfig,
    box_concentration_sweep,
    checked_s_grid,
    combined_experiment,
    gc_vs_torus_moment_check,
    mass_decay_slope,
)

__all__ = ["main"]


class UsageError(ValueError):
    pass


# -- formatting and artifact plumbing -------------------------------------------


def fmt(v) -> str:
    """17-significant-digit rendering so that hashes are meaningful."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def table_text(header: list, rows, sep: str = ",") -> str:
    """Header line, then one line per row of `rows` with each value as `fmt`
    renders it.  An integer ndarray is formatted in one pass: "%d" of an int
    is str(int)."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
        line = sep.join(["%d"] * rows.shape[1]) + "\n"
        return sep.join(header) + "\n" + (line * len(rows)) % tuple(rows.ravel().tolist())
    lines = [sep.join(header)]
    for row in rows:
        lines.append(sep.join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_csv(path: Path, header: list, rows: list):
    path.write_text(table_text(header, rows))


def write_json(path: Path, obj):
    path.write_text(json_text(obj))


def write_run(args, command: str, config: dict, files: dict, line: str, failures: list) -> int:
    """The tail of every run: write `files` (name -> text) into `--out` or
    gcq-<first word of command>, then manifest.json with a sha256 per file read
    back from disk; print `line`; then raise the first of `failures`, the
    (invariant, detail) pairs of the failed gates in check order.  So a failing
    run's data is on disk before it exits 1."""
    out = Path(args.out if args.out else f"gcq-{command.split()[0]}")
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files}
    write_json(out / "manifest.json", {
        "tool": "gcq",
        "version": __version__,
        "command": command,
        "config": config,
        "created": datetime.now(timezone.utc).isoformat(),
        "artifacts": [{"path": name, "sha256": digests[name]} for name in sorted(files)],
    })
    print(line)
    if failures:
        raise ToleranceError(*failures[0])
    return 0


# -- configuration merging -------------------------------------------------------


def merge_config(defaults: dict, args) -> dict:
    """defaults < file (`args.config`) < flags, where the flags are the
    attributes of `args` named like a key of `defaults`; unknown file keys are
    a usage error."""
    cfg = dict(defaults)
    config_path = args.config
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise UsageError(f"config file not found: {config_path}")
        except json.JSONDecodeError as e:
            raise UsageError(f"malformed config JSON: {e}")
        if not isinstance(loaded, dict):
            raise UsageError("config must be a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(loaded)
    for k in defaults:
        if getattr(args, k, None) is not None:
            cfg[k] = getattr(args, k)
    return cfg


def parse_floats(text: str) -> tuple:
    """Comma-separated finite numbers."""
    try:
        vals = tuple(float(v) for v in str(text).split(","))
        if all(math.isfinite(v) for v in vals):
            return vals
    except ValueError:
        pass
    raise UsageError(f"expected comma-separated finite numbers, got {text!r}")


def parse_ranges(text: str) -> list[tuple[int, int]]:
    """'0..3' or '0..3,0..2' -> [(0, 3), (0, 2)]."""
    out = []
    for part in str(text).split(","):
        lo, sep, hi = part.partition("..")
        if sep != ".." or not lo or not hi:
            raise UsageError(f"expected lo..hi range, got {part!r}")
        try:
            out.append((int(lo), int(hi)))
        except ValueError:
            raise UsageError(f"range bounds must be integers: {part!r}")
    return out


def parse_real(key: str, value) -> float:
    """A merged config number: a finite JSON number or numeric string, not a
    bool; nan and infinities are usage errors."""
    if not isinstance(value, bool):
        try:
            x = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(x):
                return x
    raise UsageError(f"{key} must be a finite number, got {value!r}")


def parse_int(key: str, value) -> int:
    """A merged config integer: an int, or an integral number or numeric
    string; bools, fractions and lists are usage errors, never truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not parse_real(key, value).is_integer():
        raise UsageError(f"{key} must be an integer, got {value!r}")
    return int(float(value))


# -- polytope --------------------------------------------------------------------


def cmd_polytope(args) -> int:
    a = integer_weights(parse_floats(args.a))
    n = args.n
    if len(a) != n - 1:
        raise UsageError(f"need n-1 = {n - 1} weights, got {len(a)}")
    # every factor of weyl_dim is at least 2, so the lattice has at least
    # 2^(n(n-1)/2) points: past MAX_LATTICE_POINTS from n = 8 on
    if n * (n - 1) // 2 >= MAX_LATTICE_POINTS.bit_length():
        raise UsageError(f"n = {n}: the lattice has at least 2^{n * (n - 1) // 2} points, "
                         f"past MAX_LATTICE_POINTS = {MAX_LATTICE_POINTS}")
    P = gc_polytope(n, a)
    pts = P.lattice_points()
    dim = weyl_dim(gc_weight(a))
    match = len(pts) == dim
    files = {}
    if args.action in ("gen", "lattice"):
        files["lattice.csv"] = table_text(list(gc_variable_names(n)), pts)
    if args.action == "gen":
        files["polytope.json"] = polytope_to_json(P) + "\n"
    files["summary.json"] = json_text({"n": n, "a": list(a), "lattice": len(pts), "weyl": dim,
                                       "match": match})
    return write_run(args, f"polytope {args.action}", {"n": n, "a": list(a)}, files,
                     f"lattice={len(pts)} weyl={dim} match={fmt(match)}",
                     [] if match else [("lattice-weyl-match", f"{len(pts)} != {dim}")])


# -- toric -----------------------------------------------------------------------

TORIC_DEFAULTS = {
    "delta": "0..3",
    "m": "1",
    "s": "10,20,40",
    "eps": 0.3,
    "nu_scale": 1.0,
    "per_axis": 256,
}


# most values (rows x columns) of the 1-D profile.dat, which table_text
# formats one value at a time: on a 2-vCPU Xeon, toric concentrate at the
# bound (2^16 rows x 4 columns) took 0.67 s and 61 MB peak, at 2^18 rows 2.5 s
# and 137 MB, and table_text alone 12.1 s and 367 MB for 2^20 rows; without
# it MAX_GRID_POINTS would allow 2^24 rows, GBs by extrapolation
MAX_PROFILE_VALUES = 2**18


def cmd_toric(args) -> int:
    cfg = merge_config(TORIC_DEFAULTS, args)
    ranges = parse_ranges(cfg["delta"])
    P = box_polytope(ranges)
    m = tuple(float(v) for v in parse_floats(cfg["m"]))
    if len(m) != P.dim:
        raise UsageError(f"m must have dimension {P.dim}")
    if not P.contains(np.array(m), strict=True):
        raise UsageError("m must be an interior point")
    svals = checked_s_grid(parse_floats(cfg["s"]))
    eps = parse_real("eps", cfg["eps"])
    if not eps > 0:
        raise UsageError("eps must be positive")
    per_axis = parse_int("per_axis", cfg["per_axis"])
    if per_axis < 1:
        raise UsageError("per_axis must be at least 1")
    if P.dim == 1 and per_axis * (1 + len(svals)) > MAX_PROFILE_VALUES:
        raise UsageError(f"profile.dat of {per_axis} rows x {1 + len(svals)} columns passes "
                         f"MAX_PROFILE_VALUES = {MAX_PROFILE_VALUES}")
    nu_scale = parse_real("nu_scale", cfg["nu_scale"])

    sweep, axes, per_s = box_concentration_sweep(ranges, nu_scale, m, per_axis, svals, eps)
    rows = [[s, sums.mass, sums.sup, sums.pairings["one"], sums.pairings["x1"]]
            for s, sums in zip(svals, sweep)]
    files = {"cells.csv": table_text(["s", "outside_mass", "sup_outside", "pairing_one",
                                      "pairing_x1"], rows)}
    slope = mass_decay_slope(svals, [r[1] for r in rows])
    files["summary.json"] = json_text({"config": cfg, "slope": slope})
    if P.dim == 1:
        profiles = [np.exp(f - sums.log_total) for (f,), sums in zip(per_s, sweep)]
        columns = ["x"] + [f"s={fmt(s)}" for s in svals]
        files["profile.dat"] = "# normalized density profiles\n# " + table_text(
            columns, np.column_stack(axes + profiles), sep=" ")
    return write_run(args, "toric concentrate", cfg, files,
                     f"cells={len(rows)} slope={fmt(slope)}",
                     [("mass-range", f"outside mass {mass} at s={s}")
                      for s, mass, *_ in rows if not 0.0 <= mass <= 1.0])


# -- flag ------------------------------------------------------------------------

FLAG_DEFAULTS = {"n": 3, "a": "1,1", "count": 100, "seed": 0}
# largest flag count of flag dump and lab gc-check, and largest flow grid
# (flow_per_axis^3 box points) of lab combined: random_flags draws the flags
# one at a time, and gc-check and lab combined flow all their points in one
# batch.  On a 2-vCPU Xeon, flag dump of 10^5 flags took 4.3 s and 140 MB,
# gc-check of 2 x 10^4 flags 2.8 s and 76 MB, and lab combined about 1.9 KB
# per flowed point (90.5 MB peak at 31,600 points); all grow linearly, so the
# 10^8 of a typo, or the 8.4M flowed points of --flow-per-axis 256, would run
# for hours or need GBs before it failed
MAX_FLAGS = 10**5
# largest |t1| and |t0| of flow run.  The deformed Pluecker coordinates carry
# t^2, which overflows a float past |t| ~ 1.3e154; and float64 rounding alone
# moves the flowed t by more than the 1e-6 t-deviation gate well before that:
# on seeds 0-2 the deviation was at most 7.8e-10 at |t1| = 1e6, up to 6.1e-7
# at 1e9 and 2.8e-6 to 1.2e-5 at 1e10
MAX_T = 1e6


def parse_flag_count(key: str, value) -> int:
    """A merged flag count: a `parse_int` integer up to MAX_FLAGS."""
    count = parse_int(key, value)
    if count > MAX_FLAGS:
        raise UsageError(f"{key} = {count} passes MAX_FLAGS = {MAX_FLAGS}")
    return count


def cmd_flag(args) -> int:
    cfg = merge_config(FLAG_DEFAULTS, args)
    n = parse_int("n", cfg["n"])
    a = parse_floats(cfg["a"])
    if len(a) != n - 1:
        raise UsageError(f"need n-1 = {n - 1} weights, got {len(a)}")
    P = gc_polytope(n, a)
    count = parse_flag_count("count", cfg["count"])
    flags = random_flags(n, count, seed=parse_int("seed", cfg["seed"]))
    pats = gc_map(flags, a)
    worst = float(P.support_values(pats).min())
    files = {"patterns.csv": table_text(["flag"] + list(gc_variable_names(n)),
                                        [[i] + list(p) for i, p in enumerate(pats)]),
             "summary.json": json_text({"config": cfg, "count": count, "min_support": worst})}
    return write_run(args, "flag dump", cfg, files, f"flags={count} min_support={fmt(worst)}",
                     [("polytope-containment", f"min support {worst}")] if worst < -1e-10 else [])


# -- flow ------------------------------------------------------------------------

FLOW_DEFAULTS = {"a": "1,1", "t1": 1.0, "t0": 0.5, "seed": 0}


def cmd_flow(args) -> int:
    cfg = merge_config(FLOW_DEFAULTS, args)
    a = parse_floats(cfg["a"])
    t1, t0 = parse_real("t1", cfg["t1"]), parse_real("t0", cfg["t0"])
    if max(abs(t1), abs(t0)) > MAX_T:
        raise UsageError(f"|t1| and |t0| must be at most MAX_T = {MAX_T:g}, got {t1!r}, {t0!r}")
    fam = DegenerationFamily(a)
    V = random_flags(3, 1, seed=parse_int("seed", cfg["seed"]))[0]
    state = fam.embed_flag(V, t1)
    res = fam.flow(state, t1 - t0, keep_states=True)
    files = {
        "trajectory.csv": table_text(["step", "re_t", "im_t"],
                                     [[i, float(np.real(st.t)), float(np.imag(st.t))]
                                      for i, st in enumerate(res.states)]),
        "summary.json": json_text({
            "config": cfg, "steps": res.steps, "rejected": res.rejected,
            "t_deviation": res.t_deviation, "max_residual": res.max_residual,
            "min_grad_norm": res.min_grad_norm,
        }),
    }
    failures = [("t-deviation", f"{res.t_deviation} > 1e-6")] if res.t_deviation > 1e-6 else []
    return write_run(args, "flow run", cfg, files,
                     f"steps={res.steps} t_deviation={fmt(res.t_deviation)} "
                     f"max_residual={fmt(res.max_residual)}", failures)


# -- lab -------------------------------------------------------------------------

LAB_DEFAULTS = {
    "a": "2,2",
    "pattern": "2;3,1",
    "s_grid": "0,5,10,20,40",
    "eps": 0.3,
    "nu_scale": 1.0,
    "schedule_rate": 5.0,
    "per_axis": 32,
    "flow_per_axis": 10,
}


def _parse_pattern(text: str) -> tuple:
    """'2;3,1' -> (2.0, 3.0, 1.0): the rows below the top, flattened."""
    return tuple(v for part in str(text).split(";") for v in parse_floats(part))


def cmd_lab_combined(args) -> int:
    cfg = merge_config(LAB_DEFAULTS, args)
    flow_per_axis = parse_int("flow_per_axis", cfg["flow_per_axis"])
    if flow_per_axis ** 3 > MAX_FLAGS:
        raise UsageError(f"flow_per_axis = {flow_per_axis}: a flow grid of {flow_per_axis ** 3} "
                         f"points passes MAX_FLAGS = {MAX_FLAGS}")
    ecfg = ExperimentConfig(
        a=parse_floats(cfg["a"]),
        pattern=_parse_pattern(cfg["pattern"]),
        s_grid=parse_floats(cfg["s_grid"]),
        eps=parse_real("eps", cfg["eps"]),
        nu_scale=parse_real("nu_scale", cfg["nu_scale"]),
        schedule_rate=parse_real("schedule_rate", cfg["schedule_rate"]),
        per_axis=parse_int("per_axis", cfg["per_axis"]),
        flow_per_axis=flow_per_axis,
    )
    rep = combined_experiment(ecfg)
    rows = [c.as_row() for c in rep.cells]
    header = list(rows[0].keys())
    files = {
        "cells.csv": table_text(header, [[r[k] for k in header] for r in rows]),
        "summary.json": json_text({
            "config": cfg, "xi_star": list(rep.xi_star), "lift": list(rep.lift),
            "slope": rep.slope, "monotone": rep.monotone, "incomplete": rep.incomplete,
        }),
    }
    failures = []
    for c in rep.cells:
        if not (0.0 <= c.outside_mass <= 1.0):
            failures.append(("mass-range", f"outside mass {c.outside_mass} at s={c.s}"))
        if c.torus_moment_drift is not None and c.torus_moment_drift > 1e-6:
            failures.append(("torus-moment-drift", f"{c.torus_moment_drift} > 1e-6 at s={c.s}"))
    if not rep.monotone:
        failures.append(("outside-mass-monotone", "mass not strictly decreasing in s"))
    return write_run(args, "lab combined", cfg, files,
                     f"cells={len(rows)} slope={fmt(rep.slope)} monotone={fmt(rep.monotone)}",
                     failures)


GCCHECK_DEFAULTS = {"t": "0.1,0.02", "samples": 20, "seed": 0, "a": "1,1"}


def cmd_lab_gc_check(args) -> int:
    cfg = merge_config(GCCHECK_DEFAULTS, args)
    tvals = parse_floats(cfg["t"])
    a = parse_floats(cfg["a"])
    samples = parse_flag_count("samples", cfg["samples"])
    d = gc_vs_torus_moment_check(tvals, samples=samples, a=a, seed=parse_int("seed", cfg["seed"]))
    rows = [[t, dt] for t, dt in zip(tvals, d)]
    files = {"gc_check.csv": table_text(["t", "discrepancy"], rows),
             "summary.json": json_text({"config": cfg,
                                        "rows": [[float(r[0]), float(r[1])] for r in rows]})}
    return write_run(args, "lab gc-check", cfg, files,
                     " ".join(f"d({fmt(r[0])})={fmt(r[1])}" for r in rows),
                     [("moment-trend",
                       f"discrepancy({tb}) = {db} not below discrepancy({ta}) = {da}")
                      for (ta, da), (tb, db) in zip(rows, rows[1:]) if ta > tb and not db < da])


# -- argument parsing ------------------------------------------------------------


# help text of the flags whose value has a format to follow
FLAG_HELP = {
    "delta": "box as lo..hi[,lo..hi...]",
    "m": "lattice point, comma-separated",
    "s": "deformation strengths, comma-separated",
    "pattern": "rows below the top, e.g. '2;3,1'",
    "t": "comma-separated t values, decreasing",
}


# help of each top-level subcommand, in the tree's order
GROUP_HELP = {
    "polytope": "polytope generation and lattice counts",
    "toric": "toric concentration experiments",
    "flag": "random flag ensembles and their patterns",
    "flow": "family flow integration",
    "lab": "combined concentration experiments",
}
# every command that runs: its path under gcq -> (choices of its positional
# action, none under lab; its function; its *_DEFAULTS, none for polytope,
# which reads its flags directly)
COMMANDS = {
    "polytope": (["gen", "count", "lattice"], cmd_polytope, None),
    "toric": (["concentrate"], cmd_toric, TORIC_DEFAULTS),
    "flag": (["dump"], cmd_flag, FLAG_DEFAULTS),
    "flow": (["run"], cmd_flow, FLOW_DEFAULTS),
    "lab combined": (None, cmd_lab_combined, LAB_DEFAULTS),
    "lab gc-check": (None, cmd_lab_gc_check, GCCHECK_DEFAULTS),
}


def add_command(p: argparse.ArgumentParser, path: str) -> None:
    """Give `p` the arguments and the function of the command at `path`.
    Every command but polytope takes --config, --out, then one flag per key
    of its *_DEFAULTS, in table order and typed like the default."""
    actions, func, defaults = COMMANDS[path]
    if actions:
        p.add_argument("action", choices=actions)
    if defaults is None:
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--a", required=True, help="comma-separated positive integers")
    else:
        p.add_argument("--config", help="JSON object of config keys; flags override it")
    p.add_argument("--out")
    for key, default in (defaults or {}).items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                       help=FLAG_HELP.get(key))
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    """The full tree: gcq, its subcommands, and every command under them."""
    ap = argparse.ArgumentParser(prog="gcq", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"gcq {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    groups = {name: sub.add_parser(name, help=text) for name, text in GROUP_HELP.items()}
    groups["lab"] = groups["lab"].add_subparsers(dest="action", required=True)
    for path in COMMANDS:
        group, _, name = path.partition(" ")
        add_command(groups[group].add_parser(name) if name else groups[group], path)
    return ap


def parse_args(argv: list) -> argparse.Namespace:
    """`argv` parsed by the parser of its command alone when it starts with
    a command's path: that parser is the tree's leaf, with the same prog, so
    its usage, help and errors are the tree's to the byte, and the namespace
    gets the subcommand dests the tree sets.  Anything else (-h, --version,
    no command, an unknown one, `lab` alone, or arguments the leaf leaves
    over, which the tree reports as gcq's error) goes through the full tree."""
    for path in COMMANDS:
        words = path.split()
        if argv[:len(words)] == words:
            ap = argparse.ArgumentParser(prog=f"gcq {path}")
            add_command(ap, path)
            args, rest = ap.parse_known_args(
                argv[len(words):], argparse.Namespace(**dict(zip(("command", "action"), words))))
            if not rest:
                return args
            break
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except ValueError as e:  # UsageError included
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ToleranceError as e:
        print(f"tolerance failure: {e.invariant}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
