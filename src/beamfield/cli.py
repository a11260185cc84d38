"""Command-line interface.

Verbs:
    validate   check a config file, print findings
    run        execute a full simulation run
    scenarios  list the built-in beamforming scenarios
    render     re-render an existing heat-map CSV to SVG/ASCII

A verb imports what only it uses, so a ``validate`` launch loads only
``config`` and the layers it checks with: ``geometry``, ``channel``,
``ofdm``, ``stats`` and ``errors``.  Those load numpy on first use
(see ``beamfield``), and validation checks on plain floats, so a
``validate`` or ``scenarios`` launch loads no numpy.  ``run`` loads it
when it imports the runner, and ``render`` when it reads the CSV.

A ``run`` launch uses one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS``
says otherwise: the BER path multiplies many small complex matrices, which
threads contending for few cores slow down.

Exit codes: 0 success, 1 validation failure, 2 runtime error.
"""

import argparse
import math
import os
import sys

from . import _numpy_on_first_use
from .config import EXPORT_FORMATS, RunConfig, read_yaml, validate
from .errors import BeamfieldError, ConfigError
from .geometry import ProbeGrid, standard_scenarios

np = _numpy_on_first_use(globals())


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="beamfield",
        description="Massive-MIMO downlink beamforming and RF-EMF exposure simulator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_val = sub.add_parser("validate", help="validate a run configuration")
    p_val.add_argument("--config", help="YAML config file (defaults built in)")

    p_run = sub.add_parser("run", help="execute a full run and write artifacts")
    p_run.add_argument("--config", help="YAML config file (defaults built in)")
    p_run.add_argument("--out", help="output directory (sets output_dir)")
    p_run.add_argument("--seed", type=int, help="run seed (sets seed)")
    p_run.add_argument("--scenario", action="append", default=None,
                       help="scenario id to run (repeatable; sets scenarios)")
    p_run.add_argument("--format", action="append", default=None,
                       choices=EXPORT_FORMATS,
                       help="export format (repeatable; sets formats)")

    sub.add_parser("scenarios", help="list the built-in scenarios")

    p_ren = sub.add_parser("render", help="re-render a heat-map CSV")
    p_ren.add_argument("csv", help="heat-map CSV written by a previous run")
    p_ren.add_argument("--format", action="append", default=None,
                       choices=["svg", "ascii"], help="rendering to produce")
    p_ren.add_argument("--out", help="output directory (default: alongside the CSV)")
    p_ren.add_argument("--vmax", type=float, help="top of the colour scale in V/m")
    return parser


def _document(args):
    """The document ``--config`` names; without one, the one that only sets the seed."""
    return read_yaml(args.config) if args.config else {"seed": RunConfig.seed}


def _cmd_validate(args):
    findings = validate(_document(args))
    if not findings:
        print("configuration OK (no findings)")
        return 0
    for finding in findings:
        print(f"finding: {finding}")
    return 1


def _cmd_run(args):
    # Read when OpenBLAS loads, with numpy, which the runner imports.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .runner import run

    # A flag sets its document key, so the document's own rules read it.
    doc = _document(args)
    if isinstance(doc, dict):
        flags = {"seed": args.seed, "scenarios": args.scenario, "formats": args.format,
                 "output_dir": args.out}
        doc = {**doc, **{key: value for key, value in flags.items() if value is not None}}
    manifest = run(doc)
    print(f"run complete: {len(manifest.artifacts)} artifacts in {manifest.out_dir}")
    for art in manifest.artifacts:
        scen = f" [scenario {art['scenario']}]" if art["scenario"] else ""
        print(f"  {art['path']}{scen}")
    _print_compliance_table(manifest)
    return 0


def _print_compliance_table(manifest):
    import json

    reports = []
    for art in manifest.artifacts:
        if art["type"] != "compliance":
            continue
        with open(os.path.join(manifest.out_dir, art["path"]), encoding="utf-8") as fh:
            reports.append(json.load(fh))
    if not reports:
        return
    print()
    print("region   limit_vpm  exceeded  worst_margin_db  status")
    for rep in reports:
        margin = rep["worst_margin_db"]
        margin_s = f"{margin:+15.2f}" if margin is not None else f"{'-inf':>15}"
        status = "compliant" if rep["compliant"] else "EXCEEDS"
        print(f"{rep['region']:<8} {rep['limit_vpm']:>9.1f}  "
              f"{rep['exceed_count']:>8}  {margin_s}  {status}")


def _cmd_scenarios(_args):
    print("id  users  positions (x m, y m)")
    for s in standard_scenarios():
        pos = "; ".join(f"({x:g}, {y:g})" for x, y in s.ue_positions)
        print(f"{s.id:>2}  {s.n_users:>5}  {pos}")
    return 0


def _parse_csv_row(path, lineno, line):
    """(x, y, e) of one heat-map CSV data row; ConfigError names the line."""
    where = f"{path}: line {lineno}"
    fields = line.rstrip("\n").split(",")
    if len(fields) != 3:
        raise ConfigError(f"{where}: expected 3 fields x_m,y_m,e_vpm, got {len(fields)}")
    try:
        x, y, v = (float(f) for f in fields)
    except ValueError:
        raise ConfigError(f"{where}: not a number in {line.strip()!r}") from None
    if not all(math.isfinite(f) for f in (x, y, v)):
        raise ConfigError(f"{where}: non-finite value in {line.strip()!r}")
    if v < 0:
        raise ConfigError(f"{where}: negative field value {v!r}")
    return x, y, v


def _read_heatmap_csv(path):
    """Rebuild a HeatMap from the runner's x_m,y_m,e_vpm CSV."""
    from .field import HeatMap

    rows = []
    # A byte that is not UTF-8 stays in its field as a lone surrogate, so the
    # row or header it is in is reported like any other malformed one.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        if header != "x_m,y_m,e_vpm":
            raise ConfigError(f"{path}: not a heat-map CSV (header {header!r})")
        for lineno, line in enumerate(fh, start=2):
            rows.append(_parse_csv_row(path, lineno, line))
    if not rows:
        raise ConfigError(f"{path}: line 2: no data rows after the header")
    xs = tuple(sorted({r[0] for r in rows}))
    ys = tuple(sorted({r[1] for r in rows}))
    if len({r[:2] for r in rows}) != len(rows) or len(xs) * len(ys) != len(rows):
        raise ConfigError(f"{path}: points do not form a complete lattice")
    # Every lattice point appears once, so sorting by (y, x) puts the values in grid order.
    x, y, values = np.array(rows).T
    values = values[np.lexsort((x, y))]
    grid = ProbeGrid(xs, ys, 0.0)
    # The run names its maps by scenario id, and the average map "average".
    stem = os.path.basename(path).removesuffix(".csv")
    if stem == "heatmap_average":
        scenario_id = "average"
    else:
        scenario_id = stem.removeprefix("heatmap_scenario_")
    return HeatMap(grid=grid, values=values, scenario_id=scenario_id)


def _cmd_render(args):
    from .render import ascii_blocks, grid_text, scale_top, svg_blocks

    heatmap = _read_heatmap_csv(args.csv)
    try:
        scale_top(heatmap, args.vmax)
    except ValueError:
        raise ConfigError(f"--vmax: must be a positive, finite V/m value, "
                          f"got {args.vmax!r}") from None
    formats = args.format or ["svg", "ascii"]
    out_dir = args.out or os.path.dirname(os.path.abspath(args.csv))
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.csv))[0]
    written = []
    if "svg" in formats:
        path = os.path.join(out_dir, f"{stem}.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(svg_blocks(heatmap, grid_text(heatmap.grid, ("svg",)), vmax=args.vmax))
        written.append(path)
    if "ascii" in formats:
        path = os.path.join(out_dir, f"{stem}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(ascii_blocks(heatmap, vmax=args.vmax))
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "scenarios": _cmd_scenarios,
        "render": _cmd_render,
    }
    try:
        return handlers[args.verb](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BeamfieldError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
