"""Command-line interface.

Verbs:
    validate   check a config file, print findings
    run        execute a full simulation run
    scenarios  list the built-in beamforming scenarios

A verb imports what only it uses, so a ``validate`` launch loads only
``config`` and the layers it checks with: ``geometry``, ``channel``,
``ofdm``, ``stats`` and ``errors``.  Those load numpy on first use
(see ``beamfield``), and validation checks on plain floats, so a
``validate`` or ``scenarios`` launch loads no numpy.  ``run`` loads it
when it imports the runner.

A ``run`` launch uses one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS``
says otherwise: the BER path multiplies many small complex matrices, which
threads contending for few cores slow down.

Exit codes: 0 success, 1 validation failure, 2 runtime error or a usage
error (an unknown verb or flag).
"""

import argparse
import os
import sys

from .config import EXPORT_FORMATS, RunConfig, read_yaml, validate
from .errors import BeamfieldError, ConfigError
from .geometry import standard_scenarios


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


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "scenarios": _cmd_scenarios,
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
