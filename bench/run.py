"""The beamfield benchmark: one workload, one seed, one measurement.

    python3 bench/run.py --workload campaign-default --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The workload YAML is generated from ``--seed`` (see
``bench/workloads.py``) and reaches the program only through
``load_config``.  With ``--trace 0`` the end-to-end metrics are
measured with tracing off; with ``--trace 1`` untraced runs alternate
with traced iterations and the per-layer metrics are reported.

Every metric is printed by name with its unit, then the full record
(machine, seed, quartiles, failures) is written to ``bench/out/``, and
the last line of standard output is the JSON result.  The exit code is
1 when any run raised or failed an output check, 2 when the checkout
has no program to measure.
"""

import argparse
import json
import os
import shlex
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("campaign-default", "exposure-fine-grid", "placement-sweep")


def _parse(argv):
    parser = argparse.ArgumentParser(description="beamfield benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _print_table(metrics, tally):
    print(f"{'metric':<26} {'value':>14} {'unit':<8} {'n':>4} {'q1':>12} {'q3':>12}")
    for name, m in metrics.items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        q1 = f"{m['q1']:.6g}" if "q1" in m else "-"
        q3 = f"{m['q3']:.6g}" if "q3" in m else "-"
        print(f"{name:<26} {value:>14} {m['unit']:<8} {m.get('n', 0):>4} {q1:>12} {q3:>12}")
    frac = tally.failed / tally.attempted
    print(f"{'failed_frac':<26} {frac:>14.6g} {'ratio':<8} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for reason in tally.reasons:
        print(f"  failure: {reason}")


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "beamfield", "__init__.py")):
        print(f"error: no beamfield package under {SRC_DIR}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: the workloads are single-process,
    # single-client, and BLAS threads contending for few cores made run times
    # swing by tens of percent between runs.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC_DIR)

    import harness
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    config_dir = os.path.join(OUT_DIR, "configs", f"seed{args.seed}")
    run_dir = os.path.join(OUT_DIR, "runs", f"{tag}-{os.getpid()}")
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    paths = workloads.write(args.seed, config_dir)
    mapping = workloads.generate(args.seed)[args.workload]
    workload = harness.Workload(args.workload, paths[args.workload], mapping)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": harness.machine_record(ROOT),
              "command": shlex.join(["python3", "bench/run.py", "--workload", args.workload,
                                     "--seed", str(args.seed), "--seconds",
                                     f"{args.seconds:g}", "--trace", str(args.trace)])}
    try:
        if args.trace:
            metrics, per_run, tally, tracer = harness.measure_traced(
                workload, args.seconds, run_dir)
            spans_path = os.path.join(OUT_DIR, "results", f"{tag}.spans.jsonl.gz")
            tracer.write(spans_path)
            record["spans"] = os.path.relpath(spans_path, ROOT)
            record["per_run"] = per_run
            record["unmeasured"] = sorted(n for n, m in metrics.items() if m["value"] is None)
        else:
            metrics, tally = harness.measure_end_to_end(workload, args.seconds, run_dir,
                                                        SRC_DIR)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = tally.failed == 0
    record.update({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.reasons, "metrics": metrics})
    with open(os.path.join(OUT_DIR, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    _print_table(metrics, tally)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
