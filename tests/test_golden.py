"""Byte identity: each golden input runs to the artifact bytes recorded for it.

The inputs are ``configs/paper-defaults.yaml`` and the three benchmark
workloads in ``tests/golden/``, written once by
``python3 bench/workloads.py --seed 211 --out tests/golden`` and kept as
files, so a change to the workload generator moves no golden input.
``tests/golden/hashes.json`` holds, per input, the sha256 of every file its
run writes, ``manifest.json`` included, and the platform they were
recorded on: Python, numpy, numpy's BLAS build and the machine.  Bytes are
promised on that platform only; elsewhere the test reports skipped and
names the fields that differ.

A change that moves artifacts on purpose re-records the hashes with
``PYTHONPATH=src python3 tests/test_golden.py`` and says which paths moved.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest

from beamfield import load_config, run

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
RECORD = os.path.join(GOLDEN, "hashes.json")
INPUTS = {
    "paper-defaults": os.path.join(HERE, "..", "configs", "paper-defaults.yaml"),
    **{name: os.path.join(GOLDEN, f"{name}.yaml")
       for name in ("campaign-default", "exposure-fine-grid", "placement-sweep")},
}


def provenance():
    """The platform fields the artifact bytes may depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its configuration only
        blas = None
    else:
        # The directories are where the wheel was built, not what computes.
        blas = {key: value for key, value in blas.items() if "directory" not in key}
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "machine": platform.machine()}


def artifact_hashes(name, out_dir):
    """{file name: sha256} of everything the run of input ``name`` writes to ``out_dir``."""
    run(load_config(INPUTS[name]), out_dir=str(out_dir))
    hashes = {}
    for path in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, path), "rb") as fh:
            hashes[path] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_a_run_writes_its_golden_bytes(tmp_path, name):
    with open(RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    here = provenance()
    differ = [key for key in record["provenance"] if record["provenance"][key] != here.get(key)]
    if differ:
        pytest.skip(f"recorded on another platform; these fields differ: {', '.join(differ)}")
    golden, hashes = record["runs"][name], artifact_hashes(name, tmp_path)
    moved = sorted(path for path in golden.keys() | hashes.keys()
                   if golden.get(path) != hashes.get(path))
    assert moved == [], f"{name}: these artifacts differ from the golden record: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        runs = {name: artifact_hashes(name, os.path.join(scratch, name))
                for name in sorted(INPUTS)}
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance(), "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"recorded {sum(map(len, runs.values()))} hashes in {RECORD}\n")
