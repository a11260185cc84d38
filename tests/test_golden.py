"""Byte identity: each golden input runs to the artifact bytes recorded for it.

The inputs are ``configs/paper-defaults.yaml`` and the three benchmark
workloads in ``tests/golden/``, written once by
``python3 bench/workloads.py --seed 211 --out tests/golden`` and kept as
files, so a change to the workload generator moves no golden input.
``tests/golden/hashes.json`` holds, per input, the sha256 of every file its
run writes, ``manifest.json`` included, and the platform they were
recorded on: Python, numpy, numpy's BLAS build, the BLAS kernel that
computes (an OpenBLAS ``DYNAMIC_ARCH`` build picks one per CPU at load),
the C library and the machine.  On every
platform each input runs, its manifest verifies and it writes exactly the
files the record lists.  Bytes are promised on the recorded platform only;
elsewhere the byte comparison reports skipped and names the fields that
differ.

A change that moves artifacts on purpose re-records the hashes with
``PYTHONPATH=src python3 tests/test_golden.py`` and says which paths moved.
"""

import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest

from beamfield import load_config, run, verify_manifest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
RECORD = os.path.join(GOLDEN, "hashes.json")
INPUTS = {
    "paper-defaults": os.path.join(HERE, "..", "configs", "paper-defaults.yaml"),
    **{name: os.path.join(GOLDEN, f"{name}.yaml")
       for name in ("campaign-default", "exposure-fine-grid", "placement-sweep")},
}


def blas_core():
    """The kernel the OpenBLAS that numpy loaded runs on this CPU; None if unknown.

    The build string names the kernel the wheel was built for; a
    ``DYNAMIC_ARCH`` build may run another, picked for the CPU at load.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode("ascii")
    return None


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
            "blas_core": blas_core(), "libc": " ".join(platform.libc_ver()).strip() or None,
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
    golden, hashes = record["runs"][name], artifact_hashes(name, tmp_path)
    assert verify_manifest(str(tmp_path)) == []
    assert sorted(hashes) == sorted(golden), f"{name}: the run writes other files than recorded"
    here = provenance()
    differ = [key for key in record["provenance"] if record["provenance"][key] != here.get(key)]
    if differ:
        pytest.skip(f"recorded on another platform; these fields differ: {', '.join(differ)}")
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
