"""Measurement, output checks and metrics of the beamfield benchmark.

``measure_end_to_end`` times ``beamfield.run`` with tracing off and
times fresh ``beamfield validate`` processes; ``measure_traced``
alternates untraced runs with traced iterations and derives the
per-layer metrics from the spans.  Every run is checked; a run that
raises or fails a check counts as failed and is never retried.
"""

import contextlib
import csv
import ctypes
import glob
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import beamfield
import beamfield.cli
from tracing import LAYERS, Tracer, self_times

# Captured before any tracing rebinds it: checks must not create spans.
_verify_manifest = beamfield.runner.verify_manifest

# Users of the built-in scenarios "1".."8" (README: one to three users).
_BUILTIN_USERS = {str(i + 1): n for i, n in enumerate((1, 1, 1, 2, 2, 2, 2, 3))}
# ICNIRP, Italy and Poland: one compliance report each.
_REGIONS = 3
# The paper's operating point: every built-in link decodes at BER <= 1e-2.
_CAMPAIGN_MAX_BER = 1e-2
_CAMPAIGN_MIN_BITS = 1_000_000

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

SETUP_LAUNCHES = 9
# Timed runs made even when one run outlasts --seconds, so quartiles exist.
MIN_SAMPLES = 3


class Workload:
    """One generated workload: its YAML path and what a run of it must produce."""

    def __init__(self, name, path, mapping):
        self.name = name
        self.path = path
        custom = {c["id"]: len(c["ue_positions"])
                  for c in mapping.get("custom_scenarios", [])}
        users = {**_BUILTIN_USERS, **custom}
        ids = mapping["scenarios"]
        formats = mapping["formats"]
        o = mapping["ofdm"]
        slots = o["active_subcarriers"] * (o["frame_samples"] // o["fft_size"])
        self.links = sum(users[s] for s in ids)
        self.bits = o["frames"] * slots * 6
        self.expected_artifacts = ((len(ids) + 1) * len(formats) + 1 + ("json" in formats)
                                   + 1 + 2 + _REGIONS)


def check_output(workload, out_dir, first_manifest):
    """Problems with one run's artifacts; an empty list means the run is correct.

    ``first_manifest`` holds the manifest bytes of the workload's first run
    in this process (set on the first call): every later run must match it
    byte for byte.  No exact BER value is compared.
    """
    try:
        return _output_problems(workload, out_dir, first_manifest)
    except (OSError, ValueError, KeyError) as exc:
        return [f"artifacts unreadable: {type(exc).__name__}: {exc}"]


def _output_problems(workload, out_dir, first_manifest):
    problems = []
    mismatched = _verify_manifest(out_dir)
    if mismatched:
        problems.append(f"hash mismatch: {mismatched[:3]}")
    with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
        manifest = fh.read()
    count = len(json.loads(manifest)["artifacts"])
    if count != workload.expected_artifacts:
        problems.append(f"{count} artifacts, expected {workload.expected_artifacts}")
    if not first_manifest:
        first_manifest.append(manifest)
    elif manifest != first_manifest[0]:
        problems.append("manifest differs from the first run of this workload")

    with open(os.path.join(out_dir, "ber.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != workload.links:
        problems.append(f"{len(rows)} BER rows, expected {workload.links}")
    for row in rows:
        ber, bits = float(row["ber"]), int(row["bits"])
        link = f"scenario {row['scenario']} ue {row['ue']}"
        if not 0.0 <= ber <= 0.5:
            problems.append(f"{link}: BER {ber} outside [0, 0.5]")
        if bits != workload.bits:
            problems.append(f"{link}: {bits} bits, expected {workload.bits}")
        if workload.name == "campaign-default" and (
                ber > _CAMPAIGN_MAX_BER or bits < _CAMPAIGN_MIN_BITS):
            problems.append(f"{link}: BER {ber} at {bits} bits misses the "
                            f"campaign operating point (<= {_CAMPAIGN_MAX_BER:g}, "
                            f">= {_CAMPAIGN_MIN_BITS} bits)")
    return problems


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append("; ".join(problems)[:500])


def _timed_run(workload, config, out_dir, tally, first_manifest):
    """One checked ``beamfield.run``; returns its wall time, or None if it failed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        beamfield.run(config, out_dir)
    except Exception as exc:  # a raising run is a counted failure, not a crash
        tally.record([f"run raised {type(exc).__name__}: {exc}"])
        return None
    elapsed = time.perf_counter() - start
    problems = check_output(workload, out_dir, first_manifest)
    tally.record(problems)
    return None if problems else elapsed


def summarise(samples):
    """Median, quartiles and sample count of a list of numbers."""
    if not samples:
        return {"value": None, "n": 0}
    if len(samples) == 1:
        return {"value": samples[0], "n": 1, "q1": samples[0], "q3": samples[0]}
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return {"value": statistics.median(samples), "n": len(samples), "q1": q1, "q3": q3,
            "samples": samples}


def _validate_process(workload, src_dir, tally):
    """Wall time of a fresh ``beamfield validate`` process, or None if it failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "beamfield.cli", "validate", "--config", workload.path],
            env=env, capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        tally.record(["validate did not finish within 60 s"])
        return None
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and "configuration OK" in proc.stdout
    tally.record([] if ok else [f"validate exited {proc.returncode}: "
                                f"{(proc.stdout + proc.stderr).strip()[:300]}"])
    return elapsed if ok else None


def measure_end_to_end(workload, seconds, out_dir, src_dir):
    """End-to-end metrics with tracing off: run_s, setup_s, peak_rss_mib."""
    tally = Tally()
    # The first launch compiles bytecode into the checkout; it is not timed.
    _validate_process(workload, src_dir, Tally())
    config = beamfield.load_config(workload.path)
    first_manifest = []
    _timed_run(workload, config, out_dir, tally, first_manifest)  # warm-up
    runs, setup = [], []
    launches = attempts = 0
    deadline = time.perf_counter() + seconds
    # Set-up launches are interleaved with the runs, so both sample the
    # whole window of a host whose speed drifts over tens of seconds.
    while time.perf_counter() < deadline or attempts < MIN_SAMPLES:
        attempts += 1
        start = time.perf_counter()
        runs.append(_timed_run(workload, config, out_dir, tally, first_manifest))
        # Sustained load slowed this host by up to 40 % within minutes; idling
        # as long as each run keeps back-to-back benchmark runs comparable.
        time.sleep(time.perf_counter() - start)
        if launches < SETUP_LAUNCHES:
            launches += 1
            setup.append(_validate_process(workload, src_dir, tally))
    for _ in range(launches, SETUP_LAUNCHES):
        setup.append(_validate_process(workload, src_dir, tally))
    runs = [t for t in runs if t is not None]
    setup = [t for t in setup if t is not None]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "run_s": summarise(runs),
        "setup_s": summarise(setup),
        "peak_rss_mib": {"value": peak_kib / 1024.0, "n": 1},
    }
    for name, m in metrics.items():
        m["unit"] = END_TO_END_UNITS[name]
    return metrics, tally


# ---------------------------------------------------------------- tracing


def _binder(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


_bind_transmit = _binder(beamfield.ofdm.transmit_frame)
_bind_gains = _binder(beamfield.channel.propagation_gains)


def _observe_transmit(args, kwargs, result):
    """Bits tested and the computed cost of the flat-channel frame path.

    Per frame and slot: the precoder product W s (n_tx x k complex
    multiply-adds), each user's H_u x (a x n_tx each) and its combining
    c^H y (a each), at 8 real flops per complex multiply-add; the
    transmit block W s is n_tx x slots complex128 values per frame.
    """
    a = _bind_transmit(args, kwargs)
    cfg, n_tx = a["cfg"], a["precoder"].w.shape[0]
    k, m = len(result.per_ue_ber), a["h_true"].antennas_per_ue
    samples = cfg.frames * cfg.active_subcarriers * cfg.symbols_per_frame
    return {
        "bits": k * result.bits_tested,
        "flop": 8 * samples * k * (n_tx + m * n_tx + m),
        "tx_bytes": 16 * samples * n_tx,
    }


def _observe_gains(args, kwargs, result):
    """Gain entries computed and a key naming the distinct gain matrix."""
    a = _bind_gains(args, kwargs)
    digest = hashlib.sha1()
    for name in ("tx_points", "rx_points"):
        digest.update(np.ascontiguousarray(a[name], dtype=float).tobytes())
    digest.update(repr((a["frequency"], a.get("room"), a.get("mode"),
                        a.get("pattern"))).encode())
    return {"entries": int(result.shape[0] * result.shape[1]), "key": digest.hexdigest()}


def _observe_text(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _observe_run(args, kwargs, result):
    out_dir = result.out_dir
    paths = result.paths() + ["manifest.json"]
    return {"artifacts": len(result.artifacts),
            "artifact_bytes": sum(os.path.getsize(os.path.join(out_dir, p)) for p in paths)}


OBSERVERS = {
    "ofdm.transmit_frame": _observe_transmit,
    "channel.propagation_gains": _observe_gains,
    "render.heatmap_svg": _observe_text,
    "render.heatmap_ascii": _observe_text,
    "runner.run": _observe_run,
}


class RunSpans:
    """The spans of one traced iteration, with the sums the metrics need."""

    def __init__(self, spans, selfs):
        self.spans = spans
        self.selfs = selfs
        self.names = {s.name for s in spans}
        self.layers = {s.layer for s in spans}

    def total(self, *names):
        return sum(s.duration for s in self.spans if s.name in names)

    def count(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def attr(self, name, key):
        return sum(s.attrs.get(key, 0) for s in self.spans if s.name == name)

    def layer_self(self, layer):
        return sum(t for s, t in zip(self.spans, self.selfs) if s.layer == layer)

    def layer_outer(self, layer):
        """Time inside the layer, counting nested calls within it once."""
        return sum(s.duration for s in self.spans if s.layer == layer
                   and (s.parent is None or s.parent.layer != layer))

    def layer_failed(self, layer):
        return sum(1 for s in self.spans if s.layer == layer and s.failed)

    def gains_useful_frac(self):
        keys = [s.attrs["key"] for s in self.spans
                if s.name == "channel.propagation_gains"
                and s.parent is not None and s.parent.layer == "field"]
        return len(set(keys)) / len(keys)


# name -> (unit, span names that must fire, value from one iteration's RunSpans).
# A name ending in "." requires any span of that layer.
_TRANSMIT = "ofdm.transmit_frame"
_HEATMAP = "field.compute_heatmap"
_GAINS = "channel.propagation_gains"
LAYER_METRICS = {
    "ofdm.transmit_s": ("s", [_TRANSMIT], lambda r: r.total(_TRANSMIT)),
    "ofdm.bits": ("count", [_TRANSMIT], lambda r: r.attr(_TRANSMIT, "bits")),
    "ofdm.mbit_per_s": ("Mbit/s", [_TRANSMIT],
                        lambda r: r.attr(_TRANSMIT, "bits") / r.total(_TRANSMIT) / 1e6),
    "ofdm.gflop_computed": ("Gflop", [_TRANSMIT], lambda r: r.attr(_TRANSMIT, "flop") / 1e9),
    "ofdm.tx_mib_computed": ("MiB", [_TRANSMIT],
                             lambda r: r.attr(_TRANSMIT, "tx_bytes") / 2 ** 20),
    "field.heatmap_s": ("s", [_HEATMAP], lambda r: r.total(_HEATMAP)),
    "field.heatmap_calls": ("count", [_HEATMAP], lambda r: r.count(_HEATMAP)),
    "field.probe_points": ("count", [_HEATMAP], lambda r: r.attr(_HEATMAP, "grid_points")),
    "field.gains_useful_frac": ("ratio", [_HEATMAP, _GAINS], RunSpans.gains_useful_frac),
    "channel.gains_s": ("s", [_GAINS], lambda r: r.total(_GAINS)),
    "channel.gains_calls": ("count", [_GAINS], lambda r: r.count(_GAINS)),
    "channel.gain_entries": ("count", [_GAINS], lambda r: r.attr(_GAINS, "entries")),
    "channel.generate_s": ("s", ["channel.generate_channel"],
                           lambda r: r.total("channel.generate_channel")),
    "channel.estimate_s": ("s", ["channel.estimate_csi"],
                           lambda r: r.total("channel.estimate_csi")),
    "precoding.combining_s": ("s", ["precoding.combining_vectors"],
                              lambda r: r.total("precoding.combining_vectors")),
    "precoding.zf_s": ("s", ["precoding.zf_precoder"], lambda r: r.total("precoding.zf_precoder")),
    "linalg.pinv_s": ("s", ["linalg.right_pseudo_inverse"],
                      lambda r: r.total("linalg.right_pseudo_inverse")),
    "render.svg_s": ("s", ["render.heatmap_svg"], lambda r: r.total("render.heatmap_svg")),
    "render.ascii_s": ("s", ["render.heatmap_ascii"], lambda r: r.total("render.heatmap_ascii")),
    "render.bytes": ("B", ["render.heatmap_svg", "render.heatmap_ascii"],
                     lambda r: r.attr("render.heatmap_svg", "bytes")
                     + r.attr("render.heatmap_ascii", "bytes")),
    "runner.run_s": ("s", ["runner.run"], lambda r: r.total("runner.run")),
    "runner.artifacts": ("count", ["runner.run"], lambda r: r.attr("runner.run", "artifacts")),
    "runner.artifact_bytes": ("B", ["runner.run"],
                              lambda r: r.attr("runner.run", "artifact_bytes")),
    "config.validate_s": ("s", ["config.validate"], lambda r: r.total("config.validate")),
    "config.load_s": ("s", ["config.load_config"], lambda r: r.total("config.load_config")),
    "geometry.build_s": ("s", ["geometry.build_grid", "geometry.build_array"],
                         lambda r: r.total("geometry.build_grid", "geometry.build_array")),
    "cli.validate_s": ("s", ["cli.main"], lambda r: r.total("cli.main")),
    "stats.aggregate_s": ("s", ["stats."], lambda r: r.layer_outer("stats")),
    "compliance.check_s": ("s", ["compliance."], lambda r: r.layer_outer("compliance")),
}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.self_s"] = (
        "s", [f"{_layer}."], lambda r, layer=_layer: r.layer_self(layer))
    LAYER_METRICS[f"{_layer}.failed"] = (
        "count", [f"{_layer}."], lambda r, layer=_layer: r.layer_failed(layer))
OVERHEAD_METRIC = "trace.overhead_frac"
PER_LAYER_UNITS = {name: spec[0] for name, spec in LAYER_METRICS.items()}
PER_LAYER_UNITS[OVERHEAD_METRIC] = "ratio"


def _fired(run_spans, required):
    return all((name[:-1] in run_spans.layers) if name.endswith(".")
               else (name in run_spans.names) for name in required)


def per_run_values(tracer):
    """{metric: [value per traced iteration]}, None where a source span never fired."""
    by_run = {}
    selfs = self_times(tracer.spans)
    for span, t in zip(tracer.spans, selfs):
        spans, times = by_run.setdefault(span.run, ([], []))
        spans.append(span)
        times.append(t)
    runs = [RunSpans(*by_run[run]) for run in sorted(by_run)]
    return {name: [fn(r) if _fired(r, required) else None for r in runs]
            for name, (unit, required, fn) in LAYER_METRICS.items()}


def traced_iteration(workload, out_dir, tracer, run_id, tally, first_manifest):
    """Validate through the CLI, load the config and run, all traced; returns run wall time."""
    shutil.rmtree(out_dir, ignore_errors=True)
    with tracer.installed(), tracer.recording(run_id):
        with contextlib.redirect_stdout(io.StringIO()):
            status = beamfield.cli.main(["validate", "--config", workload.path])
        if status != 0:
            tally.record([f"traced validate returned {status}"])
            return None
        config = beamfield.load_config(workload.path)
        start = time.perf_counter()
        try:
            beamfield.run(config, out_dir)
        except Exception as exc:  # counted as a failed run, as in untraced runs
            tally.record([f"traced run raised {type(exc).__name__}: {exc}"])
            return None
        elapsed = time.perf_counter() - start
    problems = check_output(workload, out_dir, first_manifest)
    tally.record(problems)
    return None if problems else elapsed


def measure_traced(workload, seconds, out_dir, min_iterations=MIN_SAMPLES):
    """Per-layer metrics: traced iterations alternated with untraced runs.

    Returns (metrics, per-run values, tally, tracer).  A metric whose
    spans never fired is reported with value None: unmeasured, not 0.
    """
    tally = Tally()
    tracer = Tracer(OBSERVERS)
    config = beamfield.load_config(workload.path)
    first_manifest = []
    _timed_run(workload, config, out_dir, tally, first_manifest)  # warm-up
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < min_iterations:
        # Alternate which goes first, so drift during a run hits both alike.
        for traced_step in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_step:
                traced.append(traced_iteration(workload, out_dir, tracer, i, tally,
                                               first_manifest))
            else:
                plain.append(_timed_run(workload, config, out_dir, tally, first_manifest))
        i += 1
    values = per_run_values(tracer)
    metrics = {}
    for name, series in values.items():
        present = [v for v in series if v is not None]
        metrics[name] = {**summarise(present), "unit": PER_LAYER_UNITS[name]}
    plain = [t for t in plain if t is not None]
    traced = [t for t in traced if t is not None]
    overhead = (statistics.median(traced) / statistics.median(plain) - 1.0
                if plain and traced else None)
    metrics[OVERHEAD_METRIC] = {"value": overhead, "n": min(len(plain), len(traced)),
                                "unit": "ratio", "untraced_s": plain, "traced_s": traced}
    return metrics, values, tally, tracer


# ---------------------------------------------------------------- machine record


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded; None if unknown."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root):
    """HEAD commit of the checkout; None when it is not a git clone."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_record(root):
    nproc = len(os.sched_getaffinity(0))
    blas_threads = _blas_threads()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": blas_threads,
        "blas_threads_within_nproc": blas_threads is not None and blas_threads <= nproc,
        "git_commit": _git_commit(root),
    }
