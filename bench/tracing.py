"""In-memory span tracing of calls into beamfield's layers.

The benchmark wraps every public module-level function of each layer
module and rebinds every name in the package that refers to it, so a
call is timed whether it comes from the benchmark, from another layer
(``runner`` calling ``ofdm.transmit_frame``) or from inside its own
module (``channel.generate_channel`` calling ``propagation_gains``).
Nothing under ``src/`` is changed; ``Tracer.installed()`` undoes the
rebinding on exit, so untraced runs execute the original functions.

Spans are kept in memory and written out once, at the end.  Each span
records its name (``<module>.<function>``), start, end, parent span and
run id, whether it raised, and attributes: the scenario id, user count,
grid points and frames it was called with (inherited from the parent
when the call's own arguments do not carry them), plus any counters an
observer derives at the boundary.
"""

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import time

import beamfield
from beamfield.channel import ChannelMatrix
from beamfield.config import RunConfig
from beamfield.geometry import ProbeGrid, Scenario
from beamfield.ofdm import OfdmConfig

#: The layers, in pipeline order; every per-layer metric name starts with one.
LAYERS = ("config", "geometry", "channel", "precoding", "linalg", "ofdm", "field",
          "stats", "compliance", "render", "runner", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "failed", "attrs")

    def __init__(self, name, start, parent, run, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.failed = False
        self.attrs = attrs

    @property
    def layer(self):
        return self.name.partition(".")[0]

    @property
    def duration(self):
        return self.end - self.start


def _call_attrs(args, kwargs):
    """Scenario, user count, grid points and frames visible in a call's arguments."""
    attrs = {}
    for value in (*args, *kwargs.values()):
        if isinstance(value, Scenario):
            attrs["scenario"] = value.id
            attrs["users"] = value.n_users
        elif isinstance(value, ChannelMatrix):
            attrs["users"] = value.n_users
        elif isinstance(value, ProbeGrid):
            attrs["grid_points"] = value.n_points
        elif isinstance(value, OfdmConfig):
            attrs["frames"] = value.frames
        elif isinstance(value, RunConfig):
            attrs["frames"] = value.ofdm.frames
    if "scenario_id" in kwargs:
        attrs["scenario"] = kwargs["scenario_id"]
    return attrs


def public_functions(layer):
    """{name: function} for the public functions a layer module defines."""
    module = importlib.import_module(f"beamfield.{layer}")
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Collects spans for the calls made while a run id is set.

    ``observers`` maps a span name to ``f(args, kwargs, result) -> dict``;
    the dict is merged into the span's attributes after the call returns,
    so counters are taken where the work happens without being timed.
    """

    def __init__(self, observers=None):
        self.spans = []
        self.run = None
        self._observers = observers or {}
        # Open spans, innermost last; the workloads run single-threaded.
        self._stack = []

    def _wrap(self, name, fn):
        tracer = self
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.run is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            attrs = dict(parent.attrs) if parent is not None else {}
            attrs.update(_call_attrs(args, kwargs))
            span = Span(name, 0.0, parent, tracer.run, attrs)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                attrs.update(observe(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every reference to a layer function to its traced wrapper."""
        wrappers = {}
        for layer in LAYERS:
            for name, fn in public_functions(layer).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        modules = [beamfield] + [importlib.import_module(f"beamfield.{layer}")
                                 for layer in LAYERS]
        patched = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None and inspect.isfunction(value):
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    @contextlib.contextmanager
    def recording(self, run):
        """Record spans under run id ``run`` for the duration of the block."""
        self.run = run
        try:
            yield
        finally:
            self.run = None

    def write(self, path):
        """Write every span as one gzipped JSON object per line, with its self time."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        selfs = self_times(self.spans)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "run": s.run,
                    "parent": index.get(id(s.parent)),
                    "start": s.start, "end": s.end, "self": selfs[i],
                    "failed": s.failed, "attrs": s.attrs,
                }, sort_keys=True) + "\n")


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(id(s), ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration - covered)
    return out
