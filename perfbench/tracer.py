"""In-memory span tracer that wraps the public functions of ``specinv``.

Each listed function is replaced, in every ``specinv`` module namespace that
binds it, by a wrapper that records one span per call: name, start, end,
parent span and operation id.  ``restore`` puts the original objects back.
A layer's self time is the time its spans cover minus the time covered by
their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) of every traced function; the module is its layer.
TRACED = [
    ("spectral", "stft"),
    ("spectral", "istft"),
    ("spectral", "g_operator"),
    ("projectors", "unit_phasor"),
    ("projectors", "p_mag"),
    ("projectors", "p_cons"),
    ("projectors", "p_mix"),
    ("projectors", "weights_magnitude_ratio"),
    ("losses", "mixing_error"),
    ("losses", "inconsistency"),
    ("losses", "magnitude_mismatch"),
    ("algorithms", "run"),
    ("algorithms", "init_amplitude_mask"),
    ("algorithms", "step_misi"),
    ("algorithms", "step_mix_incons"),
    ("algorithms", "step_mix_incons_hardmag"),
    ("algorithms", "step_incons_hardmix"),
    ("algorithms", "step_mag_incons_hardmix"),
    ("metrics", "sdr"),
    ("signal_io", "read_wav"),
    ("signal_io", "write_wav"),
    ("signal_io", "read_spectrogram"),
    ("signal_io", "make_mixture"),
    ("signal_io", "oracle_magnitudes"),
    ("signal_io", "degrade_magnitudes"),
    ("signal_io", "load_manifest"),
    ("experiment", "run_benchmark"),
    ("experiment", "run_sweep"),
    ("experiment", "select_best"),
    ("experiment", "evaluate_test"),
    ("experiment", "ResultTable.write_csv"),
    ("cli", "main"),
]
LAYERS = ["spectral", "projectors", "losses", "algorithms", "metrics", "signal_io", "experiment", "cli"]
FUNCTIONS = [f"{module}.{attr}" for module, attr in TRACED]

# A step whose output moves less than this, relative to its input, did no work.
NOOP_RTOL = 1e-12
# Span name of the tracer's own no-op check; it belongs to no layer.
CHECK_SPAN = "trace.noop_check"


class Tracer:
    """Records spans while installed; ``with Tracer() as t:`` installs it."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.op = -1
        self.probe_calls = 0
        self.steps = 0
        self.noop_steps = 0
        self.g_bytes = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op))

    def _wrap(self, name: str, fn, via: str):
        tracer = self
        is_step = name.startswith("algorithms.step_")
        is_probe = name == "spectral.istft" and via == "experiment"
        is_g = name == "spectral.g_operator"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if is_probe:
                tracer.probe_calls += 1
            if is_g:
                tracer.g_bytes += np.asarray(args[0]).nbytes + out.nbytes
            if is_step:
                tracer._count_step(args[0], out)
            return out

        return wrapper

    def _count_step(self, before, after):
        with self.span(CHECK_SPAN):
            self.steps += 1
            scale = np.linalg.norm(before.ravel())
            if np.linalg.norm((after - before).ravel()) <= NOOP_RTOL * scale:
                self.noop_steps += 1

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "specinv" or name.startswith("specinv."))
        }
        for layer, attr in TRACED:
            name = f"{layer}.{attr}"
            home = importlib.import_module(f"specinv.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth), layer))
                continue
            original = getattr(home, attr)
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        via = mod_name.rpartition(".")[2]
                        self._patch(mod, key, self._wrap(name, original, via))

    def _patch(self, owner, key, wrapper):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def restore(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return {sid: (end - start) - covered[sid] for sid, _, start, end, _, _ in self.spans}

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-function, per-layer and count metrics as name -> (value, unit)."""
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        own = self.self_times()
        for sid, name, start, end, _, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            layer_self[name.split(".")[0]] += own[sid]
        out: dict[str, tuple[float, str]] = {}
        for name in FUNCTIONS:
            n = calls[name]
            out[f"{name}.calls"] = (n, "count")
            out[f"{name}.mean_ms"] = (total[name] / n * 1e3 if n else 0.0, "ms")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
            out[f"{layer}.share"] = (layer_self[layer] / wall_s, "fraction")
        out["algorithms.steps"] = (self.steps, "count")
        out["algorithms.noop_steps"] = (self.noop_steps, "count")
        useful = (self.steps - self.noop_steps) / self.steps if self.steps else 0.0
        out["algorithms.useful_step_ratio"] = (useful, "fraction")
        out["spectral.istft.probe_calls"] = (self.probe_calls, "count")
        out["spectral.g_operator.bytes_computed"] = (self.g_bytes, "B")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span_id,name,start_s,end_s,parent,op\n")
            for sid, name, start, end, parent, op in sorted(self.spans):
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{op}\n")
