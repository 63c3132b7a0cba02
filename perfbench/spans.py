"""Spans around calls into bpire's public functions, recorded from outside.

`Tracer.install()` replaces each traced function, in every bpire module
namespace that holds it, by a wrapper that records a span (layer, start,
end, parent) and the counts named below; `uninstall()` puts the originals
back.  Spans stay in memory until `layer_metrics` folds them into per-layer
self times and `spans_json` writes them out.  The package itself is not
changed: only names it looks up at call time are swapped.

A layer's self time is the time its spans cover minus the time their
direct child spans cover.  Chunk samplers get their own layer, so the glue
around thinning and immigration (the backward sum, the perpetuity product)
is visible rather than folded into `experiments`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

import numpy as np


def _env_draws(args, counts):
    counts["env_draws"] += int(args[2])


def _thin_entries(args, counts):
    values = np.asarray(args[1])
    counts["thin_entries"] += values.size
    counts["thin_active"] += int(np.count_nonzero(values))


def _immigration_draws(args, counts):
    counts["immigration_draws"] += int(args[2])


def _kernel_states(args, counts):
    counts["kernel_states"] += int(args[1]) + 1


def _streams(args, counts):
    counts["streams"] += 1


# (module, attribute, layer, counter) of every traced function.  A counter
# reads the call's positional arguments, as bpire passes them, before the
# call runs.  imm_for_batch only dispatches to sample_immigration_batch, so
# counting the latter counts every immigration draw once.
TRACED = (
    ("bpire.config", "load_config", "config.load", None),
    ("bpire.env_model", "check_conditions", "env_model.check_conditions", None),
    ("bpire.env_model", "draw_env_batch", "env_model.draw_env_batch", _env_draws),
    ("bpire.simulator", "thin_for_batch", "simulator.thin", _thin_entries),
    ("bpire.simulator", "imm_for_batch", "simulator.immigration", None),
    ("bpire.simulator", "sample_immigration_batch", "simulator.immigration", _immigration_draws),
    ("bpire.simulator", "sample_stationary_backward_batch", "simulator.stationary_chunk", None),
    ("bpire.simulator", "random_sum_batch", "simulator.count_chunk", None),
    ("bpire.simulator", "grey_sum_batch", "simulator.count_chunk", None),
    ("bpire.simulator", "unit_progeny_batch", "simulator.count_chunk", None),
    ("bpire.sre_compare", "sample_perpetuity_batch", "sre_compare.perpetuity_chunk", None),
    ("bpire.experiments", "run_experiment", "experiments", None),
    ("bpire.experiments", "emit_report", "experiments.emit", None),
    ("bpire.tailstats", "tail_ratio", "tailstats.tail_ratio", None),
    ("bpire.tailstats", "ratio_from_counts", "tailstats.tail_ratio", None),
    ("bpire.tailstats", "hill_estimate", "tailstats.hill", None),
    ("bpire.tailstats", "hill_sweep", "tailstats.hill", None),
    ("bpire.tailstats", "grid_from_levels", "tailstats.grid", None),
    ("bpire.oracle", "build_kernel", "oracle.build_kernel", _kernel_states),
    ("bpire.oracle", "stationary_power_iteration", "oracle.power_iteration", None),
)
# RngState's stream constructors, traced on the class as layer "rng"
RNG_METHODS = ("from_seed", "split")
ROOT = "bench"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start_ns, end_ns, parent]
        self.stack: list[int] = []
        self.counts = {
            k: 0
            for k in ("env_draws", "thin_entries", "thin_active", "immigration_draws", "kernel_states", "streams")
        }
        self._saved: list[tuple[object, str, object]] = []

    # ---- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark's own code."""
        idx = self._open(layer)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, 0, 0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, layer: str, counter=None):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(args, counts)
            idx = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # ---- patching -----------------------------------------------------------

    def install(self) -> None:
        for mod_name, _, _, _ in TRACED:
            importlib.import_module(mod_name)
        modules = [m for name, m in sys.modules.items() if name == "bpire" or name.startswith("bpire.")]
        for mod_name, attr, layer, counter in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, layer, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, value))
                        setattr(mod, name, wrapper)
        rng_state = sys.modules["bpire.rng"].RngState
        for name in RNG_METHODS:
            raw = rng_state.__dict__[name]
            self._saved.append((rng_state, name, raw))
            bound = getattr(rng_state, name)
            if isinstance(raw, classmethod):
                setattr(rng_state, name, staticmethod(self._wrap(bound, "rng", _streams)))
            else:
                setattr(rng_state, name, self._wrap(raw, "rng", _streams))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    # ---- reduction ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer."""
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for (layer, start, end, _), kids in zip(self.spans, child_ns):
            out[layer] = out.get(layer, 0.0) + (end - start - kids) / 1e9
        return out

    def mean_ms(self, layer: str) -> float:
        """Mean inclusive duration of a layer's spans, in ms (0 if none)."""
        durs = [end - start for name, start, end, _ in self.spans if name == layer]
        return sum(durs) / len(durs) / 1e6 if durs else 0.0

    def spans_json(self) -> list[dict]:
        return [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark, as name -> (value, unit).

    Layers that did not run in the workload read 0.  `trace.remainder_s` is
    the traced wall time no layer's self time accounts for: the root span's
    own time, spent in the benchmark's glue between calls.
    """
    self_s = tracer.self_times()
    c = tracer.counts

    def s(layer):
        return (self_s.get(layer, 0.0), "s")

    return {
        "config.load_s": s("config.load"),
        "env_model.check_conditions_s": s("env_model.check_conditions"),
        "env_model.draw_env_batch_s": s("env_model.draw_env_batch"),
        "env_model.env_draws": (c["env_draws"], "count"),
        "simulator.thin_s": s("simulator.thin"),
        "simulator.thin_entries": (c["thin_entries"], "count"),
        "simulator.thin_active_share": (c["thin_active"] / c["thin_entries"] if c["thin_entries"] else 0.0, "share"),
        "simulator.immigration_s": s("simulator.immigration"),
        "simulator.immigration_draws": (c["immigration_draws"], "count"),
        "simulator.chunk_self_s": (
            self_s.get("simulator.stationary_chunk", 0.0) + self_s.get("simulator.count_chunk", 0.0),
            "s",
        ),
        "simulator.stationary_chunk_ms": (tracer.mean_ms("simulator.stationary_chunk"), "ms"),
        "simulator.count_chunk_ms": (tracer.mean_ms("simulator.count_chunk"), "ms"),
        "sre_compare.perpetuity_chunk_ms": (tracer.mean_ms("sre_compare.perpetuity_chunk"), "ms"),
        "sre_compare.self_s": s("sre_compare.perpetuity_chunk"),
        "rng.split_s": s("rng"),
        "rng.streams": (c["streams"], "count"),
        "experiments.self_s": s("experiments"),
        "experiments.emit_s": s("experiments.emit"),
        "tailstats.tail_ratio_s": s("tailstats.tail_ratio"),
        "tailstats.hill_s": s("tailstats.hill"),
        "tailstats.grid_s": s("tailstats.grid"),
        "oracle.build_kernel_s": s("oracle.build_kernel"),
        "oracle.power_iteration_s": s("oracle.power_iteration"),
        "oracle.kernel_states": (c["kernel_states"], "count"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.remainder_s": s(ROOT),
        "trace.overhead_s": (traced_wall_s - untraced_wall_s, "s"),
    }
