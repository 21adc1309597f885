"""Spans around the calls into each casfric layer, recorded from outside.

For a traced run, ``Tracer`` replaces a fixed set of public casfric
functions, wherever a casfric module holds them, with wrappers that record a
span: name, start, end, parent and work counts taken from the call's
arguments. With ``memory=True`` each span also gets the ``tracemalloc`` peak
above the memory in use when it began; ``tracemalloc`` triples the time of
the Fock loop's small allocations, so span times come from a pass without
it. The originals are restored on exit; no casfric file is changed. Spans
stay in memory and are written out by ``run.py`` at the end of the run.

A public name that no longer exists makes the traced run fail, so the
tracer cannot silently stop measuring a layer.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
import tracemalloc


def _n(signal):
    return signal.grid.n_samples


# span name -> (module, attribute, counts from the bound call arguments)
TRACED = {
    "core.grid_times": ("casfric.core", "TimeGrid.times", None),
    "coupling.sample": ("casfric.coupling", "sample", lambda a: {"samples": a["grid"].n_samples}),
    "spectral.fourier_numeric": ("casfric.spectral", "fourier_numeric",
                                 lambda a: {"quadrature_samples": _n(a["signal"])}),
    "dissipation.time_domain_amplitude": ("casfric.dissipation", "time_domain_amplitude",
                                          lambda a: {"quadrature_samples": _n(a["signal"])}),
    "dissipation.delta_e_time_domain": ("casfric.dissipation", "delta_e_time_domain", None),
    "dissipation.delta_e_spectral": ("casfric.dissipation", "delta_e_spectral", None),
    "dissipation.compare_routes": ("casfric.dissipation", "compare_routes", lambda a: {"scan_points": 1}),
    "dissipation.adiabatic_scan": ("casfric.dissipation", "adiabatic_scan", None),
    "dissipation.ramp_tail_span": ("casfric.dissipation", "ramp_tail_span", None),
    "oracle.evolve_mode": ("casfric.oracle", "evolve_mode",
                           lambda a: {"mode_steps": (_n(a["signal"]) - 1) * a["substeps"]}),
    "oracle.evolve_fock": ("casfric.oracle", "evolve_fock",
                           lambda a: {"fock_steps": (_n(a["signal"]) - 1) * a["dt_substeps"],
                                      "fock_basis_dim": (a["truncation"] + 1) ** 2}),
    "cli.load_config": ("casfric.cli", "load_config", None),
    "cli.run_scenario": ("casfric.cli", "run_scenario", None),
    "cli.emit_report": ("casfric.cli", "emit_report", None),
}


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self._stack = []
        self._restore = []  # (namespace, attribute, original)

    def __enter__(self):
        # import first, so no module binds a wrapper by name while patching
        modules = {name: importlib.import_module(module_name)
                   for name, (module_name, _, _) in TRACED.items()}
        for name, (_, attribute, counter) in TRACED.items():
            module = modules[name]
            owner_name, _, leaf = attribute.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, leaf)
            wrapper = self._wrap(original, name, counter)
            if owner is module:
                # every casfric module that imported the function by name
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "casfric" or mod_name.startswith("casfric."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._restore.append((mod, key, original))
                                setattr(mod, key, wrapper)
            else:
                self._restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.memory:
            tracemalloc.stop()
        for namespace, key, original in reversed(self._restore):
            setattr(namespace, key, original)
        self._restore.clear()
        return False

    def _wrap(self, function, name, counter):
        signature = inspect.signature(function)
        stack, spans, memory = self._stack, self.spans, self.memory

        def traced(*args, **kwargs):
            counts = {}
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments)
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1]["id"] if stack else None, "counts": counts}
            spans.append(span)
            if memory:
                current, peak = tracemalloc.get_traced_memory()
                if stack:
                    stack[-1]["_top"] = max(stack[-1]["_top"], peak)
                tracemalloc.reset_peak()
                span["_base"] = span["_top"] = current
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return function(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if memory:
                    top = max(span.pop("_top"), tracemalloc.get_traced_memory()[1])
                    span["peak_mb"] = (top - span.pop("_base")) / 2**20
                    if stack:
                        stack[-1]["_top"] = max(stack[-1]["_top"], top)
                    tracemalloc.reset_peak()

        return traced


def finish(timed, measured):
    """Spans of the timing pass, with ``peak_mb`` from the memory pass and
    ``self_s``: duration minus the time covered by child spans.

    Both passes made the same calls in the same order.
    """
    if [s["name"] for s in timed] != [s["name"] for s in measured]:
        raise RuntimeError("the timing and memory passes made different calls")
    for span, other in zip(timed, measured):
        span["peak_mb"] = other["peak_mb"]
        span["self_s"] = span["end"] - span["start"]
    for span in timed:
        if span["parent"] is not None:
            timed[span["parent"]]["self_s"] -= span["end"] - span["start"]
    return timed


def layer_metrics(spans, failed_checks_by_layer):
    """Per-layer metrics of one traced run (see README.md for each name)."""
    seconds, peak_mb, counts = {}, {}, {}
    for span in spans:
        name = span["name"]
        seconds[name] = seconds.get(name, 0.0) + span["end"] - span["start"]
        peak_mb[name] = max(peak_mb.get(name, 0.0), span["peak_mb"])
        for key, value in span["counts"].items():
            if key == "fock_basis_dim":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value

    def per_step_us(span_name, steps_key):
        steps = counts.get(steps_key, 0)
        return 1e6 * seconds.get(span_name, 0.0) / steps if steps else 0.0

    return {
        "cli.load_config_s": seconds.get("cli.load_config", 0.0),
        "cli.run_scenario_s": seconds.get("cli.run_scenario", 0.0),
        "cli.emit_report_s": seconds.get("cli.emit_report", 0.0),
        "cli.failures": failed_checks_by_layer.get("cli", 0),
        "core.grid_times_s": seconds.get("core.grid_times", 0.0),
        "coupling.sample_s": seconds.get("coupling.sample", 0.0),
        "coupling.samples": counts.get("samples", 0),
        "coupling.sample_peak_mb": peak_mb.get("coupling.sample", 0.0),
        "spectral.fourier_numeric_s": seconds.get("spectral.fourier_numeric", 0.0),
        "spectral.fourier_numeric_peak_mb": peak_mb.get("spectral.fourier_numeric", 0.0),
        "dissipation.time_domain_amplitude_s": seconds.get("dissipation.time_domain_amplitude", 0.0),
        "dissipation.time_domain_amplitude_peak_mb": peak_mb.get("dissipation.time_domain_amplitude", 0.0),
        "dissipation.ramp_tail_span_s": seconds.get("dissipation.ramp_tail_span", 0.0),
        "dissipation.scan_points": counts.get("scan_points", 0),
        "dissipation.quadrature_samples": counts.get("quadrature_samples", 0),
        "dissipation.failures": failed_checks_by_layer.get("dissipation", 0),
        "oracle.evolve_mode_s": seconds.get("oracle.evolve_mode", 0.0),
        "oracle.mode_steps": counts.get("mode_steps", 0),
        "oracle.mode_us_per_step": per_step_us("oracle.evolve_mode", "mode_steps"),
        "oracle.evolve_mode_peak_mb": peak_mb.get("oracle.evolve_mode", 0.0),
        "oracle.evolve_fock_s": seconds.get("oracle.evolve_fock", 0.0),
        "oracle.fock_steps": counts.get("fock_steps", 0),
        "oracle.fock_us_per_step": per_step_us("oracle.evolve_fock", "fock_steps"),
        "oracle.fock_basis_dim": counts.get("fock_basis_dim", 0),
        "oracle.failures": failed_checks_by_layer.get("oracle", 0),
    }
