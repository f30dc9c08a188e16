"""Spans around the public functions of each confunc layer.

The wrappers are installed from outside the package, in the CLI process,
after ``confunc.cli`` is imported. Modules bind library names at import
time (``from .slepian import lambda0``), so every module attribute that
holds a wrapped function is replaced, not only the defining one.

Each span is ``[layer, start, end, parent, detail]``: ``parent`` is the
index of the enclosing span in the same process, ``detail`` an optional
per-call measurement (bytes, targets, cells). Spans stay in memory and
are written as JSON when the process ends; :func:`pass_metrics` turns the
span lists of one workload pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import zlib

# (layer, module, function); one layer may cover several functions
TARGETS = [
    ("numerics.largest_eigenpair", "numerics", "largest_eigenpair"),
    ("numerics.gauss_legendre", "numerics", "gauss_legendre"),
    ("numerics.erf_inverse", "numerics", "erf_inverse"),
    ("numerics.sine_integral", "numerics", "sine_integral"),
    ("slepian.kernel_matrix", "slepian", "kernel_matrix"),
    ("slepian.lambda0", "slepian", "lambda0"),
    ("slepian.lambda0_inverse", "slepian", "lambda0_inverse"),
    ("slepian.lambda0_inverse_batch", "slepian", "lambda0_inverse_batch"),
    ("slepian.a_matrix", "slepian", "a_matrix"),
    ("slepian.principal_slepian", "slepian", "principal_slepian"),
    ("slepian.evaluate_principal", "slepian", "evaluate_principal"),
    ("states.fourier_transform", "states", "fourier_transform"),
    ("states.inverse_fourier_transform", "states", "inverse_fourier_transform"),
    ("states.probability_in_interval", "states", "probability_in_interval"),
    ("states.verify_lenard", "states", "verify_lenard"),
    ("states.rect_sinc_state", "states", "rect_sinc_state"),
    ("bounds.report", "bounds", "report"),
    ("bounds.closed_form", "bounds", "lp_measurable_bound"),
    ("bounds.closed_form", "bounds", "donoho_stark_bound"),
    ("cli.main", "cli", "main"),
]

# layers that call other traced layers, so self time differs from busy time
PARENT_LAYERS = [
    "numerics.sine_integral",
    "slepian.lambda0",
    "slepian.lambda0_inverse",
    "slepian.lambda0_inverse_batch",
    "slepian.principal_slepian",
    "states.verify_lenard",
    "states.rect_sinc_state",
    "bounds.report",
    "cli.main",
]

_INVERSIONS = ("slepian.lambda0_inverse", "slepian.lambda0_inverse_batch")


def _matrix_bytes(matrix, *_args, **_kwargs):
    return int(getattr(matrix, "nbytes", 0))


def _distinct_targets(thetas, *_args, **_kwargs):
    return len(set(float(t) for t in thetas))


def _state_fingerprint(state, *_args, **_kwargs):
    # a strided sample of the amplitudes tells states apart without
    # hashing a 2^22-cell array on every call
    amps = state.amplitudes
    step = max(1, amps.size // 64)
    grid = state.grid
    return [grid.n, grid.x_min, grid.x_max, zlib.crc32(amps[::step].tobytes())]


_DETAIL = {
    "numerics.largest_eigenpair": _matrix_bytes,
    "slepian.lambda0_inverse_batch": _distinct_targets,
    "states.fourier_transform": _state_fingerprint,
}


class Recorder:
    """In-memory span list of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, layer: str, fn):
        detail_of = _DETAIL.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            detail = detail_of(*args, **kwargs) if detail_of else None
            parent = self._open[-1] if self._open else None
            span = [layer, time.perf_counter(), None, parent, detail]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    def install(self) -> None:
        """Replace every binding of each target function in confunc's modules."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "confunc" or name.startswith("confunc.")
        ]
        for layer, module, attr in TARGETS:
            fn = getattr(sys.modules[f"confunc.{module}"], attr)
            wrapper = self.wrap(layer, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def _layers() -> list[str]:
    return list(dict.fromkeys(layer for layer, _, _ in TARGETS))


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units: dict[str, str] = {}
    for layer in _layers():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        if layer in PARENT_LAYERS:
            units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "numerics.largest_eigenpair.bytes_computed": "B",
            "slepian.lambda0_inverse_batch.targets": "count",
            "slepian.solves_per_target": "ratio",
            "states.fourier_transform.cells": "count",
            "states.fourier_transform.distinct_ratio": "ratio",
            "cli.output_rows": "count",
            "cli.output_bytes": "B",
            "trace_overhead_s": "s",
        }
    )
    return units


def pass_metrics(span_lists: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one workload pass from its processes' spans.

    ``busy_s`` sums span durations; ``self_s`` subtracts the durations of
    direct child spans (calls are sequential, so children never overlap).
    ``solves_per_target`` counts eigensolves made under an inversion span
    per inversion target (distinct targets of a batch, one per single
    inversion). The CLI output and overhead metrics are added by the caller.
    """
    layers = _layers()
    calls = dict.fromkeys(layers, 0)
    busy = dict.fromkeys(layers, 0.0)
    own = dict.fromkeys(layers, 0.0)
    eig_bytes = targets = inversion_solves = cells = ft_calls = 0
    fingerprints = set()
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (layer, start, end, parent, detail) in enumerate(spans):
            calls[layer] += 1
            busy[layer] += end - start
            own[layer] += end - start - child_time[i]
            if layer == "numerics.largest_eigenpair":
                eig_bytes += detail
                ancestor = parent
                while ancestor is not None and spans[ancestor][0] not in _INVERSIONS:
                    ancestor = spans[ancestor][3]
                inversion_solves += ancestor is not None
            elif layer == "slepian.lambda0_inverse_batch":
                targets += detail
            elif layer == "states.fourier_transform":
                cells += detail[0]
                ft_calls += 1
                fingerprints.add(tuple(detail))
    metrics: dict[str, float] = {}
    for layer in layers:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.busy_s"] = busy[layer]
        if layer in PARENT_LAYERS:
            metrics[f"{layer}.self_s"] = own[layer]
    solved = targets + calls["slepian.lambda0_inverse"]
    metrics.update(
        {
            "numerics.largest_eigenpair.bytes_computed": eig_bytes,
            "slepian.lambda0_inverse_batch.targets": targets,
            "slepian.solves_per_target": inversion_solves / solved if solved else 0.0,
            "states.fourier_transform.cells": cells,
            "states.fourier_transform.distinct_ratio": (
                len(fingerprints) / ft_calls if ft_calls else 0.0
            ),
        }
    )
    return metrics
