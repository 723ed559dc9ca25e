"""Spans and counters recorded from outside the program, for the traced run.

`Tracer.install` replaces the public functions and methods of each layer, at
the names their callers look up, with wrappers that record a span (name,
start, end, parent) and the span's self time: its duration minus the part its
child spans cover.  The wrappers record only while an item executes, so the
benchmark's own checks, which call the same functions, are not counted.
`uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from g2soliton import akns, curvering, elliptic, identities, jets, pde, transforms

# (owner, attribute, layer) for every replaced name.  Names bound twice
# (Poly.__rmul__ is Poly.__mul__; sncndn is also imported into jets) are
# wrapped at each binding, under one layer.
PATCH_POINTS = (
    (curvering.Poly, "__mul__", "curvering.poly_mul"),
    (curvering.Poly, "__rmul__", "curvering.poly_mul"),
    (curvering.Poly, "try_divide", "curvering.try_divide"),
    (curvering.Fld, "__init__", "curvering.fld_init"),
    (identities, "flow_derivative", "flows.flow_derivative"),
    (identities.G2Functions, "__init__", "identities.functions"),
    (identities.G2Functions, "deriv", "identities.functions"),
    (identities, "residuals", "identities.assemble"),
    (identities, "residuals_unchecked", "identities.assemble"),
    (identities, "find_witness", "identities.witness"),
    (identities, "random_probe_point", "identities.probe_point"),
    (elliptic, "sncndn", "elliptic.sncndn"),
    (jets, "sncndn", "elliptic.sncndn"),
    (elliptic, "quarter_period", "elliptic.quarter_period"),
    (jets, "sn_jet_triple", "jets.sn_jet_triple"),
    (transforms, "sn_jet_triple", "jets.sn_jet_triple"),
    (jets.Jet, "__mul__", "jets.jet_mul"),
    (jets.Jet, "__rmul__", "jets.jet_mul"),
    (transforms, "static_transformation_residuals", "transforms.static_residuals"),
    (akns, "akns_commutator_residual", "akns.commutator"),
    (pde, "evolve_trajectory", "pde.evolve"),
    (pde._Etdrk4, "step", "pde.step"),
    (np.fft, "fft", "pde.fft"),
    (np.fft, "ifft", "pde.fft"),
    (pde, "miura_map", "pde.miura"),
    (pde, "kdv_residual", "pde.residual"),
    (pde, "conserved_quantities", "pde.invariants"),
)

# name, unit, better: the per-layer metrics, all per executed item
PER_LAYER = (
    ("curvering.poly_mul.calls", "count", "lower"),
    ("curvering.poly_mul.self_ms", "ms", "lower"),
    ("curvering.try_divide.calls", "count", "lower"),
    ("curvering.try_divide.self_ms", "ms", "lower"),
    ("curvering.try_divide.hit_ratio", "ratio", "higher"),
    ("curvering.fld_init.calls", "count", "lower"),
    ("curvering.fld_init.self_ms", "ms", "lower"),
    ("curvering.peak_terms", "terms", "lower"),
    ("identities.residual_terms", "terms", "lower"),
    ("flows.flow_derivative.calls", "count", "lower"),
    ("flows.flow_derivative.self_ms", "ms", "lower"),
    ("identities.functions.self_ms", "ms", "lower"),
    ("identities.assemble.self_ms", "ms", "lower"),
    ("identities.witness.self_ms", "ms", "lower"),
    ("identities.witness.points", "count", "lower"),
    ("elliptic.sncndn.calls", "count", "lower"),
    ("elliptic.sncndn.self_ms", "ms", "lower"),
    ("elliptic.quarter_period.calls", "count", "lower"),
    ("jets.sn_jet_triple.self_ms", "ms", "lower"),
    ("jets.jet_mul.calls", "count", "lower"),
    ("transforms.static_residuals.self_ms", "ms", "lower"),
    ("akns.commutator.self_ms", "ms", "lower"),
    ("pde.evolve.self_ms", "ms", "lower"),
    ("pde.fft.calls_per_step", "count", "lower"),
    ("pde.fft.self_ms", "ms", "lower"),
    ("pde.miura.self_ms", "ms", "lower"),
    ("pde.residual.self_ms", "ms", "lower"),
    ("pde.invariants.self_ms", "ms", "lower"),
)


class Tracer:
    """In-memory spans plus per-layer self times and counters."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [span index, child seconds, layer]
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.events: Counter = Counter()
        self.executions = 0
        self._peak_terms = 0
        self._originals: list = []

    # -- spans --------------------------------------------------------------

    def _open(self, layer: str) -> None:
        idx = len(self.span_name)
        name_id = self._name_ids.get(layer)
        if name_id is None:
            name_id = self._name_ids[layer] = len(self.names)
            self.names.append(layer)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0, layer])
        self.span_start.append(time.perf_counter())

    def _close(self) -> None:
        end = time.perf_counter()
        idx, child, layer = self._stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.self_seconds[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def _inside(self, layer: str) -> bool:
        return any(frame[2] == layer for frame in self._stack)

    def begin_item(self) -> None:
        self._peak_terms = 0
        self.active = True
        self._open("item")

    def end_item(self) -> None:
        self._close()
        self.active = False
        self.executions += 1
        self.events["peak_terms"] += self._peak_terms

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, layer: str):
        tracer = self
        hook = _HOOKS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if layer == "pde.fft" and tracer._inside("pde.evolve"):
                tracer.events["fft_in_evolve"] += 1
            tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, layer in PATCH_POINTS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- results ----------------------------------------------------------------

    def per_layer(self) -> dict:
        """Every per-layer metric, averaged over executed items."""
        n = max(1, self.executions)

        def ms(layer):
            return self.self_seconds.get(layer, 0.0) * 1000 / n

        def per_item(layer):
            return self.calls.get(layer, 0) / n

        tries = self.calls.get("curvering.try_divide", 0)
        witnesses = self.calls.get("identities.witness", 0)
        steps = self.calls.get("pde.step", 0)
        values = {
            "curvering.poly_mul.calls": per_item("curvering.poly_mul"),
            "curvering.poly_mul.self_ms": ms("curvering.poly_mul"),
            "curvering.try_divide.calls": per_item("curvering.try_divide"),
            "curvering.try_divide.self_ms": ms("curvering.try_divide"),
            "curvering.try_divide.hit_ratio": self.events["divide_hits"] / tries if tries else 0.0,
            "curvering.fld_init.calls": per_item("curvering.fld_init"),
            "curvering.fld_init.self_ms": ms("curvering.fld_init"),
            "curvering.peak_terms": self.events["peak_terms"] / n,
            "identities.residual_terms": self.events["residual_terms"] / n,
            "flows.flow_derivative.calls": per_item("flows.flow_derivative"),
            "flows.flow_derivative.self_ms": ms("flows.flow_derivative"),
            "identities.functions.self_ms": ms("identities.functions"),
            "identities.assemble.self_ms": ms("identities.assemble"),
            "identities.witness.self_ms": ms("identities.witness"),
            "identities.witness.points": (
                self.calls.get("identities.probe_point", 0) / witnesses if witnesses else 0.0
            ),
            "elliptic.sncndn.calls": per_item("elliptic.sncndn"),
            "elliptic.sncndn.self_ms": ms("elliptic.sncndn"),
            "elliptic.quarter_period.calls": per_item("elliptic.quarter_period"),
            "jets.sn_jet_triple.self_ms": ms("jets.sn_jet_triple"),
            "jets.jet_mul.calls": per_item("jets.jet_mul"),
            "transforms.static_residuals.self_ms": ms("transforms.static_residuals"),
            "akns.commutator.self_ms": ms("akns.commutator"),
            "pde.evolve.self_ms": ms("pde.evolve"),
            "pde.fft.calls_per_step": self.events["fft_in_evolve"] / steps if steps else 0.0,
            "pde.fft.self_ms": ms("pde.fft"),
            "pde.miura.self_ms": ms("pde.miura"),
            "pde.residual.self_ms": ms("pde.residual"),
            "pde.invariants.self_ms": ms("pde.invariants"),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def save_spans(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


def _poly_terms(tracer: Tracer, result) -> None:
    if result is not NotImplemented:
        tracer._peak_terms = max(tracer._peak_terms, len(result.terms))


def _divide_hit(tracer: Tracer, result) -> None:
    if result is not None:
        tracer.events["divide_hits"] += 1


def _residual_terms(tracer: Tracer, result) -> None:
    tracer.events["residual_terms"] += sum(len(comp.num.terms) for comp in result)


_HOOKS = {
    "curvering.poly_mul": _poly_terms,
    "curvering.try_divide": _divide_hit,
    "identities.assemble": _residual_terms,
}
