"""Span tracing installed around the ampqst layers from outside the library.

A ``Tracer`` replaces every public function of the layer modules, and the
numpy and scipy Hermitian eigensolvers, by a wrapper that records one span
per call: ``[function id, start, end, parent span index]``. Functions are
replaced by identity in every ``ampqst`` module namespace, so a name bound by
``from .pauli import apply_sensing`` is traced as well. Leaving the ``with``
block restores every original binding. A function that the metrics name but
the library no longer defines is listed in ``absent``; its metrics read 0.

Spans stay in memory. ``self_times`` and ``layer_metrics`` derive each
layer's self time and counts from them after the traced trial.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "measure", "pauli", "amp", "states", "mifgd")
EIGENSOLVERS = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh",
                "scipy.linalg.eigh", "scipy.linalg.eigvalsh")
# Truth metrics: the cost of judging an estimate, not of computing it.
TRUTH = ("states.state_fidelity", "states.nmse")
DENOISERS = ("amp.psvt", "amp.svt")

# Every library function the per-layer metrics refer to by name.
REFERENCED = (
    "cli.run_trial", "measure.build_measurements",
    "measure.estimate_from_setting", "pauli.build_sensing_map",
    "pauli.apply_sensing", "pauli.apply_adjoint", "amp.run_amp",
    "amp.amp_step", "amp.estimate_onsager", "states.project_to_density",
    "mifgd.run_mifgd") + TRUTH + DENOISERS


class Tracer:
    """Context manager that traces calls into the ampqst layers."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        wrappers = {}                 # id(original) -> (original, wrapper)
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"ampqst.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for qualified in EIGENSOLVERS:
            module_name, _, attr = qualified.rpartition(".")
            fn = getattr(importlib.import_module(module_name), attr, None)
            if fn is None:
                self.absent.append(qualified)
            else:
                wrappers[id(fn)] = (fn, self._wrap(qualified, fn))
        solver_modules = {q.rpartition(".")[0] for q in EIGENSOLVERS}
        for module_name, module in list(sys.modules.items()):
            if not (module_name == "ampqst" or module_name.startswith("ampqst.")
                    or module_name in solver_modules):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))
        self.absent += [n for n in REFERENCED if n not in self.names]

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        # children are recorded in call order, so by start time
        for child in children[index]:
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _ancestor_masks(spans) -> list[int]:
    """Bit f of mask i is set when a span of function f encloses span i."""
    masks = []
    for _, _, _, parent in spans:
        masks.append(0 if parent < 0 else masks[parent] | (1 << spans[parent][0]))
    return masks


def function_table(tracer: Tracer) -> dict:
    """Calls, inclusive time of the outermost spans, and self time per function."""
    spans = tracer.spans
    own = self_times(spans)
    masks = _ancestor_masks(spans)
    table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in tracer.names}
    for i, (fid, start, end, _) in enumerate(spans):
        row = table[tracer.names[fid]]
        row["calls"] += 1
        row["self_s"] += own[i]
        if not masks[i] >> fid & 1:
            row["s"] += end - start
    return {name: row for name, row in table.items() if row["calls"]}


def layer_self_times(tracer: Tracer) -> dict:
    """Self time summed over the spans of each layer, eigensolvers included."""
    out: dict[str, float] = {}
    own = self_times(tracer.spans)
    for i, span in enumerate(tracer.spans):
        name = tracer.names[span[0]]
        layer = name if name in EIGENSOLVERS else name.partition(".")[0]
        out[layer] = out.get(layer, 0.0) + own[i]
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """The benchmark's per-layer span metrics for one traced trial."""
    names, spans = tracer.names, tracer.spans
    ids = {name: fid for fid, name in enumerate(names)}
    own = self_times(spans)
    masks = _ancestor_masks(spans)

    def bits(group) -> int:
        return sum(1 << ids[n] for n in group if n in ids)

    def select(group, outermost=False, parent=None):
        b, pb = bits(group), bits(parent or ())
        return [i for i, span in enumerate(spans)
                if b >> span[0] & 1
                and not (outermost and masks[i] & b)
                and (parent is None or (span[3] >= 0 and pb >> spans[span[3]][0] & 1))]

    def seconds(indices) -> float:
        return sum(spans[i][2] - spans[i][1] for i in indices)

    def calls(name) -> int:
        return len(select((name,)))

    def total(*group) -> float:
        return seconds(select(group, outermost=True))

    run_amp, truth = bits(("amp.run_amp",)), bits(TRUTH)
    eig = select(EIGENSOLVERS)
    denoise = select(DENOISERS, parent=("amp.amp_step",))
    return {
        "cli.trial.s": total("cli.run_trial"),
        "cli.self.s": sum(own[i] for i, s in enumerate(spans)
                          if names[s[0]].startswith("cli.")),
        "measure.build_measurements.s": total("measure.build_measurements"),
        "measure.estimate_from_setting.calls": calls("measure.estimate_from_setting"),
        "pauli.build_sensing_map.s": total("pauli.build_sensing_map"),
        "pauli.apply_sensing.calls": calls("pauli.apply_sensing"),
        "pauli.apply_sensing.s": total("pauli.apply_sensing"),
        "pauli.apply_adjoint.calls": calls("pauli.apply_adjoint"),
        "pauli.apply_adjoint.s": total("pauli.apply_adjoint"),
        "amp.run_amp.s": total("amp.run_amp"),
        "amp.step.self_s": sum(own[i] for i in select(("amp.amp_step",))),
        "amp.denoise.calls": len(denoise),
        "amp.denoise.s": seconds(denoise),
        "amp.onsager.calls": calls("amp.estimate_onsager"),
        "amp.onsager.s": total("amp.estimate_onsager"),
        "amp.eigh.calls": sum(1 for i in eig
                              if masks[i] & run_amp and not masks[i] & truth),
        "states.truth.s": total(*TRUTH),
        "states.state_fidelity.calls": calls("states.state_fidelity"),
        "states.project_to_density.s": total("states.project_to_density"),
        "states.eigh.calls": sum(1 for i in eig if masks[i] & truth),
        "mifgd.run_mifgd.s": total("mifgd.run_mifgd"),
    }
