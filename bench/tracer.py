"""Spans around the calls into rnnlab's modules, installed from outside.

The tracer swaps each traced function or method for a wrapper that times
the call and charges its children's time to them, so that a span's self
time is its duration minus the time of the spans it encloses.  Functions
are replaced under every name the package binds them to (``cli`` imports
``landscape_sweep`` from ``smoothness``, for instance), so calls between
modules are seen as well as calls from the benchmark.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# (layer name, module, class or "*" for every class of the module defining
# the attribute, or None for a function, attribute)
TARGETS = [
    ("cells.step", "cells", "*", "step"),
    ("cells.output", "cells", "*", "output"),
    ("cells.with_params", "cells", "*", "with_params"),
    ("cells.jacobians", "cells", "*", "jacobians"),
    ("cells.forward_batch", "cells", "*", "forward_batch"),
    ("cells.backward_batch", "cells", "*", "backward_batch"),
    ("cells.project_stable", "cells", None, "project_stable"),
    ("params.get", "params", "ParameterVector", "get"),
    ("statespace.simulate", "statespace", None, "simulate"),
    ("statespace.simulate_closed_loop", "statespace", None, "simulate_closed_loop"),
    ("statespace.lyapunov_exponent", "statespace", None, "lyapunov_exponent"),
    ("statespace.Trajectory.to_csv", "statespace", "Trajectory", "to_csv"),
    ("sensitivity.cost", "sensitivity", None, "cost"),
    ("sensitivity.gradient", "sensitivity", None, "gradient"),
    ("sensitivity.propagate_sensitivity", "sensitivity", None, "propagate_sensitivity"),
    ("sensitivity.cost_and_gradient_reverse", "sensitivity", None,
     "cost_and_gradient_reverse"),
    ("sensitivity.batch_outputs", "sensitivity", None, "batch_outputs"),
    ("smoothness.landscape_sweep", "smoothness", None, "landscape_sweep"),
    ("smoothness.checked_cost", "smoothness", None, "checked_cost"),
    ("smoothness.empirical_lipschitz_V", "smoothness", None, "empirical_lipschitz_V"),
    ("smoothness.bound_L_V_prime", "smoothness", None, "bound_L_V_prime"),
    ("analysis.bifurcation_sweep", "analysis", None, "bifurcation_sweep"),
    ("analysis.epoch_bifurcation", "analysis", None, "epoch_bifurcation"),
    ("analysis.projection", "analysis", "Projection", "__call__"),
    ("analysis.BifurcationDiagram.to_csv", "analysis", "BifurcationDiagram", "to_csv"),
    ("training.train", "training", None, "train"),
    ("training.Adam.step", "training", "Adam", "step"),
    ("training.task_evaluate", "training", "*", "evaluate"),
    ("training.save_run", "training", None, "save_run"),
    ("training.load_run", "training", None, "load_run"),
    ("svgplot", "svgplot", None, "svg_scatter"),
    ("svgplot", "svgplot", None, "svg_line"),
    ("svgplot", "svgplot", None, "svg_heatmap"),
]

# simulations counted while an enclosing span is open
NESTED = [
    ("sensitivity.gradient", "statespace.simulate"),
    ("smoothness.landscape_sweep", "statespace.simulate"),
]


def _dataset_size(dataset):
    return len(dataset) if isinstance(dataset, (list, tuple)) else 1


class Tracer:
    """Per-layer call counts and self times for the spans opened since reset."""

    def __init__(self, package):
        self.package = package
        self.patches = []          # (owner, attribute, original)
        self.reset()
        self._plan()

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.nested = Counter()
        self.extra = Counter()     # sequences differentiated, points swept, ...
        self.stack = []            # [child seconds] of each open span
        self.open = Counter()

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _plan(self):
        """Resolve every target to the (owner, attribute) slots it occupies."""
        pkg = self.package.__name__
        modules = self._modules()
        self.plan = []
        for layer, mod_name, cls_name, attr in TARGETS:
            mod = sys.modules.get(f"{pkg}.{mod_name}")
            slots = []
            if mod is None:
                continue
            if cls_name is None:
                fn = getattr(mod, attr, None)
                if callable(fn):
                    slots = [(m, name) for m in modules for name, v in vars(m).items()
                             if v is fn]
            else:
                classes = ([getattr(mod, cls_name, None)] if cls_name != "*" else
                           [v for v in vars(mod).values() if isinstance(v, type)
                            and v.__module__ == mod.__name__])
                slots = [(c, attr) for c in classes if c is not None and attr in vars(c)]
            if slots:
                self.plan.append((layer, slots))
        present = {layer for layer, _ in self.plan}
        self.absent = sorted({layer for layer, *_ in TARGETS} - present)

    def install(self):
        for layer, slots in self.plan:
            for owner, attr in slots:
                original = vars(owner)[attr]
                self.patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer, fn):
        tracer = self
        clock = time.perf_counter
        nested_outer = [outer for outer, inner in NESTED if inner == layer]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            for outer in nested_outer:
                if tracer.open[outer]:
                    tracer.nested[(outer, layer)] += 1
            tracer.calls[layer] += 1
            tracer.open[layer] += 1
            frame = [0.0]
            tracer.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                tracer.stack.pop()
                tracer.open[layer] -= 1
                tracer.self_s[layer] += duration - frame[0]
                if tracer.stack:
                    tracer.stack[-1][0] += duration
            tracer._observe(layer, args, kwargs, result)
            return result

        return span

    def _observe(self, layer, args, kwargs, result):
        if layer == "sensitivity.gradient":
            self.extra["gradient_sequences"] += _dataset_size(args[1] if len(args) > 1
                                                              else kwargs["dataset"])
        elif layer == "smoothness.landscape_sweep":
            self.extra["landscape_points"] += result.values.size
            self.extra["divergent_points"] += len(result.divergent)
        elif layer == "smoothness.empirical_lipschitz_V":
            self.extra["divergent_points"] += result.n_divergent
        elif layer == "svgplot":
            path = args[0] if args else kwargs["path"]
            self.extra["svg_bytes"] += os.path.getsize(path)

    def ratio(self, outer, inner, base):
        return self.nested[(outer, inner)] / base if base else 0.0
