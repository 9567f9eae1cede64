"""Layer tracing from outside the program.

`Tracer` wraps every public function of the six `dualprec` modules
wherever it is bound (``designer`` imports ``solve_power`` by name, so
``dualprec.designer.solve_power`` is wrapped beside
``dualprec.solver.solve_power``) and records one span per call: layer,
function, start, end, parent span, and the exception that escaped, if
any.  Spans stay in memory until the run ends.  A few calls also keep
what they returned, for the per-layer quality figures.

`DesignProbe` keeps the result of each ``designer.design`` call the CLI
makes, traced or not, so the legacy-vs-shortcut path gap, which the
`design` report omits, can be checked in every run.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

LAYERS = ("cli", "model", "objective", "solver", "duality", "designer")

LAYER, NAME, START, END, PARENT, EXC, EXTRA = range(7)


class Tracer:
    """Re-enterable: each ``with`` block swaps the wrappers in and out."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._swaps: list | None = None

    def _find(self) -> list:
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"dualprec.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = self._wrap(layer, name, obj)
        holders = [sys.modules["dualprec"]] + \
            [sys.modules[f"dualprec.{layer}"] for layer in LAYERS]
        return [(mod, name, obj, targets[id(obj)]) for mod in holders
                for name, obj in vars(mod).items() if id(obj) in targets]

    def __enter__(self):
        if self._swaps is None:
            self._swaps = self._find()
        for mod, name, _, wrapper in self._swaps:
            setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, name, orig, _ in self._swaps:
            setattr(mod, name, orig)
        return False

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(f"{layer}.{name}")
        sig = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, name, clock(), 0.0, stack[-1] if stack else -1,
                   None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, sig, args, kwargs, rec)
            except BaseException as e:
                rec[EXC] = type(e).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "layer": s[LAYER], "name": s[NAME],
                    "start": s[START], "end": s[END], "parent": s[PARENT],
                    "exc": s[EXC]}) + "\n")


def _observe_solve(fn, sig, args, kwargs, rec):
    """Count accepted solver steps through the public ``callback`` and
    keep the certificate residual."""
    bound = sig.bind(*args, **kwargs)
    user_cb = bound.arguments.get("callback")
    steps = [0]

    def count(q, f):
        steps[0] += 1
        if user_cb is not None:
            user_cb(q, f)

    bound.arguments["callback"] = count
    try:
        q, cert = fn(*bound.args, **bound.kwargs)
    finally:
        rec[EXTRA] = {"steps": steps[0]}
    rec[EXTRA]["kkt_residual"] = cert.max_residual
    return q, cert


def _observe_verify(fn, sig, args, kwargs, rec):
    rep = fn(*args, **kwargs)
    rec[EXTRA] = {"psi_asymmetry": rep.psi_asymmetry, "pq_gap": rep.pq_gap,
                  "mse_gap": rep.mse_gap}
    return rep


_OBSERVERS = {"solver.solve_power": _observe_solve,
              "duality.verify_theorem": _observe_verify}


class DesignProbe:
    """Keeps every DesignResult (or ConvergenceError partial) that
    ``dualprec.designer.design``, as the CLI resolves it, produces."""

    def __init__(self):
        self.results: list = []

    def __enter__(self):
        from dualprec import designer
        from dualprec.errors import ConvergenceError

        self._orig = orig = designer.design
        results = self.results

        @functools.wraps(orig)
        def design(*args, **kwargs):
            try:
                res = orig(*args, **kwargs)
            except ConvergenceError as e:
                results.append(e.partial)
                raise
            results.append(res)
            return res

        designer.design = design
        return self

    def __exit__(self, *exc):
        from dualprec import designer
        designer.design = self._orig
        return False

    def take(self):
        """The result of the last design call, or None; clears the list."""
        out = self.results[-1] if self.results else None
        self.results.clear()
        return out


# ---------------------------------------------------------------------------
# per-layer figures

def pct(values, p: int) -> float:
    """The p-th percentile (inclusive method); 0.0 for no samples."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[p - 1])


def mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def layer_metrics(spans: list, ops: int, designs: list) -> dict:
    """Per-layer figures from the traced calls of ``ops`` operations.

    ``designs`` holds the DesignResult of every traced design, in call
    order.  Self time is a span's duration minus its children's;
    self times and call counts are per operation.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    failed = {layer: 0 for layer in LAYERS}
    for i, s in enumerate(spans):
        layer = s[LAYER]
        self_s[layer] += s[END] - s[START] - child[i]
        calls[layer] += 1
        # an exception counts once, where it leaves the layer
        if s[EXC] and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer):
            failed[layer] += 1

    def named(layer, name):
        return [s for s in spans if s[LAYER] == layer and s[NAME] == name]

    solves = named("solver", "solve_power")
    ok_solves = [s for s in solves if s[EXC] is None]
    verifies = [s for s in named("duality", "verify_theorem")
                 if s[EXC] is None]
    # the DesignProbe keeps a result for these calls only
    design_spans = [s for s in named("designer", "design")
                    if s[EXC] in (None, "ConvergenceError")]
    per_op = max(ops, 1)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_s[layer] * 1e3 / per_op
    for layer in ("model", "objective", "solver", "duality"):
        m[f"{layer}.calls"] = calls[layer] / per_op
    m.update({
        "solver.solve_ms.p50": pct((s[END] - s[START] for s in solves), 50)
        * 1e3,
        "solver.solve_ms.p95": pct((s[END] - s[START] for s in solves), 95)
        * 1e3,
        "solver.steps.mean": mean(s[EXTRA]["steps"] for s in solves),
        "solver.failed": failed["solver"],
        "solver.kkt_residual.max": max(
            (s[EXTRA]["kkt_residual"] for s in ok_solves), default=0.0),
        "duality.verify_ms.p50": pct((s[END] - s[START] for s in verifies),
                                     50) * 1e3,
        "duality.transform_us.p50": pct(
            (s[END] - s[START] for s in named("duality", "transform_power")
             if s[EXC] is None), 50) * 1e6,
        "duality.failed": failed["duality"],
        "duality.psi_asymmetry.max": max(
            (s[EXTRA]["psi_asymmetry"] for s in verifies), default=0.0),
        "duality.pq_gap.max": max((s[EXTRA]["pq_gap"] for s in verifies),
                                  default=0.0),
        "duality.mse_gap.max": max((s[EXTRA]["mse_gap"] for s in verifies),
                                   default=0.0),
        "designer.outer_iters.mean": mean(r.iters for r in designs),
        "designer.outer_iter_ms.p50": pct(
            ((s[END] - s[START]) / r.iters
             for s, r in zip(design_spans, designs)), 50) * 1e3,
        "designer.shortcut_us.p50": pct(
            (t for r in designs for t in r.shortcut_times), 50) * 1e6,
        "designer.failed": failed["designer"],
        "designer.path_gap.max": max(
            (g for r in designs for g in r.path_gap_trace), default=0.0),
    })
    return m
