"""Spans around the public functions of each frictiondual module.

Tracing is done from outside the library: :class:`Tracer` replaces the
listed functions by timing wrappers in every module that holds them
(``duality`` and ``polytope`` import ``solve`` and ``solve_lp`` by name,
so patching ``engine`` alone would miss those calls) and puts the
originals back on exit.  Spans are kept in memory as plain records.

``tree``, ``utility`` and ``trading`` get no spans: they are called once
per leaf, so a span would cost more than the call, and their time lands
in the self time of the caller.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import time

import frictiondual
from frictiondual import duality, engine, generate, polytope, pricing, shadow

# (span name, defining module, attribute); the span name's prefix is the layer
TRACED = (
    ("engine.solve", engine, "solve"),
    ("engine.solve_lp", engine, "solve_lp"),
    ("polytope.check_cps", polytope, "check_cps"),
    ("polytope.build_polytope", polytope, "build_polytope"),
    ("duality.solve_report", duality, "solve_report"),
    ("duality.solve_primal", duality, "solve_primal"),
    ("duality.solve_dual", duality, "solve_dual"),
    ("duality.solve_entropy_core", duality, "solve_entropy_core"),
    ("duality.minimize_v_plus_xy", duality, "minimize_v_plus_xy"),
    ("duality.compute_x0", duality, "compute_x0"),
    ("duality.verify_identities", duality, "verify_identities"),
    ("shadow.construct_shadow", shadow, "construct_shadow"),
    ("shadow.solve_frictionless", shadow, "solve_frictionless"),
    ("shadow.verify_shadow", shadow, "verify_shadow"),
    ("shadow.shadow_from_dual_roundtrip", shadow, "shadow_from_dual_roundtrip"),
    ("pricing.price_primal", pricing, "price_primal"),
    ("pricing.price_dual", pricing, "price_dual"),
    ("pricing.price_shadow", pricing, "price_shadow"),
    ("pricing.price_bounds", pricing, "price_bounds"),
    ("pricing.indifference_price", pricing, "indifference_price"),
)
TRACED_METHODS = (
    ("generate.draw_feasible", generate.InstanceGenerator, "draw_feasible"),
    ("generate.draw", generate.InstanceGenerator, "draw"),
)
MODULES = (frictiondual, engine, polytope, duality, shadow, pricing, generate)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    parent: int          # index into Tracer.spans, -1 for a root
    request: str
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct child spans
    objective_s: float = 0.0
    objective_evals: int = 0
    newton_steps: int = 0
    status: str = ""
    error: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.objective_s


class Tracer:
    """Span recorder; ``with tracer:`` patches the library, exit restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str, request: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else -1
        if request is None:
            request = self.spans[parent].request if parent >= 0 else ""
        span = Span(name=name, start=time.perf_counter(), parent=parent,
                    request=request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.close(span)
        return wrapper

    def _wrap_solve(self, fn):
        """``engine.solve`` on a copy of the program whose objective counts
        and times its calls; the caller's program is left unchanged."""
        @functools.wraps(fn)
        def wrapper(program, *args, **kwargs):
            span = self.open("engine.solve")
            objective = program.objective

            def counted(x):
                t0 = time.perf_counter()
                try:
                    return objective(x)
                finally:
                    span.objective_s += time.perf_counter() - t0
                    span.objective_evals += 1

            try:
                res = fn(dataclasses.replace(program, objective=counted),
                         *args, **kwargs)
                span.newton_steps = int(sum(res.diagnostics.newton_iterations))
                span.status = res.status
                return res
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.close(span)
        return wrapper

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        for name, owner, attr in TRACED:
            original = getattr(owner, attr)
            wrapper = (self._wrap_solve(original) if name == "engine.solve"
                       else self._wrap(name, original))
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, cls, attr in TRACED_METHODS:
            original = vars(cls)[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        return False

    def dump(self, path) -> None:
        """Write every span as one JSON record per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def summarize(spans: list, lo: int, hi: int) -> dict:
    """Totals over the spans ``spans[lo:hi]`` of one traced request.

    The first span of the slice is the request's root; its self time is
    the request time no layer span covers.  Spans are in open order, so a
    parent always precedes its children.
    """
    totals: dict = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    in_pricing = {}
    in_search = {}
    dual_runs = collections.Counter()   # engine runs per solve_dual span
    for i in range(lo, hi):
        s = spans[i]
        parent = spans[s.parent] if s.parent >= lo else None
        in_pricing[i] = s.parent >= lo and (
            parent.name == "pricing.indifference_price" or in_pricing[s.parent])
        in_search[i] = s.parent >= lo and (
            parent.name == "duality.minimize_v_plus_xy" or in_search[s.parent])
        layer = s.name.split(".")[0]
        add("self." + layer, s.self_s)
        add("calls." + s.name, 1)
        add("time." + s.name, s.duration)
        if s.name == "engine.solve":
            add("objective_s", s.objective_s)
            add("objective_evals", s.objective_evals)
            add("newton_steps", s.newton_steps)
            add("nonoptimal", int(bool(s.status) and s.status != "optimal"))
            if parent is not None and parent.name == "duality.solve_dual":
                dual_runs[s.parent] += 1
        elif s.name == "duality.solve_report" and in_pricing[i]:
            add("pricing.solve_reports", 1)
        elif s.name == "duality.solve_dual" and in_search[i]:
            add("search_dual_solves", 1)
    totals["cold_retries"] = sum(1 for n in dual_runs.values() if n > 1)
    return totals


def request_counts(totals: dict) -> tuple:
    """Exact work counts of one request: its determinism signature."""
    return (
        totals.get("calls.engine.solve", 0),
        totals.get("newton_steps", 0),
        totals.get("objective_evals", 0),
        totals.get("calls.engine.solve_lp", 0),
        totals.get("pricing.solve_reports", 0),
    )
