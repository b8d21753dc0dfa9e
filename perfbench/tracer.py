"""Outside-in span tracer for the rcndl library.

The tracer adds no code to the package.  It replaces public functions with
timing wrappers under the names the *calling* module looks up (for example
``rcndl.scheduler.jeffrey_update``, which only calls made from the scheduler
see), records one span per call, and restores every original attribute on
exit.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter


def _table_states(table) -> int:
    return table.probs.size


def _lec_iterations(result) -> int:
    return result[1].iterations


# (module, attribute, span name, value recorded from the call or None)
#
# ``value`` is an optional ``(kind, fn)``: ``("arg", fn)`` applies ``fn`` to the
# first positional argument, ``("result", fn)`` to the return value.
TARGETS = (
    ("rcndl.parser", "parse_program", "parser.parse_program", None),
    ("rcndl.evidence", "parse_evidence", "evidence.parse_evidence", None),
    ("rcndl.preprocess", "preprocess", "preprocess.preprocess", None),
    ("rcndl.preprocess", "marginalize", "model.marginalize", ("arg", _table_states)),
    ("rcndl.scheduler", "run_reasoning", "scheduler.run_reasoning", None),
    ("rcndl.scheduler", "propagate_clause_update",
     "scheduler.propagate_clause_update", None),
    ("rcndl.scheduler", "posterior_marginal", "scheduler.posterior_marginal", None),
    ("rcndl.scheduler", "gradient_scalar", "scheduler.gradient_scalar", None),
    ("rcndl.scheduler", "home_clause", "scheduler.home_clause", None),
    ("rcndl.scheduler", "jeffrey_update", "engine.jeffrey_update", None),
    ("rcndl.scheduler", "conditional_update", "engine.conditional_update", None),
    ("rcndl.scheduler", "lec_solve", "engine.lec_solve", ("result", _lec_iterations)),
    ("rcndl.scheduler", "marginalize", "model.marginalize", ("arg", _table_states)),
    ("rcndl.engine", "dual_value_and_gradient", "engine.dual_value_and_gradient", None),
    ("rcndl.engine", "marginalize", "model.marginalize", ("arg", _table_states)),
    ("rcndl.engine", "scale_events", "model.scale_events", ("arg", _table_states)),
)
METHOD_TARGETS = (
    ("rcndl.preprocess", "PreparedNetwork", "with_table",
     "PreparedNetwork.with_table"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    value: float = 0.0   # recorded quantity (table states, iterations)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, value):
        spans, stack = self.spans, self._stack
        kind, extract = value if value else (None, None)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if kind == "arg":
                span.value = extract(args[0])
            elif kind == "result":
                span.value = extract(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name, value in TARGETS:
                mod = importlib.import_module(module)
                self._patch(mod, attr, self._wrap(name, getattr(mod, attr), value))
            for module, cls_name, attr, name in METHOD_TARGETS:
                cls = getattr(importlib.import_module(module), cls_name)
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], None))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals for one traced solve.

    Times are inclusive span durations in seconds unless named ``self``.
    ``model.bytes_computed`` counts 8 bytes per state of every table passed
    to ``marginalize`` or ``scale_events``: computed from table sizes, not
    measured.
    """
    in_run = [False] * len(spans)
    for i, s in enumerate(spans):
        in_run[i] = (s.name == "scheduler.run_reasoning"
                     or (s.parent >= 0 and in_run[s.parent]))
    selfs = self_times(spans)

    m: dict[str, float] = {}

    def add(key, amount):
        m[key] = m.get(key, 0.0) + amount

    for i, s in enumerate(spans):
        d = s.duration
        name = s.name
        if name == "scheduler.run_reasoning":
            add("scheduler.run_s", d)
            add("scheduler.self_s", selfs[i])
        elif name == "scheduler.propagate_clause_update":
            add("scheduler.propagate_s", d)
        elif name == "scheduler.posterior_marginal":
            if in_run[i]:
                add("scheduler.snapshot_s", d)
                add("scheduler.snapshot_calls", 1)
        elif name == "scheduler.gradient_scalar":
            add("scheduler.gradient_s", d)
            add("scheduler.gradient_calls", 1)
        elif name == "scheduler.home_clause":
            add("scheduler.home_clause_s", d)
            add("scheduler.home_clause_calls", 1)
        elif name == "PreparedNetwork.with_table":
            if in_run[i]:
                add("scheduler.with_table_calls", 1)
        elif name == "engine.jeffrey_update":
            add("engine.jeffrey_s", d)
            add("engine.jeffrey_calls", 1)
            if (s.parent >= 0
                    and spans[s.parent].name == "scheduler.propagate_clause_update"):
                add("scheduler.edges_crossed", 1)
        elif name == "engine.conditional_update":
            add("engine.conditional_s", d)
            add("engine.conditional_calls", 1)
        elif name == "engine.lec_solve":
            add("engine.lec_s", d)
            add("engine.lec_calls", 1)
            add("engine.lec_iterations", s.value)
        elif name == "engine.dual_value_and_gradient":
            add("engine.dual_eval_s", d)
            add("engine.dual_evals", 1)
        elif name == "model.marginalize":
            add("model.marginalize_s", d)
            add("model.marginalize_calls", 1)
            add("model.bytes_computed", 8 * s.value)
        elif name == "model.scale_events":
            add("model.scale_events_s", d)
            add("model.scale_events_calls", 1)
            add("model.bytes_computed", 8 * s.value)
        elif name == "preprocess.preprocess":
            add("preprocess.build_s", d)
        elif name == "parser.parse_program":
            add("parser.parse_s", d)
        elif name == "evidence.parse_evidence":
            add("evidence.parse_s", d)
    return m
