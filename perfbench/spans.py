"""Outside-in span recorder for the traced run.

Spans are recorded only here, by wrappers installed around the public
functions of each layer; nothing under ``src/`` is changed and the
library's own ``REPRO_TRACE`` tracer stays off.  A span is
``[layer, start_ns, end_ns, parent, ident, outcome]``; every span stays in
memory until :func:`aggregate` reads them at the end of a goal.

Two rules keep the arithmetic honest:

* a call into a layer that is already open on the stack (a re-entrant
  call, e.g. ``check_program`` reaching ``check_eterm``) records no span,
  so it counts once, at the outermost call;
* a span's self time is its duration minus the union of its direct
  children's intervals (clipped to the span), see :func:`self_times`.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, IDENT, OUTCOME = range(6)


def _accepted(result) -> bool:
    return result is not None and result is not False


#: (layer, module, attribute path, outcome) of every wrapped entry point.
#: ``outcome`` turns a return value into the "accepted"/"solved" flag the
#: ratio metrics count; ``None`` records no outcome.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("core.synthesizer", "repro.core.synthesizer", "Synthesizer.synthesize", None),
    ("typing.checker", "repro.typing.checker", "TypeChecker.check_eterm", _accepted),
    ("typing.checker", "repro.typing.checker", "TypeChecker.check_program", _accepted),
    ("constraints.cegis", "repro.constraints.cegis", "CegisSolver.solve", _accepted),
    ("smt.solver", "repro.smt.solver", "Solver.check_valid", None),
    ("smt.solver", "repro.smt.solver", "Solver.check_sat", None),
    ("smt.encoder", "repro.smt.encoder", "IncrementalEncoder.encode", None),
    ("smt.sat", "repro.smt.sat", "SatSolver.solve", None),
    # check_integer_feasible is imported by name into both callers, so it is
    # wrapped at each import site.
    ("smt.lia", "repro.smt.solver", "check_integer_feasible", None),
    ("smt.lia", "repro.constraints.cegis", "check_integer_feasible", None),
)


class SpanRecorder:
    """Collects nested spans from wrapped calls on one thread."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.ident: Optional[str] = None
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}

    def wrap(self, layer: str, fn: Callable, outcome: Optional[Callable] = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder._open.get(layer):
                return fn(*args, **kwargs)
            stack = recorder._stack
            span = [layer, recorder.clock(), 0, stack[-1] if stack else -1, recorder.ident, None]
            index = len(recorder.spans)
            recorder.spans.append(span)
            stack.append(index)
            recorder._open[layer] = 1
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    span[OUTCOME] = bool(outcome(result))
                return result
            finally:
                span[END] = recorder.clock()
                stack.pop()
                recorder._open[layer] = 0

        wrapper.__wrapped_layer__ = layer  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS` (idempotent)."""
        import importlib

        for layer, module_name, path, outcome in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            current = getattr(owner, attr)
            if getattr(current, "__wrapped_layer__", None) is None:
                setattr(owner, attr, self.wrap(layer, current, outcome))


def _union_ns(intervals: Sequence[Tuple[int, int]]) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Per span: duration minus the part its direct children cover (ns)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            lo, hi = spans[parent][START], spans[parent][END]
            children.setdefault(parent, []).append((max(span[START], lo), min(span[END], hi)))
    result = []
    for index, span in enumerate(spans):
        covered = _union_ns(children.get(index, ()))
        result.append(span[END] - span[START] - covered)
    return result


def root_coverage_ns(spans: Sequence[Sequence]) -> int:
    """Wall time covered by the union of the root spans (ns)."""
    return _union_ns([(span[START], span[END]) for span in spans if span[PARENT] < 0])


def aggregate(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, ``busy_s``, ``self_s``, and ``accepted`` out of
    ``outcomes`` for the layers that record one."""
    layers: Dict[str, Dict[str, float]] = {}
    for span, self_ns in zip(spans, self_times(spans)):
        entry = layers.setdefault(
            span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "accepted": 0, "outcomes": 0}
        )
        entry["calls"] += 1
        entry["busy_s"] += (span[END] - span[START]) / 1e9
        entry["self_s"] += self_ns / 1e9
        if span[OUTCOME] is not None:
            entry["outcomes"] += 1
            entry["accepted"] += int(span[OUTCOME])
    return layers
