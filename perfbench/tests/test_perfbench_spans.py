"""Self-time arithmetic of the benchmark's outside-in span recorder."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spans  # noqa: E402


def span(name, start, end, parent=-1, outcome=None):
    return [name, start, end, parent, "goal", outcome]


def test_self_time_subtracts_children():
    recorded = [
        span("core.synthesizer", 0, 100),
        span("typing.checker", 10, 40, parent=0),
        span("smt.solver", 15, 25, parent=1),
        span("typing.checker", 50, 70, parent=0),
    ]
    assert spans.self_times(recorded) == [50, 20, 10, 20]


def test_overlapping_children_are_counted_once_and_clipped():
    recorded = [
        span("constraints.cegis", 0, 100),
        span("smt.solver", 10, 50, parent=0),
        span("smt.lia", 30, 60, parent=0),  # overlaps the previous child
        span("smt.sat", 90, 130, parent=0),  # runs past the parent's end
    ]
    # Children cover [10, 60) and [90, 100): 60 of the parent's 100.
    assert spans.self_times(recorded)[0] == 40


def test_aggregate_per_layer():
    recorded = [
        span("core.synthesizer", 0, 1_000_000_000),
        span("typing.checker", 0, 400_000_000, parent=0, outcome=True),
        span("typing.checker", 500_000_000, 600_000_000, parent=0, outcome=False),
    ]
    layers = spans.aggregate(recorded)
    checker = layers["typing.checker"]
    assert checker["calls"] == 2
    assert abs(checker["busy_s"] - 0.5) < 1e-9
    assert (checker["accepted"], checker["outcomes"]) == (1, 2)
    assert abs(layers["core.synthesizer"]["self_s"] - 0.5) < 1e-9
    assert spans.root_coverage_ns(recorded) == 1_000_000_000


def test_reentrant_calls_count_once_at_the_outermost_call():
    ticks = iter(range(0, 1000, 10))
    recorder = spans.SpanRecorder(clock=lambda: next(ticks))

    def check_eterm(depth):
        return None if depth == 0 else inner(depth - 1)

    inner = recorder.wrap("typing.checker", check_eterm, outcome=lambda r: r is not None)
    solver = recorder.wrap("smt.solver", lambda: True)
    outer = recorder.wrap("typing.checker", lambda: (solver(), inner(3))[1])
    outer()
    names = [s[spans.NAME] for s in recorder.spans]
    assert names == ["typing.checker", "smt.solver"]
    assert recorder.spans[1][spans.PARENT] == 0
    assert all(s[spans.END] >= s[spans.START] for s in recorder.spans)


def test_install_wraps_every_target_once():
    recorder = spans.SpanRecorder()
    from repro.typing.checker import TypeChecker

    original = TypeChecker.check_eterm
    try:
        recorder.install()
        wrapped = TypeChecker.check_eterm
        recorder.install()
        assert TypeChecker.check_eterm is wrapped
        assert wrapped.__wrapped_layer__ == "typing.checker"
    finally:
        _uninstall()
        assert TypeChecker.check_eterm is original


def _uninstall():
    import importlib

    for _, module_name, path, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        current = getattr(owner, attr)
        if getattr(current, "__wrapped_layer__", None) is not None:
            setattr(owner, attr, current.__wrapped__)
