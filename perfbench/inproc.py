"""One pass over an in-process workload's goal list (``resyn-cegis``,
``synquid-enum``).

Run by ``run.py`` as a child process::

    python perfbench/inproc.py --workload resyn-cegis --seed 3 [--trace]

It imports the library and builds the goals, prints ``ready`` (the end of
set-up), then synthesizes every goal serially in seeded order and prints
one JSON line.  Goals other than :data:`workloads.LONG_GOALS` run
:data:`workloads.REPEATS` times, spread over the pass (:func:`schedule`).
Each run is a forked copy of this process, so every goal starts from the
same cold process-wide caches and goal order cannot move a goal's time.  With ``--trace`` every goal
runs once untraced and once with the span wrappers of :mod:`spans`
installed, and reports its per-layer aggregates; ``--setup-only`` stops
after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Raw per-goal counters reported to the parent (summed over goals).
COUNTERS = (
    "eterm_checks",
    "cegis_counterexamples",
    "gate_cache_queries",
    "gate_cache_hits",
    "sat_conflicts",
    "sat_decisions",
    "lia_queries",
    "lia_cache_hits",
    "lia_eliminations",
)


def _run_goal(goal, config, tag: str, traced: bool) -> dict:
    from repro.core.synthesizer import Synthesizer

    recorder = None
    if traced:
        import spans

        recorder = spans.SpanRecorder()
        recorder.install()
        recorder.ident = tag
    synthesizer = Synthesizer(goal, config)
    result = synthesizer.synthesize()
    solver = synthesizer.solver.counters_snapshot()
    record = {
        "tag": tag,
        "program": str(result.program) if result.program is not None else None,
        "counters": {key: result.stats.get(key, 0) for key in COUNTERS},
    }
    record["counters"].update(
        candidates_checked=result.candidates_checked,
        resource_rejections=result.resource_rejections,
        functional_rejections=result.functional_rejections,
        valid_cache_hits=solver["valid_cache_hits"],
        valid_cache_lookups=solver["valid_cache_hits"] + solver["valid_cache_misses"],
    )
    if recorder is not None:
        import spans

        record["layers"] = spans.aggregate(recorder.spans)
        record["covered_s"] = spans.root_coverage_ns(recorder.spans) / 1e9
    return record


def _forked(fn):
    """Run ``fn()`` in a forked child; return its (picklable) result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        status = 0
        try:
            payload = pickle.dumps(("ok", fn()))
        except BaseException as err:  # report, never fall back into the parent's loop
            payload, status = pickle.dumps(("error", repr(err))), 1
        with os.fdopen(write_fd, "wb") as out:
            out.write(payload)
        os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as stream:
        data = stream.read()
    os.waitpid(pid, 0)
    kind, value = pickle.loads(data) if data else ("error", "child died without a result")
    if kind != "ok":
        raise RuntimeError(value)
    return value


def _timed_run(goal, config, tag: str, traced: bool) -> dict:
    """One forked synthesis of ``goal``, with its wall time (fork included)."""
    begun = time.perf_counter()
    record = _forked(lambda: _run_goal(goal, config, tag, traced))
    record["wall_s"] = time.perf_counter() - begun
    return record


def schedule(goals: list) -> list:
    """Untraced run order: the short goals ``REPEATS`` times, in rounds, with
    each long goal once, spaced evenly between the rounds.  A short goal's
    repetitions so span the whole pass, and a fast or slow spell of the host
    moves its median less than if they ran back to back."""
    short = [goal for goal in goals if goal[0] not in workloads.LONG_GOALS]
    long = [goal for goal in goals if goal[0] in workloads.LONG_GOALS]
    rounds = workloads.REPEATS
    order = []
    for r in range(rounds):
        order.extend(short)
        order.extend(goal for i, goal in enumerate(long)
                     if (i + 1) * rounds // (len(long) + 1) - 1 == r)
    return order


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.INPROC_GOALS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.benchsuite.definitions import benchmark_by_key
    from repro.benchsuite.runner import benchmark_config

    specs = workloads.load_specs()
    items = workloads.ordered(workloads.pool(args.workload, specs, args.smoke), args.seed)
    goals = []
    for item in items:
        bench = benchmark_by_key(item.key)
        goals.append((item.tag, bench.goal, benchmark_config(bench, item.mode)))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    records = []
    start = time.perf_counter()
    if args.trace:
        for tag, goal, config in goals:
            # Untraced and traced runs of a goal back to back, so the
            # overhead comparison sees the same machine conditions.
            plain = _timed_run(goal, config, tag, traced=False)
            traced = _timed_run(goal, config, tag, traced=True)
            records.append(dict(traced, plain_wall_s=plain["wall_s"]))
    else:
        for tag, goal, config in schedule(goals):
            records.append(_timed_run(goal, config, tag, traced=False))
    wall = time.perf_counter() - start
    print(json.dumps({"wall_s": wall, "goals": records}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
