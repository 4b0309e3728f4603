"""Passes of the ``batch-portfolio`` workload.

Run by ``run.py`` as a child process::

    python perfbench/batch.py --seed 3 --seconds 20 [--sequential]

Builds one job per (goal, mode) of the pool (the asymptotic suite plus the
non-slow Table 1/2 goals in both modes), prints ``ready``, then runs the
whole batch through ``PortfolioRunner(workers=2).run`` again and again, in
a fresh seeded order each pass, for as many passes as end nearest to
``--seconds``.  With ``--sequential`` one more pass runs on one worker,
which walks every bound ladder rung by rung (the portfolio's speedup
baseline).  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_pass(workers: int, jobs) -> dict:
    """One ``PortfolioRunner.run`` over ``jobs`` (``(job, item)`` pairs)."""
    from repro.portfolio.runner import PortfolioRunner

    runner = PortfolioRunner(workers=workers)
    start = time.perf_counter()
    results = runner.run([job for job, _ in jobs])
    wall = time.perf_counter() - start
    records = []
    for (_, item), result in zip(jobs, results):
        portfolio = (result.record or {}).get("stats", {}).get("portfolio") or {}
        records.append(
            {
                "tag": item.tag,
                "program": result.program_text,
                "winner": portfolio.get("winner"),
                "failure": result.failure_reason(),
            }
        )
    return {"wall_s": wall, "jobs": records, "stats": runner.stats.as_dict()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--sequential", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.service.specs import jobs_from_spec

    items = workloads.pool("batch-portfolio", workloads.load_specs(), args.smoke)
    jobs = {item.tag: (jobs_from_spec(item.spec(), modes=[item.mode])[0], item) for item in items}
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes = []
    start = time.perf_counter()
    while True:
        order = workloads.ordered(items, args.seed, salt=f"pass{len(passes)}")
        passes.append(run_pass(2, [jobs[item.tag] for item in order]))
        if not workloads.another_pass(time.perf_counter() - start, passes[-1]["wall_s"],
                                      args.seconds):
            break
    report = {"passes": passes}
    if args.sequential:
        report["sequential"] = run_pass(1, list(jobs.values()))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
