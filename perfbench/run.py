"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload resyn-cegis --seed 1 --seconds 20 --trace 0

Workloads: ``resyn-cegis`` and ``synquid-enum`` (in-process synthesis),
``serve-mix`` (the HTTP server under closed-loop load) and
``batch-portfolio`` (``PortfolioRunner`` over a batch).  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its
per-layer ones (see ``perfbench/README.md``).  Every program is re-checked
independently of the Re2 checker (:mod:`check`); a program that fails
makes the run print ``"correct": false`` and exit 1.  The last line of
standard output is the JSON result; the lines before it are a readable
summary.

The measured work always runs in child processes started here, so the
process tree whose memory is sampled is exactly the one doing the work.
Each child leads its own process group, and every group is killed and
reaped before the run exits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 12
SERVER_BOOTS = 5
WORKERS = 2
KILL_GRACE = 5.0


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


class BenchError(RuntimeError):
    """A child process failed or never became ready."""


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int
    failed: int
    solved_frac: float
    wall_s: float
    latencies: List[float]
    jobs_per_s: float
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

_CHILDREN: List[subprocess.Popen] = []


def spawn(args: Sequence[str]) -> subprocess.Popen:
    """Start ``python args...`` at the repository root in a new process group.

    Children see the library on their path and no ``REPRO_*`` variable, so
    the library's own tracer, fault injection and caches stay off.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    _CHILDREN.append(proc)
    return proc


def wait_for_line(proc: subprocess.Popen, prefix: str) -> str:
    for line in proc.stdout:
        if line.startswith(prefix):
            return line.strip()
    proc.wait()
    raise BenchError(f"child {proc.args} exited ({proc.returncode}) before printing {prefix!r}")


def finish(proc: subprocess.Popen) -> Optional[dict]:
    """Reap a child; return its last stdout line as JSON (``None`` if not JSON)."""
    last = ""
    for line in proc.stdout:
        if line.strip():
            last = line
    if proc.wait() != 0:
        raise BenchError(f"child {proc.args} failed with exit code {proc.returncode}")
    return json.loads(last) if last.startswith("{") else None


def kill_group(proc: subprocess.Popen) -> None:
    """Terminate ``proc``'s process group and wait until no member is left;
    members still there ``KILL_GRACE`` seconds after SIGTERM get SIGKILL."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + KILL_GRACE
        while _group_alive(proc) and time.monotonic() < deadline:
            time.sleep(0.02)
        if not _group_alive(proc):
            break
    proc.wait()


def _group_alive(proc: subprocess.Popen) -> bool:
    proc.poll()  # reap the leader: an unreaped zombie still counts as a member
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return False
    return True


class TreeRss:
    """Samples the summed resident memory of process trees (from /proc)."""

    PAGE = os.sysconf("SC_PAGE_SIZE")
    INTERVAL = 0.05

    def __init__(self) -> None:
        self.roots: List[int] = []
        self.peak_bytes = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "TreeRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()

    @staticmethod
    def _tree(pid: int) -> List[int]:
        pids, todo = [], [pid]
        while todo:
            current = todo.pop()
            pids.append(current)
            try:
                with open(f"/proc/{current}/task/{current}/children") as handle:
                    todo.extend(int(child) for child in handle.read().split())
            except OSError:
                pass
        return pids

    def _loop(self) -> None:
        while not self._done.wait(self.INTERVAL):
            total = 0
            for root in list(self.roots):
                for pid in self._tree(root):
                    try:
                        with open(f"/proc/{pid}/statm") as handle:
                            total += int(handle.read().split()[1]) * self.PAGE
                    except (OSError, IndexError, ValueError):
                        pass
            self.peak_bytes = max(self.peak_bytes, total)

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1024 * 1024)


def setup_probes(args: Sequence[str], count: int) -> List[float]:
    """Start ``count`` children with ``--setup-only``; time each until it
    prints ``ready``.  Runs call this before and after the measured work,
    so the probes span the run rather than one spell of the host."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = spawn([*args, "--setup-only"])
        wait_for_line(proc, "ready")
        times.append(time.perf_counter() - start)
        finish(proc)
    return times


# ---------------------------------------------------------------------------
# Statistics and checks
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], pct: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Checker:
    """Runs the independent check once per distinct (goal, program)."""

    def __init__(self, items: Sequence[workloads.Item], seed: int) -> None:
        self.items = {item.tag: item for item in items}
        self.seed = seed
        self._verdicts: Dict[tuple, bool] = {}
        self.costs: Dict[str, int] = {}
        self.failures: List[str] = []
        #: Passes on goals whose spec is too weak to mean much (check.VACUOUS_SPECS).
        self.vacuous: List[str] = []
        #: tag -> every outcome seen: program text, or "unsolved".
        self.observed: Dict[str, set] = {}

    def verdict(self, tag: str, program: Optional[str], winner: Optional[str] = None) -> bool:
        """Whether ``program`` solves ``tag``'s goal; records failures and cost.

        ``winner`` is the portfolio rung that produced it, checked against
        the goal's ``expected_winner`` when it has one.
        """
        self.observed.setdefault(tag, set()).add(program if program is not None else "unsolved")
        if program is None:
            return False
        key = (tag, program, winner)
        if key not in self._verdicts:
            import check

            item = self.items[tag]
            goal, input_maker, expected_winner = workloads.goal_for(item)
            try:
                ast = check.parse_program(program)
                result = check.check_program(goal, ast, self.seed, input_maker, item.key)
                ok, reason = result.ok, result.reason
                if ok:
                    self.costs.setdefault(tag, check.cost_units(goal, ast, input_maker))
                if ok and result.vacuous:
                    self.vacuous.append(f"{tag}: {check.VACUOUS_SPECS[item.key]}")
            except check.ParseError as err:
                ok, reason = False, f"unparsable program: {err}"
            if ok and expected_winner is not None and winner != expected_winner:
                ok, reason = False, f"winner {winner!r}, expected {expected_winner!r}"
            if not ok:
                self.failures.append(f"{tag}: {reason}: {program}")
            self._verdicts[key] = ok
        return self._verdicts[key]

    def drift(self, workload: str) -> int:
        expected = workloads.expected_for(workload) or {}
        return sum(1 for tag, seen in self.observed.items() if seen != {expected.get(tag)})


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def run_inproc(opts, checker: Checker) -> Outcome:
    base = ["perfbench/inproc.py", "--workload", opts.workload, "--seed", str(opts.seed)]
    if opts.smoke:
        base.append("--smoke")
    setups: List[float] = []
    rss = None
    if opts.trace:
        passes = [_inproc_pass(base + ["--trace"])]
    else:
        setups = setup_probes(base, SETUP_PROBES // 2)
        passes = []
        start = time.perf_counter()
        with TreeRss() as rss:
            while True:
                passes.append(_inproc_pass(base, rss))
                setups.append(passes[-1]["setup_s"])
                if not workloads.another_pass(time.perf_counter() - start,
                                              passes[-1]["wall_s"], opts.seconds):
                    break
        setups += setup_probes(base, SETUP_PROBES - SETUP_PROBES // 2)
    # A goal's time is the median of its repetitions within a pass; the
    # goal list's time is the sum of those.  Repetitions count once towards
    # solved_frac.
    goal_times = []
    outcomes = set()
    for index, p in enumerate(passes):
        runs: Dict[str, List[float]] = {}
        for goal in p["goals"]:
            runs.setdefault(goal["tag"], []).append(goal["wall_s"])
            outcomes.add((index, goal["tag"], goal["program"]))
        goal_times.append([statistics.median(times) for times in runs.values()])
    solved = sum(checker.verdict(tag, program) for _, tag, program in outcomes)
    outcome = Outcome(
        attempted=sum(len(p["goals"]) for p in passes),
        failed=0,
        solved_frac=solved / len(outcomes),
        wall_s=statistics.median(sum(times) for times in goal_times),
        latencies=[t for times in goal_times for t in times],
        jobs_per_s=statistics.median(len(times) / sum(times) for times in goal_times),
    )
    if opts.trace:
        outcome.layers = _inproc_layers(passes[0]["goals"])
    else:
        outcome.setup_s = statistics.median(setups)
        outcome.peak_rss_mb = rss.peak_mb
    return outcome


def _inproc_pass(args: List[str], rss: Optional[TreeRss] = None) -> dict:
    start = time.perf_counter()
    proc = spawn(args)
    if rss is not None:
        rss.roots = [proc.pid]
    wait_for_line(proc, "ready")
    setup = time.perf_counter() - start
    result = finish(proc)
    result["setup_s"] = setup
    return result


def _inproc_layers(goals: List[dict]) -> Dict[str, float]:
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    for goal in goals:
        for layer, entry in goal["layers"].items():
            into = spans.setdefault(layer, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
        for key, value in goal["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def span(layer: str, key: str) -> float:
        return spans.get(layer, {}).get(key, 0)

    layers = {"core.synthesizer.self_s": span("core.synthesizer", "self_s")}
    for key in ("eterm_checks", "candidates_checked", "resource_rejections",
                "functional_rejections"):
        layers[f"core.synthesizer.{key}"] = counters[key]
    for layer in ("typing.checker", "constraints.cegis", "smt.solver", "smt.encoder", "smt.sat",
                  "smt.lia"):
        layers[f"{layer}.calls"] = span(layer, "calls")
        layers[f"{layer}.busy_s"] = span(layer, "busy_s")
        layers[f"{layer}.self_s"] = span(layer, "self_s")
    layers.update(
        {
            "typing.checker.accept_ratio": ratio(
                span("typing.checker", "accepted"), span("typing.checker", "outcomes")
            ),
            "constraints.cegis.counterexamples": counters["cegis_counterexamples"],
            "constraints.cegis.solved_ratio": ratio(
                span("constraints.cegis", "accepted"), span("constraints.cegis", "outcomes")
            ),
            "smt.solver.valid_cache_hit_rate": ratio(
                counters["valid_cache_hits"], counters["valid_cache_lookups"]
            ),
            "smt.encoder.gate_cache_hit_rate": ratio(
                counters["gate_cache_hits"], counters["gate_cache_queries"]
            ),
            "smt.sat.conflicts": counters["sat_conflicts"],
            "smt.sat.decisions": counters["sat_decisions"],
            "smt.lia.eliminations": counters["lia_eliminations"],
            "smt.lia.cache_hit_rate": ratio(counters["lia_cache_hits"], counters["lia_queries"]),
            "spans.coverage": ratio(
                sum(goal["covered_s"] for goal in goals), sum(goal["wall_s"] for goal in goals)
            ),
            "spans.overhead": ratio(
                sum(goal["wall_s"] for goal in goals), sum(goal["plain_wall_s"] for goal in goals)
            )
            - 1.0,
        }
    )
    return layers


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------


def boot_server() -> tuple:
    """Start the server; return (process, port, seconds until /healthz answered)."""
    import loadgen

    start = time.perf_counter()
    proc = spawn(["-m", "repro.service", "serve", "-j", str(WORKERS), "--port", "0"])
    line = wait_for_line(proc, "serving on")
    port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    while True:
        try:
            if loadgen.get_json("127.0.0.1", port, "/healthz").get("ok"):
                return proc, port, time.perf_counter() - start
        except (OSError, RuntimeError, ValueError):
            pass
        if time.perf_counter() > start + 60:
            raise BenchError("server did not answer /healthz within 60 s")
        time.sleep(0.005)


def shutdown_server(proc: subprocess.Popen, port: int) -> None:
    """Ask the server to drain and exit; kill its group if it does not."""
    import loadgen

    try:
        loadgen.request("127.0.0.1", port, "POST", "/shutdown", b"{}", 30)[2].close()
        proc.wait(60)
    except (OSError, subprocess.TimeoutExpired):
        pass
    kill_group(proc)
    finish(proc)


def boot_probes(count: int) -> List[float]:
    """Boot and shut down the server ``count`` times; the boot times."""
    times = []
    for _ in range(count):
        server, port, seconds = boot_server()
        shutdown_server(server, port)
        times.append(seconds)
    return times


def run_serve(opts, checker: Checker, pool_size: int) -> Outcome:
    # Boots before and after the measured one, so they span the run.
    probes = 0 if opts.trace else SERVER_BOOTS - 1
    setups = boot_probes(probes // 2)
    server, port, seconds = boot_server()
    setups.append(seconds)
    args = ["perfbench/loadgen.py", "--port", str(port), "--seed", str(opts.seed),
            "--seconds", str(opts.seconds)]
    if opts.smoke:
        args.append("--smoke")
    with TreeRss() as rss:
        rss.roots = [server.pid]
        load = spawn(args)
        rss.roots = [server.pid, load.pid]
        report = finish(load)
    shutdown_server(server, port)
    setups += boot_probes(probes - probes // 2)

    requests = report["requests"]
    ok = [r for r in requests if r["status"] == "ok"]
    solved = sum(checker.verdict(r["tag"], r["result"]["program"]) for r in ok)
    jobs_per_s = len(ok) / report["elapsed_s"]
    outcome = Outcome(
        attempted=len(requests),
        failed=len(requests) - len(ok),
        solved_frac=solved / len(requests),
        wall_s=ratio(pool_size, jobs_per_s),
        latencies=[r["done"] - r["sent"] for r in ok],
        jobs_per_s=jobs_per_s,
        setup_s=statistics.median(setups),
        peak_rss_mb=rss.peak_mb,
    )
    if opts.trace:
        outcome.layers = _serve_layers(report, ok)
    return outcome


def _serve_layers(report: dict, ok: List[dict]) -> Dict[str, float]:
    before, after = report["stats_before"], report["stats_after"]

    def delta(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return float(a or 0) - float(b or 0)

    def p50(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    events = [r["events"] for r in ok]
    layers = {
        "service.serve.queue_s.p50": p50(
            [e["started"] - e["queued"] for e in events if "started" in e and "queued" in e]
        ),
        "service.serve.run_s.p50": p50(
            [e["result"] - e["started"] for e in events if "started" in e]
        ),
        "service.serve.overhead_s.p50": p50(
            [r["done"] - r["sent"] - r["result"]["seconds"] for r in ok]
        ),
        "service.serve.worker_utilization": ratio(
            delta("scheduler", "run_seconds"), report["elapsed_s"] * WORKERS
        ),
        "service.serve.retries": delta("scheduler", "retries"),
        "service.serve.worker_kills": delta("scheduler", "worker_kills"),
        "service.serve.admission_rejected": delta("server", "admission", "rejected"),
    }
    for key in ("reused_jobs", "valid_hits", "gate_hits"):
        layers[f"service.warm.{key}"] = delta("scheduler", "warm_state", key)
    return layers


# ---------------------------------------------------------------------------
# batch-portfolio
# ---------------------------------------------------------------------------


def run_batch(opts, checker: Checker) -> Outcome:
    base = ["perfbench/batch.py", "--seed", str(opts.seed)]
    if opts.smoke:
        base.append("--smoke")
    setups: List[float] = []
    rss = None
    if opts.trace:
        report = finish(spawn(base + ["--seconds", "0", "--sequential"]))
    else:
        setups = setup_probes(base + ["--seconds", "0"], SETUP_PROBES // 2)
        start = time.perf_counter()
        with TreeRss() as rss:
            proc = spawn(base + ["--seconds", str(opts.seconds)])
            rss.roots = [proc.pid]
            wait_for_line(proc, "ready")
            setups.append(time.perf_counter() - start)
            report = finish(proc)
        setups += setup_probes(base + ["--seconds", "0"], SETUP_PROBES - SETUP_PROBES // 2)
    passes = report["passes"]
    jobs = [job for p in passes for job in p["jobs"]]
    solved = sum(checker.verdict(job["tag"], job["program"], job["winner"]) for job in jobs)
    outcome = Outcome(
        attempted=len(jobs),
        failed=sum(1 for job in jobs if job["failure"]),
        solved_frac=solved / len(jobs),
        wall_s=statistics.median(p["wall_s"] for p in passes),
        # ``run`` hands back every result when the whole batch ends, so that
        # is each job's latency.
        latencies=[p["wall_s"] for p in passes for _ in p["jobs"]],
        jobs_per_s=statistics.median(len(p["jobs"]) / p["wall_s"] for p in passes),
    )
    if opts.trace:
        race, sequential = passes[0], report["sequential"]
        stats = race["stats"]
        outcome.layers = {
            "service.scheduler.queue_s": stats["queue_seconds"],
            "service.scheduler.run_s": stats["run_seconds"],
            # Busy share of the whole pass, as for the server (the runner's
            # own per-worker figure leaves out pool start-up and teardown).
            "service.scheduler.worker_utilization": ratio(
                stats["run_seconds"], race["wall_s"] * WORKERS
            ),
            "service.scheduler.retries": stats["retries"],
            "portfolio.runner.variants_raced": stats["variants_raced"],
            "portfolio.runner.variants_cancelled": stats["variants_cancelled"],
            "portfolio.runner.sequential_s": sequential["wall_s"],
            "portfolio.runner.speedup": ratio(sequential["wall_s"], race["wall_s"]),
        }
    else:
        outcome.setup_s = statistics.median(setups)
        outcome.peak_rss_mb = rss.peak_mb
    return outcome


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def measure(opts) -> tuple:
    """Run the workload; return (metrics, units, outcome, checker)."""
    items = workloads.pool(opts.workload, workloads.load_specs(), opts.smoke)
    checker = Checker(items, opts.seed)
    if opts.workload == "serve-mix":
        outcome = run_serve(opts, checker, len(items))
    elif opts.workload == "batch-portfolio":
        outcome = run_batch(opts, checker)
    else:
        outcome = run_inproc(opts, checker)
    if opts.trace:
        units = metric_units("per_layer")
        metrics = dict.fromkeys(units, 0.0)  # layers a workload does not exercise read 0
        metrics.update(outcome.layers)
        metrics["program_drift"] = checker.drift(opts.workload)
        metrics["failed_frac"] = ratio(outcome.failed, outcome.attempted)
    else:
        units = metric_units("end_to_end")
        metrics = {
            "setup_s": outcome.setup_s,
            "wall_s": outcome.wall_s,
            "solved_frac": outcome.solved_frac,
            "cost_units": sum(checker.costs.values()),
            "peak_rss_mb": outcome.peak_rss_mb,
            "latency_s.p50": percentile(outcome.latencies, 50),
            "latency_s.p95": percentile(outcome.latencies, 95),
            "jobs_per_s": outcome.jobs_per_s,
        }
    return metrics, units, outcome, checker


def write_expected(workload: str, checker: Checker) -> None:
    unstable = sorted(tag for tag, seen in checker.observed.items() if len(seen) > 1)
    if unstable:
        raise BenchError(f"outcomes differ between runs of {unstable}")
    expected = workloads.expected_outcomes()
    expected[workload] = {tag: min(seen) for tag, seen in sorted(checker.observed.items())}
    with open(os.path.join(HERE, "expected.json"), "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny goal lists (the benchmark's own tests)")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's programs in perfbench/expected.json")
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no library sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    try:
        metrics, units, outcome, checker = measure(opts)
        if opts.write_expected:
            write_expected(opts.workload, checker)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        for proc in _CHILDREN:
            kill_group(proc)

    if not opts.trace:
        beyond = sum(1 for value in outcome.latencies if value > metrics["latency_s.p95"])
        print(f"latency samples: {len(outcome.latencies)} ({beyond} beyond p95)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for note in checker.vacuous:
        print(f"passed a vacuous spec: {note}")
    for failure in checker.failures:
        print(f"FAILED CHECK {failure}", file=sys.stderr)
    result = {
        "correct": not checker.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
