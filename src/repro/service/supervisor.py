"""The supervisor: one pure state machine behind every scheduling loop.

The batch scheduler (:mod:`repro.service.scheduler`), the long-running server
(:mod:`repro.service.serve`) and portfolio races all make the same decisions:
which job runs next, what a crashed or hung worker means for its job, when a
retry is due, when a portfolio rung has won.  :class:`Supervisor` makes them
in exactly one place.  It owns no processes, threads or clocks — the caller
passes ``now`` in — so every failure path is unit-testable with a fake clock.

Inputs::

    submit(handle, job, now)              a logical job arrives
    dispatch(now, slots) -> [Task]        up to ``slots`` tasks may start
    requeue(tasks)                        those tasks could not be delivered
    worker_event(kind, task, body, now)   ok | error | crash | hang
    cancel_all()                          stop: answer every open job

Every input returns the :class:`Action` list the caller must apply: ``kill``
(reclaim the worker of a cancelled portfolio rung, if it is running),
``retry`` (a lost task was rescheduled with backoff; informational) and
``finish`` (a job's final :class:`JobResult`).  :meth:`Supervisor.next_wakeup`
is the earliest retry due time, so a caller can bound its poll.

What lives here and nowhere else: the FIFO queue and retry heap, per-
fingerprint worker-kill counts with the :func:`classify_failure` poison
verdict, in-flight deduplication with follower copies, result completion
(strip timings and the warm block, store to the cache), and portfolio
groups.  A group is one logical asymptotic job whose bound ladder expands
into indexed rungs (:func:`repro.portfolio.variants.expand_goal`).  The
winner rule follows Hu et al., *Synthesis with Asymptotic Resource Bounds*:
the lowest successful index wins; the win is final once every lower rung
has resolved; every rung above the winner is cancelled.  ``racing`` only
sets how many rungs of one group may be in flight at once — all of them, or
one (the sequential ladder) — so both policies report the same winner.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SynthesisConfig
from repro.core.goals import SynthesisGoal, SynthesisResult
from repro.service import warm
from repro.service.codec import config_from_json, config_to_json, goal_from_json, goal_to_json
from repro.service.fingerprint import job_fingerprint

#: Default number of times a crash-classified failure is re-executed.
DEFAULT_RETRIES = 2
#: A job that costs this many worker processes is poison: error, never retry.
POISON_KILLS = 2
#: Deterministic capped exponential backoff: base * 2**(attempt-1), <= cap.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0
#: Environment gate for portfolio racing (default on).
PORTFOLIO_ENV = "REPRO_PORTFOLIO"
_OFF_VALUES = {"0", "off", "no", "false"}


def portfolio_enabled() -> bool:
    """Whether the ``REPRO_PORTFOLIO`` gate allows racing (default yes)."""
    return os.environ.get(PORTFOLIO_ENV, "on").strip().lower() not in _OFF_VALUES


def classify_failure(kills: int, attempts: int, retry_budget: int) -> str:
    """Worker-loss verdict: ``poison`` | ``retry`` | ``final``."""
    if kills >= POISON_KILLS:
        return "poison"
    if attempts <= retry_budget:
        return "retry"
    return "final"


#: Counter keys that are plain sums and therefore meaningful to aggregate
#: across workers (rates and averages are recomputed, never summed).
def _summable(key: str, value: object) -> bool:
    return isinstance(value, (int, float)) and not key.endswith(("_rate", "_avg_core_size"))


@dataclass(frozen=True)
class Job:
    """One schedulable synthesis problem, fully serializable."""

    goal_json: dict
    config_json: dict
    #: Caller-chosen label used to correlate results (e.g. ``t1_append/resyn``).
    tag: str
    #: Per-job wall-clock budget; overrides the config timeout when tighter.
    timeout: Optional[float] = None
    #: Per-job retry budget for crash-classified failures; ``None`` uses the
    #: scheduler's.  Like ``timeout``, retry policy is *scheduling*, not part
    #: of the synthesis problem, so it is excluded from the fingerprint.
    retries: Optional[int] = None
    fingerprint: str = ""

    def goal(self) -> SynthesisGoal:
        return goal_from_json(self.goal_json)

    def config(self) -> SynthesisConfig:
        return config_from_json(self.config_json)

    @property
    def soft_timeout(self) -> Optional[float]:
        """The effective soft budget anchoring the parent's hard deadline."""
        config_timeout = self.config_json.get("timeout")
        soft = self.timeout
        if config_timeout is not None:
            soft = config_timeout if soft is None else min(soft, config_timeout)
        return soft


def job_for_goal(
    goal: SynthesisGoal,
    config: Optional[SynthesisConfig] = None,
    tag: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> Job:
    """Package a goal + configuration as a schedulable, cache-addressable job."""
    config = config or SynthesisConfig.resyn()
    return Job(
        goal_json=goal_to_json(goal),
        config_json=config_to_json(config),
        tag=tag if tag is not None else goal.name,
        timeout=timeout,
        retries=retries,
        fingerprint=job_fingerprint(goal, config),
    )


def portfolio_block(
    bound: Optional[str], ladder: Sequence[str], winner: Optional[int]
) -> Dict[str, object]:
    """The deterministic ``stats["portfolio"]`` attribution of a bound ladder.

    A pure function of the goal plus the winner index (``None``: no rung
    admitted a program), so it is safe to cache under the logical
    fingerprint.
    """
    return {
        "bound": bound,
        "ladder": list(ladder),
        "variants_total": len(ladder),
        "winner": ladder[winner] if winner is not None else None,
        "winner_index": winner,
    }


def is_portfolio_job(job: Job) -> bool:
    """Whether ``job``'s goal carries an asymptotic bound block."""
    return "bound" in job.goal_json


def variant_jobs(job: Job, variants: Sequence) -> List[Job]:
    """Concrete jobs for portfolio ``variants``, tagged ``{tag}@{label}``.

    Each variant job gets its own content fingerprint (the concrete rung goal
    and config), so variant results are individually cacheable alongside the
    logical goal's winner record.
    """
    return [
        job_for_goal(
            variant.goal,
            variant.config,
            tag=f"{job.tag}@{variant.label}",
            timeout=job.timeout,
            retries=job.retries,
        )
        for variant in variants
    ]


@dataclass
class JobResult:
    """Outcome of one job: a result record plus scheduling metadata."""

    tag: str
    fingerprint: str
    record: Optional[Dict[str, object]] = None
    cache_hit: bool = False
    #: Another job in the same batch had the same fingerprint and ran for us.
    deduplicated: bool = False
    timed_out: bool = False
    #: The parent killed the worker at the hard deadline (soft + grace).
    hard_timed_out: bool = False
    cancelled: bool = False
    error: Optional[str] = None
    #: Execution attempts consumed (0 = served without executing: cache/dedup).
    attempts: int = 0
    #: Time the job sat in the queue before a worker picked it up (seconds).
    queue_seconds: float = 0.0
    #: Wall-clock the worker spent executing the job (seconds).
    run_seconds: float = 0.0
    #: PID of the worker process that executed the job (0 = not executed).
    worker_pid: int = 0
    #: Warm-solver counter block from the executing worker (None when the job
    #: ran cold).  Stripped from the record before caching, like the timings.
    warm: Optional[Dict[str, object]] = None
    #: Run-level portfolio attribution (None for non-portfolio jobs): how the
    #: race actually unfolded — per-variant outcomes, cancellations, timings.
    #: Timing-dependent, so carried here rather than in the cached record;
    #: the deterministic part of the attribution (winner, ladder) lives in
    #: ``record["stats"]["portfolio"]``.
    portfolio: Optional[Dict[str, object]] = None

    @property
    def succeeded(self) -> bool:
        return self.record is not None and self.record.get("program") is not None

    @property
    def program_text(self) -> Optional[str]:
        return self.record.get("program_text") if self.record else None

    @property
    def seconds(self) -> float:
        return float(self.record.get("seconds", 0.0)) if self.record else 0.0

    @property
    def stats(self) -> Dict[str, object]:
        return dict(self.record.get("stats") or {}) if self.record else {}

    def deduplicated_for(self, job: Job) -> "JobResult":
        """The copy a deduplicated follower ``job`` receives of this result."""
        return JobResult(
            tag=job.tag,
            fingerprint=job.fingerprint,
            record=self.record,
            cache_hit=self.cache_hit,
            deduplicated=True,
            timed_out=self.timed_out,
            hard_timed_out=self.hard_timed_out,
            cancelled=self.cancelled,
            error=self.error,
            portfolio=self.portfolio,
        )

    def failure_reason(self) -> Optional[str]:
        """Human-readable reason when no record was produced (else ``None``)."""
        if self.record is not None:
            return None
        if self.error is not None:
            return self.error
        if self.hard_timed_out:
            return "hard timeout (worker killed at soft timeout + grace)"
        if self.cancelled:
            return "cancelled"
        return "no record"

    def to_synthesis_result(self, goal: SynthesisGoal, strict: bool = True) -> SynthesisResult:
        """Rebuild the full :class:`SynthesisResult` for ``goal``.

        Jobs that produced no record (cancelled, crashed, hard-timed-out)
        raise in strict mode; with ``strict=False`` they come back as an
        explicit failure result (no program, the reason under
        ``stats["service_failure"]``) so one bad job does not abort
        consumption of a whole batch.
        """
        if self.record is not None:
            return SynthesisResult.from_record(self.record, goal)
        reason = self.failure_reason() or "no record"
        if strict:
            raise ValueError(f"job {self.tag!r} produced no record ({reason})")
        return SynthesisResult(
            goal=goal, program=None, seconds=0.0, stats={"service_failure": reason}
        )


@dataclass
class SchedulerStats:
    """Aggregated statistics of one batch run (or of a server's lifetime)."""

    jobs: int = 0
    workers: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    #: Jobs that actually invoked the synthesizer (misses minus dedups).
    synth_runs: int = 0
    timeouts: int = 0
    cancelled: int = 0
    errors: int = 0
    #: Crash-classified re-executions performed this run.
    retries: int = 0
    #: Worker processes lost mid-job (crashed on their own or parent-killed).
    worker_kills: int = 0
    #: Jobs whose worker was killed at the hard deadline (soft + grace).
    hard_timeouts: int = 0
    #: Jobs declared poison after killing POISON_KILLS workers.
    poisoned: int = 0
    #: Replacement workers spawned after a loss (pool rebuilds).
    pool_rebuilds: int = 0
    #: Portfolio variants dispatched across all portfolio races this run.
    variants_raced: int = 0
    #: Portfolio variants cancelled because a higher-priority variant won.
    variants_cancelled: int = 0
    #: 1 when pool creation failed entirely and jobs ran on the serial backend.
    degraded_serial: int = 0
    wall_seconds: float = 0.0
    #: Sum of per-job synthesis seconds actually spent this run
    #: (serial-equivalent work performed).
    cpu_seconds: float = 0.0
    #: Synthesis seconds avoided by cache hits and in-batch deduplication
    #: (from the stored records of the original runs).
    saved_seconds: float = 0.0
    #: Total seconds jobs spent waiting in the queue before a worker picked
    #: them up (submission to execution start, summed over executed jobs).
    queue_seconds: float = 0.0
    #: Total seconds workers spent executing jobs (the busy time that
    #: ``worker_utilization`` divides by the wall clock).
    run_seconds: float = 0.0
    #: Busy fraction per worker, keyed ``w0..wN`` (workers sorted by PID).
    worker_utilization: Dict[str, float] = field(default_factory=dict)
    #: Solver/search counters summed across all completed jobs.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Warm-solver reuse across jobs (empty when the run executed cold).
    #: ``reused_jobs`` counts jobs that started with nonempty warm caches —
    #: the proof that worker state survived between jobs.
    warm_state: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "deduplicated": self.deduplicated,
            "synth_runs": self.synth_runs,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "errors": self.errors,
            "retries": self.retries,
            "worker_kills": self.worker_kills,
            "hard_timeouts": self.hard_timeouts,
            "poisoned": self.poisoned,
            "pool_rebuilds": self.pool_rebuilds,
            "variants_raced": self.variants_raced,
            "variants_cancelled": self.variants_cancelled,
            "degraded_serial": self.degraded_serial,
            "wall_seconds": round(self.wall_seconds, 4),
            "cpu_seconds": round(self.cpu_seconds, 4),
            "saved_seconds": round(self.saved_seconds, 4),
            "queue_seconds": round(self.queue_seconds, 4),
            "run_seconds": round(self.run_seconds, 4),
            "worker_utilization": dict(self.worker_utilization),
            "counters": dict(self.counters),
            "warm_state": dict(self.warm_state),
        }


def tally_result(stats: SchedulerStats, result: JobResult) -> None:
    """Fold one job outcome into ``stats``.

    Counters and cpu_seconds measure work *performed*; cache hits and dedup
    copies only contribute to saved_seconds.
    """
    if result.timed_out:
        stats.timeouts += 1
    if result.cancelled:
        stats.cancelled += 1
    if result.error is not None:
        stats.errors += 1
    if result.record is None or result.deduplicated or result.cache_hit:
        if result.record is not None and (result.deduplicated or result.cache_hit):
            stats.saved_seconds += result.seconds
        return
    stats.cpu_seconds += result.seconds
    stats.queue_seconds += result.queue_seconds
    stats.run_seconds += result.run_seconds
    if result.warm:
        warm.aggregate(stats.warm_state, result.warm)
    for key, value in result.stats.items():
        if _summable(key, value):
            stats.counters[key] = stats.counters.get(key, 0) + value
    for key in ("candidates_checked", "cegis_counterexamples"):
        value = result.record.get(key)
        if isinstance(value, (int, float)):
            stats.counters[key] = stats.counters.get(key, 0) + value


# ---------------------------------------------------------------------------
# The state machine
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Task:
    """One executable unit: a plain job, or one rung of a portfolio group.

    Tasks are the tokens a caller hands to its worker pool; they compare by
    identity.
    """

    job: Job
    entry: "_Entry"
    #: Rung index within the portfolio group (-1 for a plain job).
    index: int = -1
    #: Rung label (e.g. ``O(n)[c=2]``); empty for a plain job.
    label: str = ""
    #: ``pending`` (rung not admitted yet) | ``queued`` | ``active`` |
    #: ``retry`` (waiting out its backoff) | ``done``.
    state: str = "queued"
    attempts: int = 0
    #: Worker kills charged to this task when its job has no fingerprint
    #: (fingerprinted jobs share the supervisor-wide kill memory).
    kills: int = 0
    #: Whether this rung was ever dispatched (counted once in ``raced``).
    raced: bool = False
    result: Optional[JobResult] = None
    #: A rung's final status: won | failed | cancelled | skipped.
    outcome: str = ""

    @property
    def handle(self) -> object:
        """The caller's handle of the logical job this task belongs to."""
        return self.entry.handle

    @property
    def submitted(self) -> float:
        return self.entry.submitted


@dataclass(eq=False)
class _Entry:
    """One open logical job (plain or portfolio group) and its followers."""

    seq: int
    handle: object
    job: Job
    submitted: float
    tasks: List[Task] = field(default_factory=list)
    #: Dedup followers: ``(handle, job)`` pairs that receive a copy.
    followers: List[Tuple[object, Job]] = field(default_factory=list)
    #: Bound class of a portfolio group; ``None`` for a plain job.
    bound: Optional[str] = None
    raced: int = 0
    cancelled: int = 0


@dataclass
class Action:
    """One thing the caller must do: ``kill`` | ``retry`` | ``finish``."""

    kind: str
    #: The caller's handle of the logical job the action concerns.
    handle: object
    task: Optional[Task] = None
    result: Optional[JobResult] = None
    #: ``retry`` only: why the task was lost (``crash`` | ``hang``) and how.
    cause: str = ""
    detail: str = ""


class Supervisor:
    """Queue, retries, poison, dedup, caching and portfolio groups, purely.

    One instance per batch run; a server keeps one for its whole lifetime,
    which is what makes its poison memory outlive the request that taught
    it.  ``cache`` is anything with ``lookup``/``store`` (or ``None``).
    """

    def __init__(
        self,
        cache=None,
        retries: int = DEFAULT_RETRIES,
        backoff_base: float = BACKOFF_BASE,
        backoff_cap: float = BACKOFF_CAP,
        racing: bool = True,
        stats: Optional[SchedulerStats] = None,
    ) -> None:
        self.cache = cache
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: All rungs of a group in flight at once (True) or one at a time.
        self.racing = racing
        self.stats = stats if stats is not None else SchedulerStats()
        #: Busy seconds of completed tasks, by worker PID.
        self.worker_seconds: Dict[int, float] = {}
        self._queue: Deque[Task] = deque()
        self._retries: List[Tuple[float, int, Task]] = []
        self._open: Dict[int, _Entry] = {}
        self._inflight: Dict[Tuple[str, Optional[float]], _Entry] = {}
        #: Fingerprint -> workers killed, for the supervisor's lifetime.
        self._kills: Dict[str, int] = {}
        self._seq = count()
        self._out: List[Action] = []

    # -- observation ---------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether any submitted job is still unanswered."""
        return bool(self._open)

    @property
    def queued(self) -> int:
        """Tasks ready to dispatch now."""
        return len(self._queue)

    @property
    def queue_depth(self) -> int:
        """Tasks waiting for a worker, including those backing off."""
        return len(self._queue) + len(self._retries)

    def next_wakeup(self) -> Optional[float]:
        """When the earliest pending retry becomes due (``None``: none)."""
        return self._retries[0][0] if self._retries else None

    def poisoned_fingerprints(self) -> int:
        return sum(1 for kills in self._kills.values() if kills >= POISON_KILLS)

    def backoff(self, attempt: int) -> float:
        """Deterministic capped exponential backoff before retry ``attempt``."""
        return min(self.backoff_base * (2 ** max(attempt - 1, 0)), self.backoff_cap)

    # -- inputs --------------------------------------------------------------
    def submit(self, handle: object, job: Job, now: float) -> List[Action]:
        """Admit one logical job: refuse, answer from cache, follow, or queue."""
        self.stats.jobs += 1
        refusal = self._refusal(job)
        if refusal is not None:
            self.stats.poisoned += 1
            self._deliver(handle, refusal)
            return self._take()
        cached = self._cached(job)
        if cached is not None:
            self.stats.cache_hits += 1
            self._deliver(handle, cached)
            return self._take()
        # Deduplicate on (fingerprint, timeout): the per-job timeout is not
        # part of the fingerprint, but it decides whether a job times out, so
        # jobs with different budgets must not share one execution.
        key = (job.fingerprint, job.timeout)
        primary = self._inflight.get(key) if job.fingerprint else None
        if primary is not None:
            self.stats.deduplicated += 1
            primary.followers.append((handle, job))
            return self._take()
        entry = _Entry(next(self._seq), handle, job, now)
        self._open[entry.seq] = entry
        if job.fingerprint:
            self._inflight[key] = entry
        self.stats.synth_runs += 1
        if is_portfolio_job(job):
            self._expand(entry)
        else:
            task = Task(job, entry)
            entry.tasks.append(task)
            self._queue.append(task)
        return self._take()

    def dispatch(self, now: float, slots: int) -> List[Task]:
        """Release due retries, then hand out up to ``slots`` queued tasks."""
        due = []
        while self._retries and self._retries[0][0] <= now:
            due.append(heapq.heappop(self._retries)[2])
        self.requeue(due)
        tasks = []
        while self._queue and len(tasks) < slots:
            task = self._queue.popleft()
            task.state = "active"
            if task.index >= 0 and not task.raced:
                task.raced = True
                task.entry.raced += 1
                self.stats.variants_raced += 1
            tasks.append(task)
        return tasks

    def requeue(self, tasks: Sequence[Task]) -> None:
        """Put ``tasks`` back at the head of the queue, in order."""
        for task in reversed(tasks):
            task.state = "queued"
            self._queue.appendleft(task)

    def worker_event(self, kind: str, task: Task, body: object, now: float) -> List[Action]:
        """A worker reported ``ok`` (record) | ``error`` | ``crash`` | ``hang``."""
        if task.state != "active":
            return []  # cancelled while running: the verdict no longer matters
        task.attempts += 1
        job = task.job
        if kind == "ok":
            result = self._complete(task, body)
        elif kind == "error":
            result = JobResult(
                tag=job.tag, fingerprint=job.fingerprint, error=body, attempts=task.attempts
            )
        else:
            result = self._lost(task, kind, body, now)
        if result is not None:
            self._resolve(task, result)
        return self._take()

    def cancel_all(self) -> List[Action]:
        """Answer every open job as cancelled and forget all queued work."""
        for entry in list(self._open.values()):
            attempts = sum(task.attempts + (task.state == "active") for task in entry.tasks)
            for task in entry.tasks:
                task.state = "done"
            self._finish(
                entry,
                JobResult(
                    tag=entry.job.tag,
                    fingerprint=entry.job.fingerprint,
                    cancelled=True,
                    attempts=attempts,
                ),
            )
        self._queue.clear()
        self._retries.clear()
        return self._take()

    # -- internals -----------------------------------------------------------
    def _take(self) -> List[Action]:
        actions, self._out = self._out, []
        return actions

    def _refusal(self, job: Job) -> Optional[JobResult]:
        kills = self._kills.get(job.fingerprint, 0) if job.fingerprint else 0
        if kills < POISON_KILLS:
            return None
        return JobResult(
            tag=job.tag,
            fingerprint=job.fingerprint,
            error=f"poison job: killed {kills} workers already; refusing to re-execute",
        )

    def _cached(self, job: Job) -> Optional[JobResult]:
        if self.cache is None or not job.fingerprint:
            return None
        entry = self.cache.lookup(job.fingerprint)
        if entry is None:
            return None
        return JobResult(
            tag=job.tag,
            fingerprint=job.fingerprint,
            record=entry,
            cache_hit=True,
            timed_out=bool(entry.get("timed_out")),
        )

    def _complete(self, task: Task, record: dict) -> JobResult:
        # Scheduling timings and the warm counter block are properties of
        # *this run*, not of the fingerprinted job — strip them before the
        # record reaches the cache so entries stay byte-identical across runs
        # (and across warm/cold executions).
        job = task.job
        result = JobResult(
            tag=job.tag,
            fingerprint=job.fingerprint,
            queue_seconds=float(record.pop("queue_seconds", 0.0)),
            run_seconds=float(record.pop("run_seconds", 0.0)),
            warm=record.pop("warm", None),
            record=record,
            timed_out=bool(record.get("timed_out")),
            attempts=task.attempts,
            worker_pid=int(record.get("worker_pid", 0)),
        )
        if result.worker_pid:
            self.worker_seconds[result.worker_pid] = (
                self.worker_seconds.get(result.worker_pid, 0.0) + result.run_seconds
            )
        # Timed-out results are clock- and machine-dependent, not properties
        # of the fingerprinted payload — persisting them would make a later
        # run with a generous budget report the stale failure forever.
        if self.cache is not None and job.fingerprint and not result.timed_out:
            self.cache.store(job.fingerprint, record)
        return result

    def _lost(self, task: Task, cause: str, detail: str, now: float) -> Optional[JobResult]:
        """A worker died under ``task``: schedule a retry or build the failure."""
        job = task.job
        if job.fingerprint:
            kills = self._kills[job.fingerprint] = self._kills.get(job.fingerprint, 0) + 1
        else:
            task.kills += 1
            kills = task.kills
        if cause == "hang":
            self.stats.hard_timeouts += 1
        budget = job.retries if job.retries is not None else self.retries
        verdict = classify_failure(kills, task.attempts, budget)
        base = {"tag": job.tag, "fingerprint": job.fingerprint, "attempts": task.attempts}
        if verdict == "retry":
            self.stats.retries += 1
            task.state = "retry"
            due = now + self.backoff(task.attempts)
            heapq.heappush(self._retries, (due, next(self._seq), task))
            self._out.append(Action("retry", task.handle, task, cause=cause, detail=detail))
            return None
        if verdict == "poison":
            self.stats.poisoned += 1
            return JobResult(error=f"poison job: killed {kills} workers (last: {detail})", **base)
        if cause == "hang":
            return JobResult(timed_out=True, hard_timed_out=True, **base)
        return JobResult(error=detail, **base)

    def _resolve(self, task: Task, result: JobResult) -> None:
        task.state = "done"
        task.result = result
        if task.index < 0:
            self._finish(task.entry, result)
            return
        task.outcome = "won" if result.succeeded else "failed"
        self._evaluate(task.entry)

    def _finish(self, entry: _Entry, result: JobResult) -> None:
        del self._open[entry.seq]
        key = (entry.job.fingerprint, entry.job.timeout)
        if self._inflight.get(key) is entry:
            del self._inflight[key]
        self._deliver(entry.handle, result)
        for handle, job in entry.followers:
            self._deliver(handle, result.deduplicated_for(job))

    def _deliver(self, handle: object, result: JobResult) -> None:
        tally_result(self.stats, result)
        self._out.append(Action("finish", handle, result=result))

    # -- portfolio groups ----------------------------------------------------
    def _expand(self, entry: _Entry) -> None:
        """Expand an asymptotic job into its rungs, pre-resolving known ones."""
        # Imported here: the portfolio package imports the scheduler, which
        # imports this module.
        from repro.portfolio.variants import expand_goal

        goal = entry.job.goal()
        variants = expand_goal(goal, entry.job.config())
        entry.bound = goal.bound
        for index, (variant, vjob) in enumerate(zip(variants, variant_jobs(entry.job, variants))):
            task = Task(vjob, entry, index=index, label=variant.label, state="pending")
            entry.tasks.append(task)
            # Poison memory and the cache answer rungs without dispatching,
            # so a warm re-run never re-executes anything.
            known = self._refusal(vjob) or self._cached(vjob)
            if known is not None:
                task.state = "done"
                task.result = known
                task.outcome = "won" if known.succeeded else "failed"
            elif self.racing:
                task.state = "queued"
                self._queue.append(task)
        self._evaluate(entry)

    def _evaluate(self, entry: _Entry) -> None:
        """Advance a group: cancel losers, conclude, or admit the next rung."""
        tasks = entry.tasks
        wins = [task.index for task in tasks if task.result is not None and task.result.succeeded]
        winner = wins[0] if wins else None
        if winner is not None:
            for task in tasks[winner + 1 :]:
                if task.result is None:
                    self._cancel(task)
        # Only rungs tighter than the winner (all rungs, without one) can
        # still change the outcome; the win is final once they have resolved.
        unresolved = [task for task in tasks[:winner] if task.result is None]
        if not unresolved:
            self._conclude(entry, winner)
        elif unresolved[0].state == "pending":
            # Sequential ladder: admit the tightest rung not yet admitted —
            # also below a winner the cache already answered.
            unresolved[0].state = "queued"
            self._queue.append(unresolved[0])

    def _cancel(self, task: Task) -> None:
        """Reclaim a rung that can no longer win, wherever it is."""
        entry = task.entry
        if task.state == "pending":
            # Never admitted: nothing ran, so nothing is cancelled — the
            # ladder simply stopped short.
            task.outcome = "skipped"
        else:
            if task.state == "queued":
                self._queue.remove(task)
            elif task.state == "retry":
                self._retries = [item for item in self._retries if item[2] is not task]
                heapq.heapify(self._retries)
            task.outcome = "cancelled"
            entry.cancelled += 1
            self.stats.variants_cancelled += 1
            self._out.append(Action("kill", entry.handle, task))
        task.state = "done"
        task.result = JobResult(tag=task.job.tag, fingerprint=task.job.fingerprint, cancelled=True)

    def _conclude(self, entry: _Entry, winner: Optional[int]) -> None:
        """Build the logical job's result from its rungs and finish it."""
        job = entry.job
        tasks = entry.tasks
        rows = []
        for task in tasks:
            lost = task.outcome == "won" and task.index != winner
            row: Dict[str, object] = {
                "index": task.index,
                "label": task.label,
                "status": "lost" if lost else task.outcome,
            }
            if task.result.record is not None:
                row["seconds"] = round(task.result.seconds, 4)
                if task.result.cache_hit:
                    row["cache_hit"] = True
            rows.append(row)
        # The timing-dependent attribution block (never cached).
        run_info: Dict[str, object] = {
            "mode": "race" if self.racing else "serial",
            "variants": rows,
            "variants_raced": entry.raced,
            "variants_cancelled": entry.cancelled,
        }
        attempts = sum(task.result.attempts for task in tasks)
        if winner is None:
            reasons = "; ".join(
                f"{task.label}: {task.result.failure_reason() or 'no program'}" for task in tasks
            )
            self._finish(
                entry,
                JobResult(
                    tag=job.tag,
                    fingerprint=job.fingerprint,
                    error=f"portfolio: no variant satisfied the bound ({reasons})",
                    attempts=attempts,
                    portfolio=run_info,
                ),
            )
            return
        won = tasks[winner].result
        run_info["winner"] = tasks[winner].label
        # Sequential-ladder estimate: a ladder walk would have run exactly
        # rungs 0..winner, so their recorded seconds sum to its wall-clock.
        run_info["sequential_seconds"] = round(
            sum(task.result.seconds for task in tasks[: winner + 1]), 4
        )
        record = dict(won.record)
        stats_block = dict(record.get("stats") or {})
        stats_block["portfolio"] = portfolio_block(
            entry.bound, [task.label for task in tasks], winner
        )
        record["stats"] = stats_block
        if self.cache is not None and job.fingerprint and not won.timed_out:
            self.cache.store(job.fingerprint, record)
        self._finish(
            entry,
            JobResult(
                tag=job.tag,
                fingerprint=job.fingerprint,
                record=record,
                timed_out=won.timed_out,
                attempts=attempts,
                queue_seconds=won.queue_seconds,
                run_seconds=won.run_seconds,
                worker_pid=won.worker_pid,
                warm=won.warm,
                portfolio=run_info,
            ),
        )
