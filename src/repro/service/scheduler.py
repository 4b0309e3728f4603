"""Parallel job scheduler for batch synthesis, with fault tolerance.

Fans a set of synthesis jobs out over a pool of worker processes and collects
results *deterministically*: results come back in submission order regardless
of which worker finished first, and the synthesized programs are byte-identical
to a serial run because the search itself is deterministic and verdict-driven
(:mod:`repro.core.synthesizer`) — parallelism only changes who executes a job,
never what the job computes.

Jobs cross the process boundary as plain JSON-able payloads (goals and
configurations via :mod:`repro.service.codec` — component closures never get
pickled) and results come back as the records of
:meth:`repro.core.goals.SynthesisResult.to_record`.

This module holds the process side: :class:`WorkerPool` (one long-lived
worker process per slot, a duplex pipe each — not ``multiprocessing.Pool``,
because fault tolerance needs to kill exactly one hung worker and to know
exactly which job died with a crashed one) and :class:`BatchScheduler`, a
thin loop that feeds pool outcomes into a
:class:`~repro.service.supervisor.Supervisor` and applies its actions.  Every
scheduling decision — queue order, retry backoff, poison verdicts,
deduplication, caching, portfolio races — is the supervisor's (see
``docs/ARCHITECTURE.md`` for the failure semantics).  Jobs whose goal carries
an asymptotic bound race their bound ladder on the same pool as plain jobs.

``workers <= 1`` runs jobs in-process with identical semantics — that is the
baseline the determinism tests compare the pool against — and so does a run
whose pool cannot spawn a single worker (``degraded_serial``).  Worker-level
fault injection (``worker.crash``/``worker.hang`` from
:mod:`repro.service.faults`) only applies to pool workers: in-process
execution has no process boundary to kill.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SynthesisConfig
from repro.core.goals import SynthesisGoal, SynthesisResult
from repro.obs import metrics
from repro.service import faults, warm
from repro.service.cache import ResultCache
from repro.service.codec import config_from_json, goal_from_json
from repro.service.supervisor import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    DEFAULT_RETRIES,
    Job,
    JobResult,
    SchedulerStats,
    Supervisor,
    Task,
    job_for_goal,
    portfolio_enabled,
)
from repro.service.supervisor import POISON_KILLS  # noqa: F401 - re-exported

#: Default seconds past the soft timeout before the parent kills a worker.
DEFAULT_GRACE = 5.0
#: Exit code of an injected worker crash (visible in error results).
_CRASH_EXIT = 73
#: How long an injected hang sleeps per nap; the parent's hard deadline is
#: what ends it, the chunking only keeps the child responsive to signals.
_HANG_NAP = 3600.0


def job_payload(job: Job, warm: bool, submitted: Optional[float], attempt: int = 0) -> dict:
    """The wire payload a worker executes for one attempt of ``job``.

    ``submitted`` is only cross-comparable when both ends share one monotonic
    clock domain (in-process, or fork on Linux); pass ``None`` under spawn so
    queue wait reports 0.0, not garbage.
    """
    payload = {"goal": job.goal_json, "config": job.config_json, "timeout": job.timeout}
    if warm:
        payload["warm"] = True
    if submitted is not None:
        payload["submitted"] = submitted
    plan = faults.plan()
    if plan.active and (plan.rate(faults.WORKER_CRASH) or plan.rate(faults.WORKER_HANG)):
        # Worker faults are decided in the child, from the plan shipped here.
        payload.update(
            faults=plan.to_spec(),
            faults_seed=plan.seed,
            fault_key=job.fingerprint or job.tag,
            attempt=attempt,
        )
    return payload


def _execute_payload(payload: dict) -> dict:
    """Worker entry point: decode, synthesize, return a plain record.

    Must stay importable at module level (pickled by reference under the
    ``spawn`` start method).  Never raises for synthesis-level failures — a
    timeout or search exhaustion is a *result* (no program), not an error.
    """
    from repro.core.synthesizer import synthesize

    started = time.monotonic()
    goal = goal_from_json(payload["goal"])
    config = config_from_json(payload["config"])
    job_timeout = payload.get("timeout")
    if job_timeout is not None and (config.timeout is None or job_timeout < config.timeout):
        config.timeout = job_timeout
    # Warm execution: reuse this process's resident solver (gate cache, atom
    # table, lemma pool, validity/model LRUs) across jobs.  Requested by the
    # scheduler per payload, vetoed by REPRO_WARM=off in the *worker's*
    # environment — sound either way because the search is verdict-driven,
    # so warm caches change cost, never the synthesized program.
    warm_ctx = None
    if warm.enabled(payload.get("warm")):
        warm_state = warm.state()
        solver, warm_ctx = warm_state.begin_job()
        result = synthesize(goal, config, solver=solver)
    else:
        result = synthesize(goal, config)
    record = result.to_record()
    if warm_ctx is not None:
        record["warm"] = warm_state.finish_job(warm_ctx)
    record["worker_pid"] = os.getpid()
    # Queue wait = submission to execution start.  The parent only includes
    # the "submitted" stamp when both stamps live in one monotonic clock
    # domain: in-process (serial backend) or across fork on Linux, where
    # CLOCK_MONOTONIC is system-wide.  Under spawn the stamp is omitted and
    # queue wait reports 0.0 instead of cross-domain garbage.
    submitted = payload.get("submitted")
    record["queue_seconds"] = max(started - submitted, 0.0) if submitted is not None else 0.0
    record["run_seconds"] = time.monotonic() - started
    soft_timeout = config.timeout
    record["timed_out"] = bool(
        record["program"] is None and soft_timeout is not None and result.seconds >= soft_timeout
    )
    return record


def _worker_loop(conn) -> None:
    """Long-lived pool worker: receive payloads, synthesize, send records.

    Injected faults are decided here — in the child, from the plan shipped
    inside each payload — so the serial backend (which calls
    :func:`_execute_payload` directly) can never crash or hang the parent.
    """
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if payload is None:
            break
        spec = payload.get("faults")
        if spec:
            plan = faults.FaultPlan.parse(spec, seed=payload.get("faults_seed", 0))
            key = payload.get("fault_key", "")
            attempt = payload.get("attempt", 0)
            if plan.fires(faults.WORKER_CRASH, key, attempt):
                os._exit(_CRASH_EXIT)
            if plan.fires(faults.WORKER_HANG, key, attempt):
                while True:  # the parent's hard deadline ends this
                    time.sleep(_HANG_NAP)
        try:
            record = _execute_payload(payload)
        except KeyboardInterrupt:
            break
        except Exception as exc:  # noqa: BLE001 - shipped to the parent as data
            try:
                conn.send(("error", repr(exc)))
            except (OSError, ValueError):
                break
        else:
            try:
                conn.send(("ok", record))
            except (OSError, ValueError):
                break


class _Worker:
    """One supervised pool worker: a process plus its duplex pipe."""

    __slots__ = ("proc", "conn")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_loop, args=(child_conn,), daemon=True)
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn

    @property
    def pid(self) -> int:
        return self.proc.pid or 0

    @property
    def exitcode(self) -> Optional[int]:
        return self.proc.exitcode

    def kill(self) -> None:
        """Forcibly terminate (hung or crashed worker)."""
        try:
            self.proc.kill()
        except (OSError, AttributeError):
            self.proc.terminate()
        self.proc.join(timeout=5.0)
        self.conn.close()

    def stop(self) -> None:
        """Orderly shutdown; escalates to kill if the worker won't exit."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=5.0)
        self.conn.close()


@dataclass
class _Active:
    """Bookkeeping for a job currently executing on a worker."""

    #: Caller-supplied dispatch token (a supervisor :class:`Task`).
    token: object
    started: float
    #: Parent-enforced kill time (monotonic), None when the job has no soft
    #: timeout to anchor it.
    deadline: Optional[float]


@dataclass
class PoolEvent:
    """One worker-pool outcome delivered by :meth:`WorkerPool.poll`."""

    #: ``ok`` (record in ``body``) | ``error`` (message) | ``crash`` | ``hang``.
    kind: str
    token: object
    body: object
    worker_pid: int = 0


class WorkerPool:
    """A supervised pool of long-lived synthesis workers.

    The batch scheduler creates one per run; the long-running server
    (:mod:`repro.service.serve`) keeps one resident across requests,
    preserving each worker's warm solver state.  The pool owns process
    lifecycle only: spawn (the ``pool.spawn`` fault point), dispatch, crash
    detection, parent-enforced hard deadlines, kill + respawn.  What an
    outcome *means* — retry, poison, winner — is the
    :class:`~repro.service.supervisor.Supervisor`'s to decide.
    """

    def __init__(self, size: int, ctx=None, grace: float = DEFAULT_GRACE) -> None:
        if size < 1:
            raise ValueError("pool size must be positive")
        if ctx is None:
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
            ctx = multiprocessing.get_context(method)
        self.size = size
        self.grace = grace
        self._ctx = ctx
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._active: Dict[_Worker, _Active] = {}
        self._spawn_seq = 0
        #: Workers lost (crashed on their own or parent-killed), cumulative.
        self.kills = 0
        #: Replacement workers spawned after a loss, cumulative.
        self.rebuilds = 0
        #: Partial busy seconds of jobs killed mid-run (lost or cancelled), by PID.
        self.busy_charges: Dict[int, float] = {}

    @property
    def clock_shared(self) -> bool:
        """Whether parent and workers share one monotonic clock domain."""
        return self._ctx.get_start_method() == "fork"

    @property
    def live_count(self) -> int:
        return len(self._workers)

    @property
    def idle_count(self) -> int:
        return len(self._idle)

    @property
    def active_count(self) -> int:
        return len(self._active)

    def _try_spawn(self) -> Optional[_Worker]:
        """One spawn attempt (the ``pool.spawn`` fault point); None on failure."""
        seq = self._spawn_seq
        self._spawn_seq += 1
        if faults.plan().fires(faults.POOL_SPAWN, "spawn", seq):
            return None
        try:
            return _Worker(self._ctx)
        except OSError:
            return None

    def start(self) -> int:
        """Spawn up to ``size`` workers; returns the live count."""
        for _ in range(max(self.size - len(self._workers), 0)):
            worker = self._try_spawn()
            if worker is not None:
                self._workers.append(worker)
                self._idle.append(worker)
        return len(self._workers)

    def _charge(self, worker: _Worker, started: float) -> None:
        """Charge the partial busy time of a job that will never report."""
        self.busy_charges[worker.pid] = self.busy_charges.get(worker.pid, 0.0) + max(
            time.monotonic() - started, 0.0
        )

    def _retire(self, worker: _Worker, charge_started: Optional[float]) -> None:
        """Remove a lost worker, charging its partial busy time."""
        if charge_started is not None:
            self._charge(worker, charge_started)
        if worker in self._workers:
            self._workers.remove(worker)
        worker.kill()
        self.kills += 1

    def _respawn(self) -> None:
        worker = self._try_spawn()
        if worker is None:
            return
        self._workers.append(worker)
        self._idle.append(worker)
        self.rebuilds += 1

    def dispatch(self, token: object, payload: dict, soft_timeout: Optional[float]) -> bool:
        """Send ``payload`` to an idle worker.

        Returns ``False`` when the chosen idle worker turned out to be dead
        (it is retired and a replacement spawned); the caller should requeue
        the token.  Raises :class:`IndexError` if no worker is idle.
        """
        worker = self._idle.pop()
        try:
            worker.conn.send(payload)
        except (OSError, ValueError):
            self._retire(worker, charge_started=None)
            self._respawn()
            return False
        now = time.monotonic()
        deadline = now + soft_timeout + self.grace if soft_timeout is not None else None
        self._active[worker] = _Active(token, now, deadline)
        return True

    def cancel_token(self, token: object) -> bool:
        """Kill the worker executing ``token`` and spawn a replacement.

        Reclaims the worker of a portfolio rung the moment a lower rung wins
        (the supervisor's ``kill`` action).  A cancel is scheduler intent,
        not a failure: it is not counted under :attr:`kills` and no event is
        emitted for the token.  Returns ``False`` if ``token`` is not active.
        """
        for worker, entry in list(self._active.items()):
            if entry.token == token:
                del self._active[worker]
                self._charge(worker, entry.started)
                if worker in self._workers:
                    self._workers.remove(worker)
                worker.kill()
                self._respawn()
                return True
        return False

    def next_deadline(self) -> Optional[float]:
        """Earliest parent-enforced kill time among active jobs (monotonic)."""
        deadlines = [e.deadline for e in self._active.values() if e.deadline is not None]
        return min(deadlines) if deadlines else None

    def poll(self, timeout: Optional[float], extra=()) -> Tuple[List[PoolEvent], List[object]]:
        """Wait for worker traffic, collect outcomes, enforce hard deadlines.

        ``extra`` file-like objects (e.g. a server's wake pipe) join the
        ``connection.wait`` call; the readable ones come back as the second
        element so a caller can multiplex its own wakeups with pool events.
        """
        conns = [worker.conn for worker in self._active]
        waitables = conns + list(extra)
        ready = (
            multiprocessing.connection.wait(waitables, timeout=timeout) if waitables else []
        )
        by_conn = {worker.conn: worker for worker in self._active}
        events: List[PoolEvent] = []
        ready_extra: List[object] = []
        for conn in ready:
            worker = by_conn.get(conn)
            if worker is None:
                ready_extra.append(conn)
                continue
            entry = self._active.pop(worker)
            try:
                status, body = conn.recv()
            except (EOFError, OSError):
                # The worker died mid-job (crash).
                exitcode = worker.exitcode
                pid = worker.pid
                self._retire(worker, charge_started=entry.started)
                self._respawn()
                events.append(
                    PoolEvent("crash", entry.token, f"worker crashed (exit {exitcode})", pid)
                )
                continue
            self._idle.append(worker)
            events.append(
                PoolEvent("ok" if status == "ok" else "error", entry.token, body, worker.pid)
            )
        # Parent-enforced hard deadlines: a worker that blew through
        # soft + grace is killed and its job classified a hang.
        now = time.monotonic()
        for worker, entry in list(self._active.items()):
            if entry.deadline is not None and now >= entry.deadline:
                del self._active[worker]
                pid = worker.pid
                self._retire(worker, charge_started=entry.started)
                self._respawn()
                events.append(
                    PoolEvent(
                        "hang",
                        entry.token,
                        "hard timeout (worker killed at soft + grace)",
                        pid,
                    )
                )
        return events, ready_extra

    def stop(self) -> None:
        """Orderly shutdown of every worker (escalates to kill per worker)."""
        for worker in list(self._workers):
            worker.stop()
        self._workers.clear()
        self._idle.clear()
        self._active.clear()


def execute_inline(task: Task, payload: dict) -> PoolEvent:
    """Run one task in this process (serial or degraded backend)."""
    try:
        record = _execute_payload(payload)
    except Exception as exc:  # noqa: BLE001 - worker parity
        return PoolEvent("error", task, repr(exc))
    return PoolEvent("ok", task, record, os.getpid())


def deliver(
    supervisor: Supervisor, pool: WorkerPool, now: float, payload: Callable[[Task], dict]
) -> List[Task]:
    """Hand tasks the supervisor releases to idle workers; returns them.

    A task whose idle worker turned out dead goes back to the head of the
    queue and is offered to the replacement the pool spawned.
    """
    delivered: List[Task] = []
    while pool.idle_count:
        tasks = supervisor.dispatch(now, 1)
        if not tasks:
            break
        if pool.dispatch(tasks[0], payload(tasks[0]), tasks[0].job.soft_timeout):
            delivered.append(tasks[0])
        else:
            supervisor.requeue(tasks)
    return delivered


def poll_timeout(pool: WorkerPool, supervisor: Supervisor) -> Optional[float]:
    """How long a loop may block: until the next hard deadline or retry."""
    bounds = [b for b in (pool.next_deadline(), supervisor.next_wakeup()) if b is not None]
    return max(min(bounds) - time.monotonic(), 0.0) if bounds else None


class BatchScheduler:
    """Schedules synthesis jobs over a worker pool, with optional caching."""

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        start_method: Optional[str] = None,
        retries: int = DEFAULT_RETRIES,
        grace: float = DEFAULT_GRACE,
        backoff_base: float = BACKOFF_BASE,
        backoff_cap: float = BACKOFF_CAP,
        warm: bool = False,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if grace < 0:
            raise ValueError("grace must be non-negative")
        self.workers = workers
        self.cache = cache
        self.retries = retries
        self.grace = grace
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Ask workers to reuse a resident solver across jobs (REPRO_WARM=off
        #: in the worker environment vetoes it).  Off by default so batch runs
        #: keep their historical cold-start counters byte-identical.
        self.warm = warm
        if start_method is None:
            # fork is dramatically cheaper (no re-import per worker) and the
            # synthesis pipeline is single-threaded, so it is safe here.
            start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        self._ctx = multiprocessing.get_context(start_method)
        self.stats = SchedulerStats()
        self._cancelled = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Request cancellation; unfinished jobs are marked ``cancelled``."""
        self._cancelled = True

    def run(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Execute ``jobs`` and return their results in submission order."""
        start = time.perf_counter()
        self._cancelled = False
        supervisor = Supervisor(
            cache=self.cache,
            retries=self.retries,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            racing=self.workers > 1 and portfolio_enabled(),
            stats=SchedulerStats(workers=max(1, self.workers)),
        )
        self.stats = supervisor.stats
        results: List[Optional[JobResult]] = [None] * len(jobs)
        pool: Optional[WorkerPool] = None

        def apply(actions) -> None:
            for action in actions:
                if action.kind == "finish":
                    results[action.handle] = action.result
                elif action.kind == "kill" and pool is not None:
                    pool.cancel_token(action.task)

        submitted = time.monotonic()
        for index, job in enumerate(jobs):
            apply(supervisor.submit(index, job, submitted))
        if supervisor.busy and self.workers > 1:
            pool = WorkerPool(
                size=min(self.workers, supervisor.queued), ctx=self._ctx, grace=self.grace
            )
            if pool.start() == 0:
                self._degrade(pool, supervisor)
                pool = None

        def payload(task: Task) -> dict:
            clock_shared = pool is None or pool.clock_shared
            return self._payload(task.job, clock_shared, task.submitted, task.attempts)

        try:
            while supervisor.busy:
                if self._cancelled:
                    apply(supervisor.cancel_all())
                    break
                now = time.monotonic()
                if pool is not None and not pool.live_count:
                    # Every worker is gone and none could be respawned.
                    self._degrade(pool, supervisor)
                    pool = None
                if pool is None:
                    tasks = supervisor.dispatch(now, 1)
                    if not tasks:  # only backoffs pending
                        time.sleep(max((supervisor.next_wakeup() or now) - now, 0.0))
                        continue
                    event = execute_inline(tasks[0], payload(tasks[0]))
                    apply(supervisor.worker_event(event.kind, tasks[0], event.body, now))
                    continue
                deliver(supervisor, pool, now, payload)
                if not pool.active_count:
                    if pool.live_count:  # nothing running: wait for the next retry
                        time.sleep(max((supervisor.next_wakeup() or now) - now, 0.0))
                    continue
                events, _ = pool.poll(poll_timeout(pool, supervisor))
                now = time.monotonic()
                for event in events:
                    apply(supervisor.worker_event(event.kind, event.token, event.body, now))
        except KeyboardInterrupt:
            # Stop, mark the rest cancelled, and return the partial results.
            self._cancelled = True
            apply(supervisor.cancel_all())
        finally:
            if pool is not None:
                self._fold_pool(pool, supervisor)
                pool.stop()

        self.stats.wall_seconds = time.perf_counter() - start
        busy = supervisor.worker_seconds
        if busy and self.stats.wall_seconds > 0:
            # Label workers w0..wN by sorted PID so the mapping is stable
            # within a run (PIDs themselves are not comparable across runs).
            self.stats.worker_utilization = {
                f"w{slot}": round(min(busy[pid] / self.stats.wall_seconds, 1.0), 4)
                for slot, pid in enumerate(sorted(busy))
            }
        self._record_metrics()
        if self.cache is not None:
            self.cache.record_run_telemetry(self.stats.as_dict())
        return results

    def _record_metrics(self) -> None:
        """Mirror this run's scheduling traffic into the metrics registry."""
        registry = metrics.REGISTRY
        registry.counter("service.runs").inc()
        registry.counter("service.jobs").inc(self.stats.jobs)
        registry.counter("service.cache_hits").inc(self.stats.cache_hits)
        registry.counter("service.deduplicated").inc(self.stats.deduplicated)
        registry.counter("service.synth_runs").inc(self.stats.synth_runs)
        registry.counter("service.retries").inc(self.stats.retries)
        registry.counter("service.worker_kills").inc(self.stats.worker_kills)
        registry.counter("service.hard_timeouts").inc(self.stats.hard_timeouts)
        registry.counter("service.poisoned").inc(self.stats.poisoned)
        registry.counter("service.pool_rebuilds").inc(self.stats.pool_rebuilds)
        registry.counter("service.degraded_serial").inc(self.stats.degraded_serial)
        registry.counter("service.variants_raced").inc(self.stats.variants_raced)
        registry.counter("service.variants_cancelled").inc(self.stats.variants_cancelled)
        registry.histogram("service.queue_seconds").observe(self.stats.queue_seconds)
        registry.histogram("service.run_seconds").observe(self.stats.run_seconds)
        registry.gauge("service.workers").set(self.stats.workers)

    def run_goals(
        self,
        goals: Sequence[SynthesisGoal],
        config: Optional[SynthesisConfig] = None,
        timeout: Optional[float] = None,
        strict: bool = True,
    ) -> List[SynthesisResult]:
        """Convenience wrapper: schedule goals, return full results in order.

        With ``strict=False``, jobs that produced no record (cancelled,
        crashed, hard-timed-out) come back as explicit failure results
        instead of raising, so one bad job cannot abort the whole batch.
        """
        jobs = [job_for_goal(goal, config, timeout=timeout) for goal in goals]
        return [
            job_result.to_synthesis_result(goal, strict=strict)
            for goal, job_result in zip(goals, self.run(jobs))
        ]

    # ------------------------------------------------------------------
    # Pool bookkeeping
    # ------------------------------------------------------------------
    def _payload(
        self,
        job: Job,
        clock_shared: bool = True,
        submitted: Optional[float] = None,
        attempt: int = 0,
    ) -> dict:
        """The payload for one attempt of ``job`` (default: submitted now)."""
        if submitted is None:
            submitted = time.monotonic()
        return job_payload(job, self.warm, submitted if clock_shared else None, attempt)

    def _fold_pool(self, pool: WorkerPool, supervisor: Supervisor) -> None:
        """Fold one pool's lifecycle counters into the run's stats."""
        self.stats.worker_kills += pool.kills
        self.stats.pool_rebuilds += pool.rebuilds
        for pid, seconds in pool.busy_charges.items():
            supervisor.worker_seconds[pid] = supervisor.worker_seconds.get(pid, 0.0) + seconds

    def _degrade(self, pool: WorkerPool, supervisor: Supervisor) -> None:
        """No worker is left: retire the pool and run the rest in-process."""
        self._fold_pool(pool, supervisor)
        pool.stop()
        self.stats.degraded_serial = 1
        metrics.REGISTRY.counter("service.pool_fallbacks").inc()
