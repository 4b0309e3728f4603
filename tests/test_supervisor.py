"""Fake-clock unit tests of the supervisor state machine.

No processes, threads or real clocks: the test plays the scheduling loop,
feeding submissions and worker outcomes into :class:`Supervisor` with a
made-up ``now`` and checking the actions that come out.  Every failure path of the
batch scheduler, the server and portfolio races lives in this one machine.
"""

from dataclasses import replace

import pytest

from repro.core import SynthesisConfig
from repro.portfolio.suite import benchmark_by_key
from repro.service.supervisor import POISON_KILLS, Job, Supervisor, job_for_goal


class DictCache:
    """The cache interface the supervisor uses, in memory."""

    def __init__(self):
        self.entries = {}

    def lookup(self, fingerprint):
        entry = self.entries.get(fingerprint)
        return dict(entry) if entry is not None else None

    def store(self, fingerprint, record):
        self.entries[fingerprint] = dict(record)


def plain(tag, fingerprint=None, retries=None):
    return Job({}, {}, tag, retries=retries, fingerprint=fingerprint or f"fp-{tag}")


def group(key="asym_length"):
    """A logical asymptotic job (asym_length: a 4-rung ladder)."""
    bench = benchmark_by_key(key)
    config = replace(SynthesisConfig.resyn(), **bench.config_overrides)
    return job_for_goal(bench.goal, config, tag=key)


def record(program="p", pid=7, seconds=0.1):
    return {
        "program": program,
        "program_text": program,
        "seconds": seconds,
        "timed_out": False,
        "worker_pid": pid,
        "queue_seconds": 0.0,
        "run_seconds": seconds,
    }


def kinds(actions):
    return [action.kind for action in actions]


def finished(actions):
    return {action.handle: action.result for action in actions if action.kind == "finish"}


class TestRetries:
    def test_backoff_schedule_and_cap(self):
        sup = Supervisor(backoff_base=0.05, backoff_cap=0.3)
        assert [sup.backoff(n) for n in range(1, 6)] == [0.05, 0.1, 0.2, 0.3, 0.3]

    def test_crash_waits_out_its_backoff(self):
        sup = Supervisor(backoff_base=0.05)
        sup.submit("a", plain("a"), 0.0)
        (task,) = sup.dispatch(0.0, 1)
        actions = sup.worker_event("crash", task, "worker crashed (exit 73)", 100.0)
        assert kinds(actions) == ["retry"] and actions[0].cause == "crash"
        assert sup.next_wakeup() == pytest.approx(100.05)
        assert sup.dispatch(100.04, 1) == []
        assert sup.dispatch(100.05, 1) == [task]
        assert sup.next_wakeup() is None
        (result,) = finished(sup.worker_event("ok", task, record(), 100.1)).values()
        assert result.succeeded and result.attempts == 2
        assert sup.stats.retries == 1 and not sup.busy

    def test_poison_at_poison_kills_and_refused_after(self):
        sup = Supervisor(retries=10)
        sup.submit("a", plain("a"), 0.0)
        now = 0.0
        for _ in range(POISON_KILLS - 1):
            (task,) = sup.dispatch(now, 1)
            assert kinds(sup.worker_event("crash", task, "boom", now)) == ["retry"]
            now = sup.next_wakeup()
        (task,) = sup.dispatch(now, 1)
        result = finished(sup.worker_event("crash", task, "boom", now))["a"]
        assert "poison" in result.error and result.attempts == POISON_KILLS
        assert sup.stats.poisoned == 1
        # The kill memory outlives the job: a resubmission is refused unrun.
        refused = finished(sup.submit("again", plain("a"), now))["again"]
        assert "refusing" in refused.error and refused.attempts == 0
        assert sup.poisoned_fingerprints() == 1 and not sup.busy

    def test_hang_is_hard_timed_out_and_not_cached(self):
        cache = DictCache()
        sup = Supervisor(cache=cache, retries=0)
        sup.submit("a", plain("a"), 0.0)
        (task,) = sup.dispatch(0.0, 1)
        result = finished(sup.worker_event("hang", task, "hard timeout", 1.0))["a"]
        assert result.hard_timed_out and result.timed_out and result.record is None
        assert sup.stats.hard_timeouts == 1
        assert cache.entries == {}

    def test_completion_strips_timings_and_caches(self):
        cache = DictCache()
        sup = Supervisor(cache=cache)
        sup.submit("a", plain("a"), 0.0)
        (task,) = sup.dispatch(0.0, 1)
        body = dict(record(seconds=0.5), warm={"enabled": True})
        result = finished(sup.worker_event("ok", task, body, 0.5))["a"]
        assert result.run_seconds == 0.5 and result.warm == {"enabled": True}
        stored = cache.entries["fp-a"]
        assert not {"queue_seconds", "run_seconds", "warm"} & set(stored)
        assert sup.worker_seconds == {7: 0.5}
        hit = finished(sup.submit("b", plain("a"), 1.0))["b"]
        assert hit.cache_hit and hit.program_text == "p"

    def test_followers_get_copies(self):
        sup = Supervisor()
        assert sup.submit("a", plain("a"), 0.0) == []
        assert sup.submit("b", plain("b", fingerprint="fp-a"), 0.0) == []
        assert sup.queued == 1 and sup.stats.deduplicated == 1
        (task,) = sup.dispatch(0.0, 2)
        results = finished(sup.worker_event("ok", task, record(), 0.1))
        assert results["b"].deduplicated and results["b"].tag == "b"
        assert results["b"].program_text == results["a"].program_text


class TestGroups:
    def start(self, racing=True, slots=8):
        sup = Supervisor(racing=racing)
        sup.submit("g", group(), 0.0)
        return sup, sup.dispatch(0.0, slots)

    def test_ladder_runs_one_rung_at_a_time(self):
        sup, tasks = self.start(racing=False)
        assert [task.index for task in tasks] == [0]
        assert sup.worker_event("ok", tasks[0], record(program=None), 0.1) == []
        (second,) = sup.dispatch(0.1, 8)
        assert second.index == 1
        result = finished(sup.worker_event("ok", second, record(), 0.2))["g"]
        info = result.portfolio
        assert info["mode"] == "serial" and info["winner"] == second.label
        statuses = [row["status"] for row in info["variants"]]
        assert statuses == ["failed", "won", "skipped", "skipped"]
        assert info["variants_raced"] == 2 and sup.stats.variants_cancelled == 0
        block = result.record["stats"]["portfolio"]
        assert block["winner_index"] == 1 and block["variants_total"] == 4

    def test_cancels_queued_active_and_retrying_rungs(self):
        sup, tasks = self.start(slots=3)
        r0, r1, r2 = tasks
        assert sup.worker_event("crash", r1, "boom", 0.1)[0].kind == "retry"
        actions = sup.worker_event("ok", r0, record(), 0.2)
        killed = [action.task.index for action in actions if action.kind == "kill"]
        assert killed == [1, 2, 3]  # retry-pending, active, queued
        result = finished(actions)["g"]
        statuses = [row["status"] for row in result.portfolio["variants"]]
        assert statuses == ["won", "cancelled", "cancelled", "cancelled"]
        assert sup.queue_depth == 0 and sup.next_wakeup() is None and not sup.busy
        assert sup.worker_event("ok", r2, record(), 0.3) == []  # late loser ignored
        assert sup.stats.variants_cancelled == 3

    def test_winner_is_final_only_once_lower_rungs_resolve(self):
        sup, (r0, r1, r2, r3) = self.start()
        actions = sup.worker_event("ok", r2, record("two"), 0.1)
        assert kinds(actions) == ["kill"] and actions[0].task is r3
        assert kinds(sup.worker_event("ok", r1, record("one"), 0.2)) == []
        result = finished(sup.worker_event("ok", r0, record(program=None), 0.3))["g"]
        assert result.program_text == "one"
        statuses = [row["status"] for row in result.portfolio["variants"]]
        assert statuses == ["failed", "won", "lost", "cancelled"]

    def test_all_rungs_failing_is_an_error(self):
        sup, tasks = self.start()
        actions = []
        for task in tasks:
            actions += sup.worker_event("ok", task, record(program=None), 0.1)
        result = finished(actions)["g"]
        assert result.record is None and "no variant satisfied" in result.error

    def test_cancelling_a_retry_keeps_the_heap_in_due_order(self):
        sup = Supervisor(racing=True)
        sup.submit("g", group("asym_subset"), 0.0)  # a 5-rung ladder
        r0, r1, r2, r3, r4 = sup.dispatch(0.0, 5)
        # Lost tasks reported with their own timestamps: due .35, .25, .15.
        sup.worker_event("crash", r0, "boom", 0.30)
        sup.worker_event("crash", r1, "boom", 0.20)
        sup.worker_event("crash", r3, "boom", 0.10)
        assert sup.next_wakeup() == pytest.approx(0.15)
        actions = sup.worker_event("ok", r2, record(), 0.11)  # cancels r3, r4
        assert sorted(action.task.index for action in actions) == [3, 4]
        assert sup.next_wakeup() == pytest.approx(0.25)
        assert sup.dispatch(0.25, 5) == [r1]
        assert sup.next_wakeup() == pytest.approx(0.35)
        assert sup.dispatch(0.35, 5) == [r0]

    def test_dedup_follower_carries_the_portfolio_block(self):
        sup, tasks = self.start()
        sup.submit("twin", group(), 0.0)
        actions = sup.worker_event("ok", tasks[0], record(), 0.1)
        results = finished(actions)
        assert results["twin"].deduplicated
        assert results["twin"].portfolio == results["g"].portfolio is not None

    def test_cached_rungs_resolve_without_dispatch(self):
        cache = DictCache()
        sup = Supervisor(cache=cache)
        sup.submit("g", group(), 0.0)
        tasks = sup.dispatch(0.0, 8)
        for task in tasks:
            sup.worker_event("ok", task, record(program=None), 0.1)
        assert group().fingerprint not in cache.entries  # only winners are cached
        again = Supervisor(cache=cache)
        result = finished(again.submit("g", group(), 1.0))["g"]
        assert again.queued == 0 and "no variant satisfied" in result.error
        assert all(row.get("cache_hit") for row in result.portfolio["variants"])

    @pytest.mark.parametrize("rung0_program", [None, "zero"])
    def test_ladder_resumes_below_a_cached_higher_rung(self, rung0_program):
        # A race interrupted after rung 1 finished: rung 1 is cached, the
        # logical record and rung 0 are not.
        cache = DictCache()
        first = Supervisor(cache=cache)
        first.submit("g", group(), 0.0)
        r0, r1 = first.dispatch(0.0, 2)
        first.worker_event("ok", r1, record("one"), 0.1)
        first.cancel_all()
        assert group().fingerprint not in cache.entries
        sup = Supervisor(cache=cache, racing=False)
        assert finished(sup.submit("g", group(), 1.0)) == {}
        (task,) = sup.dispatch(1.0, 8)
        assert task.index == 0 and sup.dispatch(1.0, 8) == []
        result = finished(sup.worker_event("ok", task, record(rung0_program), 1.1))["g"]
        assert result.program_text == (rung0_program or "one")
        statuses = [row["status"] for row in result.portfolio["variants"]]
        expected = ["won", "lost"] if rung0_program else ["failed", "won"]
        assert statuses == expected + ["skipped", "skipped"]
        assert not sup.busy


class TestShutdown:
    def test_cancel_all_answers_every_job(self):
        sup = Supervisor()
        for name in "abc":
            sup.submit(name, plain(name), 0.0)
        sup.submit("a-twin", plain("a-twin", fingerprint="fp-a"), 0.0)
        sup.submit("g", group(), 0.0)
        active = sup.dispatch(0.0, 2)
        sup.worker_event("crash", active[1], "boom", 0.1)  # b backs off
        results = finished(sup.cancel_all())
        assert set(results) == {"a", "b", "c", "a-twin", "g"}
        assert all(result.cancelled for result in results.values())
        assert results["a"].attempts == 1 and results["b"].attempts == 1
        assert not sup.busy and sup.queue_depth == 0 and sup.next_wakeup() is None
        assert sup.worker_event("ok", active[0], record(), 0.2) == []
