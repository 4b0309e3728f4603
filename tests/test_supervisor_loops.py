"""The batch scheduler and the server as loops around one supervisor.

Portfolio jobs share the batch path with plain jobs — one pool, one tally,
one degradation story — and every dedup follower, in batch or server mode,
is built by the same helper.  These tests run real worker processes; the
process-free state-machine tests live in ``test_supervisor.py``.
"""

from dataclasses import replace

from repro.core import SynthesisConfig
from repro.obs import metrics
from repro.portfolio import PortfolioRunner
from repro.portfolio.suite import benchmark_by_key
from repro.service import faults
from repro.service.scheduler import BatchScheduler, job_for_goal
from repro.service.serve import SynthesisServer

from conftest import tiny_config, tiny_goal


def asym_job(key="asym_is_empty"):
    bench = benchmark_by_key(key)
    config = replace(SynthesisConfig.resyn(), **bench.config_overrides)
    return job_for_goal(bench.goal, config, tag=key)


def winner(result):
    return (result.record or {}).get("stats", {}).get("portfolio", {}).get("winner")


def test_portfolio_runner_is_the_batch_scheduler():
    assert PortfolioRunner is BatchScheduler


def test_mixed_batch_shares_one_pool():
    runner = PortfolioRunner(workers=2)
    jobs = [asym_job(), job_for_goal(tiny_goal(), tiny_config()), asym_job()]
    results = runner.run(jobs)
    assert all(result.succeeded for result in results)
    assert results[0].portfolio is not None and results[1].portfolio is None
    assert results[2].deduplicated and results[2].portfolio == results[0].portfolio
    assert winner(results[0]) == benchmark_by_key("asym_is_empty").expected_winner
    assert runner.stats.synth_runs == 2 and runner.stats.variants_raced >= 1


def test_portfolio_busy_time_reaches_worker_utilization():
    runner = PortfolioRunner(workers=2)
    runner.run([asym_job("asym_is_empty"), asym_job("asym_length")])
    assert runner.stats.worker_utilization
    assert all(0 < busy <= 1 for busy in runner.stats.worker_utilization.values())


def test_degraded_pool_is_reported_for_portfolio_jobs():
    serial = PortfolioRunner(workers=1).run([asym_job()])
    fallbacks = metrics.REGISTRY.counter("service.pool_fallbacks")
    before = fallbacks.value
    faults.configure("pool.spawn=1.0")  # no worker can ever spawn
    runner = PortfolioRunner(workers=2)
    (result,) = runner.run([asym_job()])
    assert runner.stats.degraded_serial == 1
    assert fallbacks.value == before + 1
    assert result.program_text == serial[0].program_text
    assert winner(result) == winner(serial[0])


def test_server_dedup_follower_keeps_the_portfolio_block():
    server = SynthesisServer(workers=2).start()
    events = []
    try:
        server.submit(asym_job(), events.append)
        server.submit(asym_job(), events.append)
    finally:
        server.shutdown(drain=True)
    results = sorted((e for e in events if e["event"] == "result"), key=lambda e: e["id"])
    assert len(results) == 2
    leader, follower = results
    assert follower["deduplicated"] and not leader["deduplicated"]
    assert follower["portfolio"] == leader["portfolio"]
    assert follower["program"] == leader["program"]


def test_server_redelivers_when_an_idle_worker_died():
    server = SynthesisServer(workers=1).start()
    events = []
    try:
        idle = server._pool._idle[0]
        idle.proc.kill()
        idle.proc.join()
        server.submit(job_for_goal(tiny_goal("deadIdle"), tiny_config()), events.append)
        assert server.drain(timeout=30), "the job was never redelivered"
    finally:
        server.shutdown(drain=False)
    (result,) = [e for e in events if e["event"] == "result"]
    assert result["ok"] and result["attempts"] == 1
