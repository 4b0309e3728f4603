"""The portfolio scheduler: race goal variants, cancel losers, report one winner.

There is no separate portfolio loop.  :class:`PortfolioRunner` *is*
:class:`repro.service.scheduler.BatchScheduler`, kept under this name for
callers that race asymptotic goals.  A job whose goal carries an asymptotic
bound is one logical job to the :class:`~repro.service.supervisor.Supervisor`:
its bound ladder expands into rungs (:mod:`repro.portfolio.variants`) that
run on the same worker pool as the batch's plain jobs, and the supervisor's
group policy picks the winner — the lowest successful rung, final once every
lower rung has resolved, so racing on N workers, a one-worker run and
``REPRO_PORTFOLIO=off`` (one rung in flight at a time) report the same
winner.

Attribution is split by determinism.  The cached winner record carries a
deterministic ``stats["portfolio"]`` block (bound class, ladder labels,
winner index) under the *logical* goal's fingerprint; how the race actually
unfolded — per-variant outcomes, cancellations, wall-clock — is
timing-dependent and rides on :attr:`JobResult.portfolio`, which is never
cached (like the queue/run timings and the warm block).
"""

from repro.service.scheduler import BatchScheduler
from repro.service.supervisor import is_portfolio_job, portfolio_enabled

__all__ = ["PortfolioRunner", "is_portfolio_job", "portfolio_enabled"]

PortfolioRunner = BatchScheduler
