"""Campaign scheduler: N concurrent sessions inside one simulator.

The paper's controllers are ephemeral one-experiment processes; a
*campaign* is hundreds of such experiment runs multiplexed over a pool
of endpoints. The scheduler is a single simulated process owning:

- a FIFO **work queue** of :class:`CampaignJob`\\ s (optionally pinned to
  a named endpoint),
- a global **concurrency cap** plus the pool's per-endpoint caps,
- a **token bucket** gating session starts (admission/rate control, so a
  campaign can be throttled to e.g. 5 new sessions per simulated
  second),
- **failure-aware rescheduling**: a job that dies on a transport-level
  fault (or a command error) is requeued with the campaign's
  :class:`~repro.util.retry.RetryPolicy` backoff; an endpoint that keeps
  failing is quarantined by the pool.

Every decision consumes virtual time deterministically: with the same
seed, topology, and job list, two runs produce the identical dispatch
schedule and byte-identical aggregate reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Generator, Optional

from repro.controller.client import RECOVERABLE
from repro.fleet.aggregate import (
    ResultAggregator,
    counters_fingerprint,
    majority_fingerprint,
)
from repro.fleet.pool import EndpointPool, PooledEndpoint
from repro.util.retry import RetryPolicy



@dataclass
class CampaignContext:
    """What a campaign job sees besides its endpoint handle."""

    sim: Any
    controller_host: Any = None
    target_address: int = 0
    attempt: int = 0


@dataclass
class CampaignJob:
    """One schedulable unit: an experiment run over one endpoint session.

    ``run(handle, ctx)`` is a generator (simulated process body) whose
    return value is passed to ``metrics`` to extract the mergeable
    summary folded into the campaign rollups — the raw result itself is
    dropped, keeping aggregation streaming.
    """

    name: str
    run: Callable[[Any, CampaignContext], Generator]
    metrics: Optional[Callable[[Any], dict]] = None
    endpoint: Optional[str] = None  # pin to a named endpoint
    attempts: int = 0
    error: Optional[str] = None
    # Where the last attempt failed: a retried unpinned job is steered
    # to an alternate endpoint (retry-on-alternate, not spin-on-dead).
    last_endpoint: Optional[str] = None
    # Set by cross-validation replica expansion: the _ReplicaGroup this
    # job (original or clone) reports into for adjudication.
    group: Any = None


@dataclass
class CrossValidation:
    """Opt-in redundant dispatch for result integrity.

    A seeded sample of ``fraction`` of the unpinned jobs is cloned into
    ``k`` total replicas each.  When a replica group completes, the
    members' counter fingerprints are compared: with a ≥2-vote majority,
    any disagreeing member is an *outlier* — its metrics are discarded
    (kept out of the campaign rollups) and the endpoint that produced it
    is reported to the pool's misbehavior scoring as ``result-mismatch``.
    Fingerprints are canonical counter JSON: value streams such as RTTs
    may legitimately differ across vantage points.

    Pinned jobs are audited deterministically (every one replicated,
    ignoring ``fraction``): pinning names the endpoint you care about,
    so a campaign can spot-check its whole fleet by pinning one audit
    job per endpoint. The replicas themselves run unpinned elsewhere.
    """

    fraction: float = 0.1
    k: int = 3


class _ReplicaGroup:
    """Completion tracker for one cross-validated job's replicas."""

    __slots__ = ("name", "expect", "members", "used")

    def __init__(self, name: str, expect: int) -> None:
        self.name = name
        self.expect = expect
        # (endpoint_name, metrics_or_None, failed) in completion order.
        self.members: list[tuple[str, Optional[dict], bool]] = []
        # Endpoints any member has been dispatched to: siblings must run
        # elsewhere, or the "independent" votes share one liar.
        self.used: set[str] = set()


class TokenBucket:
    """Deterministic token bucket over virtual time; it holds one token."""

    __slots__ = ("rate", "tokens", "last")

    def __init__(self, rate: Optional[float], now: float) -> None:
        # `not rate > 0` also refuses NaN, which would make every delay NaN.
        if rate is not None and not rate > 0:
            raise ValueError(f"rate must be None (unlimited) or > 0, got {rate!r}")
        self.rate = rate  # tokens per simulated second; None = unlimited
        self.tokens = 1.0
        self.last = now

    def _refill(self, now: float) -> None:
        if self.rate is None:
            return
        elapsed = now - self.last
        if elapsed > 0:
            self.tokens = min(1.0, self.tokens + elapsed * self.rate)
            self.last = now

    def try_take(self, now: float) -> bool:
        if self.rate is None:
            return True
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def delay_until_token(self, now: float) -> float:
        """Virtual seconds until the next token exists (0 if one does)."""
        if self.rate is None:
            return 0.0
        self._refill(now)
        if self.tokens >= 1.0:
            return 0.0
        # Tiny epsilon so the wake-up lands strictly at/after the refill
        # instant despite float rounding.
        return (1.0 - self.tokens) / self.rate + 1e-9


class CampaignReport:
    """Scheduling statistics + the streamed aggregate rollups."""

    def __init__(self, name: str, seed: int, aggregator: ResultAggregator,
                 pool: EndpointPool) -> None:
        self.name = name
        self.seed = seed
        self.aggregator = aggregator
        self.jobs_total = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.retries = 0
        self.started = 0.0
        self.finished = 0.0
        self.max_concurrency = 0
        self.peak_inflight = 0
        self.endpoint_count = len(pool.endpoints)
        self.unschedulable: list[str] = []
        # Filled at campaign end when the pool scores misbehavior (the
        # audit from EndpointPool.misbehavior_summary); None otherwise,
        # keeping reports byte-identical for campaigns without scoring.
        self.misbehavior: Optional[dict] = None

    @property
    def makespan(self) -> float:
        return self.finished - self.started

    def to_dict(self) -> dict:
        data = {
            "campaign": self.name,
            "seed": self.seed,
            "jobs": {
                "total": self.jobs_total,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "retries": self.retries,
                "unschedulable": sorted(self.unschedulable),
            },
            "schedule": {
                "started": self.started,
                "finished": self.finished,
                "makespan_s": self.makespan,
                "max_concurrency": self.max_concurrency,
                "peak_inflight": self.peak_inflight,
                "endpoints": self.endpoint_count,
            },
            "results": self.aggregator.report(),
        }
        if self.misbehavior is not None:
            data["misbehavior"] = self.misbehavior
        return data

    def to_json(self) -> str:
        """Canonical byte-stable encoding (the determinism contract)."""
        import json

        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def export_jsonl(self, path: str) -> int:
        return self.aggregator.export_jsonl(path)

    def summary(self) -> str:
        lines = [
            f"campaign {self.name!r}: {self.jobs_completed}/"
            f"{self.jobs_total} jobs ok, {self.jobs_failed} failed, "
            f"{self.retries} retries",
            f"  endpoints={self.endpoint_count} "
            f"peak_inflight={self.peak_inflight} "
            f"makespan={self.makespan:.3f}s (simulated)",
        ]
        for name, sketch in sorted(self.aggregator.total.sketches.items()):
            stats = sketch.to_dict()
            lines.append(
                f"  {name}: n={stats['count']} mean={stats['mean']:.6g} "
                f"p50={stats['p50']:.6g} p90={stats['p90']:.6g} "
                f"p99={stats['p99']:.6g}"
            )
        counters = self.aggregator.total.counters.to_dict()
        if counters:
            rendered = " ".join(f"{k}={v:g}" for k, v in counters.items())
            lines.append(f"  counters: {rendered}")
        return "\n".join(lines)


class CampaignScheduler:
    """Multiplexes campaign jobs over a populated endpoint pool."""

    def __init__(
        self,
        pool: EndpointPool,
        jobs: list[CampaignJob],
        name: str = "campaign",
        max_concurrency: int = 16,
        rate: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        seed: int = 0,
        context: Optional[CampaignContext] = None,
        aggregator: Optional[ResultAggregator] = None,
        cross_validate: Optional[CrossValidation] = None,
    ) -> None:
        self.pool = pool
        self.sim = pool.sim
        self.name = name
        self.jobs = list(jobs)
        if cross_validate is not None:
            self._expand_replicas(cross_validate, seed)
        self.max_concurrency = max(1, max_concurrency)
        self.retry_policy = retry_policy or RetryPolicy()
        self.rng = Random(seed)
        self.seed = seed
        self.bucket = TokenBucket(rate, self.sim.now)
        self.context = context or CampaignContext(sim=self.sim)
        self.aggregator = aggregator or ResultAggregator(campaign=name)
        self._obs = self.sim.obs

        self._queue: deque[CampaignJob] = deque()
        # Count of queued jobs pinned to a named endpoint; while zero the
        # dispatcher can pop the queue head without scanning.
        self._pinned_queued = 0
        self._wake = self.sim.queue(name=f"{name}-wake")
        self._inflight = 0
        self._pending_requeues = 0  # backoff timers not yet fired
        self._token_timer_armed = False
        self.report = CampaignReport(name, seed, self.aggregator, pool)

    def _expand_replicas(self, config: CrossValidation, seed: int) -> None:
        """Clone a seeded sample of unpinned jobs into replica groups.

        Uses its own derived RNG so sampling never perturbs the retry
        RNG's draw order (same seed, same schedule with or without
        cross-validation of a disjoint job set).  Clones are inserted
        directly after their original, so a group's replicas dispatch
        adjacently and — with name-ordered acquire — land on distinct
        endpoints whenever the fleet has spare capacity.
        """
        rng = Random((seed << 3) ^ 0x51ED2701)
        expanded: list[CampaignJob] = []
        for job in self.jobs:
            expanded.append(job)
            if config.k < 2:
                continue
            if job.endpoint is None and rng.random() >= config.fraction:
                continue
            group = _ReplicaGroup(job.name, expect=config.k)
            job.group = group
            if job.endpoint is not None:
                # Replicas of a pinned audit must run elsewhere even if
                # they reach the dispatcher before the original does.
                group.used.add(job.endpoint)
            for index in range(1, config.k):
                expanded.append(
                    CampaignJob(
                        name=f"{job.name}~r{index}",
                        run=job.run,
                        metrics=job.metrics,
                        group=group,
                    )
                )
        self.jobs = expanded

    @property
    def _outstanding(self) -> int:
        """Jobs not finished yet: queued, in flight or awaiting requeue."""
        return len(self._queue) + self._inflight + self._pending_requeues

    # -- main loop ------------------------------------------------------------

    def run(self) -> Generator:
        """The campaign process body; returns a :class:`CampaignReport`.

        Use as ``report = yield from scheduler.run()`` (or spawn it).
        """
        obs = self._obs
        span = (
            obs.span("fleet", "campaign", campaign=self.name,
                     jobs=len(self.jobs))
            if obs.enabled else None
        )
        self.report.jobs_total = len(self.jobs)
        self.report.max_concurrency = self.max_concurrency
        self.report.started = self.sim.now
        self._queue.extend(self.jobs)
        self._pinned_queued = sum(
            1 for job in self.jobs if job.endpoint is not None
        )
        self._note_queue_depth()
        # Wake when pool dispatchability shifts underneath us: a churned
        # endpoint rejoining, a quarantine readmission, a drain/removal.
        # Without this a scheduler blocked on its wake queue with zero
        # in-flight jobs would sleep through the fleet coming back.
        self.pool.on_change = lambda: self._wake.put(("poke",))

        while self._outstanding > 0:
            dispatched = self._dispatch_ready()
            if self._outstanding == 0:
                break
            if (
                not dispatched
                and self._inflight == 0
                and self._pending_requeues == 0
                and not self._token_timer_armed
                and not self._any_dispatchable_later()
            ):
                # Nothing running, nothing will ever become runnable:
                # fail the stranded jobs instead of deadlocking.
                self._fail_stranded()
                continue
            item = yield self._wake.get()
            self._handle_wake(item)
            # Drain every wake already queued at this instant before
            # re-dispatching: N same-tick completions cost one dispatch
            # pass instead of N (handlers are synchronous, so batching
            # cannot change what each wake does).
            while True:
                item = self._wake.try_get()
                if item is None:
                    break
                self._handle_wake(item)

        self.pool.on_change = None
        self.report.finished = self.sim.now
        self.report.endpoint_count = len(self.pool.endpoints)
        # Final evidence sweep: a late send failure on an endpoint's last
        # job, or a session that misbehaved while idle (a flooder aborted
        # between jobs, say), left its evidence on the handle with no job
        # completion to harvest it.
        for name in sorted(self.pool.endpoints):
            pooled = self.pool.endpoints.get(name)
            if pooled is None:
                continue
            self._harvest_deferred(pooled)
            if self.pool.misbehavior:
                self._harvest_misbehavior(pooled)
        if self.pool.misbehavior:
            self.report.misbehavior = self.pool.misbehavior_summary()
        if span is not None:
            span.end(completed=self.report.jobs_completed,
                     failed=self.report.jobs_failed,
                     retries=self.report.retries)
        if obs.enabled:
            obs.gauge("fleet.queue_depth").set(0)
            obs.gauge("fleet.inflight").set(0)
        return self.report

    # -- dispatch -------------------------------------------------------------

    def _dispatch_ready(self) -> bool:
        """Start every job that can start right now; True if any did."""
        dispatched = False
        while self._queue and self._inflight < self.max_concurrency:
            if not self.bucket.try_take(self.sim.now):
                self._arm_token_timer()
                break
            job = self._pop_dispatchable()
            if job is None:
                # Token not spent on anything: put it back.
                self.bucket.tokens = min(1.0, self.bucket.tokens + 1.0)
                break
            group = job.group
            pooled = self.pool.acquire(
                job.endpoint,
                avoid=job.last_endpoint if job.endpoint is None else None,
                exclude=group.used if group is not None else None,
            )
            if pooled is None and group is not None:
                if self._inflight > 0:
                    # Every free endpoint already served this replica
                    # group; requeue behind other work and wait for a
                    # distinct one to free up (a completion wakes us).
                    self.bucket.tokens = min(1.0, self.bucket.tokens + 1.0)
                    self._queue.append(job)
                    break
                # Nothing running and nothing distinct free: liveness
                # beats replica independence.
                pooled = self.pool.acquire(job.endpoint,
                                           avoid=job.last_endpoint)
            assert pooled is not None  # _pop_dispatchable checked
            if group is not None:
                group.used.add(pooled.name)
            self._inflight += 1
            self.report.peak_inflight = max(self.report.peak_inflight,
                                            self._inflight)
            dispatched = True
            if self._obs.enabled:
                self._obs.counter("fleet.jobs_dispatched").inc()
                self._obs.gauge("fleet.inflight").set(self._inflight)
            self._note_queue_depth()
            self.sim.spawn(
                self._worker(job, pooled),
                name=f"{self.name}-{job.name}",
            )
        return dispatched

    def _pop_dispatchable(self) -> Optional[CampaignJob]:
        """First queued job whose endpoint (pin or any) is free now."""
        has_free = self.pool.has_available()
        if self._pinned_queued == 0:
            # Fast path for the common all-unpinned campaign: the head
            # job is dispatchable iff anything is free.
            if not has_free:
                return None
            return self._queue.popleft()
        for index, job in enumerate(self._queue):
            if job.endpoint is not None:
                target = self.pool.endpoints.get(job.endpoint)
                if target is not None and target.available:
                    del self._queue[index]
                    self._pinned_queued -= 1
                    return job
            elif has_free:
                del self._queue[index]
                return job
        return None

    def _any_dispatchable_later(self) -> bool:
        """Could any queued job ever run (pool may still be unpopulated)?"""
        unpinned_ok = self.pool.can_ever_run(None)
        return any(
            unpinned_ok if job.endpoint is None
            else self.pool.can_ever_run(job.endpoint)
            for job in self._queue
        )

    def _fail_stranded(self) -> None:
        stranded, self._queue = list(self._queue), deque()
        self._pinned_queued = 0
        for job in stranded:
            if job.endpoint is not None and job.endpoint in self.pool.departed:
                # Distinguishable fast failure: the pinned endpoint left
                # the fleet (crash with no return, handle gave up).
                job.error = f"ENDPOINT_DEPARTED: {job.endpoint}"
            else:
                job.error = job.error or "no endpoint available"
            self.report.unschedulable.append(job.name)
            self._finish_job(job, None, failed=True, endpoint_name="")
        self._note_queue_depth()

    def _arm_token_timer(self) -> None:
        if self._token_timer_armed:
            return
        delay = self.bucket.delay_until_token(self.sim.now)
        if delay <= 0.0:
            return
        self._token_timer_armed = True
        self.sim.schedule(delay, self._wake.put, ("token",))

    # -- worker ---------------------------------------------------------------

    def _worker(self, job: CampaignJob, pooled: PooledEndpoint) -> Generator:
        handle = pooled.handle
        obs = self._obs
        started = self.sim.now
        ctx = CampaignContext(
            sim=self.context.sim,
            controller_host=self.context.controller_host,
            target_address=self.context.target_address,
            attempt=job.attempts,
        )
        try:
            result = yield from job.run(handle, ctx)
        except RECOVERABLE as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            yield from self._scrub_session(handle)
            if obs.enabled:
                obs.histogram("fleet.job_duration_s").observe(
                    self.sim.now - started
                )
            self._wake.put(("failed", job, pooled))
            return
        if obs.enabled:
            obs.histogram("fleet.job_duration_s").observe(
                self.sim.now - started
            )
        self._wake.put(("done", job, pooled, result))

    def _scrub_session(self, handle) -> Generator:
        """Best-effort socket cleanup after a failed job, so a retry (or
        the next job pooled onto this session) starts from a clean
        sktid namespace."""
        for sktid in handle.open_sktids():
            try:
                yield from handle.nclose(sktid)
            except RECOVERABLE:
                return

    # -- completion handling --------------------------------------------------

    def _handle_wake(self, item: tuple) -> None:
        kind = item[0]
        if kind == "token":
            self._token_timer_armed = False
            return
        if kind == "poke":
            # Pool dispatchability changed (adoption, readmission,
            # drain, removal); the main loop re-dispatches after every
            # wake, so nothing to do here.
            return
        if kind == "requeue":
            job = item[1]
            self._pending_requeues -= 1
            self._queue.append(job)
            if job.endpoint is not None:
                self._pinned_queued += 1
            self._note_queue_depth()
            return
        if kind == "failed":
            job, pooled = item[1], item[2]
            self._inflight -= 1
            self.pool.release(pooled, failed=True)
            job.last_endpoint = pooled.name
            self._harvest_misbehavior(pooled)
            # Every failed attempt is weak evidence against the endpoint
            # it failed on (a stalling adversary surfaces as repeated
            # RpcTimeouts); the pool weighs it (no-op when scoring is
            # off).
            self.pool.report_misbehavior(pooled.name, "job-failure",
                                         detail=job.error or "")
            if self._obs.enabled:
                self._obs.gauge("fleet.inflight").set(self._inflight)
            if (
                job.endpoint is not None
                and not self.pool.can_ever_run(job.endpoint)
            ):
                # The pinned endpoint departed mid-campaign: fail fast
                # with a distinguishable result instead of burning the
                # retry budget spinning on a dead pin.
                job.error = f"ENDPOINT_DEPARTED: {job.endpoint} ({job.error})"
                self._harvest_deferred(pooled)
                self._finish_job(job, None, failed=True,
                                 endpoint_name=pooled.name)
                return
            if job.attempts < self.retry_policy.max_attempts:
                delay = self.retry_policy.delay_for(job.attempts, self.rng)
                job.attempts += 1
                self.report.retries += 1
                if self._obs.enabled:
                    self._obs.counter("fleet.jobs_retried").inc()
                    self._obs.emit("fleet", "job-retry", job=job.name,
                                   attempt=job.attempts, delay=delay,
                                   endpoint=pooled.name, error=job.error)
                self._pending_requeues += 1
                self.sim.schedule(delay, self._wake.put, ("requeue", job))
            else:
                self._harvest_deferred(pooled)
                self._finish_job(job, None, failed=True,
                                 endpoint_name=pooled.name)
            return
        # kind == "done"
        job, pooled, result = item[1], item[2], item[3]
        self._inflight -= 1
        self.pool.release(pooled, failed=False)
        if self._obs.enabled:
            self._obs.gauge("fleet.inflight").set(self._inflight)
        self._harvest_deferred(pooled)
        self._harvest_misbehavior(pooled)
        self._finish_job(job, result, failed=False,
                         endpoint_name=pooled.name)

    def _count_fresh(self, pooled: PooledEndpoint, evidence, kind: str,
                     counter: str) -> int:
        """How much of one evidence kind is new since the last harvest,
        counted under ``counter`` in the total and the endpoint's rollup.

        Evidence accumulates on the handle; the pooled endpoint keeps a
        high-water mark per kind so each item is counted exactly once
        even though harvesting runs after every job on the shared session.
        """
        seen = evidence.count(kind)
        fresh = seen - pooled.reported.get(kind, 0)
        if fresh <= 0:
            return 0
        pooled.reported[kind] = seen
        self.aggregator.total.counters.add(counter, fresh)
        self.aggregator.endpoint(pooled.name).counters.add(counter, fresh)
        return fresh

    def _harvest_deferred(self, pooled: PooledEndpoint) -> None:
        """Fold newly observed late nsend_nowait failures into results."""
        fresh = self._count_fresh(pooled, pooled.handle.evidence(),
                                  "deferred_errors", "deferred_send_errors")
        if fresh and self._obs.enabled:
            self._obs.counter("fleet.deferred_send_errors").inc(fresh)
            self._obs.emit("fleet", "deferred-errors",
                           endpoint=pooled.name, fresh=fresh)

    def _harvest_misbehavior(self, pooled: PooledEndpoint) -> None:
        """Fold newly observed session evidence into scoring + results
        (violations, budget exhaustions, silent abandons, timeouts)."""
        handle = pooled.handle
        evidence = handle.evidence()
        report = self.pool.report_misbehavior
        fresh = self._count_fresh(pooled, evidence, "violations",
                                  "protocol_violations")
        if fresh:
            for violation in evidence.violations[-fresh:]:
                kind = violation.kind
                if kind not in ("decode-error", "stream-overflow"):
                    kind = "sequence-violation"
                report(pooled.name, kind, detail=violation.detail)
        fresh = self._count_fresh(pooled, evidence, "budget_exhaustions",
                                  "budget_exhaustions")
        if fresh:
            misbehavior = handle.misbehavior
            kind = misbehavior.kind if misbehavior is not None \
                else "budget-exhausted"
            report(pooled.name, kind, count=fresh)
        fresh = self._count_fresh(pooled, evidence, "abandons",
                                  "silent_abandons")
        if fresh:
            report(pooled.name, "silent-abandon", count=fresh)
        # Unanswered commands are stall evidence even when the caller
        # absorbed the RpcTimeout into a partial-but-completed result.
        fresh = self._count_fresh(pooled, evidence, "rpc_timeouts",
                                  "rpc_timeouts")
        if fresh:
            report(pooled.name, "rpc-timeout", count=fresh)

    def _finish_job(self, job: CampaignJob, result, failed: bool,
                    endpoint_name: str) -> None:
        metrics = None
        if not failed and job.metrics is not None:
            metrics = job.metrics(result)
        group = job.group
        if group is not None:
            # Cross-validated: park the member; rollups happen (with
            # outlier filtering) when the whole group has reported.
            group.members.append((endpoint_name or "(none)", metrics, failed))
            if len(group.members) >= group.expect:
                self._adjudicate(group)
        else:
            self.aggregator.observe(endpoint_name or "(none)", metrics,
                                    failed=failed, job=job.name,
                                    error=job.error)
        if failed:
            self.report.jobs_failed += 1
            if self._obs.enabled:
                self._obs.counter("fleet.jobs_failed").inc()
                self._obs.emit("fleet", "job-failed", job=job.name,
                               endpoint=endpoint_name, error=job.error)
        else:
            self.report.jobs_completed += 1
            if self._obs.enabled:
                self._obs.counter("fleet.jobs_completed").inc()

    def _adjudicate(self, group: _ReplicaGroup) -> None:
        """Compare a completed replica group; flag and discard outliers."""
        fingerprints = [
            counters_fingerprint(metrics)
            for _, metrics, failed in group.members
            if not failed and metrics is not None
        ]
        majority, votes = majority_fingerprint(fingerprints)
        # A single vote proves nothing; demand a 2-of-k quorum before
        # accusing anyone.
        quorum = majority is not None and votes >= 2
        counters = self.aggregator.total.counters
        counters.add("cross_validation_groups", 1)
        if not quorum:
            counters.add("cross_validation_inconclusive", 1)
        for endpoint_name, metrics, failed in group.members:
            outlier = (
                quorum and not failed and metrics is not None
                and counters_fingerprint(metrics) != majority
            )
            if outlier:
                # The job completed, but its numbers disagree with the
                # quorum: keep them out of the rollups and score the
                # endpoint that produced them.
                self.aggregator.observe(endpoint_name, None, failed=False,
                                        job=group.name,
                                        error="cross-validation outlier")
                counters.add("cross_validation_outliers", 1)
                self.aggregator.endpoint(endpoint_name).counters.add(
                    "cross_validation_outliers", 1
                )
                self.pool.report_misbehavior(
                    endpoint_name, "result-mismatch",
                    detail=f"group {group.name}",
                )
                if self._obs.enabled:
                    self._obs.counter("fleet.cross_validation_outliers").inc()
                    self._obs.emit("fleet", "cross-validation-outlier",
                                   job=group.name, endpoint=endpoint_name)
            else:
                self.aggregator.observe(endpoint_name, metrics, failed=failed,
                                        job=group.name)

    def _note_queue_depth(self) -> None:
        if self._obs.enabled:
            self._obs.gauge("fleet.queue_depth").set(len(self._queue))
