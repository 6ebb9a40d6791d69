"""The executor: satisfy a plan's point demand, in-process or over a
resilient worker pool.

The contract: **the modelled numbers are a pure function of the task
list**.  Per-point seeds come from
:func:`repro.harness.experiment.point_seed` (a stable content hash), so
running the same tasks in-process, across N worker processes, in any
order, or through retries yields bit-identical :class:`PointResult`\\ s
— the executor only decides *where and when* the simulations run, never
*what they compute*.

Observability on the worker-pool path: a worker process cannot write
into the parent's registry, so each worker observes its points with a
private :class:`repro.obs.Observability`, ships the picklable
:meth:`dump <repro.obs.Observability.dump>` back with the result, and
the parent :meth:`absorb <repro.obs.Observability.absorb>`\\ s payloads
in task order.  ``--trace``, ``--metrics`` and ``--timeline`` therefore
keep working unchanged under ``--jobs N``; the merged counters equal
the in-process run's exactly, and a retried point contributes exactly
one payload — the successful attempt's.

Wall-clock note: this module intentionally reads the host clock
(``time.perf_counter`` for executor cost, ``time.monotonic`` for
per-point deadlines and retry backoff) — it is on the simlint SL001
allowlist precisely because this timing wraps *around* the simulations
and can never leak into modelled results.
"""

from __future__ import annotations

import heapq
import math
import os
import signal
import threading
import time
import traceback as traceback_mod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from types import FrameType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import repro.obs as obs_mod
from repro.errors import ConfigError
from repro.harness.cache import CacheStats, ResultCache, point_key
from repro.harness.experiment import PointResult, PointSpec, run_point, spec_token
from repro.harness.plan import PlanBatch, PointTask, RunPlan, dedupe_plans
from repro.harness.resilience import (
    BatchJournal,
    ChaosPlan,
    ExecutionInterrupted,
    Quarantine,
    ResilienceConfig,
    RunStats,
    TaskFailure,
    chaos_plan,
    hole_result,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (figures imports us)
    from repro.harness.figures import FigureResult

#: per-completion callback: ``(task, result)`` the moment a point finishes
ResultCallback = Callable[[PointTask, PointResult], None]

#: what a worker needs to mirror the parent's observability: ``None``
#: when the parent is not observing, else ``(timeline config, simprof
#: recorder on, op ledger on)``
_ObsConfig = Optional[Tuple[Optional[obs_mod.TimelineConfig], bool, bool]]

__all__ = [
    "PointTask",
    "Executor",
    "SerialExecutor",
    "ExecutionReport",
    "execute_plan",
    "execute_plans",
]


def _run_task(
    task: PointTask,
    attempt: int,
    chaos: ChaosPlan,
    observe: _ObsConfig,
) -> Tuple[PointResult, Optional[Dict[str, Any]]]:
    """Worker-side entry point (module-level, hence picklable).

    ``attempt`` is the zero-based try number — chaos directives key off
    it so a "crash once" scenario crashes exactly once.  The worker
    explicitly controls the ambient observability: under a forking
    start method it would otherwise inherit the parent's active
    Observability and mutate a copy nobody reads.  With ``observe`` set
    it records with private recorders mirroring the parent's, and their
    mergeable state rides the dump back.
    """
    if chaos.active:
        token = spec_token(task.spec)
        if (
            chaos.kill_substr is not None
            and chaos.kill_substr in token
            and attempt < chaos.kill_attempts
        ):
            os.kill(os.getpid(), signal.SIGKILL)
        if chaos.sleep_substr is not None and chaos.sleep_substr in token:
            time.sleep(chaos.sleep_seconds)
    if observe is None:
        with obs_mod.activated(None):
            return run_point(task.spec, reps=task.reps, base_seed=task.base_seed), None
    timeline, profile, ledger = observe
    obs = obs_mod.Observability(
        timeline=timeline,
        profile=obs_mod.ProfileRecorder() if profile else None,
        ledger=obs_mod.OpLedger() if ledger else None,
    )
    with obs_mod.activated(obs):
        result = run_point(task.spec, reps=task.reps, base_seed=task.base_seed)
    obs.finalize()
    return result, obs.dump()


@dataclass
class _Pending:
    """Book-keeping for one submitted attempt."""

    index: int
    deadline: Optional[float]


@dataclass(eq=False)
class Executor:
    """Turn tasks into results, order-preserving: ``results[i]``
    corresponds to ``tasks[i]``.

    The four settings are the CLI's ``--jobs``, ``--point-timeout``,
    ``--max-retries`` and ``--retry-backoff``; they select the path:

    - **in-process** when ``jobs == 1`` and neither ``point_timeout``
      nor ``max_retries`` is set (the defaults): tasks run in order
      under whatever observability is ambient, with no pickling, and
      exceptions propagate.
    - **worker pool** otherwise: ``jobs`` worker processes with
      per-point deadlines, bounded retries (``max_retries`` defaults to
      2), crash containment, quarantine and graceful interrupt (see
      :mod:`repro.harness.resilience`).  An in-process point can be
      neither deadlined nor survive a crash, so a timeout or a retry
      budget alone selects the pool even at ``jobs=1``.  A result slot
      is ``None`` only when that task exhausted its retry budget
      (details in :attr:`last_failures`) or the run was interrupted
      before it could execute; :attr:`last_stats` carries the
      accounting.

    Both paths report every completed point through ``on_result`` the
    moment it exists — the checkpointing hook.
    """

    jobs: int = 1
    point_timeout: Optional[float] = None
    max_retries: Optional[int] = None
    retry_backoff: float = 0.25
    last_stats: RunStats = field(default_factory=RunStats, init=False, repr=False)
    last_failures: List[TaskFailure] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError(f"Executor needs jobs >= 1, got {self.jobs}")
        if self.max_retries is not None and self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        timeout = self.point_timeout
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ConfigError(f"point_timeout must be finite and > 0, got {timeout}")
        backoff = self.retry_backoff
        if not (math.isfinite(backoff) and backoff >= 0):
            raise ConfigError(f"retry_backoff must be finite and >= 0, got {backoff}")

    @property
    def in_process(self) -> bool:
        """Whether :meth:`run_tasks` runs points in this process."""
        return self.jobs == 1 and self.point_timeout is None and self.max_retries is None

    def run_tasks(
        self,
        tasks: Sequence[PointTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[Optional[PointResult]]:
        if not self.in_process:
            return self._run_pool(tasks, on_result)
        results: List[Optional[PointResult]] = []
        for t in tasks:
            result = run_point(t.spec, reps=t.reps, base_seed=t.base_seed)
            if on_result is not None:
                on_result(t, result)
            results.append(result)
        return results

    def _run_pool(
        self,
        tasks: Sequence[PointTask],
        on_result: Optional[ResultCallback],
    ) -> List[Optional[PointResult]]:
        self.last_stats = stats = RunStats()
        self.last_failures = failures = []
        if not tasks:
            return []
        parent_obs = obs_mod.current()
        observe: _ObsConfig = (
            None
            if parent_obs is None
            else (
                parent_obs.timeline_config,
                parent_obs.profile is not None,
                parent_obs.ledger is not None,
            )
        )
        max_attempts = 1 + (2 if self.max_retries is None else self.max_retries)

        n = len(tasks)
        results: List[Optional[PointResult]] = [None] * n
        payloads: List[Optional[Dict[str, Any]]] = [None] * n
        settled = [False] * n  # success or quarantine: will never produce more work
        attempts = [0] * n  # tries started
        queue: Deque[int] = deque(range(n))
        retry_heap: List[Tuple[float, int]] = []  # (host time ready, index)
        running: Dict["Future[Tuple[PointResult, Optional[Dict[str, Any]]]]", _Pending] = {}
        pool: Optional[ProcessPoolExecutor] = None
        absorb_upto = 0
        completed = 0
        chaos = chaos_plan()
        sigints = 0
        # culprit isolation: a pool crash kills every in-flight attempt,
        # so a task that crashes its worker on every try would keep
        # taking innocent co-scheduled tasks down with it (and eat their
        # retry budgets).  After a multi-victim crash the next
        # `solo_pending` attempts run one at a time, so the culprit
        # crashes alone (and is charged alone) while innocents complete.
        solo_pending = 0

        def on_sigint(signum: int, frame: Optional[FrameType]) -> None:
            nonlocal sigints
            sigints += 1

        def ensure_pool() -> ProcessPoolExecutor:
            nonlocal pool
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=min(self.jobs, n))
            return pool

        def teardown_pool(kill: bool) -> None:
            nonlocal pool
            if pool is None:
                return
            if kill:
                procs = getattr(pool, "_processes", None) or {}
                for proc in list(procs.values()):
                    proc.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
            running.clear()

        def submit(index: int) -> None:
            fut = ensure_pool().submit(
                _run_task, tasks[index], attempts[index], chaos, observe
            )
            attempts[index] += 1
            deadline = (
                time.monotonic() + self.point_timeout
                if self.point_timeout is not None
                else None
            )
            running[fut] = _Pending(index=index, deadline=deadline)

        def drain_absorb() -> None:
            # absorb payloads strictly in submission order so merged
            # telemetry never depends on completion order
            nonlocal absorb_upto
            while absorb_upto < n and settled[absorb_upto]:
                payload = payloads[absorb_upto]
                if payload is not None and parent_obs is not None:
                    parent_obs.absorb(payload)
                payloads[absorb_upto] = None
                absorb_upto += 1

        def budget_fail(index: int, reason: str, error: str, tb: str) -> None:
            nonlocal solo_pending
            if attempts[index] >= max_attempts:
                solo_pending = max(0, solo_pending - 1)
                stats.quarantined += 1
                settled[index] = True
                failures.append(
                    TaskFailure(
                        index=index,
                        task=tasks[index],
                        attempts=attempts[index],
                        reason=reason,
                        error=error,
                        traceback=tb,
                    )
                )
                drain_absorb()
            else:
                stats.retried += 1
                ready = time.monotonic() + self.retry_backoff * (
                    2 ** (attempts[index] - 1)
                )
                heapq.heappush(retry_heap, (ready, index))

        in_main_thread = threading.current_thread() is threading.main_thread()
        prev_handler: Any = None
        if in_main_thread:
            prev_handler = signal.signal(signal.SIGINT, on_sigint)
        soft_stop = False
        hard_stop = False
        try:
            while queue or running or retry_heap:
                if sigints >= 2:
                    hard_stop = True
                    break
                if sigints >= 1:
                    soft_stop = True
                if soft_stop:
                    stats.interrupted = True
                    queue.clear()
                    retry_heap.clear()
                    if not running:
                        break
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, index = heapq.heappop(retry_heap)
                    queue.append(index)
                # submission window = jobs: a submitted task starts (nearly)
                # immediately, so per-point deadlines measure actual runtime,
                # a SIGINT leaves queued work unsubmitted, and a pool crash
                # dooms at most `jobs` attempts
                window = 1 if solo_pending > 0 else self.jobs
                while queue and not soft_stop and len(running) < window:
                    submit(queue.popleft())
                if not running:
                    if retry_heap:
                        time.sleep(min(0.05, max(0.0, retry_heap[0][0] - now)) or 0.005)
                    continue
                wait_timeout = 0.1
                deadlines = [p.deadline for p in running.values() if p.deadline is not None]
                if deadlines:
                    wait_timeout = min(wait_timeout, max(0.0, min(deadlines) - now))
                done, _ = wait(
                    set(running), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )
                crash_victims: List[int] = []
                for fut in sorted(done, key=lambda f: running[f].index):
                    index = running.pop(fut).index
                    try:
                        result, payload = fut.result()
                    except BrokenProcessPool:
                        stats.crashes += 1
                        crash_victims.append(index)
                        continue
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:  # simlint: disable=SL006 -- any worker exception becomes a retry/quarantine entry instead of aborting the batch
                        error = f"{type(exc).__name__}: {exc}"
                        tb = "".join(traceback_mod.format_exception(exc))
                        budget_fail(index, "error", error, tb)
                        continue
                    results[index] = result
                    payloads[index] = payload
                    settled[index] = True
                    solo_pending = max(0, solo_pending - 1)
                    completed += 1
                    if on_result is not None:
                        on_result(tasks[index], result)
                    drain_absorb()
                    if (
                        chaos.interrupt_after is not None
                        and completed >= chaos.interrupt_after
                    ):
                        soft_stop = True
                if crash_victims:
                    # the pool is broken: every in-flight attempt died with it
                    crash_victims.extend(p.index for p in running.values())
                    teardown_pool(kill=False)
                    victims = sorted(set(crash_victims))
                    for index in victims:
                        budget_fail(
                            index,
                            "worker-crash",
                            "worker process died (BrokenProcessPool); "
                            "task resubmitted to a fresh pool",
                            "",
                        )
                    if len(victims) > 1:
                        # can't tell the culprit from its collateral:
                        # isolate the survivors' next attempts
                        solo_pending = sum(
                            1 for index in victims if not settled[index]
                        )
                    continue
                if self.point_timeout is not None and running:
                    now = time.monotonic()
                    overdue = sorted(
                        p.index
                        for p in running.values()
                        if p.deadline is not None and p.deadline <= now
                    )
                    if overdue:
                        innocents = sorted(
                            p.index for p in running.values() if p.index not in overdue
                        )
                        # a running future cannot be cancelled: terminate the
                        # workers, then resubmit — overdue tasks on their next
                        # attempt, innocents without touching their budget
                        teardown_pool(kill=True)
                        for index in innocents:
                            attempts[index] -= 1
                            queue.append(index)
                        for index in overdue:
                            stats.timed_out += 1
                            budget_fail(
                                index,
                                "timeout",
                                f"point exceeded --point-timeout="
                                f"{self.point_timeout}s (attempt {attempts[index]})",
                                "",
                            )
        finally:
            if in_main_thread:
                signal.signal(signal.SIGINT, prev_handler)
            teardown_pool(kill=hard_stop or stats.interrupted)
        if hard_stop:
            raise KeyboardInterrupt
        if stats.interrupted:
            raise ExecutionInterrupted(completed=completed, total=n)
        return results


#: another name for :class:`Executor`: ``SerialExecutor()`` is the
#: in-process default
SerialExecutor = Executor


@dataclass
class ExecutionReport:
    """What satisfying a batch of plans cost, and where the work went."""

    jobs: int = 1
    requested_points: int = 0
    planned_points: int = 0
    unique_points: int = 0
    executed_points: int = 0
    wall_seconds: float = 0.0
    cache: Optional[CacheStats] = None
    #: resilience accounting (all zero in-process and on clean runs)
    retried: int = 0
    timed_out: int = 0
    quarantined: int = 0
    resumed: int = 0

    @property
    def deduped_points(self) -> int:
        return self.requested_points - self.unique_points

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "jobs": self.jobs,
            "requested_points": self.requested_points,
            "planned_points": self.planned_points,
            "unique_points": self.unique_points,
            "deduped_points": self.deduped_points,
            "executed_points": self.executed_points,
            "wall_seconds": self.wall_seconds,
            "retried": self.retried,
            "timed_out": self.timed_out,
            "quarantined": self.quarantined,
            "resumed": self.resumed,
        }
        doc["cache"] = self.cache.as_dict() if self.cache is not None else None
        return doc

    def summary(self) -> str:
        parts = [
            f"{self.unique_points} unique points "
            f"({self.deduped_points} deduplicated of {self.requested_points} requested)",
            f"{self.executed_points} executed with jobs={self.jobs} "
            f"in {self.wall_seconds:.1f}s",
        ]
        if self.retried or self.timed_out or self.quarantined or self.resumed:
            parts.append(
                f"resilience: retried={self.retried} timed-out={self.timed_out} "
                f"quarantined={self.quarantined} resumed={self.resumed}"
            )
        if self.cache is not None:
            parts.append(f"cache: {self.cache.summary()}")
        return "; ".join(parts)


def execute_plans(
    plans: Sequence[RunPlan],
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    base_seed: int = 0,
    resilience: Optional[ResilienceConfig] = None,
) -> Tuple[List["FigureResult"], ExecutionReport]:
    """Satisfy several plans at once and assemble their figures.

    Pipeline: dedupe points across figures -> serve what the cache
    holds -> hand the misses to the executor -> checkpoint each fresh
    result the moment it completes -> run each plan's pure assembly.
    Returns the figures (plan order) and an :class:`ExecutionReport`.

    Every fresh result is ``cache.put`` per-completion (through the
    executor's ``on_result`` hook), so a run that dies mid-batch keeps
    everything it finished.  With a ``resilience`` config the batch
    additionally keeps a :class:`~repro.harness.resilience.BatchJournal`
    (``--resume`` accounting), skips and reports points already in the
    :class:`~repro.harness.resilience.Quarantine`, persists new
    quarantine entries, and — under ``allow_partial`` — assembles
    figures with explicitly-NaN holes instead of raising.

    ``executor`` defaults to the in-process :class:`Executor`; any
    object with a ``jobs`` count and a ``run_tasks(tasks, on_result)``
    method works, and its ``last_stats``/``last_failures`` are read
    only if it has them.
    """
    executor = executor if executor is not None else Executor()
    batch: PlanBatch = dedupe_plans(plans)
    report = ExecutionReport(
        jobs=executor.jobs,
        requested_points=batch.requested_points,
        planned_points=batch.planned_points,
        unique_points=batch.unique_points,
        cache=cache.stats if cache is not None else None,
    )
    journal = None
    quarantine = None
    prev_done: Set[str] = set()
    if resilience is not None:
        qpath = resilience.quarantine_path
        if qpath is None and cache is not None:
            qpath = cache.root / "quarantine.json"
        quarantine = Quarantine(qpath)
        if cache is not None:
            keyed = {
                point_key(spec, reps, base_seed): spec_token(spec)
                for spec, reps in batch.tasks
            }
            journal = BatchJournal(
                cache.root / "journal",
                BatchJournal.key_for(list(keyed), base_seed),
            )
            if resilience.resume:
                prev_done = journal.done_keys()
            journal.write_manifest(keyed, base_seed=base_seed, jobs=executor.jobs)
    pool: Dict[Tuple[PointSpec, int], PointResult] = {}
    misses: List[PointTask] = []
    quarantined_tokens: List[str] = []
    for spec, reps in batch.tasks:
        key = point_key(spec, reps, base_seed)
        if quarantine is not None and quarantine.has(key):
            report.quarantined += 1
            quarantined_tokens.append(spec_token(spec))
            continue
        cached = cache.get(spec, reps, base_seed) if cache is not None else None
        if cached is not None:
            pool[(spec, reps)] = cached
            if journal is not None:
                if key in prev_done:
                    report.resumed += 1
                journal.mark_done(key)
        else:
            misses.append(PointTask(spec=spec, reps=reps, base_seed=base_seed))

    def checkpoint(task: PointTask, result: PointResult) -> None:
        pool[(task.spec, task.reps)] = result
        if cache is not None:
            cache.put(result, base_seed=base_seed)
        if journal is not None:
            journal.mark_done(point_key(task.spec, task.reps, base_seed))

    t0 = time.perf_counter()
    try:
        fresh = executor.run_tasks(misses, on_result=checkpoint)
    finally:
        report.wall_seconds = time.perf_counter() - t0
    report.executed_points = sum(1 for result in fresh if result is not None)
    stats = getattr(executor, "last_stats", None)
    if stats is not None:
        report.retried += stats.retried
        report.timed_out += stats.timed_out
        report.quarantined += stats.quarantined
    for failure in getattr(executor, "last_failures", None) or []:
        token = spec_token(failure.task.spec)
        quarantined_tokens.append(token)
        if quarantine is not None:
            quarantine.add(
                key=point_key(failure.task.spec, failure.task.reps, base_seed),
                token=token,
                reps=failure.task.reps,
                base_seed=base_seed,
                attempts=failure.attempts,
                reason=failure.reason,
                error=failure.error,
                traceback=failure.traceback,
            )
    figures: List["FigureResult"] = []
    allow_partial = resilience is not None and resilience.allow_partial
    for plan in batch.plans:
        missing = [spec for spec in plan.specs if (spec, plan.reps) not in pool]
        if missing and allow_partial:
            results = {
                spec: pool.get((spec, plan.reps)) or hole_result(spec, plan.reps)
                for spec in plan.specs
            }
            figure = plan.assemble(results)
            hole_note = (
                f"PARTIAL: {len(missing)} of {len(plan.specs)} points missing "
                f"(NaN holes): " + "; ".join(spec_token(s) for s in missing)
            )
            notes = f"{figure.notes}\n{hole_note}" if figure.notes else hole_note
            figures.append(replace(figure, notes=notes))
        elif missing:
            names = ", ".join(spec_token(s) for s in missing[:3])
            more = f" (+{len(missing) - 3} more)" if len(missing) > 3 else ""
            cause = (
                " — quarantined after repeated failures"
                if quarantined_tokens
                else ""
            )
            raise ConfigError(
                f"plan {plan.fig_id!r}: {len(missing)} of {len(plan.specs)} "
                f"point results missing{cause}: {names}{more}; re-run with "
                f"--allow-partial to assemble the figure with explicit holes"
            )
        else:
            results = {spec: pool[(spec, plan.reps)] for spec in plan.specs}
            figures.append(plan.assemble(results))
    return figures, report


def execute_plan(
    plan: RunPlan,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    base_seed: int = 0,
    resilience: Optional[ResilienceConfig] = None,
) -> Tuple["FigureResult", ExecutionReport]:
    """Single-plan convenience wrapper around :func:`execute_plans`."""
    figures, report = execute_plans(
        [plan],
        executor=executor,
        cache=cache,
        base_seed=base_seed,
        resilience=resilience,
    )
    return figures[0], report
