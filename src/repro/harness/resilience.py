"""Records and persistence behind the resilient worker-pool path of
:class:`~repro.harness.executor.Executor`.

That path rides through worker crashes (``BrokenProcessPool``: respawn
and resubmit), hung points (``--point-timeout``: kill, retry with
backoff up to ``--max-retries``) and SIGINT (drain, checkpoint, raise
:class:`ExecutionInterrupted`), all host-side and wrapped *around* the
simulations, so modelled numbers stay a pure function of
``(spec, reps, base_seed)``.  This module holds what that produces and
persists: :class:`RunStats` accounting, :class:`TaskFailure` records of
tasks that exhausted their attempts, the :class:`Quarantine` file they
land in, the :class:`BatchJournal` behind ``--resume``, the NaN
:func:`hole_result` of ``--allow-partial``, the batch-level
:class:`ResilienceConfig`, and the ``REPRO_HARNESS_CHAOS`` grammar
(:func:`chaos_plan`) that injects deterministic harness faults in CI
and tests.  :mod:`repro.harness.executor` imports this module, never
the reverse.  See docs/EXECUTION.md ("Resilient execution").
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Set

from repro.errors import ConfigError, ReproError
from repro.harness.experiment import PointResult, PointSpec
from repro.harness.plan import PointTask

__all__ = [
    "ResilienceConfig",
    "ExecutionInterrupted",
    "RunStats",
    "TaskFailure",
    "Quarantine",
    "BatchJournal",
    "ChaosPlan",
    "hole_result",
    "chaos_plan",
    "CHAOS_ENV",
]

#: environment variable carrying deterministic fault-injection directives
#: for the harness itself (the modelled systems have their own fault
#: plans — docs/FAULTS.md); see :func:`chaos_plan` for the grammar
CHAOS_ENV = "REPRO_HARNESS_CHAOS"


class ExecutionInterrupted(ReproError):
    """A batch was interrupted (SIGINT) after draining in-flight work.

    Everything completed before the interrupt has already been
    checkpointed through ``on_result``; re-running with ``--resume``
    serves those points from the cache.
    """

    def __init__(self, completed: int, total: int) -> None:
        self.completed = completed
        self.total = total
        super().__init__(
            f"interrupted after {completed} of {total} fresh points "
            f"(completed work is checkpointed)"
        )


@dataclass(frozen=True)
class ChaosPlan:
    """Parsed ``REPRO_HARNESS_CHAOS`` directives (all default to off)."""

    kill_substr: Optional[str] = None
    kill_attempts: int = 1
    sleep_substr: Optional[str] = None
    sleep_seconds: float = 0.0
    interrupt_after: Optional[int] = None

    @property
    def active(self) -> bool:
        return (
            self.kill_substr is not None
            or self.sleep_substr is not None
            or self.interrupt_after is not None
        )


def chaos_plan(env: Optional[str] = None) -> ChaosPlan:
    """Parse harness-chaos directives (``;``-separated):

    - ``kill-worker:SUBSTR[:N]`` — a worker about to run a task whose
      spec token contains ``SUBSTR`` SIGKILLs itself, on the first
      ``N`` attempts (default 1: the retry succeeds).
    - ``sleep:SUBSTR:SECONDS`` — the worker sleeps (host time) before
      running a matching task, on every attempt — the deterministic
      stand-in for a hung simulation.  ``SECONDS`` is finite and >= 0.
    - ``interrupt-after:N`` — the parent behaves as if it received a
      SIGINT after N fresh completions (stop submitting, drain,
      checkpoint, raise :class:`ExecutionInterrupted`).

    A malformed directive raises :class:`~repro.errors.ConfigError`
    naming it.
    """
    raw = os.environ.get(CHAOS_ENV, "") if env is None else env
    plan = ChaosPlan()
    for directive in filter(None, (p.strip() for p in raw.split(";"))):
        name, _, rest = directive.partition(":")
        if name == "kill-worker" and rest:
            substr, _, n = rest.rpartition(":")
            if substr and n.isdigit():
                plan = replace(plan, kill_substr=substr, kill_attempts=int(n))
            else:
                plan = replace(plan, kill_substr=rest, kill_attempts=1)
        elif name == "sleep" and rest:
            substr, _, seconds = rest.rpartition(":")
            try:
                value = float(seconds)
            except ValueError:
                value = math.nan
            if not substr or not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"{CHAOS_ENV}: bad directive {directive!r} "
                    f"(expected sleep:SUBSTR:SECONDS, SECONDS finite and >= 0)"
                )
            plan = replace(plan, sleep_substr=substr, sleep_seconds=value)
        elif name == "interrupt-after" and rest.isdigit():
            plan = replace(plan, interrupt_after=int(rest))
        else:
            raise ConfigError(
                f"{CHAOS_ENV}: unknown directive {directive!r} "
                f"(known: kill-worker:SUBSTR[:N], sleep:SUBSTR:SECONDS, "
                f"interrupt-after:N)"
            )
    return plan


@dataclass
class RunStats:
    """Resilience accounting for one ``run_tasks`` call."""

    retried: int = 0
    timed_out: int = 0
    quarantined: int = 0
    crashes: int = 0
    interrupted: bool = False


@dataclass(frozen=True)
class TaskFailure:
    """A task that exhausted its attempt budget (executor-side record;
    :func:`~repro.harness.executor.execute_plans` persists it into the
    :class:`Quarantine` file)."""

    index: int
    task: PointTask
    attempts: int
    reason: str  # "error" | "timeout" | "worker-crash"
    error: str
    traceback: str


@dataclass
class ResilienceConfig:
    """Batch-level resilience knobs (``--allow-partial``, ``--resume``,
    ``--quarantine``) for :func:`~repro.harness.executor.execute_plans`.

    The per-point knobs (timeout, retries, backoff) are the executor's."""

    allow_partial: bool = False
    resume: bool = False
    quarantine_path: Optional[Path] = None


class Quarantine:
    """Structured record of tasks that exhausted their retry budget.

    JSON document keyed by the point's cache key; each entry round-trips
    the spec token plus attempts/exception/traceback, so a human (or a
    later tool) can re-run exactly the failing point.  ``path=None``
    keeps the quarantine in memory only.
    """

    SCHEMA = 1

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.entries: Dict[str, Dict[str, Any]] = {}
        if self.path is not None and self.path.exists():
            try:
                with open(self.path) as fh:
                    doc = json.load(fh)
                if doc.get("schema") == self.SCHEMA:
                    self.entries = dict(doc.get("entries", {}))
            except (OSError, json.JSONDecodeError, AttributeError):
                self.entries = {}  # corrupt quarantine: start fresh

    def has(self, key: str) -> bool:
        return key in self.entries

    def add(
        self,
        key: str,
        token: str,
        reps: int,
        base_seed: int,
        attempts: int,
        reason: str,
        error: str,
        traceback: str = "",
    ) -> None:
        self.entries[key] = {
            "spec_token": token,
            "reps": reps,
            "base_seed": base_seed,
            "attempts": attempts,
            "reason": reason,
            "error": error,
            "traceback": traceback,
        }
        self.save()

    def save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"schema": self.SCHEMA, "entries": self.entries}
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path)

    def __len__(self) -> int:
        return len(self.entries)


class BatchJournal:
    """Append-only completion log for one deduplicated batch.

    The manifest (``<batch>.journal``) freezes what the batch *is* —
    every point key with its spec token — and the events file
    (``<batch>.events``) appends one ``done <key>`` line per completed
    point.  Neither uses the ``.json`` suffix: they live under the
    cache root and must stay invisible to the cache's own entry walk.
    The batch key is content-addressed over the sorted point keys, so
    re-invoking the same figures/scale/faults resumes the same journal.
    """

    SCHEMA = 1

    def __init__(self, root: Path, batch_key: str) -> None:
        self.root = Path(root)
        self.batch_key = batch_key
        self.root.mkdir(parents=True, exist_ok=True)
        self._written: Set[str] = set()

    @staticmethod
    def key_for(point_keys: Sequence[str], base_seed: int) -> str:
        payload = ("\n".join(sorted(point_keys)) + f"|base={base_seed}").encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    @property
    def manifest_path(self) -> Path:
        return self.root / f"{self.batch_key}.journal"

    @property
    def events_path(self) -> Path:
        return self.root / f"{self.batch_key}.events"

    def write_manifest(self, points: Dict[str, str], base_seed: int, jobs: int) -> None:
        """``points`` maps point key -> spec token."""
        doc = {
            "schema": self.SCHEMA,
            "batch_key": self.batch_key,
            "base_seed": base_seed,
            "jobs": jobs,
            "points": points,
        }
        tmp = self.manifest_path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.manifest_path)

    def done_keys(self) -> Set[str]:
        try:
            with open(self.events_path) as fh:
                lines = fh.read().splitlines()
        except OSError:
            return set()
        return {
            line.split(" ", 1)[1]
            for line in lines
            if line.startswith("done ") and len(line.split(" ", 1)) == 2
        }

    def mark_done(self, key: str) -> None:
        if key in self._written:
            return
        self._written.add(key)
        with open(self.events_path, "a") as fh:
            fh.write(f"done {key}\n")


def hole_result(spec: PointSpec, reps: int) -> PointResult:
    """An explicitly-NaN placeholder for a missing point.

    Used by ``--allow-partial`` assembly: the figure keeps its shape,
    the hole is unmistakable in every series, and the figure's notes
    name the missing specs.
    """
    nan = float("nan")
    return PointResult(
        spec=spec,
        write_bw=(nan, nan),
        read_bw=(nan, nan),
        write_iops=(nan, nan),
        read_iops=(nan, nan),
        reps=reps,
    )
