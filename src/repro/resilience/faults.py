"""Seeded probabilistic fault injection for sweep workers.

Gated by the ``REPRO_FAULTS`` environment knob, whose grammar is a
comma-separated list of ``fault:probability`` pairs::

    REPRO_FAULTS="worker_raise:0.2,worker_hang:0.05,corrupt_result:0.1"

Faults:

* ``worker_raise`` -- the cell raises :class:`InjectedFault` before
  simulating (exercises retry-then-succeed and retry exhaustion).
* ``worker_hang`` -- the cell sleeps ``REPRO_FAULTS_HANG_S`` seconds
  (default 30) before simulating (exercises per-cell timeouts and the
  kill-and-requeue path; on the serial path the sleep simply elapses).
* ``worker_kill`` -- the worker process SIGKILLs itself mid-cell
  (exercises worker-death detection and pool re-creation; degraded to a
  raise on the serial path, which has no expendable process).
* ``corrupt_result`` -- the cell completes but its counters are
  perturbed in a way the audit invariants of :mod:`repro.audit` must
  catch (run chaos workloads with ``REPRO_AUDIT=1``).

Disk faults (consumed by the atomic-write primitive of
:mod:`repro.resilience.integrity`, not by the cell evaluator):

* ``torn_write`` -- the temporary file is truncated mid-payload and the
  write raises, modelling a crash between ``write`` and ``rename``;
* ``enospc`` -- the write raises ``OSError(ENOSPC)`` after a partial
  payload, modelling a full disk;
* ``rename_fail`` -- the payload lands completely but the commit rename
  raises, leaving an orphaned ``.tmp-`` file;
* ``bitflip`` -- one bit of the payload is silently flipped before the
  commit, modelling bit rot that only digest verification can catch.

Injection is *deterministic*: whether fault ``f`` fires for a given cell
on a given attempt is a pure function of ``(REPRO_FAULTS_SEED, f, cell
signature, attempt)``, hashed to a uniform draw.  The pattern is
therefore reproducible across runs and independent of worker scheduling,
while retries of the same cell still get fresh draws.  (Disk faults use
a per-process write sequence number as the attempt, so repeated writes
to the same path also get fresh draws.)
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Environment knobs (registered in :mod:`repro.core.envcfg`).
FAULTS_ENV = "REPRO_FAULTS"
SEED_ENV = "REPRO_FAULTS_SEED"
HANG_ENV = "REPRO_FAULTS_HANG_S"

#: Disk faults, applied inside the atomic-write primitive
#: (:mod:`repro.resilience.integrity`) rather than around cell
#: evaluation.
DISK_FAULT_KINDS = ("torn_write", "enospc", "rename_fail", "bitflip")

#: Recognised fault names.
FAULT_KINDS = (
    "worker_raise", "worker_hang", "worker_kill", "corrupt_result",
) + DISK_FAULT_KINDS

#: Defaults mirrored from the envcfg registry (kept as module constants
#: for the :meth:`FaultPlan.parse` signature, which is env-independent).
_DEFAULT_SEED = 20240613
_DEFAULT_HANG_S = 30.0


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault-injection harness."""


def _uniform_draw(seed: int, fault: str, signature: str, attempt: int) -> float:
    """A deterministic uniform [0, 1) draw for one injection decision."""
    digest = hashlib.sha256(
        f"{seed}|{fault}|{signature}|{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """Parsed injection rates plus the seed that makes them reproducible."""

    rates: Tuple[Tuple[str, float], ...]
    seed: int = _DEFAULT_SEED
    hang_seconds: float = _DEFAULT_HANG_S

    @classmethod
    def parse(
        cls,
        spec: str,
        seed: int = _DEFAULT_SEED,
        hang_seconds: float = _DEFAULT_HANG_S,
    ) -> Optional["FaultPlan"]:
        """Parse the ``fault:prob,...`` grammar; ``None`` for an empty spec."""
        spec = (spec or "").strip()
        if not spec:
            return None
        rates: Dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise ValueError(
                    f"{FAULTS_ENV}: expected fault:probability, got {part!r}"
                )
            name, prob_text = part.split(":", 1)
            name = name.strip()
            if name not in FAULT_KINDS:
                raise ValueError(
                    f"{FAULTS_ENV}: unknown fault {name!r} "
                    f"(known: {', '.join(FAULT_KINDS)})"
                )
            try:
                prob = float(prob_text)
            except ValueError:
                raise ValueError(
                    f"{FAULTS_ENV}: unparseable probability {prob_text!r} "
                    f"for {name}"
                ) from None
            if not 0.0 <= prob <= 1.0:
                raise ValueError(
                    f"{FAULTS_ENV}: probability for {name} must be in "
                    f"[0, 1], got {prob}"
                )
            rates[name] = prob
        if not rates:
            return None
        return cls(
            rates=tuple(sorted(rates.items())),
            seed=seed,
            hang_seconds=hang_seconds,
        )

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        # Imported lazily: this module is pulled in while repro.core's
        # package init is still running, so a top-level envcfg import
        # would close an import cycle.
        from repro.core import envcfg

        return cls.parse(
            envcfg.get(FAULTS_ENV),
            seed=envcfg.get(SEED_ENV),
            hang_seconds=envcfg.get(HANG_ENV),
        )

    @property
    def spec(self) -> str:
        """Render back to the grammar (manifests record this)."""
        return ",".join(f"{name}:{prob:g}" for name, prob in self.rates)

    def rate(self, fault: str) -> float:
        for name, prob in self.rates:
            if name == fault:
                return prob
        return 0.0

    def decide(self, fault: str, signature: str, attempt: int) -> bool:
        """Whether ``fault`` fires for this (cell, attempt) -- deterministic."""
        rate = self.rate(fault)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return _uniform_draw(self.seed, fault, signature, attempt) < rate

    def inject_before(self, signature: str, attempt: int, in_worker: bool) -> None:
        """Apply pre-simulation faults (kill, hang, raise) for one cell."""
        if self.decide("worker_kill", signature, attempt):
            if in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedFault(
                f"worker_kill injected (serial surrogate) for {signature} "
                f"attempt {attempt}"
            )
        if self.decide("worker_hang", signature, attempt):
            time.sleep(self.hang_seconds)
        if self.decide("worker_raise", signature, attempt):
            raise InjectedFault(
                f"worker_raise injected for {signature} attempt {attempt}"
            )

    def corrupt_after(self, signature: str, attempt: int, result):
        """Return ``result``, possibly replaced by a corrupted copy.

        The corruption breaks a conservation law -- a phantom L1 read
        (violating the CPU-boundary law) for count results, plus a torn
        time decomposition for timing results -- so ``REPRO_AUDIT=1``
        runs reject it at sweep intake.  For a stack-distance grid
        result (a bundle of member results) the first member is
        corrupted, modelling a pass gone wrong for one derived member.  The copy leaves the original (and anything it
        shares, like memo cache payloads) untouched.
        """
        if not self.decide("corrupt_result", signature, attempt):
            return result
        if hasattr(result, "results") and not hasattr(result, "level_stats"):
            first, rest = result.results[0], result.results[1:]
            corrupted_member = self.corrupt_after(signature, attempt, first)
            if corrupted_member is first:  # pragma: no cover - decide is stable
                return result
            return dataclasses.replace(
                result, results=(corrupted_member,) + tuple(rest)
            )
        stats = list(result.level_stats)
        stats[0] = dataclasses.replace(
            stats[0],
            reads=stats[0].reads + 1,
            read_misses=stats[0].read_misses + 1,
        )
        corrupted = dataclasses.replace(result, level_stats=stats)
        if hasattr(corrupted, "total_ns"):
            corrupted = dataclasses.replace(
                corrupted, total_ns=corrupted.total_ns + max(1.0, 1e-3 * corrupted.total_ns)
            )
        return corrupted


def cell_signature(kind: str, trace_index: int, projection) -> str:
    """A stable identity for one sweep cell, independent of scheduling.

    Hashing ``repr(projection)`` keeps the signature short while staying
    deterministic across processes and runs (the projection contains only
    ints, floats, bools, strings and enums with stable reprs).
    """
    digest = hashlib.sha256(repr(projection).encode()).hexdigest()[:16]
    return f"{kind}:{trace_index}:{digest}"
