"""Durable artifact storage: atomic writes, quarantine, advisory locks.

Everything the sweep engine trusts lives on disk -- MLCTRACE stores, the
checkpoint journal, JSON run manifests, the workload disk cache, BENCH
results -- and before this module only the journal tolerated torn
writes.  A crash between ``open(path, "w")`` and ``close()`` left a
half-written manifest that parsed as garbage; an ENOSPC mid-save left a
truncated trace store that a later sweep would happily memmap; two
``mlcache run`` processes sharing a cache directory raced each other's
writes.  This module is the shared hardening layer:

**Atomic writes** (:func:`atomic_write_bytes`, :func:`atomic_writer`).
Data goes to a same-directory temporary file (``<name>.tmp-<pid>-<seq>``),
is flushed and fsynced, and is published with ``os.replace`` followed by
a directory fsync.  Readers therefore see either the old artifact or the
new one, never a prefix.  A crash leaves at most an orphaned ``.tmp-``
file, which ``mlcache doctor`` removes.

**Disk-fault injection.**  When ``REPRO_FAULTS`` names a disk fault
(``torn_write`` / ``enospc`` / ``rename_fail`` / ``bitflip``, see
:mod:`repro.resilience.faults`), the commit path applies it here: the
first three raise after leaving realistic damage (truncated tmp file,
partial payload, unrenamed tmp), ``bitflip`` silently flips one payload
bit so only digest verification can catch it.  The storage chaos drill
(``python -m repro.resilience.chaos --storage``) is built on these.

**Quarantine** (:func:`quarantine`).  A corrupt artifact is *moved*
into a ``quarantine/`` sibling directory with a JSON sidecar recording
why -- never deleted (the evidence survives for diagnosis) and never
read again (the path it poisoned is free for a rebuild).

**Advisory locks** (:class:`AdvisoryLock`).  ``fcntl.flock`` on a
``.lock`` sibling file, plus a JSON holder record (pid, boot id, name)
written inside it.  The kernel releases the flock when the holder dies,
so takeover after a SIGKILL needs no cleanup; the holder record is what
error messages and ``mlcache doctor`` use to tell a *live* holder
("cooperate or fail fast with a clear error") from a *stale* one (pid
dead, or a different boot id -- the machine rebooted).  The journal
acquires its lock fail-fast; the workload disk cache waits up to
``REPRO_LOCK_TIMEOUT_S`` for a cooperating builder.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import logging
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Dict, Iterator, Optional

from repro import telemetry
from repro.resilience.faults import DISK_FAULT_KINDS, FaultPlan, InjectedFault

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "TMP_MARKER",
    "LOCK_SUFFIX",
    "QUARANTINE_DIR",
    "LockHeldError",
    "NO_FAULTS",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "fsync_directory",
    "quarantine",
    "boot_id",
    "AdvisoryLock",
    "probe_lock",
    "is_tmp_artifact",
]

log = logging.getLogger("repro.resilience.integrity")

#: Marker inside every atomic-write temporary name; ``mlcache doctor``
#: treats any file containing it as a crash orphan.
TMP_MARKER = ".tmp-"

#: Conventional suffix for advisory lock files.
LOCK_SUFFIX = ".lock"

#: Sibling directory corrupt artifacts are moved into.
QUARANTINE_DIR = "quarantine"

#: Per-process sequence for tmp names and disk-fault draws: repeated
#: writes to the same path get distinct tmp files and fresh draws.
_write_seq = itertools.count()

#: How often a blocking lock acquisition re-checks the flock.
_LOCK_POLL_S = 0.05

#: A plan with no faults: pass as ``faults=`` to exempt a write from
#: injection (``None`` means "read REPRO_FAULTS", not "no faults").
NO_FAULTS = FaultPlan(rates=())


class LockHeldError(RuntimeError):
    """Another process holds an advisory lock we need.

    Carries the holder record (when readable) so the error message names
    who to wait for instead of a bare "resource busy".
    """

    def __init__(self, path: Path, holder: Optional[Dict[str, Any]]) -> None:
        self.path = Path(path)
        self.holder = holder
        who = (
            f"pid {holder.get('pid')} (boot {str(holder.get('boot_id'))[:8]}, "
            f"{holder.get('name') or 'unnamed'})"
            if holder
            else "an unidentified process"
        )
        super().__init__(
            f"{self.path}: advisory lock held by {who}; another sweep is "
            f"using this artifact (wait for it, or remove the stale lock "
            f"with `mlcache doctor --fix` if the holder is dead)"
        )


# -- fault plumbing ----------------------------------------------------------


def _disk_plan(faults: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """The active fault plan, if it names any disk fault."""
    plan = FaultPlan.from_env() if faults is None else faults
    if plan is None:
        return None
    if not any(plan.rate(kind) > 0.0 for kind in DISK_FAULT_KINDS):
        return None
    return plan


def _flip_position(plan: FaultPlan, signature: str, seq: int, size: int) -> int:
    """Deterministic bit position for an injected flip."""
    digest = hashlib.sha256(
        f"{plan.seed}|bitflip_pos|{signature}|{seq}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") % max(1, size * 8)


def fsync_directory(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best effort: some filesystems refuse O_DIRECTORY fsync; the rename
    itself is still atomic there.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - exotic filesystem
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - exotic filesystem
        pass
    finally:
        os.close(fd)


def _commit(tmp: Path, path: Path, plan: Optional[FaultPlan], seq: int) -> None:
    """Publish a fully-written, fsynced tmp file, applying disk faults."""
    signature = f"disk:{path.name}"
    if plan is not None:
        if plan.decide("torn_write", signature, seq):
            size = tmp.stat().st_size
            os.truncate(tmp, size // 2)
            raise InjectedFault(
                f"torn_write injected for {path.name} (seq {seq})"
            )
        if plan.decide("enospc", signature, seq):
            size = tmp.stat().st_size
            os.truncate(tmp, max(0, size - max(1, size // 3)))
            raise OSError(
                errno.ENOSPC,
                f"enospc injected for {path.name} (seq {seq})",
            )
        if plan.decide("bitflip", signature, seq):
            size = tmp.stat().st_size
            if size:
                position = _flip_position(plan, signature, seq, size)
                with open(tmp, "r+b") as handle:
                    handle.seek(position // 8)
                    byte = handle.read(1)
                    handle.seek(position // 8)
                    handle.write(bytes([byte[0] ^ (1 << (position % 8))]))
                    handle.flush()
                    os.fsync(handle.fileno())
                # Silent: bit rot does not announce itself.
        if plan.decide("rename_fail", signature, seq):
            raise InjectedFault(
                f"rename_fail injected for {path.name} (seq {seq}); "
                f"tmp file left at {tmp.name}"
            )
    os.replace(tmp, path)
    fsync_directory(path.parent)


@contextmanager
def atomic_writer(
    path: Path, faults: Optional[FaultPlan] = None
) -> Iterator[IO[bytes]]:
    """A binary file handle whose contents appear at ``path`` atomically.

    The handle is a real file object (``numpy.tofile`` works); on normal
    exit it is flushed, fsynced and renamed into place, and the parent
    directory is fsynced.  If the block raises, the tmp file is removed
    and ``path`` is untouched.  Injected disk faults fire at commit time
    (the tmp damage they leave is part of the simulation -- doctor's
    orphan scan must find it).

    The whole write, the caller's block included, is one
    ``integrity.write`` span carrying the published size in ``bytes``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    seq = next(_write_seq)
    tmp = path.with_name(f"{path.name}{TMP_MARKER}{os.getpid()}-{seq}")
    with telemetry.span("integrity.write") as span:
        handle = open(tmp, "wb")
        try:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        except BaseException:
            handle.close()
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - racy cleanup
                pass
            raise
        span.annotate(bytes=os.fstat(handle.fileno()).st_size)
        handle.close()
        _commit(tmp, path, _disk_plan(faults), seq)


def atomic_write_bytes(
    path: Path, data: bytes, faults: Optional[FaultPlan] = None
) -> None:
    """Atomically publish ``data`` at ``path`` (tmp + fsync + rename)."""
    with atomic_writer(path, faults=faults) as handle:
        handle.write(data)


def atomic_write_text(
    path: Path, text: str, faults: Optional[FaultPlan] = None
) -> None:
    """Atomically publish ``text`` (UTF-8) at ``path``."""
    atomic_write_bytes(path, text.encode("utf-8"), faults=faults)


def is_tmp_artifact(path: Path) -> bool:
    """Whether ``path`` looks like an atomic-write temporary."""
    return TMP_MARKER in Path(path).name


# -- quarantine --------------------------------------------------------------


def quarantine(
    path: Path, reason: str, root: Optional[Path] = None
) -> Optional[Path]:
    """Move a corrupt artifact into ``quarantine/`` with a reason sidecar.

    Returns the quarantined path, or ``None`` when the artifact vanished
    before it could be moved (another process already handled it).  The
    move is a same-filesystem rename -- the corrupt bytes are preserved
    for diagnosis, and the original path is immediately reusable for a
    rebuild.
    """
    path = Path(path)
    directory = Path(root) if root is not None else path.parent / QUARANTINE_DIR
    try:
        directory.mkdir(parents=True, exist_ok=True)
        destination = directory / (
            f"{path.name}.{os.getpid()}-{next(_write_seq)}"
        )
        os.replace(path, destination)
    except FileNotFoundError:
        return None
    sidecar = {
        "artifact": str(path),
        "reason": reason,
        "pid": os.getpid(),
        "unix_time": time.time(),
    }
    try:
        atomic_write_text(
            destination.with_name(destination.name + ".reason.json"),
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
            # The sidecar is forensic breadcrumbs, not a trusted artifact:
            # exempt it from injection so a fault storm cannot turn
            # quarantining itself into a crash.
            faults=NO_FAULTS,
        )
    except OSError:  # pragma: no cover - sidecar is best-effort
        pass
    fsync_directory(directory)
    log.warning(
        "artifact-quarantined path=%s dest=%s reason=%s",
        path, destination, reason,
    )
    return destination


# -- advisory locks ----------------------------------------------------------


_BOOT_ID: Optional[str] = None


def boot_id() -> str:
    """A stable identifier for this boot of this machine.

    A lock-holder record from a *different* boot is stale by definition:
    whatever held it cannot have survived the reboot.  Falls back to
    ``unknown`` where the kernel does not expose one (staleness then
    falls back to pid-liveness alone, which is conservative).
    """
    global _BOOT_ID
    if _BOOT_ID is None:
        try:
            _BOOT_ID = (
                Path("/proc/sys/kernel/random/boot_id")
                .read_text()
                .strip()
            )
        except OSError:  # pragma: no cover - non-Linux
            _BOOT_ID = "unknown"
    return _BOOT_ID


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's process
        return True
    return True


def holder_record(path: Path) -> Optional[Dict[str, Any]]:
    """The holder JSON recorded inside a lock file, if any."""
    try:
        text = Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not text:
        return None
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def holder_is_stale(holder: Dict[str, Any]) -> bool:
    """Whether a recorded holder cannot still be running."""
    recorded_boot = holder.get("boot_id")
    if recorded_boot and recorded_boot != boot_id():
        return True
    pid = holder.get("pid")
    if isinstance(pid, int):
        return not _pid_alive(pid)
    return False


class AdvisoryLock:
    """An ``fcntl.flock`` advisory lock with a pid + boot-id holder record.

    The flock is the mutual exclusion (kernel-released on process death,
    so a SIGKILLed holder never wedges anyone); the holder record is the
    observability (error messages name the holder, ``mlcache doctor``
    classifies leftover lock files as stale or clean).  ``timeout_s=0``
    fails fast; a positive timeout polls until the deadline.
    """

    def __init__(self, path: Path, name: str = "") -> None:
        self.path = Path(path)
        self.name = name
        self._fd: Optional[int] = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self, timeout_s: float = 0.0) -> "AdvisoryLock":
        if self._fd is not None:
            return self
        if fcntl is None:  # pragma: no cover - non-POSIX
            raise OSError("advisory locks require fcntl (POSIX)")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + max(0.0, timeout_s)
        while True:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                if time.monotonic() >= deadline:
                    raise LockHeldError(
                        self.path, holder_record(self.path)
                    ) from None
                time.sleep(_LOCK_POLL_S)
                continue
            # The lock file may have been unlinked (doctor --fix) between
            # our open and flock; holding a lock on a nameless inode
            # excludes nobody, so re-open and try again.
            try:
                if os.fstat(fd).st_ino != os.stat(self.path).st_ino:
                    os.close(fd)
                    continue
            except OSError:
                os.close(fd)
                continue
            self._fd = fd
            record = json.dumps(
                {
                    "pid": os.getpid(),
                    "boot_id": boot_id(),
                    "name": self.name,
                    "unix_time": time.time(),
                },
                sort_keys=True,
            )
            os.ftruncate(fd, 0)
            os.pwrite(fd, record.encode("utf-8") + b"\n", 0)
            return self

    def release(self) -> None:
        """Release the flock and blank the holder record (idempotent).

        The lock *file* stays behind -- unlinking it while a waiter holds
        the old inode would let two processes "hold" the same path -- but
        a blank record marks a clean release, so doctor never reports it
        as stale.
        """
        if self._fd is None:
            return
        try:
            os.ftruncate(self._fd, 0)
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "AdvisoryLock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def probe_lock(path: Path) -> str:
    """Classify a lock file: ``held``, ``stale`` or ``free``.

    ``held``: a live process has the flock.  ``stale``: nobody holds the
    flock but a holder record remains (the holder died without releasing
    -- safe to remove).  ``free``: no flock and no record (clean residue
    of a released lock).  Used by ``mlcache doctor``; racy by nature, as
    any lock inspection from outside is.
    """
    path = Path(path)
    if fcntl is None:  # pragma: no cover - non-POSIX
        return "free"
    try:
        fd = os.open(path, os.O_RDWR)
    except OSError:
        return "free"
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return "held"
        fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)
    holder = holder_record(path)
    if holder is not None and holder_is_stale(holder):
        return "stale"
    return "free"
