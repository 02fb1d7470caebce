"""Shared-memory sketch snapshots: workers map weights, never copy them.

The pickle path ships every sketch payload (:meth:`DeepSketch.to_payload
<repro.core.sketch.DeepSketch.to_payload>`) into every process-pool
worker as a private copy — N workers hold N full replicas of every
weight matrix and sample column.  This module replaces the copy with a
mapping: the parent packs all of the payload's arrays into **one**
:class:`multiprocessing.shared_memory.SharedMemory` segment, and each
worker restores the sketch (:meth:`DeepSketch.replica
<repro.core.sketch.DeepSketch.replica>`) over read-only numpy views of
the mapped buffer.  The arrays workers compute with *are* the parent's
bytes — per-worker snapshot cost drops to page tables, and estimates
are bit-identical to the pickle path because the arithmetic runs over
the very same values.

Layout: one segment per sketch generation.  The payload's arrays (the
MSCN parameters and the sample columns, under the keys the sketch file
uses) are packed back-to-back at 64-byte-aligned offsets; the payload's
meta and the offset/dtype/shape table travel in a small picklable
:class:`SegmentDescriptor` — a few KB, vs the megabytes it replaces.

Lifecycle — the part that has to be exact (see ``docs/performance.md``):

* The **parent owns every segment**.  :meth:`SnapshotSegment.publish`
  creates it, copies the arrays in once, and registers it in a
  module-level live-segment registry; :meth:`SnapshotSegment.unlink`
  removes the ``/dev/shm`` entry and deregisters.  The executor ties
  this to ``snapshot_token``: one live segment per sketch name; the
  round after a hot swap uninstalls the retired generation from the
  workers, unlinks its segment and publishes the new version's —
  a worker still mapping an unlinked segment keeps a valid mapping
  until it closes it (POSIX semantics), so PR 8's zero-stale barrier
  is unaffected.
* CPython 3.11's ``resource_tracker`` registers *every* attach for
  cleanup, so a dying worker's tracker would unlink segments the
  parent still serves from.  Both sides therefore deregister
  immediately (:func:`_untrack`); ownership is explicit instead.
* Safety nets for ungraceful exits: an ``atexit`` hook unlinks
  anything left in the registry, and :func:`live_segment_names` lets
  tests and the lifecycle bench assert the registry (and ``/dev/shm``)
  drained to empty.
"""

from __future__ import annotations

import atexit
import os
import threading
import uuid
from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from ..core.sketch import DeepSketch
from ..errors import SketchError

#: Prefix for every segment this module creates — lets tests (and
#: operators) pick our entries out of ``/dev/shm`` unambiguously.
SEGMENT_PREFIX = "sketchshm"

#: Array offsets are rounded up to this alignment so every mapped view
#: starts on a cache-line boundary (also satisfies any dtype's
#: alignment requirement).
ALIGN = 64

_registry_lock = threading.Lock()
_live_segments: dict[str, "SnapshotSegment"] = {}


def _unlink_shm(shm: SharedMemory) -> None:
    """Remove the segment's name without touching the resource tracker.

    ``SharedMemory.unlink`` pairs the OS unlink with a tracker
    ``unregister`` — but :func:`_untrack` already deregistered at
    create/attach time, so that extra message would be unmatched and
    the tracker process prints a KeyError traceback.  Go straight to
    ``shm_unlink`` instead (fall back to the stdlib call on platforms
    without the posix module, where no tracker is involved anyway).
    """
    try:
        import _posixshmem

        _posixshmem.shm_unlink(shm._name)
    except ImportError:  # pragma: no cover - non-posix platforms
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _untrack(shm: SharedMemory) -> None:
    """Opt this handle out of resource_tracker-managed cleanup.

    Python 3.11 registers shared memory with the tracker on *every*
    ``SharedMemory()`` construction (create and attach alike), and the
    tracker unlinks registered names when its process exits.  With
    worker processes attaching and dying freely, that default would let
    a crashed worker delete segments the parent still serves from.  We
    deregister on both sides and make the parent the explicit owner.
    """
    try:  # pragma: no cover - defensive: private API shape varies
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def live_segment_names() -> set[str]:
    """Names of segments this process has published and not yet unlinked."""
    with _registry_lock:
        return set(_live_segments)


def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter teardown
    for segment in list(_live_segments.values()):
        segment.unlink()


atexit.register(_cleanup_at_exit)


def _aligned(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


@dataclass(frozen=True)
class SegmentDescriptor:
    """The picklable half of a published segment.

    Everything a worker needs to restore the sketch: the ``/dev/shm``
    name, the generation's ``token``, the array table (key ->
    ``{"offset", "dtype", "shape"}``) and the payload's ``meta``.  A
    few KB regardless of model or sample size — this is what crosses
    the process boundary instead of the arrays.
    """

    shm_name: str
    token: int
    arrays: dict
    meta: dict

    def nbytes(self) -> int:
        """Total payload bytes the mapped arrays cover."""
        total = 0
        for spec in self.arrays.values():
            total += int(
                np.dtype(spec["dtype"]).itemsize
                * int(np.prod(spec["shape"], dtype=np.int64))
            )
        return total


class SnapshotSegment:
    """A parent-owned shared-memory segment holding one sketch payload."""

    def __init__(self, shm: SharedMemory, descriptor: SegmentDescriptor):
        self._shm = shm
        self.descriptor = descriptor
        self._unlinked = False

    # ------------------------------------------------------------------
    # parent side
    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, sketch: DeepSketch) -> "SnapshotSegment":
        """Pack ``sketch``'s payload arrays into a fresh segment.

        This is the *only* copy on the shared-memory path; every worker
        attach after this is a mapping.
        """
        arrays, meta = sketch.to_payload()
        token = sketch.snapshot_token
        table: dict[str, dict] = {}
        offset = 0
        for key, array in arrays.items():
            offset = _aligned(offset)
            table[key] = {
                "offset": offset,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
            }
            offset += array.nbytes

        shm_name = f"{SEGMENT_PREFIX}_{os.getpid()}_{token}_{uuid.uuid4().hex[:8]}"
        shm = SharedMemory(name=shm_name, create=True, size=max(offset, 1))
        _untrack(shm)
        try:
            for key, array in arrays.items():
                spec = table[key]
                dest = np.ndarray(
                    array.shape,
                    dtype=array.dtype,
                    buffer=shm.buf,
                    offset=spec["offset"],
                )
                dest[...] = array
        except Exception:
            shm.close()
            try:
                _unlink_shm(shm)
            except OSError:  # pragma: no cover - already gone
                pass
            raise

        segment = cls(shm, SegmentDescriptor(shm_name, token, table, meta))
        with _registry_lock:
            _live_segments[shm_name] = segment
        return segment

    @property
    def name(self) -> str:
        return self.descriptor.shm_name

    @property
    def token(self) -> int:
        return self.descriptor.token

    def unlink(self) -> None:
        """Remove the ``/dev/shm`` entry and deregister (idempotent).

        Workers still mapping the segment keep a valid mapping until
        they drop it — unlink only prevents *new* attaches, which is
        exactly the hot-swap retirement semantic.
        """
        if self._unlinked:
            return
        self._unlinked = True
        with _registry_lock:
            _live_segments.pop(self.descriptor.shm_name, None)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - parent-side views alive
            pass
        try:
            _unlink_shm(self._shm)
        except OSError:  # pragma: no cover - already gone
            pass

    def __repr__(self) -> str:
        state = "unlinked" if self._unlinked else "live"
        return (
            f"SnapshotSegment({self.descriptor.shm_name!r}, "
            f"sketch={self.descriptor.meta['name']!r}, "
            f"token={self.token}, {state})"
        )


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class AttachedSnapshot:
    """A worker's zero-copy view of a published segment.

    Holds the mapped :class:`SharedMemory` handle alive for as long as
    the restored sketch is in service; :meth:`detach` drops the views
    and closes the mapping (the parent still owns the unlink).
    """

    def __init__(self, descriptor: SegmentDescriptor):
        try:
            shm = SharedMemory(name=descriptor.shm_name)
        except FileNotFoundError as exc:
            raise SketchError(
                f"shared-memory segment {descriptor.shm_name!r} for sketch "
                f"{descriptor.meta['name']!r} is gone (retired before attach?)"
            ) from exc
        _untrack(shm)
        self._shm = shm
        self.descriptor = descriptor
        self.token = descriptor.token
        self.views: dict[str, np.ndarray] = {}
        for key, spec in descriptor.arrays.items():
            view = np.ndarray(
                tuple(spec["shape"]),
                dtype=np.dtype(spec["dtype"]),
                buffer=shm.buf,
                offset=int(spec["offset"]),
            )
            view.flags.writeable = False
            self.views[key] = view
        self.sketch = DeepSketch.replica(self.views, descriptor.meta)

    def detach(self) -> None:
        """Drop the mapping (best-effort; views may pin it until GC)."""
        self.sketch = None
        self.views = {}
        try:
            self._shm.close()
        except BufferError:
            # numpy views still reference the buffer; the mapping is
            # released when they are collected.
            pass


__all__ = [
    "ALIGN",
    "AttachedSnapshot",
    "SEGMENT_PREFIX",
    "SegmentDescriptor",
    "SnapshotSegment",
    "live_segment_names",
]
