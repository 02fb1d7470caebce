"""Shared-memory snapshots: parity and segment lifecycle.

The acceptance contract: the shm path answers bit-identically to the
pickle path (same arrays, mapped not copied), segment lifecycle follows
``snapshot_token`` — hot swaps retire old segments — and engine
``close()`` leaves zero ``/dev/shm`` entries behind.  Serving parity
and crash recovery of the ``process`` + ``shm_snapshots`` mode are part
of the executor contract in ``test_executors.py``.
"""

import os
import pickle

import numpy as np
import pytest

from repro.demo import SketchManager
from repro.errors import SketchError
from repro.serve import (
    ProcessExecutor,
    ServeConfig,
    SketchServer,
    live_segment_names,
    make_executor,
)
from repro.serve.shm import SEGMENT_PREFIX, AttachedSnapshot, SnapshotSegment
from repro.workload import spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator

PARITY_RTOL = 1e-12


def _dev_shm_entries() -> list[str]:
    """This process's sketch segments visible in ``/dev/shm``."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    mine = f"{SEGMENT_PREFIX}_{os.getpid()}_"
    return [p for p in os.listdir("/dev/shm") if p.startswith(mine)]


@pytest.fixture()
def manager(imdb_small, trained_sketch):
    sketch, _ = trained_sketch
    sketch.clear_cache()
    manager = SketchManager(imdb_small)
    manager.register_sketch(sketch)
    yield manager
    sketch.clear_cache()


@pytest.fixture(scope="module")
def workload(imdb_small):
    gen = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=421)
    return gen.draw_many(32)


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this file must drain the segment registry."""
    assert live_segment_names() == set()
    yield
    assert live_segment_names() == set()
    assert _dev_shm_entries() == []


# ----------------------------------------------------------------------
# segment-level lifecycle
# ----------------------------------------------------------------------
class TestSnapshotSegment:
    def test_attach_is_bit_identical_and_read_only(
        self, trained_sketch, workload
    ):
        sketch, _ = trained_sketch
        sketch.clear_cache()
        reference = sketch.estimate_many(list(workload[:10]), use_cache=False)
        segment = SnapshotSegment.publish(sketch)
        try:
            assert segment.name in live_segment_names()
            assert _dev_shm_entries() == [segment.name]
            attached = AttachedSnapshot(segment.descriptor)
            values = attached.sketch.estimate_many(
                list(workload[:10]), use_cache=False
            )
            # mapped views run the very same bytes: exact equality,
            # not just 1e-12 closeness
            assert np.array_equal(np.asarray(values), np.asarray(reference))
            for array in attached.views.values():
                assert not array.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    array[...] = 0.0
            attached.detach()
        finally:
            segment.unlink()
            segment.unlink()  # idempotent

    def test_descriptor_is_small_and_picklable(self, trained_sketch):
        sketch, _ = trained_sketch
        blob = pickle.dumps(sketch.to_payload(), protocol=pickle.HIGHEST_PROTOCOL)
        segment = SnapshotSegment.publish(sketch)
        try:
            wire = pickle.dumps(
                segment.descriptor, protocol=pickle.HIGHEST_PROTOCOL
            )
            # the descriptor replaces the multi-hundred-KB payload blob
            # with a table of offsets: it must be dramatically smaller
            assert len(wire) < len(blob) / 4
            back = pickle.loads(wire)
            assert back == segment.descriptor
            assert back.nbytes() > 0
        finally:
            segment.unlink()

    def test_attach_after_unlink_is_a_sketch_error(self, trained_sketch):
        sketch, _ = trained_sketch
        segment = SnapshotSegment.publish(sketch)
        descriptor = segment.descriptor
        segment.unlink()
        with pytest.raises(SketchError, match="gone"):
            AttachedSnapshot(descriptor)

    def test_existing_attachments_survive_unlink(
        self, trained_sketch, workload
    ):
        """POSIX retirement semantics: unlink removes the *name*; a
        worker already mapping the segment keeps computing over valid
        memory — the zero-stale hot swap depends on this."""
        sketch, _ = trained_sketch
        sketch.clear_cache()
        reference = sketch.estimate_many(list(workload[:4]), use_cache=False)
        segment = SnapshotSegment.publish(sketch)
        attached = AttachedSnapshot(segment.descriptor)
        segment.unlink()
        assert _dev_shm_entries() == []
        values = attached.sketch.estimate_many(
            list(workload[:4]), use_cache=False
        )
        assert np.array_equal(np.asarray(values), np.asarray(reference))
        attached.detach()


# ----------------------------------------------------------------------
# config surface
# ----------------------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize("executor", ["inline"])
    def test_shm_snapshots_requires_the_process_executor(self, executor):
        with pytest.raises(SketchError, match="process"):
            ServeConfig(executor=executor, shm_snapshots=True)

    def test_factory_passes_the_flag_to_the_process_executor(self):
        executor = make_executor(
            ServeConfig(
                executor="process", shm_snapshots=True, executor_workers=3,
            )
        )
        assert isinstance(executor, ProcessExecutor)
        assert executor.name == "process"
        assert executor.use_shm and executor.workers == 3
        executor.close()


# ----------------------------------------------------------------------
# end-to-end through the engine
# ----------------------------------------------------------------------
class TestShmServing:
    def test_segments_live_while_serving_and_unlink_on_close(
        self, manager, workload
    ):
        config = ServeConfig(
            executor="process", executor_workers=2, shm_snapshots=True,
            use_cache=False, max_batch_size=8,
        )
        with SketchServer(manager, config) as server:
            responses = server.serve(list(workload[:8]))
            assert all(r.ok for r in responses)
            assert len(live_segment_names()) == 1
            assert len(_dev_shm_entries()) == 1
        # engine close() unlinked everything (the autouse fixture
        # re-asserts /dev/shm is empty after the test)
        assert live_segment_names() == set()

    def test_hot_swap_retires_the_old_segment(
        self, manager, workload, trained_sketch
    ):
        """A retrain mid-service publishes the new generation's segment
        and unlinks the old one — one live segment however many slots
        had the sketch installed; answers track the new weights at the
        very next round and never leak the retired segment."""
        sketch, _ = trained_sketch
        config = ServeConfig(
            executor="process", executor_workers=2, shm_snapshots=True,
            use_cache=False, max_batch_size=8,
        )
        with SketchServer(manager, config) as server:
            executor = server.engine.executor
            before = [r.estimate for r in server.serve(workload)]
            # 4 chunks over 2 slots: both workers map the segment
            assert [s["sketches"] for s in executor.slots()] == [
                {"test-sketch": sketch.snapshot_token}
            ] * 2
            first_gen = live_segment_names()
            assert len(first_gen) == 1
            for p in sketch.model.params.values():
                p += 0.05
            sketch.clear_cache()
            after = [r.estimate for r in server.serve(workload)]
            assert [s["sketches"] for s in executor.slots()] == [
                {"test-sketch": sketch.snapshot_token}
            ] * 2
            second_gen = live_segment_names()
            assert len(second_gen) == 1
            assert second_gen != first_gen  # old generation unlinked
            assert set(_dev_shm_entries()) == second_gen
            sketch.clear_cache()
            single = [sketch.estimate(q, use_cache=False) for q in workload]
        assert before != after
        np.testing.assert_allclose(after, single, rtol=PARITY_RTOL, atol=0.0)
        for p in sketch.model.params.values():
            p -= 0.05
        sketch.clear_cache()

    def test_unchanged_token_reuses_the_segment(self, manager, workload):
        config = ServeConfig(
            executor="process", executor_workers=2, shm_snapshots=True,
            use_cache=False, max_batch_size=8,
        )
        with SketchServer(manager, config) as server:
            server.serve(list(workload[:8]))
            first = live_segment_names()
            server.serve(list(workload[8:16]))
            assert live_segment_names() == first  # no republish
