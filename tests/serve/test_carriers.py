"""One sketch payload, three carriers.

A sketch travels as the ``(arrays, meta)`` pair of
``DeepSketch.to_payload``: written to a file by ``to_bytes``, pickled
into a process-executor install, or laid into a shared-memory segment.
Each carrier must hand a worker the very arrays the file holds, and
each restored sketch must answer bit-identically to the original.
"""

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.core.sketch import DeepSketch
from repro.errors import SketchError
from repro.nn.inference import LAYER_KEYS, MLP_NAMES
from repro.nn.serialize import state_dict_from_bytes, state_dict_to_bytes
from repro.serve import ProcessExecutor, live_segment_names
from repro.serve import executor as executor_module
from repro.workload import spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator


@pytest.fixture(scope="module")
def queries(imdb_small):
    return TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=77).draw_many(24)


def installed(payload) -> DeepSketch:
    """Run the worker's install task in this process; return its sketch."""
    executor_module._worker_install("carried", payload)
    return executor_module._WORKER_SKETCHES["carried"]


def assert_same_arrays(carried: dict, written: dict) -> None:
    assert sorted(carried) == sorted(written)
    for key, array in written.items():
        assert carried[key].dtype == array.dtype, key
        assert np.array_equal(carried[key], array), key


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_every_carrier_restores_the_sketch_bit_for_bit(
    trained_sketch, queries, dtype
):
    sketch = dataclasses.replace(trained_sketch[0], inference_dtype=dtype)
    blob = sketch.to_bytes()
    written, written_meta = state_dict_from_bytes(blob)
    reference = sketch.estimate_many(list(queries), use_cache=False)

    pickling = ProcessExecutor(workers=1)
    mapping = ProcessExecutor(workers=1, use_shm=True)
    token = sketch.snapshot_token
    try:
        from_disk = DeepSketch.from_bytes(blob)

        pickled = pickling._payload("carried", sketch, token)
        arrays, meta = pickle.loads(pickled)
        assert_same_arrays(arrays, written)
        assert json.loads(json.dumps(meta)) == written_meta
        from_pickle = installed(pickled)

        descriptor = mapping._payload("carried", sketch, token)
        assert json.loads(json.dumps(descriptor.meta)) == written_meta
        from_shm = installed(descriptor)
        # The uninstall below unmaps the views: a helper gets copies, or
        # its failure report would print unmapped memory.
        attachment = executor_module._WORKER_ATTACHMENTS["carried"]
        assert_same_arrays(
            {k: np.array(v) for k, v in attachment.views.items()}, written
        )
        if dtype == "float64":
            # the worker's session computes over the mapping itself
            session = from_shm.inference_session
            for name in MLP_NAMES:
                mlp = getattr(session, f"_{name}_mlp")
                for array, key in zip((mlp.w1, mlp.b1, mlp.w2, mlp.b2), LAYER_KEYS):
                    assert array is attachment.views[f"model.{name}_mlp.{key}"]

        for restored in (from_disk, from_pickle, from_shm):
            assert restored.inference_dtype == dtype
            values = restored.estimate_many(list(queries), use_cache=False)
            assert np.array_equal(values, reference)
        assert from_pickle.model is None and from_shm.model is None
    finally:
        executor_module._worker_uninstall("carried")
        pickling.close()
        mapping.close()
    assert live_segment_names() == set()


def test_to_bytes_writes_exactly_the_payload(trained_sketch):
    sketch = trained_sketch[0]
    arrays, meta = sketch.to_payload()
    assert sketch.to_bytes() == state_dict_to_bytes(arrays, meta)
    model_keys = {k for k in arrays if k.startswith("model.")}
    assert model_keys == {"model." + k for k in sketch.model.state_dict()}
    assert all(k.startswith("sample.") for k in set(arrays) - model_keys)
    assert set(meta) == {
        "name", "architecture", "featurizer", "samples", "metadata", "inference_dtype",
    }
    assert meta["architecture"] == sketch.model.architecture()


def test_a_pickled_payload_is_a_copy_of_the_weights(trained_sketch, queries):
    """Training on after the install must not reach the worker's replica."""
    sketch = DeepSketch.from_bytes(trained_sketch[0].to_bytes())
    reference = sketch.estimate_many(list(queries), use_cache=False)
    pickled = pickle.dumps(sketch.to_payload())
    for param in sketch.model.params.values():
        param += 1.0
    replica = DeepSketch.replica(*pickle.loads(pickled))
    assert np.array_equal(replica.estimate_many(list(queries), use_cache=False), reference)


@pytest.mark.parametrize("key", ["name", "architecture", "featurizer", "samples"])
def test_a_payload_missing_meta_is_a_sketch_error(trained_sketch, key):
    arrays, meta = trained_sketch[0].to_payload()
    del meta[key]
    with pytest.raises(SketchError, match=key):
        DeepSketch.replica(arrays, meta)
    with pytest.raises(SketchError, match=key):
        DeepSketch.from_bytes(state_dict_to_bytes(arrays, meta))
