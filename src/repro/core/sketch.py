"""The Deep Sketch itself.

"A Deep Sketch is essentially a wrapper for a (serialized) neural
network and a set of materialized samples." (paper, Sections 1 and 3)

A sketch bundles the trained MSCN, the featurizer (vocabularies and
normalization constants), and the materialized samples.  Its interface
is a single call: consume a SQL query (or a structured
:class:`~repro.db.query.Query`), return a cardinality estimate.
Sketches serialize to one compact binary payload — the paper's
"small footprint size (a few MiBs)" — and estimation is pure in-memory
arithmetic ("fast to query (within milliseconds)"): the forward pass
runs through a compiled
:class:`~repro.nn.inference.InferenceSession` against pooled buffers
(see ``docs/performance.md``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..cache import LRUCache
from ..errors import SketchError
from ..metrics import MIN_CARDINALITY
from ..nn.inference import InferenceSession
from ..nn.serialize import state_dict_from_bytes, state_dict_to_bytes
from ..sampling.bitmaps import PredicateMaskMemo, batch_bitmaps, query_bitmaps
from ..sampling.sampler import (
    MaterializedSamples,
    samples_from_payload,
    samples_to_payload,
)
from ..db.query import Query
from ..db.sql import as_query
from .featurization import Featurizer
from .batches import CollateScratch, collate
from .mscn import MSCN

_SAMPLE_PREFIX = "sample."

#: Default capacity of the per-sketch estimate cache.  Entries are a
#: (Query, float) pair, so even the maximum footprint is tiny next to
#: the materialized samples.
DEFAULT_ESTIMATE_CACHE_SIZE = 8192

#: Globally unique snapshot tokens.  ``itertools.count`` is safe to
#: advance from multiple threads under CPython's GIL, and tokens are
#: never reused — unlike ``id()``, which the process-pool executor must
#: not key worker state on (a freed sketch's id can be recycled).
_SNAPSHOT_TOKENS = itertools.count(1)


class _SampleCatalog:
    """Adapter letting the featurizer resolve string literals against the
    sketch's own samples (the full database is not available at
    estimation time — that is the whole point of a sketch)."""

    def __init__(self, samples: MaterializedSamples):
        self._samples = samples

    def table(self, name: str):
        return self._samples.for_table(name)


@dataclass
class DeepSketch:
    """A trained, queryable Deep Sketch.

    ``model`` may be ``None`` for an **estimation-only** sketch restored
    from a :class:`SketchSnapshot` (the process-pool executor's worker
    replica): such a sketch estimates through its shipped
    :class:`~repro.nn.inference.InferenceSession` exactly like a full
    one, but cannot be retrained, recompiled, or re-serialized.
    """

    name: str
    featurizer: Featurizer
    model: MSCN | None
    samples: MaterializedSamples
    metadata: dict = field(default_factory=dict)
    #: Dtype of the compiled inference session ("float64" or "float32").
    #: float32 roughly halves forward cost at ~1e-7 relative error in the
    #: normalized prediction, which denormalization amplifies to ~1e-5
    #: relative in the cardinality; see docs/performance.md before
    #: opting in.
    inference_dtype: str = "float64"

    def __post_init__(self):
        if self.inference_dtype not in ("float64", "float32"):
            raise SketchError(
                f"inference_dtype must be 'float64' or 'float32', "
                f"got {self.inference_dtype!r}"
            )
        self._catalog = _SampleCatalog(self.samples)
        self._cache = LRUCache(maxsize=DEFAULT_ESTIMATE_CACHE_SIZE)
        self._mask_memo = PredicateMaskMemo(self.samples)
        self._session: InferenceSession | None = None
        self._scratch = CollateScratch()
        self._snapshot_token = next(_SNAPSHOT_TOKENS)
        # Collating straight at the session dtype makes the session's
        # input conversion a zero-copy passthrough either way.
        self._batch_dtype = np.dtype(self.inference_dtype)

    # ------------------------------------------------------------------
    # estimation (Figure 1b)
    # ------------------------------------------------------------------
    @property
    def cache(self) -> LRUCache:
        """The per-sketch estimate result cache (keyed by canonical query)."""
        return self._cache

    @property
    def inference_session(self) -> InferenceSession:
        """The compiled forward pass serving this sketch's estimates.

        Compiled lazily from the current model weights and invalidated
        by :meth:`clear_cache` (retrain/rebuild), so it always reflects
        the weights the caches were filled under.
        """
        if self._session is None:
            if self.model is None:
                raise SketchError(
                    f"sketch {self.name!r} is an estimation-only snapshot "
                    "with no model to compile a session from"
                )
            self._session = InferenceSession(self.model, dtype=self.inference_dtype)
        return self._session

    @property
    def snapshot_token(self) -> int:
        """Identity of the current weights/caches generation.

        Unique across all sketches in the process and bumped by
        :meth:`clear_cache`, so anything holding derived state (the
        process-pool executor's shipped worker replicas) can detect
        both "different sketch under the same name" and "same sketch,
        retrained" with one integer comparison.
        """
        return self._snapshot_token

    def _predict_batch(self, batch) -> np.ndarray:
        """Normalized predictions for a collated batch (compiled path)."""
        return self.inference_session.run(batch)

    def clear_cache(self) -> None:
        """Invalidate cached estimates (and memoized predicate masks).

        Called by the demo manager when a sketch is dropped or replaced,
        and by anything that mutates the model or samples in place.
        Also drops the compiled inference session, which snapshots the
        model weights — the next estimate recompiles from the weights as
        they are then — and advances :attr:`snapshot_token` so shipped
        worker replicas are recognized as stale.  An estimation-only
        sketch keeps its session (there is no model to recompile from);
        it only forgets cached results.
        """
        self._cache.clear()
        self._mask_memo = PredicateMaskMemo(self.samples)
        if self.model is not None:
            self._session = None
        self._snapshot_token = next(_SNAPSHOT_TOKENS)

    def estimate(self, query: Query | str, use_cache: bool = True) -> float:
        """Cardinality estimate for ``query`` (SQL text or structured).

        Results are memoized per canonical query (``use_cache=False``
        forces a fresh forward pass).  Raises
        :class:`~repro.errors.SketchError` when the query uses a table
        outside the subset this sketch was defined on.
        """
        query = as_query(query)
        self._check_tables(query)
        if use_cache:
            hit = self._cache.get(query)
            if hit is not None:
                return hit
        bitmaps = query_bitmaps(self.samples, query)
        features = self.featurizer.featurize_query(query, bitmaps, db=self._catalog)
        batch = collate([features], dtype=self._batch_dtype, scratch=self._scratch)
        prediction = float(self._predict_batch(batch)[0])
        value = max(self.featurizer.denormalize_label(prediction), MIN_CARDINALITY)
        if use_cache:
            self._cache.put(query, value)
        return value

    def _check_tables(self, query: Query) -> None:
        outside = {t.table for t in query.tables} - set(self.featurizer.tables)
        if outside:
            raise SketchError(
                f"query references tables {sorted(outside)} outside this "
                f"sketch's subset {self.tables}"
            )

    def estimate_many(
        self,
        queries: list[Query | str],
        use_cache: bool = True,
        feature_cache=None,
    ) -> np.ndarray:
        """Batched estimation: one network pass for all uncached queries.

        The fast path shares work across the batch — each distinct
        predicate mask is evaluated against the samples once
        (:func:`~repro.sampling.bitmaps.batch_bitmaps`), featurization
        reuses rows, duplicate queries collapse onto one model slot, and
        cached queries skip the model entirely.  The forward pass runs
        through the compiled :attr:`inference_session` (pooled
        buffers), as does :meth:`estimate`, so the two paths stay
        numerically identical to each other.  ``feature_cache`` (a
        :class:`repro.serve.feature_cache.FeatureCache`) lets the
        structure-row reuse persist across calls for templated
        workloads.  Its entries are per featurizer: sketches may share
        one cache, but each only hits the rows its own featurizer built.
        """
        if not queries:
            return np.empty(0)
        parsed = [as_query(q) for q in queries]
        for query in parsed:
            self._check_tables(query)

        results = np.empty(len(parsed), dtype=np.float64)
        # Collapse to distinct uncached queries: `slots` maps each input
        # position to its position in the model batch (-1 = cache hit).
        slots = np.full(len(parsed), -1, dtype=np.int64)
        distinct: list[Query] = []
        slot_of: dict[Query, int] = {}
        for i, query in enumerate(parsed):
            if use_cache:
                hit = self._cache.get(query)
                if hit is not None:
                    results[i] = hit
                    continue
            slot = slot_of.get(query)
            if slot is None:
                slot = len(distinct)
                distinct.append(query)
                slot_of[query] = slot
            slots[i] = slot

        if distinct:
            bitmaps = batch_bitmaps(self.samples, distinct, memo=self._mask_memo)
            features = self.featurizer.featurize_batch(
                distinct, bitmaps, db=self._catalog, template_cache=feature_cache
            )
            predictions = self._predict_batch(
                collate(features, dtype=self._batch_dtype, scratch=self._scratch)
            )
            values = np.maximum(
                self.featurizer.denormalize_label(predictions), MIN_CARDINALITY
            )
            needs_model = np.flatnonzero(slots >= 0)
            results[needs_model] = values[slots[needs_model]]
            if use_cache:
                for i in needs_model:
                    self._cache.put(parsed[i], float(results[i]))
        return results

    @property
    def tables(self) -> list[str]:
        """The table subset this sketch was defined on."""
        return list(self.featurizer.tables)

    # ------------------------------------------------------------------
    # estimation-only snapshots (process-pool serving workers)
    # ------------------------------------------------------------------
    def snapshot(self) -> "SketchSnapshot":
        """A picklable, estimation-only replica of this sketch.

        The payload is the compiled :attr:`inference_session` (weights
        only — no model), the featurizer manifest, and the
        materialized-sample arrays: everything :meth:`estimate_many`
        needs and nothing it doesn't.  :meth:`SketchSnapshot.restore`
        rehydrates it in another process without retraining, rebuilding
        samples, or recompiling weights.  ``token`` captures
        :attr:`snapshot_token` at snapshot time so holders can tell when
        the replica has gone stale.
        """
        sample_arrays, sample_manifest = samples_to_payload(self.samples)
        return SketchSnapshot(
            name=self.name,
            token=self.snapshot_token,
            inference_dtype=self.inference_dtype,
            featurizer_manifest=self.featurizer.to_manifest(),
            sample_arrays=sample_arrays,
            sample_manifest=sample_manifest,
            session=self.inference_session,
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------
    # serialization and footprint
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize the whole sketch (model + samples + featurizer)."""
        if self.model is None:
            raise SketchError(
                f"sketch {self.name!r} is an estimation-only snapshot; "
                "only the original (model-bearing) sketch serializes"
            )
        payload = {
            f"model.{k}": v for k, v in self.model.state_dict().items()
        }
        sample_arrays, sample_manifest = samples_to_payload(self.samples)
        payload.update(sample_arrays)
        meta = {
            "name": self.name,
            "architecture": self.model.architecture(),
            "featurizer": self.featurizer.to_manifest(),
            "samples": sample_manifest,
            "metadata": self.metadata,
            "inference_dtype": self.inference_dtype,
        }
        return state_dict_to_bytes(payload, meta=meta)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DeepSketch":
        """Inverse of :meth:`to_bytes`."""
        arrays, meta = state_dict_from_bytes(blob)
        for key in ("name", "architecture", "featurizer", "samples"):
            if key not in meta:
                raise SketchError(f"sketch payload is missing {key!r} metadata")
        model = MSCN.from_architecture(meta["architecture"])
        model.load_state_dict(
            {
                k[len("model.") :]: v
                for k, v in arrays.items()
                if k.startswith("model.")
            }
        )
        samples = samples_from_payload(
            {k: v for k, v in arrays.items() if k.startswith(_SAMPLE_PREFIX)},
            meta["samples"],
        )
        return cls(
            name=str(meta["name"]),
            featurizer=Featurizer.from_manifest(meta["featurizer"]),
            model=model,
            samples=samples,
            metadata=dict(meta.get("metadata", {})),
            # Pre-PR-3 payloads have no inference_dtype; default float64.
            inference_dtype=str(meta.get("inference_dtype", "float64")),
        )

    def save(self, path: str) -> int:
        """Write the sketch to ``path``; returns the footprint in bytes."""
        blob = self.to_bytes()
        with open(path, "wb") as f:
            f.write(blob)
        return len(blob)

    @classmethod
    def load(cls, path: str) -> "DeepSketch":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())

    def footprint_bytes(self) -> int:
        """Serialized size — the paper's "few MiBs" footprint claim."""
        return len(self.to_bytes())

    def __repr__(self) -> str:
        params = "-" if self.model is None else self.model.num_parameters()
        return (
            f"DeepSketch({self.name!r}, tables={self.tables}, "
            f"params={params}, "
            f"sample_size={self.samples.sample_size})"
        )


@dataclass
class SketchSnapshot:
    """Picklable estimation-only view of a :class:`DeepSketch`.

    Produced by :meth:`DeepSketch.snapshot` and consumed by the serving
    layer's process-pool executor: the parent pickles one of these per
    sketch into each worker, and :meth:`restore` turns it back into an
    estimation-only ``DeepSketch`` (``model=None``, session pre-set)
    whose ``estimate``/``estimate_many`` run the exact same compiled
    arithmetic as the parent's — the worker never retrains and never
    re-materializes samples.
    """

    name: str
    token: int
    inference_dtype: str
    featurizer_manifest: dict
    sample_arrays: dict
    sample_manifest: dict
    session: InferenceSession
    metadata: dict = field(default_factory=dict)

    def restore(self) -> DeepSketch:
        """Rehydrate an estimation-only sketch from this snapshot."""
        sketch = DeepSketch(
            name=self.name,
            featurizer=Featurizer.from_manifest(self.featurizer_manifest),
            model=None,
            samples=samples_from_payload(self.sample_arrays, self.sample_manifest),
            metadata=dict(self.metadata),
            inference_dtype=self.inference_dtype,
        )
        sketch._session = self.session
        return sketch
