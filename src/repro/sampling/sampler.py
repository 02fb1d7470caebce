"""Materialized base-table samples.

A Deep Sketch is "essentially a wrapper for a (serialized) neural network
and a set of materialized samples" (paper, Section 1).  The samples serve
two roles:

* at featurization time each base-table selection is executed against
  its table's sample to produce a *qualifying bitmap* (see bitmaps.py);
* the demo's query templates draw placeholder literals from the column
  sample ("we instantiate the query template with values from the column
  sample that comes with the sketch").

Samples must therefore be serializable alongside the model; this module
provides an npz-compatible payload format mirroring nn.serialize.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..errors import SchemaError, SketchError
from ..rng import SeedLike, make_rng, spawn
from ..db.column import Column
from ..db.database import Database
from ..db.schema import ColumnSchema, TableSchema
from ..db.table import Table
from ..db.types import DType, dtype_from_name


@dataclass
class MaterializedSamples:
    """Per-table uniform samples of up to ``sample_size`` rows each.

    ``row_ids`` maps each table to its sampled rows' ids in the source
    database, when the samples were just drawn from it
    (:func:`materialize_samples`); the build gathers its bitmaps there.
    It is not part of the sketch payload, so a loaded sketch has none.
    """

    samples: dict[str, Table]
    sample_size: int
    row_ids: dict[str, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def for_table(self, name: str) -> Table:
        try:
            return self.samples[name]
        except KeyError:
            known = ", ".join(sorted(self.samples))
            raise SketchError(
                f"no materialized sample for table {name!r}; sampled tables: {known}"
            ) from None

    @property
    def table_names(self) -> list[str]:
        return sorted(self.samples)

    def total_rows(self) -> int:
        return sum(t.n_rows for t in self.samples.values())


def materialize_samples(
    db: Database,
    tables: Iterable[str],
    sample_size: int = 1000,
    seed: SeedLike = None,
) -> MaterializedSamples:
    """Draw a uniform sample (without replacement) from each table.

    Tables smaller than ``sample_size`` are included in full; bitmaps are
    then zero-padded by the featurizer up to the nominal size.
    """
    if sample_size <= 0:
        raise SketchError(f"sample_size must be positive, got {sample_size}")
    rng = make_rng(seed)
    names = sorted(set(tables))
    streams = spawn(rng, max(len(names), 1))
    row_ids = {
        name: db.table(name).sample_rows(sample_size, rng=stream)
        for name, stream in zip(names, streams)
    }
    samples = {name: db.table(name).take(rows) for name, rows in row_ids.items()}
    return MaterializedSamples(samples=samples, sample_size=sample_size, row_ids=row_ids)


# ----------------------------------------------------------------------
# serialization (samples travel inside the sketch payload)
# ----------------------------------------------------------------------


def samples_to_payload(samples: MaterializedSamples) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten samples into named arrays plus a JSON-able schema manifest."""
    arrays: dict[str, np.ndarray] = {}
    manifest: dict = {"sample_size": samples.sample_size, "tables": {}}
    for table_name, table in samples.samples.items():
        table_meta = {
            "primary_key": table.schema.primary_key,
            "columns": [],
        }
        for decl in table.schema.columns:
            col = table.columns[decl.name]
            key = f"sample.{table_name}.{decl.name}"
            arrays[f"{key}.values"] = col.values
            arrays[f"{key}.valid"] = col.valid
            col_meta = {
                "name": decl.name,
                "dtype": decl.dtype.value,
                "nullable": decl.nullable,
            }
            if col.dictionary is not None:
                col_meta["dictionary"] = col.dictionary
            table_meta["columns"].append(col_meta)
        manifest["tables"][table_name] = table_meta
    return arrays, manifest


def samples_from_payload(
    arrays: dict[str, np.ndarray], manifest: dict
) -> MaterializedSamples:
    """Inverse of :func:`samples_to_payload`."""
    try:
        sample_size = int(manifest["sample_size"])
        tables_meta = manifest["tables"]
    except (KeyError, TypeError) as exc:
        raise SketchError(f"malformed samples manifest: {exc}") from exc

    samples: dict[str, Table] = {}
    for table_name, table_meta in tables_meta.items():
        decls = []
        columns: dict[str, Column] = {}
        for col_meta in table_meta["columns"]:
            name = col_meta["name"]
            dtype = dtype_from_name(col_meta["dtype"])
            decls.append(ColumnSchema(name, dtype, nullable=col_meta["nullable"]))
            key = f"sample.{table_name}.{name}"
            try:
                values = arrays[f"{key}.values"]
                valid = arrays[f"{key}.valid"].astype(bool, copy=False)
            except KeyError as exc:
                raise SketchError(f"samples payload missing array {exc}") from exc
            # copy=False throughout: payloads already at the canonical
            # dtype (the common case, and *always* the case for
            # shared-memory mapped payloads) pass through as views —
            # an unconditional astype would silently re-copy every
            # zero-copy segment attach.  Off-dtype payloads (e.g. an
            # npz round trip that downgraded to int32) still convert.
            if dtype is DType.STRING:
                columns[name] = Column(
                    name, dtype, values.astype(np.int64, copy=False), valid,
                    dictionary=list(col_meta.get("dictionary", [])),
                )
            elif dtype is DType.INT64:
                columns[name] = Column(
                    name, dtype, values.astype(np.int64, copy=False), valid
                )
            else:
                columns[name] = Column(
                    name, dtype, values.astype(np.float64, copy=False), valid
                )
        schema = TableSchema(table_name, decls, primary_key=table_meta.get("primary_key"))
        samples[table_name] = Table(schema, columns)
    return MaterializedSamples(samples=samples, sample_size=sample_size)


def payload_manifest_bytes(manifest: dict) -> np.ndarray:
    """Encode a manifest as a uint8 array (npz-archivable JSON)."""
    return np.frombuffer(json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8)


def manifest_from_bytes(blob: np.ndarray) -> dict:
    try:
        return json.loads(bytes(blob.tobytes()).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SchemaError(f"malformed manifest payload: {exc}") from exc
