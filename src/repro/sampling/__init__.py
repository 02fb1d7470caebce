"""Materialized samples and qualifying bitmaps (paper Section 2)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".bitmaps": (
            "PredicateMaskMemo",
            "alias_bitmap",
            "batch_bitmaps",
            "is_zero_tuple",
            "qualifying_fractions",
            "query_bitmaps",
        ),
        ".sampler": (
            "MaterializedSamples",
            "manifest_from_bytes",
            "materialize_samples",
            "payload_manifest_bytes",
            "samples_from_payload",
            "samples_to_payload",
        ),
    },
)

__all__ = [
    "MaterializedSamples",
    "materialize_samples",
    "samples_to_payload",
    "samples_from_payload",
    "payload_manifest_bytes",
    "manifest_from_bytes",
    "query_bitmaps",
    "batch_bitmaps",
    "PredicateMaskMemo",
    "alias_bitmap",
    "qualifying_fractions",
    "is_zero_tuple",
]
