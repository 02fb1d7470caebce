"""Model weight serialization.

State dicts are stored as ``.npz`` payloads with a JSON metadata header —
no pickling, so payloads are safe to load and portable across processes.
The Deep Sketch wrapper reuses this format for its network component and
measures its footprint from these bytes (the paper's "few MiBs" claim).
"""

from __future__ import annotations

import io
import json

import numpy as np

from ..errors import SerializationError

_META_KEY = "__meta__"
_FORMAT_VERSION = 1


def state_dict_to_bytes(state: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """Serialize a state dict (plus optional JSON-able metadata) to bytes."""
    payload = dict(state)
    header = {"format_version": _FORMAT_VERSION, "meta": meta or {}}
    payload[_META_KEY] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **payload)
    return buffer.getvalue()


def state_dict_from_bytes(blob: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`state_dict_to_bytes`; returns ``(state, meta)``."""
    try:
        with np.load(io.BytesIO(blob)) as archive:
            names = set(archive.files)
            if _META_KEY not in names:
                raise SerializationError("payload is missing its metadata header")
            header = json.loads(bytes(archive[_META_KEY].tobytes()).decode("utf-8"))
            state = {name: archive[name] for name in names - {_META_KEY}}
    except SerializationError:
        raise
    except Exception as exc:  # zipfile/np.load raise various error types
        raise SerializationError(f"cannot decode model payload: {exc}") from exc
    version = header.get("format_version")
    if version != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported payload format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    return state, header.get("meta", {})
