"""File round trips of an autograd module's weights.

Built on the payload format the sketches use
(:func:`repro.nn.serialize.state_dict_to_bytes`).
"""

from __future__ import annotations

from repro.nn.serialize import state_dict_from_bytes, state_dict_to_bytes
from .module import Module


def save_module(module: Module, path: str, meta: dict | None = None) -> int:
    """Write a module's weights to ``path``; returns the byte size."""
    blob = state_dict_to_bytes(module.state_dict(), meta=meta)
    with open(path, "wb") as f:
        f.write(blob)
    return len(blob)


def load_module(module: Module, path: str) -> dict:
    """Load weights saved by :func:`save_module` into ``module``.

    Returns the stored metadata dictionary.
    """
    with open(path, "rb") as f:
        blob = f.read()
    state, meta = state_dict_from_bytes(blob)
    module.load_state_dict(state)
    return meta
