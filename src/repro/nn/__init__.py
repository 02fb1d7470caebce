"""The MSCN's numerics on numpy arrays (the repo's PyTorch substitute).

Public surface:

* training: :class:`~repro.nn.training.TrainingSession` — forward,
  hand-derived backward and Adam in place on an MSCN's arrays
* compiled inference: :class:`~repro.nn.inference.InferenceSession`
  (the serving forward; see ``docs/performance.md``)
* initialization: :func:`kaiming_uniform`
* serialization: :func:`state_dict_to_bytes`, :func:`state_dict_from_bytes`

The autograd graph these sessions replaced lives on as their test
oracle under ``tests/nn/oracle/``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".inference": ("InferenceSession",),
        ".init": ("kaiming_uniform",),
        ".serialize": ("state_dict_from_bytes", "state_dict_to_bytes"),
        ".training": ("TrainingSession",),
    },
)

__all__ = [
    "InferenceSession",
    "TrainingSession",
    "kaiming_uniform",
    "state_dict_to_bytes",
    "state_dict_from_bytes",
]
