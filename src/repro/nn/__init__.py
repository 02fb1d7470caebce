"""Minimal deep-learning framework (the repo's PyTorch substitute).

Public surface:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode autodiff on numpy arrays
* layers: :class:`Linear`, :class:`ReLU`, :class:`Sigmoid`, :class:`Tanh`,
  :class:`Dropout`, :class:`Sequential`, :func:`mlp`
* optimizers: :class:`SGD`, :class:`Adam`
* losses: :class:`MSELoss`, :class:`QErrorLoss`
* compiled inference: :class:`~repro.nn.inference.InferenceSession`
  (autograd-free serving forward; see ``docs/performance.md``)
* functional ops: :func:`masked_mean`, :func:`concat`, :func:`maximum`
* serialization: :func:`save_module`, :func:`load_module`
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".functional": ("masked_mean",),
        ".inference": ("InferenceSession",),
        ".init": (
            "INITIALIZERS",
            "kaiming_uniform",
            "xavier_normal",
            "xavier_uniform",
        ),
        ".layers": (
            "Dropout",
            "Linear",
            "ReLU",
            "Sequential",
            "Sigmoid",
            "Tanh",
            "mlp",
        ),
        ".loss": ("Loss", "MSELoss", "QErrorLoss"),
        ".module": ("Module",),
        ".optim": ("SGD", "Adam", "Optimizer"),
        ".serialize": (
            "load_module",
            "save_module",
            "state_dict_from_bytes",
            "state_dict_to_bytes",
        ),
        ".tensor": ("Tensor", "concat", "maximum", "stack_rows"),
    },
)

__all__ = [
    "Tensor",
    "concat",
    "maximum",
    "stack_rows",
    "masked_mean",
    "Module",
    "InferenceSession",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Dropout",
    "Sequential",
    "mlp",
    "Loss",
    "MSELoss",
    "QErrorLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "kaiming_uniform",
    "xavier_uniform",
    "xavier_normal",
    "INITIALIZERS",
    "save_module",
    "load_module",
    "state_dict_to_bytes",
    "state_dict_from_bytes",
]
