"""The autograd stack: the reference the hand-derived numerics are checked against.

A reverse-mode ``Tensor`` graph with layers, losses, optimizers and the
MSCN on top.  Nothing under ``src/`` imports it; ``repro.nn``'s
:class:`~repro.nn.training.TrainingSession` and
:class:`~repro.nn.inference.InferenceSession` are tested against it,
and it is itself tested against finite differences.
"""

from .functional import masked_mean
from .layers import Dropout, Linear, ReLU, Sequential, Sigmoid, Tanh, mlp
from .loss import Loss, MSELoss, QErrorLoss
from .module import Module
from .mscn import OracleMSCN, OracleTrainingSession, oracle_forward, packed
from .optim import SGD, Adam, Optimizer
from .serialize import load_module, save_module
from .tensor import Tensor, concat, maximum, stack_rows

__all__ = [
    "Tensor",
    "concat",
    "maximum",
    "stack_rows",
    "masked_mean",
    "Module",
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
    "save_module",
    "load_module",
    "OracleMSCN",
    "OracleTrainingSession",
    "oracle_forward",
    "packed",
]
