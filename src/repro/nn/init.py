"""Weight initialization.

The reference MSCN implementation relies on PyTorch's default
``nn.Linear`` initialization (Kaiming-uniform with ``a=sqrt(5)``, which
degenerates to a uniform fan-in rule).
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError
from ..rng import SeedLike, make_rng


def kaiming_uniform(
    fan_in: int, fan_out: int, rng: SeedLike = None
) -> tuple[np.ndarray, np.ndarray]:
    """PyTorch ``nn.Linear`` default: W, b ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)).

    Returns ``(weight, bias)`` with ``weight.shape == (fan_in, fan_out)``.
    """
    if fan_in <= 0 or fan_out <= 0:
        raise ReproError(f"invalid layer dimensions ({fan_in}, {fan_out})")
    gen = make_rng(rng)
    bound = 1.0 / np.sqrt(fan_in)
    weight = gen.uniform(-bound, bound, size=(fan_in, fan_out))
    bias = gen.uniform(-bound, bound, size=(fan_out,))
    return weight, bias
