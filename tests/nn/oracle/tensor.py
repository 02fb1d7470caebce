"""A small reverse-mode automatic-differentiation engine on numpy arrays.

The reference the hand-derived ``repro.nn.training.TrainingSession`` is
checked against, as pytorch-sso checks its manual Jacobians against a
framework: every op the MSCN forward, its losses and Adam need, with
the gradient recorded on a graph rather than written out.

* elementwise arithmetic with numpy broadcasting (``+ - * /``, ``**``),
* ``matmul``, ``relu``, ``sigmoid``, ``tanh``, ``exp``, ``log``, ``abs``,
* ``maximum`` (for q-error style losses), ``clip``,
* reductions ``sum`` / ``mean`` with axis and keepdims,
* ``concat``, ``reshape``, and dropout-style masking via multiplication.

Gradients flow through a recorded computation graph; :meth:`Tensor.backward`
runs a topological sweep.  Every op is checked against central finite
differences in ``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ReproError
from repro.nn.inference import stable_sigmoid

ArrayLike = "np.ndarray | float | int | Tensor"


def _as_array(value) -> np.ndarray:
    """Coerce a python scalar / sequence / ndarray to a float64 ndarray."""
    if isinstance(value, Tensor):
        raise ReproError("expected raw data, got a Tensor; use tensor ops instead")
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions.

    numpy broadcasting may have expanded an operand of shape ``shape`` up
    to ``grad.shape``; the chain rule requires summing the gradient over
    every expanded axis.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    squeeze_axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if squeeze_axes:
        grad = grad.sum(axis=squeeze_axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray plus an optional gradient and a backward recipe.

    Construction with ``requires_grad=True`` marks the tensor as a leaf
    whose ``.grad`` accumulates during :meth:`backward`.  Tensors returned
    by operations carry closures that propagate gradients to their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
    ):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents
        )
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's ``.grad`` slot."""
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out = Tensor(self.data + other.data, _parents=(self, other))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, _parents=(self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g)

        out._backward = backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out = Tensor(self.data * other.data, _parents=(self, other))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out = Tensor(self.data / other.data, _parents=(self, other))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / other.data)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data**2))

        out._backward = backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise ReproError("tensor exponents are not supported; use exp/log")
        exponent = float(exponent)
        out = Tensor(self.data**exponent, _parents=(self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1.0))

        out._backward = backward
        return out

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        if self.ndim != 2 or other.ndim != 2:
            return self._batched_matmul(other)
        out = Tensor(self.data @ other.data, _parents=(self, other))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        out._backward = backward
        return out

    def _batched_matmul(self, other: "Tensor") -> "Tensor":
        """Matmul where either operand has a leading batch dimension.

        Supports the MSCN set-module pattern ``(B, S, D) @ (D, H)`` as
        well as general numpy ``matmul`` broadcasting over batch axes.
        """
        out = Tensor(np.matmul(self.data, other.data), _parents=(self, other))

        def backward(g: np.ndarray) -> None:
            if other.ndim == 2:
                # A shared 2-D weight: one GEMM per gradient over the
                # flattened (B*S, .) rows.  The batched form below would
                # materialise a per-sample (B, D, H) weight gradient and
                # then sum it over B.
                g2d = g.reshape(-1, g.shape[-1])
                if self.requires_grad:
                    self._accumulate((g2d @ other.data.T).reshape(self.data.shape))
                if other.requires_grad:
                    x2d = self.data.reshape(-1, self.data.shape[-1])
                    other._accumulate(x2d.T @ g2d)
                return
            if self.requires_grad:
                grad_self = np.matmul(g, np.swapaxes(other.data, -1, -2))
                self._accumulate(_unbroadcast(grad_self, self.data.shape))
            if other.requires_grad:
                grad_other = np.matmul(np.swapaxes(self.data, -1, -2), g)
                other._accumulate(_unbroadcast(grad_other, other.data.shape))

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # nonlinearities and pointwise functions
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        out = Tensor(np.maximum(self.data, 0.0), _parents=(self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (self.data > 0.0))

        out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        s = stable_sigmoid(self.data)
        out = Tensor(s, _parents=(self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * s * (1.0 - s))

        out._backward = backward
        return out

    def tanh(self) -> "Tensor":
        t = np.tanh(self.data)
        out = Tensor(t, _parents=(self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - t**2))

        out._backward = backward
        return out

    def exp(self) -> "Tensor":
        e = np.exp(np.clip(self.data, -700, 700))
        out = Tensor(e, _parents=(self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * e)

        out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.data), _parents=(self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data)

        out._backward = backward
        return out

    def abs(self) -> "Tensor":
        out = Tensor(np.abs(self.data), _parents=(self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * np.sign(self.data))

        out._backward = backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside."""
        out = Tensor(np.clip(self.data, low, high), _parents=(self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                inside = (self.data >= low) & (self.data <= high)
                self._accumulate(g * inside)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,))

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = g
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        out._backward = backward
        return out

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), _parents=(self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(self.data.shape))

        out._backward = backward
        return out

    def transpose(self) -> "Tensor":
        if self.ndim != 2:
            raise ReproError("transpose() supports 2-D tensors only")
        out = Tensor(self.data.T, _parents=(self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.T)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # autograd driver
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (i.e. ``d self / d self``); for
        non-scalar outputs an explicit cotangent is usually what you want.
        """
        if not self.requires_grad:
            raise ReproError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ReproError(
                    f"gradient shape {grad.shape} does not match tensor {self.data.shape}"
                )

        order = _topological_order(self)
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Support `maximum` as a method for q-error style losses.
    def maximum(self, other) -> "Tensor":
        return maximum(self, other)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order DFS over the parent graph (no recursion limit)."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def maximum(a: Tensor | float, b: Tensor | float) -> Tensor:
    """Elementwise maximum with subgradient routed to the larger operand.

    Ties send the full gradient to ``a`` (matching ``np.maximum``'s
    left-bias is unnecessary for optimization; any convex-combination
    subgradient is valid, and this choice is deterministic).
    """
    a = Tensor._lift(a)
    b = Tensor._lift(b)
    out = Tensor(np.maximum(a.data, b.data), _parents=(a, b))

    def backward(g: np.ndarray) -> None:
        take_a = a.data >= b.data
        if a.requires_grad:
            a._accumulate(g * take_a)
        if b.requires_grad:
            b._accumulate(g * ~take_a)

    out._backward = backward
    return out


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient splitting."""
    tensors = [Tensor._lift(t) for t in tensors]
    if not tensors:
        raise ReproError("concat() of an empty sequence")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor(data, _parents=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                t._accumulate(g[tuple(index)])

    out._backward = backward
    return out


def stack_rows(tensors: Iterable[Tensor]) -> Tensor:
    """Stack 1-D tensors into a 2-D tensor (axis 0), differentiable."""
    tensors = [Tensor._lift(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=0)
    out = Tensor(data, _parents=tuple(tensors))

    def backward(g: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(g[i])

    out._backward = backward
    return out
