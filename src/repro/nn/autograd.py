"""A minimal reverse-mode automatic differentiation engine on numpy arrays.

Only the operations required by the Seq2Seq router are implemented: broadcast
add/multiply, matrix multiplication (2-D and batched 3-D), tanh/sigmoid,
softmax, concatenation, embedding lookup, summation/mean, and a fused
softmax-cross-entropy loss.  Each operation records a backward closure; calling
:meth:`Tensor.backward` runs them in reverse topological order.

The engine favours clarity over generality -- it is the substrate for a model
with a few hundred thousand parameters, not a general deep-learning framework.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray


def _as_array(value: "Tensor | Array | float | int") -> Array:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were expanded from size one.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: Array | float | int | Sequence[float],
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[Array], None] | None = None,
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward
        self.name = name

    # -- basic protocol -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, name={self.name!r})"

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, grad: Array) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction helpers --------------------------------------------
    @staticmethod
    def _make(data: Array, parents: tuple["Tensor", ...],
              backward: Callable[[Array], None]) -> "Tensor":
        requires = any(parent.requires_grad for parent in parents)
        return Tensor(data, requires_grad=requires,
                      parents=parents if requires else (),
                      backward=backward if requires else None)

    # -- arithmetic ---------------------------------------------------------------
    def __add__(self, other: "Tensor | Array | float") -> "Tensor":
        other_tensor = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data + other_tensor.data

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(grad, self.shape))
            if other_tensor.requires_grad:
                other_tensor.accumulate_grad(_unbroadcast(grad, other_tensor.shape))

        return Tensor._make(out_data, (self, other_tensor), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self.accumulate_grad(-grad)

        return Tensor._make(out_data, (self,), backward)

    def __sub__(self, other: "Tensor | Array | float") -> "Tensor":
        other_tensor = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return self + (-other_tensor)

    def __mul__(self, other: "Tensor | Array | float") -> "Tensor":
        other_tensor = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data * other_tensor.data

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(grad * other_tensor.data, self.shape))
            if other_tensor.requires_grad:
                other_tensor.accumulate_grad(_unbroadcast(grad * self.data, other_tensor.shape))

        return Tensor._make(out_data, (self, other_tensor), backward)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Tensor":
        return self * (1.0 / float(scalar))

    # -- matrix products --------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """2-D matrix multiplication ``(m, k) @ (k, n)``."""
        out_data = self.data @ other.data

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad @ other.data.T)
            if other.requires_grad:
                other.accumulate_grad(self.data.T @ grad)

        return Tensor._make(out_data, (self, other), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def bmm(self, other: "Tensor") -> "Tensor":
        """Batched matrix multiplication ``(b, m, k) @ (b, k, n)``."""
        out_data = np.matmul(self.data, other.data)

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self.accumulate_grad(np.matmul(grad, np.transpose(other.data, (0, 2, 1))))
            if other.requires_grad:
                other.accumulate_grad(np.matmul(np.transpose(self.data, (0, 2, 1)), grad))

        return Tensor._make(out_data, (self, other), backward)

    # -- shape manipulation ----------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)
        original_shape = self.shape

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose_last_two(self) -> "Tensor":
        """Swap the last two axes (used for attention scores)."""
        axes = list(range(self.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
        out_data = np.transpose(self.data, axes)

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self.accumulate_grad(np.transpose(grad, axes))

        return Tensor._make(out_data, (self,), backward)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        out_data = np.concatenate([tensor.data for tensor in tensors], axis=axis)
        sizes = [tensor.data.shape[axis] for tensor in tensors]

        def backward(grad: Array) -> None:
            offsets = np.cumsum([0] + sizes)
            for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, end)
                    tensor.accumulate_grad(grad[tuple(slicer)])

        return Tensor._make(out_data, tuple(tensors), backward)

    # -- reductions ---------------------------------------------------------------------------
    def sum(self) -> "Tensor":
        out_data = np.asarray(self.data.sum())
        shape = self.shape

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self.accumulate_grad(np.broadcast_to(grad, shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean_over_axis(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        count = self.data.shape[axis]
        shape = self.shape

        def backward(grad: Array) -> None:
            if self.requires_grad:
                expanded = grad if keepdims else np.expand_dims(grad, axis=axis)
                self.accumulate_grad(np.broadcast_to(expanded / count, shape).copy())

        return Tensor._make(out_data, (self,), backward)

    # -- nonlinearities -------------------------------------------------------------------------
    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: Array) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: Array) -> None:
            if self.requires_grad:
                dot = (grad * out_data).sum(axis=axis, keepdims=True)
                self.accumulate_grad(out_data * (grad - dot))

        return Tensor._make(out_data, (self,), backward)

    # -- indexing -------------------------------------------------------------------------------
    def embedding_lookup(self, indices: Array) -> "Tensor":
        """Gather rows of a 2-D parameter matrix: ``self[indices]``.

        ``indices`` may have any shape; the result has shape
        ``indices.shape + (embedding_dim,)``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        out_data = self.data[indices]
        vocab_size, dim = self.data.shape

        def backward(grad: Array) -> None:
            if self.requires_grad:
                accum = np.zeros((vocab_size, dim), dtype=np.float64)
                np.add.at(accum, indices.reshape(-1), grad.reshape(-1, dim))
                self.accumulate_grad(accum)

        return Tensor._make(out_data, (self,), backward)

    # -- losses ----------------------------------------------------------------------------------
    def cross_entropy(self, targets: Array, mask: Array | None = None) -> "Tensor":
        """Fused softmax + cross-entropy over the last axis.

        ``self`` holds logits of shape ``(..., vocab)``, ``targets`` integer
        class ids of shape ``(...)`` and ``mask`` an optional 0/1 array of the
        same shape.  Returns the mean loss over unmasked positions.
        """
        targets = np.asarray(targets, dtype=np.int64)
        logits = self.data
        flat_logits = logits.reshape(-1, logits.shape[-1])
        flat_targets = targets.reshape(-1)
        if mask is None:
            flat_mask = np.ones_like(flat_targets, dtype=np.float64)
        else:
            flat_mask = np.asarray(mask, dtype=np.float64).reshape(-1)
        total = max(flat_mask.sum(), 1.0)

        shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probabilities = exp / exp.sum(axis=1, keepdims=True)
        picked = probabilities[np.arange(flat_targets.shape[0]), flat_targets]
        losses = -np.log(np.clip(picked, 1e-12, None)) * flat_mask
        out_data = np.asarray(losses.sum() / total)

        def backward(grad: Array) -> None:
            if self.requires_grad:
                delta = probabilities.copy()
                delta[np.arange(flat_targets.shape[0]), flat_targets] -= 1.0
                delta *= (flat_mask / total)[:, None]
                self.accumulate_grad(float(grad) * delta.reshape(logits.shape))

        return Tensor._make(out_data, (self,), backward)

    # -- backward pass ------------------------------------------------------------------------------
    def backward(self, grad: Array | float | None = None) -> None:
        """Back-propagate from this tensor (typically a scalar loss)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        ordering = _topological_order(self)
        self.accumulate_grad(grad)
        for node in reversed(ordering):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)


def _topological_order(root: Tensor) -> list[Tensor]:
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


def stack_rows(tensors: Iterable[Tensor]) -> Tensor:
    """Stack 1-D/2-D step outputs along a new first axis (used rarely; kept simple)."""
    tensor_list = list(tensors)
    out_data = np.stack([tensor.data for tensor in tensor_list], axis=0)

    def backward(grad: Array) -> None:
        for index, tensor in enumerate(tensor_list):
            if tensor.requires_grad:
                tensor.accumulate_grad(grad[index])

    return Tensor._make(out_data, tuple(tensor_list), backward)
