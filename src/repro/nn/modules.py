"""Parameterised modules built on the autograd engine."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from repro.nn.autograd import Tensor
from repro.utils.rng import SeededRng


class Parameter(Tensor):
    """A tensor that is always trainable."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class providing recursive parameter discovery and state I/O."""

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its sub-modules."""
        seen: set[int] = set()
        for value in vars(self).values():
            yield from _parameters_of(value, seen)

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        seen: set[int] = set()
        for name, value in vars(self).items():
            for sub_name, parameter in _named_parameters_of(value, seen):
                yield (f"{name}{sub_name}", parameter)

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        return sum(parameter.data.size for parameter in self.parameters())

    # -- persistence ----------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def save_state_npz(self, path: str | Path) -> Path:
        """Write the state dict to a compressed ``.npz`` archive.

        Returns the actual file written: numpy appends ``.npz`` to names that
        lack it, so the suffix is normalised up front.
        """
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.state_dict())
        return path


def _parameters_of(value: object, seen: set[int]) -> Iterator[Parameter]:
    if isinstance(value, Parameter):
        if id(value) not in seen:
            seen.add(id(value))
            yield value
    elif isinstance(value, Module):
        for parameter in value.parameters():
            if id(parameter) not in seen:
                seen.add(id(parameter))
                yield parameter
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _parameters_of(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _parameters_of(item, seen)


def _named_parameters_of(value: object, seen: set[int]) -> Iterator[tuple[str, Parameter]]:
    if isinstance(value, Parameter):
        if id(value) not in seen:
            seen.add(id(value))
            yield ("", value)
    elif isinstance(value, Module):
        for name, parameter in value.named_parameters():
            if id(parameter) not in seen:
                seen.add(id(parameter))
                yield (f".{name}", parameter)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            for name, parameter in _named_parameters_of(item, seen):
                yield (f"[{index}]{name}", parameter)
    elif isinstance(value, dict):
        for key, item in value.items():
            for name, parameter in _named_parameters_of(item, seen):
                yield (f"[{key}]{name}", parameter)


def _glorot(rng: SeededRng, fan_in: int, fan_out: int, shape: tuple[int, ...]) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.numpy.uniform(-scale, scale, size=shape)


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: SeededRng,
                 bias: bool = True, name: str = "linear") -> None:
        self._hold(_glorot(rng, in_features, out_features, (in_features, out_features)),
                   np.zeros(out_features) if bias else None, name)

    @classmethod
    def from_arrays(cls, weight: np.ndarray, bias: np.ndarray | None,
                    name: str = "linear") -> "Linear":
        """A layer holding ``weight`` and ``bias`` themselves: no init is drawn."""
        layer = cls.__new__(cls)
        layer._hold(weight, bias, name)
        return layer

    def _hold(self, weight: np.ndarray, bias: np.ndarray | None, name: str) -> None:
        self.in_features, self.out_features = weight.shape
        self.weight = Parameter(weight, name=f"{name}.weight")
        self.bias = Parameter(bias, name=f"{name}.bias") if bias is not None else None

    def __call__(self, inputs: Tensor) -> Tensor:
        flattened = inputs
        original_shape = inputs.shape
        if inputs.ndim > 2:
            flattened = inputs.reshape(-1, original_shape[-1])
        outputs = flattened @ self.weight
        if self.bias is not None:
            outputs = outputs + self.bias
        if inputs.ndim > 2:
            outputs = outputs.reshape(*original_shape[:-1], self.out_features)
        return outputs


class Embedding(Module):
    """Token-embedding table."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: SeededRng,
                 name: str = "embedding") -> None:
        self._hold(rng.normal((num_embeddings, embedding_dim), scale=0.1), name)

    @classmethod
    def from_arrays(cls, weight: np.ndarray, name: str = "embedding") -> "Embedding":
        """A table holding ``weight`` itself: no init is drawn."""
        table = cls.__new__(cls)
        table._hold(weight, name)
        return table

    def _hold(self, weight: np.ndarray, name: str) -> None:
        self.num_embeddings, self.embedding_dim = weight.shape
        self.weight = Parameter(weight, name=f"{name}.weight")

    def __call__(self, indices: np.ndarray) -> Tensor:
        return self.weight.embedding_lookup(np.asarray(indices, dtype=np.int64))
