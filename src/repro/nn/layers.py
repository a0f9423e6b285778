"""Neural network modules: trainable state, containers and modes.

Mirrors the subset of ``torch.nn`` used by the paper: ``Linear``,
``BatchNorm1d``, ``ReLU``, ``Dropout`` and ``Sequential``.  A
:class:`Module` owns named :class:`Parameter` arrays and optional named
buffers (non-trainable state such as BatchNorm running statistics).

Modules carry no forward pass of their own.  The two architectures the
library builds run in plain numpy: training in
:func:`repro.core.trainer.loss_and_gradients`, inference in
:class:`repro.core.models.PartitionModel`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..utils.rng import SeedLike, resolve_rng
from .init import glorot_uniform, ones, zeros


class Parameter:
    """A trainable float64 array and the gradient last computed for it."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, *, name: Optional[str] = None) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.name = name


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._buffers: Dict[str, np.ndarray] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- registration --------------------------------------------------- #

    def register_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        return self._buffers[name]

    def add_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        super().__setattr__(name, value)

    # -- traversal ------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this module and its children."""
        params = list(self._parameters.values())
        for child in self._modules.values():
            params.extend(child.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield f"{prefix}{name}", buf
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def num_parameters(self) -> int:
        """Total number of learnable scalar parameters (paper Table 2)."""
        return int(sum(p.data.size for p in self.parameters()))

    # -- mode ------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # -- state dict ------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of parameter/buffer names to arrays (copies)."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[f"__buffer__.{name}"] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters and buffers produced by :meth:`state_dict`.

        ``state`` must hold exactly the keys :meth:`state_dict` writes, each
        with the shape it has here; nothing is written unless all of it fits.
        """
        targets = {name: param.data for name, param in self.named_parameters()}
        targets.update((f"__buffer__.{name}", buf) for name, buf in self.named_buffers())
        unexpected = sorted(set(state) - set(targets))
        if unexpected:
            raise KeyError(f"unexpected keys in state dict: {unexpected}")
        missing = sorted(set(targets) - set(state))
        if missing:
            raise KeyError(f"state dict is missing {missing}")
        for name, target in targets.items():
            if target.shape != np.shape(state[name]):
                raise ValueError(
                    f"shape mismatch for {name!r}: {target.shape} vs {np.shape(state[name])}"
                )
        for name, target in targets.items():
            target[...] = state[name]


class Linear(Module):
    """Fully connected layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(glorot_uniform(self.in_features, self.out_features, resolve_rng(rng)), name="weight")
        self.bias: Optional[Parameter]
        if bias:
            self.bias = Parameter(zeros(self.out_features), name="bias")
        else:
            self.bias = None


class ReLU(Module):
    """Rectified linear activation."""


class Dropout(Module):
    """Inverted dropout with its own mask generator; identity in eval mode.

    The paper uses dropout with probability 0.1 to regularise the
    partitioning network so that it generalises to out-of-sample queries.
    """

    def __init__(self, p: float = 0.1, *, rng: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = resolve_rng(rng)


class BatchNorm1d(Module):
    """Batch normalisation over the feature dimension of a 2-D input."""

    def __init__(self, num_features: int, *, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter(ones(self.num_features), name="gamma")
        self.beta = Parameter(zeros(self.num_features), name="beta")
        self.register_buffer("running_mean", zeros(self.num_features))
        self.register_buffer("running_var", ones(self.num_features))


class Sequential(Module):
    """An ordered list of child modules."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for i, module in enumerate(modules):
            name = str(i)
            self.add_module(name, module)
            self._order.append(name)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]
