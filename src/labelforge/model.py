"""Multilayer perceptron with explicit backprop and an SGD-momentum optimizer.

The network computes no loss: callers hand `backward` the gradient of their
scalar loss with respect to the output logits (`labelreg` holds the losses
and that gradient), and get back gradients for every weight and bias. Label
strategies never touch network internals, and the network never sees a
target vector.

An `Mlp` is its parameter buffer: one 1-D float64 array, ``Mlp.params``,
laid out ``W0, b0, W1, b1, ...`` with each weight matrix row-major (fan_in x
fan_out), which the constructor adopts without copying. ``Mlp.weights`` and
``Mlp.biases`` are tuples of per-layer views of it, so a layer is changed in
place (``model.weights[0][...] = w``), never rebound. ``Mlp(model.layer_sizes,
g)`` gives the per-layer views of a gradient buffer ``g`` in the same
layout. `backward` writes the gradient into such an `Mlp` when given one (a
training run allocates it once) and into a new buffer otherwise. The
optimizer's velocity is one buffer too, so an SGD step is a few
whole-buffer operations: four passes over the buffer without weight decay
(see `sgd_step`), six with it.

``forward`` keeps what ``backward`` needs (the training pass); ``predict``
returns only the probabilities and works in place (inference). Both run the
same layer loop and give the same probabilities, bit for bit.

Checkpoint format (JSON, one object):

    {
      "layer_sizes": [D, h1, ..., K],
      "weights": [[...], ...],   // one flat row-major list per layer
      "biases":  [[...], ...],   // one list per layer
      "seed": <int used at init>
    }
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import exact_int, json_types
from .numerics import Rng, require_finite, softmax_pair, softmax_probs_inplace


@dataclass
class ForwardCache:
    """Everything backward needs from one forward pass over a batch."""

    inputs: np.ndarray
    pre_activations: list  # per layer, batch x fan_out
    hidden_activations: list  # post-ReLU, one per hidden layer
    logits: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray


def _layout(layer_sizes) -> list:
    """(start, stop, shape) of each slice of a parameter buffer, in the order
    W0, b0, W1, b1, ...: (fan_in, fan_out) then (fan_out,) per layer."""
    layout = []
    start = 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        for shape in ((fan_in, fan_out), (fan_out,)):
            stop = start + math.prod(shape)
            layout.append((start, stop, shape))
            start = stop
    return layout


def _split(flat: np.ndarray, layout) -> tuple[tuple, tuple]:
    """Views of ``flat`` as laid out by `_layout`, returned as (weights,
    biases): the even and the odd entries."""
    views = [flat[start:stop].reshape(shape) for start, stop, shape in layout]
    return tuple(views[0::2]), tuple(views[1::2])


def _checked_sizes(layer_sizes, name: str = "layer sizes") -> list:
    sizes = [exact_int(s, name) for s in layer_sizes]
    if len(sizes) < 2:
        raise ValueError(f"{name}: need at least input and output sizes")
    if any(s <= 0 for s in sizes):
        raise ValueError(f"{name} must be positive, got {sizes}")
    return sizes


def _param_count(layer_sizes) -> int:
    return sum(
        fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:])
    )


class Mlp:
    """Fully connected ReLU network ending in K output logits."""

    def __init__(self, layer_sizes, params: np.ndarray, seed: int = 0):
        """Adopt ``params``, not a copy, as the parameter buffer: a 1-D
        float64 array laid out ``W0, b0, W1, b1, ...``."""
        layer_sizes = _checked_sizes(layer_sizes)
        layout = _layout(layer_sizes)
        if params.dtype != np.float64 or params.shape != (layout[-1][1],):
            raise ValueError(
                f"sizes {layer_sizes} need {layout[-1][1]} float64 parameters, got "
                f"{params.dtype} {params.shape}"
            )
        self.layer_sizes = layer_sizes
        self._layout = layout
        self.params = params
        self.weights, self.biases = _split(params, layout)
        self.seed = seed
        self.forward_count = 0  # instrumentation; see distillation report

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    def _logits(self, batch_features, keep: bool):
        """The layer loop shared by `forward` and `predict`.

        Returns the float64 input, the checked logits, and the pre-activations
        (logits last) and post-ReLU activations of every layer when ``keep``;
        without ``keep`` each hidden layer's ReLU overwrites its own
        pre-activation and both lists stay empty.
        """
        x = np.asarray(batch_features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(
                f"batch shape {x.shape} does not match input dimension {self.input_dim}"
            )
        self.forward_count += 1
        pre_acts = []
        hidden_acts = []
        act = x
        top = self.num_layers - 1
        for layer in range(self.num_layers):
            z = act @ self.weights[layer]
            z += self.biases[layer]
            if keep:
                pre_acts.append(z)
            if layer < top:
                act = np.maximum(z, 0.0, out=None if keep else z)
                if keep:
                    hidden_acts.append(act)
        require_finite(z, "softmax input")
        return x, z, pre_acts, hidden_acts

    def forward(self, batch_features: np.ndarray) -> ForwardCache:
        """The training pass: probabilities, log-probabilities and everything
        `backward` needs."""
        x, logits, pre_acts, hidden_acts = self._logits(batch_features, keep=True)
        probs, log_probs = softmax_pair(logits)
        return ForwardCache(x, pre_acts, hidden_acts, logits, probs, log_probs)

    def predict(self, batch_features: np.ndarray) -> np.ndarray:
        """Softmax probabilities of a batch, equal bit for bit to
        ``forward(batch).probs``, without the backward cache or the
        log-probabilities; counts as a forward pass in `forward_count`."""
        return softmax_probs_inplace(self._logits(batch_features, keep=False)[1])

    def backward(self, cache: ForwardCache, dlogits: np.ndarray,
                 out: "Mlp | None" = None) -> np.ndarray:
        """Backpropagate d(scalar loss)/d(logits) to all parameters.

        The ReLU derivative is taken as 0 at exactly-zero pre-activations.
        Returns the gradient as one 1-D float64 buffer laid out like
        `params`: a new one, or that of ``out``, an `Mlp` of the same sizes
        whose per-layer views receive it.
        """
        dlogits = np.asarray(dlogits, dtype=np.float64)
        if dlogits.shape != cache.logits.shape:
            raise ValueError(
                f"dlogits shape {dlogits.shape} does not match logits {cache.logits.shape}"
            )
        if out is None:
            out = Mlp(self.layer_sizes, np.empty_like(self.params))
        delta = dlogits
        for layer in range(self.num_layers - 1, -1, -1):
            below = cache.inputs if layer == 0 else cache.hidden_activations[layer - 1]
            np.matmul(below.T, delta, out=out.weights[layer])
            np.add.reduce(delta, axis=0, out=out.biases[layer])
            if layer > 0:
                delta = delta @ self.weights[layer].T
                delta *= cache.pre_activations[layer - 1] > 0.0
        return out.params


def init_model(layer_sizes, seed: int) -> Mlp:
    """Glorot-uniform weights (row-major draw order), zero biases."""
    sizes = _checked_sizes(layer_sizes)
    rng = Rng(seed)
    model = Mlp(sizes, np.zeros(_param_count(sizes)), seed)
    for w in model.weights:
        fan_in, fan_out = w.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniforms((fan_in, fan_out), -limit, limit)
    return model


@dataclass
class OptState:
    """SGD with momentum and weight decay: v <- mu*v + g + wd*theta.

    ``velocity`` is one buffer laid out like `Mlp.params`.
    """

    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: np.ndarray = field(default_factory=lambda: np.empty(0))

    @classmethod
    def for_model(cls, model: Mlp, lr: float, momentum: float = 0.0,
                  weight_decay: float = 0.0) -> "OptState":
        return cls(lr=lr, momentum=momentum, weight_decay=weight_decay,
                   velocity=np.zeros_like(model.params))


def sgd_step(model: Mlp, grads: np.ndarray, opt: OptState) -> None:
    """One in-place update of the whole parameter buffer:
    v <- mu*v + g + wd*theta; theta <- theta - lr*v.

    With ``weight_decay == 0`` the decay term is left out, which saves two
    passes over the buffer and two buffer-sized temporaries. This writes the
    same parameters: ``0.0*theta`` is a zero, and adding it to ``g`` can
    only turn a ``-0.0`` gradient entry into ``+0.0``. That changes at most
    the sign of a zero velocity entry, which reaches ``theta`` only through
    ``theta - lr*(+-0.0)``, equal to ``theta`` unless ``theta`` is ``-0.0``.
    Training never makes a ``-0.0`` parameter: Glorot draws and zero biases
    are not ``-0.0``, and ``x - y`` is ``-0.0`` only when ``x`` is.
    """
    if grads.shape != model.params.shape or opt.velocity.shape != model.params.shape:
        raise ValueError(
            f"gradient {grads.shape} and velocity {opt.velocity.shape} must each "
            f"match the {model.params.shape} parameters"
        )
    v = opt.velocity
    v *= opt.momentum
    if opt.weight_decay == 0.0:
        v += grads
    else:
        v += grads + opt.weight_decay * model.params
    model.params -= opt.lr * v


def central_difference_error(flat: np.ndarray, analytic: np.ndarray, loss,
                             step: float) -> float:
    """Worst relative error |a - n| / max(1e-8, |a| + |n|) between
    ``analytic`` and the central differences of ``loss()`` over every entry
    of the 1-D buffer ``flat``, which is perturbed by +-step in place and
    restored after each entry."""
    if analytic.shape != flat.shape:
        raise ValueError(f"gradient buffer {analytic.shape} does not match {flat.shape}")
    worst = 0.0
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        loss_plus = loss()
        flat[i] = original - step
        loss_minus = loss()
        flat[i] = original
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        exact = float(analytic[i])
        worst = max(worst, abs(exact - numeric) / max(1e-8, abs(exact) + abs(numeric)))
    return worst


def save_checkpoint(model: Mlp, path) -> None:
    doc = {
        "layer_sizes": model.layer_sizes,
        "weights": [w.reshape(-1).tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "seed": model.seed,
    }
    # json.dumps runs the C encoder; json.dump to a file takes the pure-Python
    # one. Both write the same bytes.
    with open(path, "w") as f:
        f.write(json.dumps(doc) + "\n")


def load_checkpoint(path) -> Mlp:
    """Rebuild an Mlp from a checkpoint, rejecting a document that lacks a
    key, holds a value of the wrong type, a size or seed that fails
    `exact_int`, the wrong number or size of layers, or a NaN/Inf parameter
    (all as ValueError naming the file)."""
    with open(path) as f:
        doc = json.load(f)
    with json_types(path):
        missing = [key for key in ("layer_sizes", "weights", "biases") if key not in doc]
        if missing:
            raise ValueError(f"{path}: missing keys {missing}")
        sizes = _checked_sizes(doc["layer_sizes"], f"{path}: layer_sizes")
        layers = len(sizes) - 1
        if len(doc["weights"]) != layers or len(doc["biases"]) != layers:
            raise ValueError(
                f"{path}: layer_sizes {sizes} need {layers} weight and bias lists, got "
                f"{len(doc['weights'])} and {len(doc['biases'])}"
            )
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            got = (len(doc["weights"][i]), len(doc["biases"][i]))
            if got != (fan_in * fan_out, fan_out):
                raise ValueError(
                    f"{path}: layer {i} needs {fan_in * fan_out} weights and {fan_out} "
                    f"biases, got {got[0]} and {got[1]}"
                )
        # one pass from the parsed lists into the model's buffer, without a
        # temporary array per layer
        values = itertools.chain.from_iterable(
            itertools.chain(w, b) for w, b in zip(doc["weights"], doc["biases"])
        )
        params = np.fromiter(values, dtype=np.float64, count=_param_count(sizes))
        seed = exact_int(doc.get("seed", 0), f"{path}: seed")
    model = Mlp(sizes, params, seed)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"{path}: layer {i} has a NaN or Inf parameter")
    return model
