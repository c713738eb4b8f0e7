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
returns only the probabilities and works in place (inference), on one batch
or on an (S, B, D) stack of batches. Both run the same layer loop and give
the same probabilities, bit for bit.

Checkpoint format (JSON, one object):

    {
      "layer_sizes": [D, h1, ..., K],
      "weights": [[...], ...],   // one flat row-major list per layer
      "biases":  [[...], ...],   // one list per layer
      "seed": <int used at init>
    }

Beside it, ``checkpoint.json.parsed.npz``, which only `save_checkpoint`
writes, holds its layer sizes, parameter buffer and seed; `load_checkpoint`
reads that instead of the JSON (`parse_once`) and parses a checkpoint that
has none.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import (exact_int, json_document, parse_once, repr_table_chunks, store_parsed,
                     write_hashed)
from .numerics import SEED_LIMIT, Rng, require_finite, softmax_pair, softmax_probs_into


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
        pre-activation and both lists stay empty, and the input may be an
        (S, B, D) stack of batches, which counts as S forward passes.
        """
        x = np.asarray(batch_features, dtype=np.float64)
        if x.ndim != 2 and (keep or x.ndim != 3):
            shapes = "a 2-D batch" if keep else "a 2-D batch or a 3-D stack of batches"
            raise ValueError(f"batch shape {x.shape}: expected {shapes}")
        if x.shape[-1] != self.input_dim:
            raise ValueError(
                f"batch shape {x.shape} does not match input dimension {self.input_dim}"
            )
        self.forward_count += 1 if x.ndim == 2 else len(x)
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
        log-probabilities; counts as a forward pass in `forward_count`.

        An (S, B, D) stack of S batches gives (S, B, K) probabilities whose
        slice s equals ``predict(stack[s])`` bit for bit, and counts as S
        forward passes. Each matmul runs along the leading axis, one product
        per batch: the rows of two batches never share a product, whose sums
        BLAS may then order otherwise. Bias and ReLU broadcast over the
        stack, and the softmax runs over its S * B rows at once.
        """
        logits = self._logits(batch_features, keep=False)[1]
        rows = logits.reshape(-1, self.num_classes)  # a view: the logits are C-ordered
        softmax_probs_into(rows, rows)
        return logits

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
    model = Mlp(sizes, np.zeros(_layout(sizes)[-1][1]), seed)
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
    """Write ``model`` in the checkpoint format above: the bytes of
    ``json.dumps(doc) + "\\n"``, each parameter spelled as its repr and
    streamed through `repr_table_chunks`, hashed as they are written; then
    store the model as the file's parsed sidecar (`parse_once`), unless its
    seed is one a uint64 does not hold exactly (training seeds all fit). A
    NaN or Inf parameter, which `load_checkpoint` would reject, raises its
    ValueError before anything is written."""
    _check_finite(model, path)
    sha256 = write_hashed(path, _checkpoint_chunks(model))
    if 0 <= model.seed < SEED_LIMIT:
        store_parsed(path, CHECKPOINT_PARSED_VERSION, sha256,
                     {"layer_sizes": np.array(model.layer_sizes), "params": model.params,
                      "seed": np.array(model.seed, dtype=np.uint64)})


def _checkpoint_chunks(model: Mlp):
    yield f'{{"layer_sizes": {json.dumps(model.layer_sizes)}'.encode()
    for key, layers in (("weights", model.weights), ("biases", model.biases)):
        yield f', "{key}": ['.encode()
        for i, layer in enumerate(layers):
            yield b", [" if i else b"["
            yield from repr_table_chunks(layer.reshape(1, -1), b", ", b"")
            yield b"]"
        yield b"]"
    yield f', "seed": {json.dumps(model.seed)}}}\n'.encode()


# The layout of a checkpoint's sidecar (`save_checkpoint`, `_from_parsed`):
# raise it whenever the parse or the arrays stored for it change.
CHECKPOINT_PARSED_VERSION = 2


def _from_parsed(arrays: dict, path) -> Mlp | None:
    """The model a sidecar's arrays hold, if they pass every check a
    checkpoint's parse makes; else None."""
    try:
        seed = exact_int(arrays["seed"][()], "seed")
        model = Mlp(arrays["layer_sizes"].tolist(), arrays["params"], seed)
        _check_finite(model, path)
    except (KeyError, TypeError, ValueError):
        return None
    return model


def _check_finite(model: Mlp, path) -> None:
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"{path}: layer {i} has a NaN or Inf parameter")


def load_checkpoint(path) -> tuple[Mlp, str]:
    """Rebuild an Mlp from a checkpoint and return it with the hex sha256 of
    the file, read from the sidecar `save_checkpoint` stored when that holds
    the parse of these bytes, else parsed, with no sidecar written
    (`parse_once`). The parse rejects a document that lacks a
    key, holds a value of the wrong type, a size or seed that fails
    `exact_int`, the wrong number or size of layers, or a NaN/Inf parameter
    (all as ValueError naming the file)."""
    return parse_once(path, CHECKPOINT_PARSED_VERSION, lambda: _parse_checkpoint(path),
                      lambda arrays: _from_parsed(arrays, path))


def _parse_checkpoint(path) -> Mlp:
    """The model the JSON document at ``path`` holds, checked as
    `load_checkpoint` says."""
    with json_document(path, ("layer_sizes", "weights", "biases")) as doc:
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
        params = np.fromiter(values, dtype=np.float64, count=_layout(sizes)[-1][1])
        seed = exact_int(doc.get("seed", 0), f"{path}: seed")
    model = Mlp(sizes, params, seed)
    _check_finite(model, path)
    return model
