"""Multilayer perceptron with explicit backprop and an SGD-momentum optimizer.

The network is deliberately loss-agnostic: callers hand `backward` the
gradient of their scalar loss with respect to the output logits, and get
back gradients for every weight and bias. Label strategies therefore never
touch network internals, and the network never sees a target vector.

Checkpoint format (JSON, one object):

    {
      "layer_sizes": [D, h1, ..., K],
      "weights": [[...], ...],   // one flat row-major list per layer
      "biases":  [[...], ...],   // one list per layer
      "seed": <int used at init>
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import Rng, require_finite, softmax_pair


@dataclass
class ForwardCache:
    """Everything backward needs from one forward pass over a batch."""

    inputs: np.ndarray
    pre_activations: list  # per layer, batch x fan_out
    hidden_activations: list  # post-ReLU, one per hidden layer
    logits: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray


@dataclass
class Gradients:
    weights: list
    biases: list


class Mlp:
    """Fully connected ReLU network ending in K output logits."""

    def __init__(self, layer_sizes, weights, biases, seed: int = 0):
        layer_sizes = [int(s) for s in layer_sizes]
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s <= 0 for s in layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
        for i, (w, b) in enumerate(zip(weights, biases)):
            expect = (layer_sizes[i], layer_sizes[i + 1])
            if w.shape != expect or b.shape != (expect[1],):
                raise ValueError(
                    f"layer {i} parameter shapes {w.shape}/{b.shape} do not chain "
                    f"with sizes {layer_sizes}"
                )
        self.layer_sizes = layer_sizes
        self.weights = list(weights)
        self.biases = list(biases)
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

    def forward(self, batch_features: np.ndarray) -> ForwardCache:
        x = np.asarray(batch_features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(
                f"batch shape {x.shape} does not match input dimension {self.input_dim}"
            )
        self.forward_count += 1
        pre_acts = []
        hidden_acts = []
        act = x
        for layer in range(self.num_layers):
            z = act @ self.weights[layer] + self.biases[layer]
            pre_acts.append(z)
            if layer < self.num_layers - 1:
                act = np.maximum(z, 0.0)
                hidden_acts.append(act)
        logits = pre_acts[-1]
        require_finite(logits, "softmax input")
        probs, log_probs = softmax_pair(logits)
        return ForwardCache(x, pre_acts, hidden_acts, logits, probs, log_probs)

    def backward(self, cache: ForwardCache, dlogits: np.ndarray) -> Gradients:
        """Backpropagate d(scalar loss)/d(logits) to all parameters.

        The ReLU derivative is taken as 0 at exactly-zero pre-activations.
        """
        dlogits = np.asarray(dlogits, dtype=np.float64)
        if dlogits.shape != cache.logits.shape:
            raise ValueError(
                f"dlogits shape {dlogits.shape} does not match logits {cache.logits.shape}"
            )
        d_weights = [None] * self.num_layers
        d_biases = [None] * self.num_layers
        delta = dlogits
        for layer in range(self.num_layers - 1, -1, -1):
            below = cache.inputs if layer == 0 else cache.hidden_activations[layer - 1]
            d_weights[layer] = below.T @ delta
            d_biases[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ self.weights[layer].T
                delta = delta * (cache.pre_activations[layer - 1] > 0.0)
        return Gradients(d_weights, d_biases)


def init_model(layer_sizes, seed: int) -> Mlp:
    """Glorot-uniform weights (row-major draw order), zero biases."""
    layer_sizes = [int(s) for s in layer_sizes]
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    if any(s <= 0 for s in layer_sizes):
        raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
    rng = Rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniforms((fan_in, fan_out), -limit, limit))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return Mlp(layer_sizes, weights, biases, seed)


@dataclass
class OptState:
    """SGD with momentum and weight decay: v <- mu*v + g + wd*theta."""

    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity_weights: list = field(default_factory=list)
    velocity_biases: list = field(default_factory=list)

    @classmethod
    def for_model(cls, model: Mlp, lr: float, momentum: float = 0.0,
                  weight_decay: float = 0.0) -> "OptState":
        return cls(
            lr=lr,
            momentum=momentum,
            weight_decay=weight_decay,
            velocity_weights=[np.zeros_like(w) for w in model.weights],
            velocity_biases=[np.zeros_like(b) for b in model.biases],
        )


def sgd_step(model: Mlp, grads: Gradients, opt: OptState) -> None:
    """One in-place update: v <- mu*v + g + wd*theta; theta <- theta - lr*v."""
    for i in range(model.num_layers):
        if grads.weights[i].shape != model.weights[i].shape:
            raise ValueError(f"gradient shape mismatch at layer {i}")
        vw = opt.velocity_weights[i]
        vw *= opt.momentum
        vw += grads.weights[i] + opt.weight_decay * model.weights[i]
        model.weights[i] -= opt.lr * vw

        vb = opt.velocity_biases[i]
        vb *= opt.momentum
        vb += grads.biases[i] + opt.weight_decay * model.biases[i]
        model.biases[i] -= opt.lr * vb


def _iter_params(model: Mlp):
    for layer in range(model.num_layers):
        yield model.weights[layer]
        yield model.biases[layer]


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))


def finite_diff_check(model: Mlp, batch: np.ndarray, scalar_loss_fn,
                      step: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    `scalar_loss_fn(model, batch)` must return `(loss, Gradients)` and be
    deterministic. Every weight and bias entry is perturbed by +-step.
    """
    _, analytic = scalar_loss_fn(model, batch)
    worst = 0.0
    params = list(_iter_params(model))
    grads = []
    for layer in range(model.num_layers):
        grads.append(analytic.weights[layer])
        grads.append(analytic.biases[layer])
    for tensor, grad in zip(params, grads):
        flat = tensor.reshape(-1)
        gflat = np.asarray(grad, dtype=np.float64).reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            loss_plus, _ = scalar_loss_fn(model, batch)
            flat[i] = original - step
            loss_minus, _ = scalar_loss_fn(model, batch)
            flat[i] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            worst = max(worst, relative_error(float(gflat[i]), numeric))
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
    key, holds the wrong number or size of layers, or has a NaN/Inf
    parameter (all as ValueError)."""
    with open(path) as f:
        doc = json.load(f)
    missing = [key for key in ("layer_sizes", "weights", "biases") if key not in doc]
    if missing:
        raise ValueError(f"{path}: missing keys {missing}")
    sizes = [int(s) for s in doc["layer_sizes"]]
    layers = len(sizes) - 1
    if len(doc["weights"]) != layers or len(doc["biases"]) != layers:
        raise ValueError(
            f"{path}: layer_sizes {sizes} need {layers} weight and bias lists, got "
            f"{len(doc['weights'])} and {len(doc['biases'])}"
        )
    weights = []
    biases = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        weights.append(
            np.asarray(doc["weights"][i], dtype=np.float64).reshape(fan_in, fan_out)
        )
        biases.append(np.asarray(doc["biases"][i], dtype=np.float64))
        if not (np.isfinite(weights[i]).all() and np.isfinite(biases[i]).all()):
            raise ValueError(f"{path}: layer {i} has a NaN or Inf parameter")
    return Mlp(sizes, weights, biases, int(doc.get("seed", 0)))


def mean_cross_entropy_loss(targets: np.ndarray):
    """Build a `(model, batch) -> (loss, grads)` closure for fixed targets.

    Loss is the batch-mean cross-entropy between `targets` and the model's
    softmax output; the logit gradient is (probs - targets) / batch.
    """

    targets = np.asarray(targets, dtype=np.float64)

    def loss_fn(model: Mlp, batch: np.ndarray):
        cache = model.forward(batch)
        n = batch.shape[0]
        loss = float(-(targets * cache.log_probs).sum() / n)
        grads = model.backward(cache, (cache.probs - targets) / n)
        return loss, grads

    return loss_fn
