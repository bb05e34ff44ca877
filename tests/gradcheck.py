"""Finite-difference gradient checking helpers, and the model copies they use."""

import numpy as np

from lemtag.model import Model, backward, forward_loss


def relative_error(a, b):
    return abs(a - b) / max(abs(a) + abs(b), 1e-6)


def copy_model(model):
    """A deep copy of ``model``: changing its arrays leaves ``model`` alone."""
    return Model(model.config, {k: v.copy() for k, v in model.params.items()})


def as_float64(model):
    """A float64 copy of ``model``: every array computed with it is float64."""
    return Model(model.config, {k: v.astype(np.float64) for k, v in model.params.items()})


def finite_difference_check(model, batch, eps=1e-4, entries_per_tensor=None, rng=None):
    """Compare backward() against central differences.

    Both run on a float64 copy of ``model``, so the check measures the
    hand-written math and not float32 rounding.  Checks every entry of
    every tensor, or a random sample of ``entries_per_tensor`` per tensor.
    Returns the worst relative error.
    """
    model = as_float64(model)
    _, grads = backward(model, batch)
    worst = 0.0
    for name, param in model.params.items():
        flat_param = param.reshape(-1)
        flat_grad = grads[name].reshape(-1)
        if entries_per_tensor is None or flat_param.size <= entries_per_tensor:
            indices = range(flat_param.size)
        else:
            indices = rng.choice(flat_param.size, size=entries_per_tensor, replace=False)
        for i in indices:
            orig = flat_param[i]
            flat_param[i] = orig + eps
            up = forward_loss(model, batch)
            flat_param[i] = orig - eps
            down = forward_loss(model, batch)
            flat_param[i] = orig
            fd = (up - down) / (2 * eps)
            err = relative_error(flat_grad[i], fd)
            if err > worst:
                worst = err
    return worst
