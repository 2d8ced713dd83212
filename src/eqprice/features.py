"""Registry of named context feature maps.

Context-dependent cost families refer to feature maps by id so that market
instances stay serializable: an instance file only ever names a map, never
embeds code. Two maps are registered:

- ``identity``: sigma(theta) = theta
- ``tanh_affine``: sigma(theta) = (1, tanh(theta_1), ..., tanh(theta_m)),
  a fixed nonlinear map whose leading constant keeps the inner product
  with a positive parameter vector bounded away from zero.
"""

from __future__ import annotations

import numpy as np


def _identity(theta: np.ndarray) -> np.ndarray:
    return np.asarray(theta, dtype=np.float64)


def _tanh_affine(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    return np.concatenate(([1.0], np.tanh(theta)))


FEATURE_MAPS = {
    "identity": _identity,
    "tanh_affine": _tanh_affine,
}


def apply_feature_map(map_id: str, theta: np.ndarray) -> np.ndarray:
    """Apply the named map to one context vector."""
    try:
        fn = FEATURE_MAPS[map_id]
    except KeyError:
        raise KeyError(f"unknown feature map {map_id!r}") from None
    return fn(np.atleast_1d(np.asarray(theta, dtype=np.float64)))


def apply_feature_map_batch(map_id: str, thetas: np.ndarray) -> np.ndarray:
    """Apply the named map row-wise to a (T, m) array of contexts."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2:
        raise ValueError("batch feature mapping expects a (T, m) array")
    if map_id == "identity":
        return thetas
    if map_id == "tanh_affine":
        return np.column_stack([np.ones(thetas.shape[0]), np.tanh(thetas)])
    raise KeyError(f"unknown feature map {map_id!r}")
