"""Named context feature maps.

Context-dependent cost families refer to feature maps by id so that market
instances stay serializable: an instance file only ever names a map, never
embeds code. Two maps exist:

- ``identity``: sigma(theta) = theta
- ``tanh_affine``: sigma(theta) = (1, tanh(theta_1), ..., tanh(theta_m)),
  a fixed nonlinear map whose leading constant keeps the inner product
  with a positive parameter vector bounded away from zero.

:func:`apply_feature_map` maps the last axis, so one function serves a
single context and a whole context path.
"""

from __future__ import annotations

import numpy as np

#: The names a ``feature_map_id`` may take.
FEATURE_MAP_IDS = ("identity", "tanh_affine")


def apply_feature_map(map_id: str, theta) -> np.ndarray:
    """Apply the named map along the last axis: one context of shape (m,)
    gives its features, a (T, m) context path gives one row per period,
    each row equal to the map of that period's context."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if map_id == "identity":
        return theta
    if map_id == "tanh_affine":
        return np.concatenate((np.ones(theta.shape[:-1] + (1,)), np.tanh(theta)), axis=-1)
    raise KeyError(f"unknown feature map {map_id!r}")
