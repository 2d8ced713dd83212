"""Fused per-period simulation loops for long horizons.

Each kernel is written once in numba-compatible style (plain loops over
preallocated arrays, no Python objects) and compiled with ``@njit`` when
numba is available; the uncompiled function is the fallback path. The
active path is selected by :mod:`eqprice.backend`. Kernels accumulate sums
sequentially so both paths execute the identical operation order; the
step-level policy modules are the reference implementations and the test
suite checks kernel trajectories against them.

A kernel computes only what its online loop needs: the production the
policy observes as feedback and the policy state. It returns the posted
price path, the final policy state and its counters (the contextual kernel
also returns the arms, the expected mismatch ``proxy`` and the oracle's
losses). Unmet demand, cost and payment regret depend only on the instance
and the price path, so :mod:`eqprice.harness` computes them once for every
policy. Argument and result positions are a fixed interface:
``perfbench/tracer.py`` reads some of them by index.

Supplier encoding: family code 0 = quadratic with (param1, param2) =
(mu, a); family code 1 = linear with (param1, param2) = (c, cap).

Randomness never originates inside a kernel: uniform draws are generated
by the harness and passed in as arrays, which keeps trajectories
reproducible and backend-independent.
"""

from __future__ import annotations

import numpy as np

from .backend import active_backend, compile_kernel

FAMILY_QUADRATIC = 0
FAMILY_LINEAR = 1


def _fixed_trajectory(fam, param1, param2, d, T):
    """Interval tracking at constant demand ``d``: returns
    (price, a, b, eps, frozen, shrinks, resets)."""
    n = fam.shape[0]
    price = np.empty(T)

    a = 0.0
    b = 1.0
    eps = 0.5
    cursor = 0
    frozen = 1.0 <= 1.0 / T
    shrinks = 0
    resets = 0

    for t in range(T):
        if frozen:
            price[t] = a
            continue
        p = a + cursor * eps
        if p > b:
            p = b
        price[t] = p

        tot = 0.0
        for i in range(n):
            if fam[i] == FAMILY_QUADRATIC:
                x = (p - param2[i]) / param1[i]
                if x < 0.0:
                    x = 0.0
            else:
                x = param2[i] if p >= param1[i] else 0.0
            tot += x
        if tot >= d:
            if cursor == 0:
                new_a = a
            else:
                new_a = a + (cursor - 1) * eps
                if new_a > b:
                    new_a = b
            a = new_a
            b = p
            eps = eps * eps
            cursor = 0
            shrinks += 1
            if b - a <= 1.0 / T:
                frozen = True
        else:
            if p >= b:
                cursor = 0
                resets += 1
            else:
                cursor += 1

    return price, a, b, eps, frozen, shrinks, resets


def _demand_trajectory(
    fam, param1, param2, demands, s_lo, s_hi, eps, d_lo, gamma, n_cells, freeze_width
):
    """One interval search per demand cell, starting from the per-cell
    feasible sets (s_lo, s_hi] and precisions ``eps`` of a
    :class:`~eqprice.policy_demand.DemandPolicyState`, each cell priced at
    the low end of its set. The inputs are not modified. Returns
    (price, s_lo, s_hi, cell_price, eps, shrinks): the price path and the
    final per-cell state in the order of the state's fields."""
    n = fam.shape[0]
    T = demands.shape[0]
    price = np.empty(T)

    s_lo = s_lo.copy()
    s_hi = s_hi.copy()
    cell_price = s_lo.copy()
    cell_eps = eps.copy()
    shrinks = 0

    for t in range(T):
        d = demands[t]
        k = int((d - d_lo) / gamma)
        if k < 0:
            k = 0
        if k >= n_cells:
            k = n_cells - 1
        p = cell_price[k]
        price[t] = p
        if s_hi[k] - s_lo[k] <= freeze_width:
            continue

        tot = 0.0
        for i in range(n):
            if fam[i] == FAMILY_QUADRATIC:
                x = (p - param2[i]) / param1[i]
                if x < 0.0:
                    x = 0.0
            else:
                x = param2[i] if p >= param1[i] else 0.0
            tot += x
        a_k = d_lo + k * gamma
        if tot >= a_k:
            s_lo[k] = p - cell_eps[k]
            s_hi[k] = p
            cell_price[k] = p - cell_eps[k]
            cell_eps[k] = cell_eps[k] * cell_eps[k]
            shrinks += 1
        else:
            nxt = p + cell_eps[k]
            cell_price[k] = 1.0 if nxt > 1.0 else nxt

    return price, s_lo, s_hi, cell_price, cell_eps, shrinks


def _contextual_trajectory(member_u, log_w0, eta, u_true, demands, uniforms, grid, gamma):
    """Inverse-gap-weighted sampling driven by the exponential-weights
    oracle, which observes production p_t * u_true[t]: returns (arm, price,
    proxy, forecast_loss, final log-weights, cumulative member losses)."""
    F = member_u.shape[0]
    T = u_true.shape[0]
    K = grid.shape[0]

    arm_idx = np.empty(T, dtype=np.int64)
    price = np.empty(T)
    proxy = np.empty(T)
    forecast_loss = np.empty(T)

    lw = log_w0.copy()
    cum_member_loss = np.zeros(F)
    w = np.empty(F)
    gaps = np.empty(K)
    probs = np.empty(K)

    for t in range(T):
        d = demands[t]
        u_t = u_true[t]

        # current weights and mixture coefficient
        m = lw[0]
        for i in range(1, F):
            if lw[i] > m:
                m = lw[i]
        s = 0.0
        for i in range(F):
            w[i] = np.exp(lw[i] - m)
            s += w[i]
        c_hat = 0.0
        for i in range(F):
            c_hat += (w[i] / s) * member_u[i, t]

        # mismatch gaps over the grid, relative to the greedy price
        gmin = np.inf
        for j in range(K):
            g = grid[j] * c_hat - d
            if g < 0.0:
                g = -g
            gaps[j] = g
            if g < gmin:
                gmin = g
        for j in range(K):
            gaps[j] -= gmin

        # normalization constant: bisection on [1, K]
        lo = 1.0
        hi = float(K)
        lam = hi
        for _ in range(200):
            lam = 0.5 * (lo + hi)
            ssum = 0.0
            for j in range(K):
                ssum += 1.0 / (lam + 2.0 * gamma * gaps[j])
            diff = ssum - 1.0
            if -1e-12 <= diff <= 1e-12:
                break
            if ssum > 1.0:
                lo = lam
            else:
                hi = lam
        psum = 0.0
        for j in range(K):
            probs[j] = 1.0 / (lam + 2.0 * gamma * gaps[j])
            psum += probs[j]

        # inverse-CDF sample with the pre-drawn uniform
        u_draw = uniforms[t]
        arm = K - 1
        acc = 0.0
        for j in range(K):
            acc += probs[j] / psum
            if u_draw <= acc:
                arm = j
                break

        p_t = grid[arm]
        x = p_t * u_t
        arm_idx[t] = arm
        price[t] = p_t

        # exact expected mismatch under the sampling distribution
        e = 0.0
        for j in range(K):
            g = grid[j] * u_t - d
            if g < 0.0:
                g = -g
            e += (probs[j] / psum) * g
        proxy[t] = e

        # oracle: score the pre-update prediction, then decay weights
        f_hat = p_t * c_hat
        forecast_loss[t] = (f_hat - x) * (f_hat - x)
        mx = -np.inf
        for i in range(F):
            pred = p_t * member_u[i, t]
            loss = (pred - x) * (pred - x)
            cum_member_loss[i] += loss
            lw[i] -= eta * loss
            if lw[i] > mx:
                mx = lw[i]
        zs = 0.0
        for i in range(F):
            zs += np.exp(lw[i] - mx)
        log_z = mx + np.log(zs)
        for i in range(F):
            lw[i] -= log_z

    return arm_idx, price, proxy, forecast_loss, lw, cum_member_loss


_fixed_trajectory_jit = compile_kernel(_fixed_trajectory)
_demand_trajectory_jit = compile_kernel(_demand_trajectory)
_contextual_trajectory_jit = compile_kernel(_contextual_trajectory)


def fixed_trajectory(*args):
    if active_backend() == "numba":
        return _fixed_trajectory_jit(*args)
    return _fixed_trajectory(*args)


def demand_trajectory(*args):
    if active_backend() == "numba":
        return _demand_trajectory_jit(*args)
    return _demand_trajectory(*args)


def contextual_trajectory(*args):
    if active_backend() == "numba":
        return _contextual_trajectory_jit(*args)
    return _contextual_trajectory(*args)


def encode_suppliers(suppliers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack quadratic/linear suppliers into (family, param1, param2) arrays."""
    fam = np.empty(len(suppliers), dtype=np.int64)
    p1 = np.empty(len(suppliers))
    p2 = np.empty(len(suppliers))
    for i, s in enumerate(suppliers):
        if s.family == "quadratic":
            fam[i] = FAMILY_QUADRATIC
            p1[i] = s.mu
            p2[i] = s.a
        elif s.family == "linear":
            fam[i] = FAMILY_LINEAR
            p1[i] = s.c
            p2[i] = s.cap
        else:
            raise ValueError(
                "trajectory kernels encode quadratic and linear suppliers; "
                "contextual instances use the contextual kernel"
            )
    return fam, p1, p2
