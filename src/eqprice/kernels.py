"""Per-period policy steps and the fused loops that run them over a horizon.

Each policy's arithmetic exists once, here, as small numba-compatible step
functions (plain loops over preallocated arrays, no Python objects):
``supply`` (the aggregate best response), the interval tracker
(``fixed_*``), the demand grid (``cell_index``, ``demand_update``) and IGW
sampling with its exponential-weights oracle (``oracle_weights`` through
``exp_weights_update``). The ``*_trajectory`` loops call them period by
period, and the step-level API (:mod:`eqprice.policy_fixed`,
:mod:`eqprice.policy_demand`, :mod:`eqprice.policy_contextual`,
:mod:`eqprice.oracle`) wraps the same steps over frozen states. Steps and
loops are compiled with ``@njit`` when numba is available; the uncompiled
loops are the fallback path (see :mod:`eqprice.backend`).

A loop returns the posted price path, the final policy state and its
counters (the contextual loop also the arms, the expected mismatch
``proxy`` and the oracle's losses); :mod:`eqprice.harness` computes
production and regret from the price path. Argument and result positions
are a fixed interface: ``perfbench/tracer.py`` reads some of them by index.

Supplier encoding: family code 0 = quadratic with (param1, param2) =
(mu, a); family code 1 = linear with (param1, param2) = (c, cap).

Randomness never originates inside a kernel: uniform draws are generated
by the harness and passed in as arrays, which keeps trajectories
reproducible and backend-independent.
"""

from __future__ import annotations

import functools

import numpy as np

from .backend import active_backend, compile_kernel

FAMILY_QUADRATIC = 0
FAMILY_LINEAR = 1


@compile_kernel
def supply(fam, param1, param2, p):
    """Aggregate best response at price ``p``, summed in supplier order:
    max(0, (p - a)/mu) per quadratic supplier, cap at or above c else 0
    per linear one."""
    tot = 0.0
    for i in range(fam.shape[0]):
        if fam[i] == FAMILY_QUADRATIC:
            x = (p - param2[i]) / param1[i]
            if x < 0.0:
                x = 0.0
        else:
            x = param2[i] if p >= param1[i] else 0.0
        tot += x
    return tot


@compile_kernel
def fixed_start(T):
    """Fresh tracker state (a, b, eps, cursor, frozen, shrinks, resets):
    [0, 1] with eps = 1/2, already frozen when 1 <= 1/T."""
    return 0.0, 1.0, 0.5, 0, 1.0 <= 1.0 / T, 0, 0


@compile_kernel
def fixed_offer(a, b, eps, cursor, frozen):
    """Price to post: min(a + cursor*eps, b), or a once frozen."""
    if frozen:
        return a
    p = a + cursor * eps
    return b if p > b else p


@compile_kernel
def fixed_update(a, b, eps, cursor, shrinks, resets, p, total, d, T):
    """Tracker state (a, b, eps, cursor, frozen, shrinks, resets) after a
    searching tracker saw production ``total`` at its offer ``p``.

    Production >= d shrinks [a, b] to [previous offer, p], squares eps and
    freezes once b - a <= 1/T; less advances the cursor, or at p = b
    restarts the sub-phase, which exact best responses never cause and
    ``resets`` counts."""
    if total >= d:
        new_a = a if cursor == 0 else min(a + (cursor - 1) * eps, b)
        return new_a, p, eps * eps, 0, p - new_a <= 1.0 / T, shrinks + 1, resets
    if p >= b:
        return a, b, eps, 0, False, shrinks, resets + 1
    return a, b, eps, cursor + 1, False, shrinks, resets


@compile_kernel
def cell_index(d, d_lo, gamma, n_cells):
    """0-based cell of demand ``d``: floor((d - d_lo)/gamma), clamped to
    [0, n_cells - 1]."""
    k = int((d - d_lo) / gamma)
    if k < 0:
        k = 0
    if k >= n_cells:
        k = n_cells - 1
    return k


@compile_kernel
def demand_update(s_lo, s_hi, cell_price, eps, k, total, d_lo, gamma):
    """Update unfrozen cell ``k`` in place after production ``total`` at its
    price p; returns 1 if it shrank, else 0. Production at or above the
    cell's lower demand bound d_lo + k*gamma shrinks its set to
    (p - eps, p], moves the price to p - eps and squares eps; otherwise the
    price probes up by eps, clamped at 1."""
    p = cell_price[k]
    if total >= d_lo + k * gamma:
        s_lo[k] = p - eps[k]
        s_hi[k] = p
        cell_price[k] = p - eps[k]
        eps[k] = eps[k] * eps[k]
        return 1
    nxt = p + eps[k]
    cell_price[k] = 1.0 if nxt > 1.0 else nxt
    return 0


@compile_kernel
def oracle_weights(lw, w):
    """Write the normalised weights exp(lw - max lw) / sum into ``w``."""
    m = lw.max()
    s = 0.0
    for i in range(lw.shape[0]):
        w[i] = np.exp(lw[i] - m)
        s += w[i]
    for i in range(lw.shape[0]):
        w[i] = w[i] / s


@compile_kernel
def mixture_coefficient(lw, u, w):
    """The oracle's production coefficient sum_i w_i u_i for member
    coefficients ``u`` (production at p = 1); the oracle predicts p times
    it. Leaves the normalised weights in ``w``."""
    oracle_weights(lw, w)
    c_hat = 0.0
    for i in range(lw.shape[0]):
        c_hat += w[i] * u[i]
    return c_hat


@compile_kernel
def igw_gaps(estimates, d, gaps):
    """Write into ``gaps`` each price's mismatch |estimate - d| above the
    smallest one (the greedy price's)."""
    for j in range(estimates.shape[0]):
        gaps[j] = abs(estimates[j] - d)
    gmin = gaps.min()
    for j in range(estimates.shape[0]):
        gaps[j] -= gmin


@compile_kernel
def igw_probs(gaps, gamma, probs):
    """Write 1/(lam + 2*gamma*gap_j), renormalised to sum 1, into ``probs``
    and return lam. With min(gaps) == 0 the unnormalised sum decreases in
    lam from >= 1 at lam = 1 to <= 1 at lam = K: bisection finds its root."""
    K = gaps.shape[0]
    g2 = 2.0 * gamma  # 2*gamma*gap evaluates as (2*gamma)*gap
    lo = 1.0
    hi = float(K)
    lam = hi
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        ssum = 0.0
        for j in range(K):
            ssum += 1.0 / (lam + g2 * gaps[j])
        diff = ssum - 1.0
        if -1e-12 <= diff <= 1e-12:
            break
        if ssum > 1.0:
            lo = lam
        else:
            hi = lam
    psum = 0.0
    for j in range(K):
        probs[j] = 1.0 / (lam + g2 * gaps[j])
        psum += probs[j]
    for j in range(K):
        probs[j] = probs[j] / psum
    return lam


@compile_kernel
def sample_arm(probs, u):
    """Inverse-CDF draw: the smallest index whose cumulative probability
    covers ``u``, or the last index."""
    acc = 0.0
    for j in range(probs.shape[0]):
        acc += probs[j]
        if u <= acc:
            return j
    return probs.shape[0] - 1


@compile_kernel
def exp_weights_update(lw, cum_member_loss, u, c_hat, p, x, eta):
    """Fold observation ``x`` at price ``p`` into the oracle in place: each
    member's squared error (p*u_i - x)^2 is added to ``cum_member_loss``
    and decays its log-weight by eta times the error, then ``lw`` is
    renormalised in log space. Returns the squared error of the pre-update
    forecast p * c_hat."""
    f_hat = p * c_hat
    for i in range(lw.shape[0]):
        pred = p * u[i]
        loss = (pred - x) * (pred - x)
        cum_member_loss[i] += loss
        lw[i] -= eta * loss
    mx = lw.max()
    zs = 0.0
    for i in range(lw.shape[0]):
        zs += np.exp(lw[i] - mx)
    log_z = mx + np.log(zs)
    for i in range(lw.shape[0]):
        lw[i] -= log_z
    return (f_hat - x) * (f_hat - x)


def _fixed_trajectory(fam, param1, param2, d, T):
    """Interval tracking at constant demand ``d``: returns
    (price, a, b, eps, frozen, shrinks, resets)."""
    price = np.empty(T)
    a, b, eps, cursor, frozen, shrinks, resets = fixed_start(T)
    for t in range(T):
        p = fixed_offer(a, b, eps, cursor, frozen)
        if frozen:
            price[t:] = p
            break
        price[t] = p
        a, b, eps, cursor, frozen, shrinks, resets = fixed_update(
            a, b, eps, cursor, shrinks, resets, p, supply(fam, param1, param2, p), d, T
        )
    return price, a, b, eps, frozen, shrinks, resets


def _demand_trajectory(
    fam, param1, param2, demands, s_lo, s_hi, eps, d_lo, gamma, n_cells, freeze_width
):
    """One interval search per demand cell from the sets (s_lo, s_hi] and
    precisions ``eps`` of a :class:`~eqprice.policy_demand.DemandPolicyState`
    (left unmodified), each cell priced at s_lo as in a fresh state: returns
    (price, s_lo, s_hi, cell_price, eps, shrinks)."""
    T = demands.shape[0]
    price = np.empty(T)
    s_lo = s_lo.copy()
    s_hi = s_hi.copy()
    cell_price = s_lo.copy()
    cell_eps = eps.copy()
    shrinks = 0
    for t in range(T):
        k = cell_index(demands[t], d_lo, gamma, n_cells)
        p = cell_price[k]
        price[t] = p
        if s_hi[k] - s_lo[k] > freeze_width:
            shrinks += demand_update(
                s_lo, s_hi, cell_price, cell_eps, k,
                supply(fam, param1, param2, p), d_lo, gamma,
            )
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
        u = member_u[:, t]
        c_hat = mixture_coefficient(lw, u, w)
        igw_gaps(grid * c_hat, d, gaps)
        igw_probs(gaps, gamma, probs)
        arm = sample_arm(probs, uniforms[t])
        p_t = grid[arm]
        arm_idx[t] = arm
        price[t] = p_t
        # exact expected mismatch under the sampling distribution
        e = 0.0
        for j in range(K):
            e += probs[j] * abs(grid[j] * u_true[t] - d)
        proxy[t] = e
        forecast_loss[t] = exp_weights_update(
            lw, cum_member_loss, u, c_hat, p_t, p_t * u_true[t], eta
        )
    return arm_idx, price, proxy, forecast_loss, lw, cum_member_loss


def _dispatch(loop):
    """The loop on the active backend: jitted when it is ``numba``."""
    jitted = compile_kernel(loop)

    @functools.wraps(loop)
    def run(*args):
        return jitted(*args) if active_backend() == "numba" else loop(*args)

    return run


fixed_trajectory = _dispatch(_fixed_trajectory)
demand_trajectory = _dispatch(_demand_trajectory)
contextual_trajectory = _dispatch(_contextual_trajectory)


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
