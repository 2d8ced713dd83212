"""Per-period policy steps and the fused loops that run them over a horizon.

Each policy's arithmetic exists once, here, as small step functions on
Python floats and lists: ``supply`` (the aggregate best response), the
interval tracker (``fixed_*``), the demand grid (``cell_index``,
``demand_update``) and IGW sampling with its exponential-weights oracle
(``mixture_coefficient`` through ``exp_weights_update``). The
``*_trajectory`` loops call them period by period, reading one period of
their array inputs at a time, and the step-level API
(:mod:`eqprice.policy_fixed`, :mod:`eqprice.policy_demand`,
:mod:`eqprice.policy_contextual`, :mod:`eqprice.oracle`) converts its
frozen states to lists and calls the same steps.

The steps run as plain Python, so they avoid numpy-scalar indexing and
arithmetic, which costs the interpreter several times more than the same
IEEE-754 operation on Python floats. Every sum runs left to right with
``+=`` (the built-in ``sum`` compensates on Python 3.12 and later), and
the transcendental calls are ``np.exp``/``np.log`` converted to Python
floats, not ``math``'s, which can round differently in the last bit.

A loop returns the posted price path, the final policy state and its
counters (the contextual loop also the arms, the expected mismatch
``proxy`` and the oracle's losses) as numpy arrays and numbers;
:mod:`eqprice.market` computes production and regret from the price path.
Argument and result positions are a fixed interface: ``perfbench/tracer.py``
reads some of them by index.

Supplier encoding: family code 0 = quadratic with (param1, param2) =
(mu, a); family code 1 = linear with (param1, param2) = (c, cap).

Randomness never originates inside a kernel: uniform draws are generated
by the harness and passed in as arrays, which keeps trajectories
reproducible.
"""

from __future__ import annotations

import numpy as np

FAMILY_QUADRATIC = 0
FAMILY_LINEAR = 1


def supply(fam, param1, param2, p):
    """Aggregate best response at price ``p``, summed in supplier order:
    max(0, (p - a)/mu) per quadratic supplier, cap at or above c else 0
    per linear one."""
    tot = 0.0
    for f, c1, c2 in zip(fam, param1, param2):
        if f == FAMILY_QUADRATIC:
            x = (p - c2) / c1
            if x < 0.0:
                x = 0.0
        else:
            x = c2 if p >= c1 else 0.0
        tot += x
    return tot


def fixed_start(T):
    """Fresh tracker state (a, b, eps, cursor, frozen, shrinks, resets):
    [0, 1] with eps = 1/2, already frozen when 1 <= 1/T."""
    return 0.0, 1.0, 0.5, 0, 1.0 <= 1.0 / T, 0, 0


def fixed_offer(a, b, eps, cursor, frozen):
    """Price to post: min(a + cursor*eps, b), or a once frozen."""
    if frozen:
        return a
    p = a + cursor * eps
    return b if p > b else p


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


def cell_index(d, d_lo, gamma, n_cells):
    """0-based cell of demand ``d``: floor((d - d_lo)/gamma), clamped to
    [0, n_cells - 1]."""
    k = int((d - d_lo) / gamma)
    if k < 0:
        k = 0
    if k >= n_cells:
        k = n_cells - 1
    return k


def demand_update(s_lo, s_hi, cell_price, eps, k, total, d_lo, gamma):
    """Update unfrozen cell ``k`` of the per-cell lists in place after
    production ``total`` at its price p; returns 1 if it shrank, else 0.
    Production at or above the cell's lower demand bound d_lo + k*gamma
    shrinks its set to (p - eps, p], moves the price to p - eps and squares
    eps; otherwise the price probes up by eps, clamped at 1."""
    p = cell_price[k]
    e = eps[k]
    if total >= d_lo + k * gamma:
        s_lo[k] = p - e
        s_hi[k] = p
        cell_price[k] = p - e
        eps[k] = e * e
        return 1
    nxt = p + e
    cell_price[k] = 1.0 if nxt > 1.0 else nxt
    return 0


def oracle_weights(lw):
    """The normalised weights exp(lw - max lw) / sum, as a list."""
    m = max(lw)
    w = [float(np.exp(x - m)) for x in lw]
    s = 0.0
    for x in w:
        s += x
    return [x / s for x in w]


def mixture_coefficient(lw, u):
    """The oracle's production coefficient sum_i w_i u_i for log-weights
    ``lw`` and member coefficients ``u`` (production at p = 1); the oracle
    predicts p times it."""
    c_hat = 0.0
    for wi, ui in zip(oracle_weights(lw), u):
        c_hat += wi * ui
    return c_hat


def igw_gaps(estimates, d):
    """Each price's mismatch |estimate - d| above the smallest one (the
    greedy price's), as a list."""
    gaps = [abs(e - d) for e in estimates]
    gmin = min(gaps)
    return [g - gmin for g in gaps]


def igw_probs(gaps, gamma):
    """(probs, lam): the list 1/(lam + 2*gamma*gap_j), renormalised to sum
    1, and lam, the root of g(lam) = sum_j 1/(lam + 2*gamma*gap_j) - 1.

    With min(gaps) == 0, g is convex and decreasing with g(1) >= 0 and
    g(K) <= 0. Newton's method from lam = 1 therefore rises monotonically
    to the root without overshooting; the cap at K only absorbs rounding.
    It stops once g(lam) <= 1e-12, after still taking the step computed
    there (free, and it brings lam to the root at machine precision), or
    when a step no longer increases lam, or after 100 steps."""
    K = len(gaps)
    g2 = 2.0 * gamma
    # (2*gamma)*gap_j is the same product on every iteration
    h = [g2 * g for g in gaps]
    lam = 1.0
    for _ in range(100):
        ssum = 0.0
        slope = 0.0  # -g'(lam)
        for hj in h:
            q = 1.0 / (lam + hj)
            ssum += q
            slope += q * q
        diff = ssum - 1.0
        nxt = min(lam + diff / slope, float(K))
        if nxt <= lam:
            break
        lam = nxt
        if diff <= 1e-12:
            break
    probs = [1.0 / (lam + hj) for hj in h]
    psum = 0.0
    for q in probs:
        psum += q
    return [q / psum for q in probs], lam


def sample_arm(probs, u):
    """Inverse-CDF draw: the smallest index whose cumulative probability
    covers ``u``, or the last index."""
    acc = 0.0
    for j, q in enumerate(probs):
        acc += q
        if u <= acc:
            return j
    return len(probs) - 1


def exp_weights_update(lw, cum_member_loss, u, c_hat, p, x, eta):
    """Fold observation ``x`` at price ``p`` into the oracle's lists in
    place: each member's squared error (p*u_i - x)^2 is added to
    ``cum_member_loss`` and decays its log-weight by eta times the error,
    then ``lw`` is renormalised in log space. Returns the squared error of
    the pre-update forecast p * c_hat."""
    f_hat = p * c_hat
    for i, ui in enumerate(u):
        pred = p * ui
        loss = (pred - x) * (pred - x)
        cum_member_loss[i] += loss
        lw[i] -= eta * loss
    mx = max(lw)
    zs = 0.0
    for v in lw:
        zs += float(np.exp(v - mx))
    log_z = mx + float(np.log(zs))
    lw[:] = [v - log_z for v in lw]
    return (f_hat - x) * (f_hat - x)


def fixed_trajectory(fam, param1, param2, d, T):
    """Interval tracking at constant demand ``d``: returns
    (price, a, b, eps, frozen, shrinks, resets)."""
    fam, param1, param2 = fam.tolist(), param1.tolist(), param2.tolist()
    d = float(d)
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


def demand_trajectory(
    fam, param1, param2, demands, s_lo, s_hi, eps, d_lo, gamma, n_cells, freeze_width
):
    """One interval search per demand cell from the sets (s_lo, s_hi] and
    precisions ``eps`` of a :class:`~eqprice.policy_demand.DemandPolicyState`
    (left unmodified), each cell priced at s_lo as in a fresh state: returns
    (price, s_lo, s_hi, cell_price, eps, shrinks)."""
    fam, param1, param2 = fam.tolist(), param1.tolist(), param2.tolist()
    d_lo, gamma, freeze_width = float(d_lo), float(gamma), float(freeze_width)
    T = demands.shape[0]
    price = np.empty(T)
    s_lo = s_lo.tolist()
    s_hi = s_hi.tolist()
    cell_price = list(s_lo)
    cell_eps = eps.tolist()
    shrinks = 0
    for t in range(T):
        k = cell_index(float(demands[t]), d_lo, gamma, n_cells)
        p = cell_price[k]
        price[t] = p
        if s_hi[k] - s_lo[k] > freeze_width:
            shrinks += demand_update(
                s_lo, s_hi, cell_price, cell_eps, k,
                supply(fam, param1, param2, p), d_lo, gamma,
            )
    return (
        price, np.array(s_lo), np.array(s_hi), np.array(cell_price), np.array(cell_eps),
        shrinks,
    )


def contextual_trajectory(member_u, log_w0, eta, u_true, demands, uniforms, grid, gamma):
    """Inverse-gap-weighted sampling driven by the exponential-weights
    oracle, which observes production p_t * u_true[t]: returns (arm, price,
    proxy, forecast_loss, final log-weights, cumulative member losses)."""
    T = u_true.shape[0]
    arm_idx = np.empty(T, dtype=np.int64)
    price = np.empty(T)
    proxy = np.empty(T)
    forecast_loss = np.empty(T)
    eta, gamma = float(eta), float(gamma)
    grid = grid.tolist()
    lw = log_w0.tolist()
    cum_member_loss = [0.0] * len(lw)
    for t in range(T):
        d = float(demands[t])
        ut = float(u_true[t])
        u = member_u[:, t].tolist()
        c_hat = mixture_coefficient(lw, u)
        probs = igw_probs(igw_gaps([g * c_hat for g in grid], d), gamma)[0]
        arm = sample_arm(probs, float(uniforms[t]))
        p_t = grid[arm]
        arm_idx[t] = arm
        price[t] = p_t
        # exact expected mismatch under the sampling distribution
        e = 0.0
        for q, g in zip(probs, grid):
            e += q * abs(g * ut - d)
        proxy[t] = e
        forecast_loss[t] = exp_weights_update(
            lw, cum_member_loss, u, c_hat, p_t, p_t * ut, eta
        )
    return arm_idx, price, proxy, forecast_loss, np.array(lw), np.array(cum_member_loss)


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
