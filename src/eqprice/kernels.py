"""Per-period policy steps and the fused loops that run them over a horizon.

Each policy's arithmetic exists once, here, as small step functions on
Python floats and lists: ``supply`` (the aggregate best response), the
interval tracker (``fixed_*``), the demand grid (``cell_index``,
``demand_probe``, ``demand_update``) and IGW sampling with its
exponential-weights oracle (``mixture_coefficient`` through
``exp_weights_update``). The ``*_trajectory`` loops run them over a
horizon, and the step-level API (:mod:`eqprice.policy_fixed`,
:mod:`eqprice.policy_demand`, :mod:`eqprice.policy_contextual`,
:mod:`eqprice.oracle`) converts its frozen states to lists and calls the
same steps.

The contextual loop calls the steps period by period. The two trackers
skip most periods instead. Between two shrinks, a tracker's searching
periods are a monotone probe: the offers p_0 <= p_1 <= ... only rise, and
the shrink that ends the probe fires at the first offer whose production
covers the demand bound. Whether period j fires is therefore monotone in
j, because every map between the probe index and that test is
nondecreasing under IEEE rounding: c * eps, a + x, min(x, b) and p + e
clamped at 1 for the offers; (p - a_i)/mu_i with mu_i > 0, max(0, x), the
linear supplier's step and the left-to-right sum for production.
:func:`_first_event` finds the firing period by galloping search in
O(log j) production evaluations. The periods before it post the offers the
steps compute, and the step itself runs at it, so the price path, the
final state and the counters are the ones a period-by-period loop gives,
bit for bit.

The steps run as plain Python, so they avoid numpy-scalar indexing and
arithmetic, which costs the interpreter several times more than the same
IEEE-754 operation on Python floats. The exceptions are the two tracker
steps the fused loops call on whole arrays, :func:`fixed_offer` (a probe
run) and :func:`cell_index` (a demand path); at one value each returns the
array entry's bits as a Python float or int. ``supply`` stays a float twin
of :func:`eqprice.market.aggregate_production`, pinned to it by a test: the
gallop calls it at one price per probe, where it is over ten times faster
(1 against 14 µs for two suppliers; Xeon core, Python 3.11, numpy 2.4).
Every sum runs left to right with ``+=`` (the built-in ``sum`` compensates
on Python 3.12 and later), and the transcendental calls are
``np.exp``/``np.log`` converted to Python floats, not ``math``'s, which can
round differently in the last bit.

A loop returns a named tuple (:class:`FixedResult`, :class:`DemandResult`,
:class:`ContextualResult`) of the posted price path, the final policy state
and its counters (the contextual loop also the arms, the expected mismatch
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

from typing import NamedTuple

import numpy as np

FAMILY_QUADRATIC = 0
FAMILY_LINEAR = 1


class FixedResult(NamedTuple):
    """:func:`fixed_trajectory`'s price path and final tracker state."""

    price: np.ndarray
    a: float
    b: float
    eps: float
    frozen: bool
    shrinks: int
    resets: int


class DemandResult(NamedTuple):
    """:func:`demand_trajectory`'s price path and final per-cell state."""

    price: np.ndarray
    s_lo: np.ndarray
    s_hi: np.ndarray
    cell_price: np.ndarray
    eps: np.ndarray
    shrinks: int


class ContextualResult(NamedTuple):
    """:func:`contextual_trajectory`'s per-period arms, prices, expected
    mismatch and forecast loss, and the oracle's final state."""

    arm: np.ndarray
    price: np.ndarray
    proxy: np.ndarray
    forecast_loss: np.ndarray
    log_weights: np.ndarray
    cum_member_loss: np.ndarray


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
    """Price to post: min(a + cursor*eps, b), or a once frozen; a float at
    one cursor, an array at an array of cursors (a probe run), each entry
    the one-cursor offer bit for bit."""
    if frozen:
        return a
    cursors = np.asarray(cursor)
    p = np.minimum(a + cursors * eps, b)
    return p if cursors.ndim else float(p)


def fixed_update(a, b, eps, cursor, shrinks, resets, p, total, d, T):
    """Tracker state (a, b, eps, cursor, frozen, shrinks, resets) after a
    searching tracker saw production ``total`` at its offer ``p``.

    Production >= d shrinks [a, b] to [previous offer, p], squares eps and
    freezes once b - a <= 1/T; less advances the cursor, or at p = b
    restarts the sub-phase, which exact best responses never cause and
    ``resets`` counts."""
    if total >= d:
        new_a = a if cursor == 0 else fixed_offer(a, b, eps, cursor - 1, False)
        return new_a, p, eps * eps, 0, p - new_a <= 1.0 / T, shrinks + 1, resets
    if p >= b:
        return a, b, eps, 0, False, shrinks, resets + 1
    return a, b, eps, cursor + 1, False, shrinks, resets


def cell_index(d, d_lo, gamma, n_cells):
    """0-based cell of demand ``d``: floor((d - d_lo)/gamma), clamped to
    [0, n_cells - 1]; an int at one demand, an array at an array of demands
    (a demand path). Clamping before the cast keeps huge quotients in range.
    Raises ``ValueError`` on a non-finite demand, which has no cell."""
    demands = np.asarray(d, dtype=np.float64)
    if not np.isfinite(demands).all():
        raise ValueError("demands must be finite")
    k = np.clip((demands - d_lo) / gamma, 0.0, n_cells - 1).astype(np.int64)
    return k if demands.ndim else int(k)


def demand_probe(p, e):
    """A cell's next probe price after production fell short at ``p``:
    p + e, clamped at 1."""
    nxt = p + e
    return 1.0 if nxt > 1.0 else nxt


def demand_update(s_lo, s_hi, cell_price, eps, k, total, d_lo, gamma):
    """Update unfrozen cell ``k`` of the per-cell lists in place after
    production ``total`` at its price p; returns 1 if it shrank, else 0.
    Production at or above the cell's lower demand bound d_lo + k*gamma
    shrinks its set to (p - eps, p], moves the price to p - eps and squares
    eps; otherwise the price probes up (:func:`demand_probe`)."""
    p = cell_price[k]
    e = eps[k]
    if total >= d_lo + k * gamma:
        s_lo[k] = p - e
        s_hi[k] = p
        cell_price[k] = p - e
        eps[k] = e * e
        return 1
    cell_price[k] = demand_probe(p, e)
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


def _first_event(event, lo, hi):
    """The smallest j in [lo, hi] where ``event(j)`` holds, or ``None``, for
    a predicate monotone in j (false, ..., false, true, ...). Gallops from
    lo (lo, lo + 1, lo + 3, lo + 7, ...), then bisects the last gap, so it
    evaluates O(log(j - lo)) points (Bentley and Yao, 1976)."""
    known_false = lo - 1
    j = lo
    step = 1
    while not event(j):
        if j >= hi:
            return None
        known_false = j
        j = min(j + step, hi)
        step *= 2
    while j - known_false > 1:
        mid = (known_false + j) // 2
        if event(mid):
            j = mid
        else:
            known_false = mid
    return j


def fixed_trajectory(fam, param1, param2, d, T):
    """Interval tracking at constant demand ``d``: returns a
    :class:`FixedResult`. A demand that production
    at p = 1 does not cover raises ``ValueError``, so nothing resets: b is 1
    or an offer whose production covered d, and the offer at b shrinks.

    Within a sub-phase only the period that shrinks changes more than the
    cursor, and whether cursor c is that period is monotone in c (see the
    module docstring), so :func:`_first_event` finds it and the probes
    before it are priced by one :func:`fixed_offer` call on their cursors."""
    fam, param1, param2 = fam.tolist(), param1.tolist(), param2.tolist()
    d = float(d)
    if not supply(fam, param1, param2, 1.0) >= d:
        raise ValueError(f"production at p=1 falls short of the demand {d}")
    price = np.empty(T)
    a, b, eps, cursor, frozen, shrinks, resets = fixed_start(T)
    t = 0
    while t < T and not frozen:

        def event(c):
            # fixed_update's shrink test at cursor c
            return supply(fam, param1, param2, fixed_offer(a, b, eps, c, False)) >= d

        c = _first_event(event, cursor, cursor + T - 1 - t)
        stop = cursor + T - t if c is None else c
        price[t : t + stop - cursor] = fixed_offer(a, b, eps, np.arange(cursor, stop), False)
        t += stop - cursor
        if c is None:
            break
        p = fixed_offer(a, b, eps, c, False)
        price[t] = p
        t += 1
        a, b, eps, cursor, frozen, shrinks, resets = fixed_update(
            a, b, eps, c, shrinks, resets, p, supply(fam, param1, param2, p), d, T
        )
    price[t:] = fixed_offer(a, b, eps, cursor, frozen)
    return FixedResult(price, a, b, eps, frozen, shrinks, resets)


def demand_trajectory(
    fam, param1, param2, demands, s_lo, s_hi, eps, d_lo, gamma, n_cells, freeze_width
):
    """One interval search per demand cell from the sets (s_lo, s_hi] and
    precisions ``eps`` of a :class:`~eqprice.policy_demand.DemandPolicyState`
    (left unmodified), each cell priced at s_lo as in a fresh state: returns
    a :class:`DemandResult`. A non-finite demand raises ``ValueError``.

    Cells never interact and a cell's update never reads the demand, so
    each cell runs on its own visits in time order. Within a sub-phase the
    visits probe p, demand_probe(p, e), ... until production covers the
    cell's lower demand bound, which is monotone in the visit (see the
    module docstring); :func:`_first_event` finds that visit, building the
    probe run only as far as it looks."""
    fam, param1, param2 = fam.tolist(), param1.tolist(), param2.tolist()
    d_lo, gamma, freeze_width = float(d_lo), float(gamma), float(freeze_width)
    cells = cell_index(demands, d_lo, gamma, n_cells)
    price = np.empty(cells.shape[0])
    s_lo = s_lo.tolist()
    s_hi = s_hi.tolist()
    cell_price = list(s_lo)
    cell_eps = eps.tolist()
    shrinks = 0
    order = np.argsort(cells, kind="stable")
    bounds = [0] + np.cumsum(np.bincount(cells, minlength=n_cells)).tolist()
    for k in range(n_cells):
        visits = order[bounds[k] : bounds[k + 1]]
        n = visits.shape[0]
        threshold = d_lo + k * gamma
        v = 0
        while v < n and s_hi[k] - s_lo[k] > freeze_width:
            e = cell_eps[k]
            run = [cell_price[k]]

            def event(j):
                p = run[-1]
                for _ in range(j + 1 - len(run)):
                    p = demand_probe(p, e)
                    run.append(p)
                # demand_update's shrink test
                return supply(fam, param1, param2, run[j]) >= threshold

            j = _first_event(event, 0, n - 1 - v)
            if j is None:
                # the gallop reached the last visit, so the run covers it
                price[visits[v:]] = run[: n - v]
                cell_price[k] = demand_probe(run[n - v - 1], e)
                v = n
            else:
                price[visits[v : v + j + 1]] = run[: j + 1]
                cell_price[k] = run[j]  # where the probes before it left the price
                shrinks += demand_update(
                    s_lo, s_hi, cell_price, cell_eps, k,
                    supply(fam, param1, param2, run[j]), d_lo, gamma,
                )
                v += j + 1
        price[visits[v:]] = cell_price[k]
    return DemandResult(
        price, np.array(s_lo), np.array(s_hi), np.array(cell_price), np.array(cell_eps),
        shrinks,
    )


def contextual_trajectory(member_u, log_w0, eta, u_true, demands, uniforms, grid, gamma):
    """Inverse-gap-weighted sampling driven by the exponential-weights
    oracle, which observes production p_t * u_true[t]: returns a
    :class:`ContextualResult`."""
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
    return ContextualResult(
        arm_idx, price, proxy, forecast_loss, np.array(lw), np.array(cum_member_loss)
    )


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
