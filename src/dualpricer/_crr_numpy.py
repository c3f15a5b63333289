"""Vectorized binomial backward-induction kernel.

The only induction kernel; ``lattice`` calls it once per tree.  Each step
updates the surviving nodes in place: the value and price arrays and one
work array are allocated once per tree, and every step writes into them
through ``out=`` ufuncs, in the same float operations and order as a step
that allocates its results.  The work array holds the up-move continuation
values, then the exercise values.  European trees skip the node prices
after the payoff, because only the early-exercise comparison reads them.

A single tree is bound by the fixed cost of each ufunc call, not by its
nodes, so the step loop keeps that cost down.  The scalars are 0-d arrays
made once per tree, so no call converts a Python float.  The steps run in
chunks of ``_CHUNK``, and each chunk takes its array views once, at the
width of its first step; later steps of the chunk also update the nodes
above the live ones.  Those nodes are dead: a live node at step i reads
only nodes <= i + 1, which were live at step i + 1, so a dead value never
reaches a live one, and every live node gets the same floats as in a loop
that slices each step.  Dead prices keep growing by ``up`` and may
overflow, and dead values may turn into inf or NaN, so the loop runs with
float warnings off.  A live overflow is not lost: it reaches the root as
inf or NaN, and ``lattice`` rejects any output that is not finite.
"""

import numpy as np

NAME = "numpy"

# Steps per chunk of fixed views; 16 to 128 measured the same.
_CHUNK = 64


def induct(spot, strike, up, prob_up, discount, steps, is_call, american):
    """Backward induction over a recombining tree.

    Returns the six node values (v00, v10, v11, v20, v21, v22) at steps 0,
    1, and 2, nodes ordered bottom to top.  The step-2 slots are NaN when
    steps < 2.  An output may be inf or NaN where a node value leaves the
    float range; the caller checks.
    """
    sign = 1.0 if is_call else -1.0
    j = np.arange(steps + 1)
    prices = spot * up ** (2.0 * j - steps)
    values = np.maximum(sign * (prices - strike), 0.0)
    low = {}
    if steps <= 2:
        low[steps] = values.copy()
    p = np.array(prob_up)
    q = np.array(1.0 - prob_up)
    discount = np.array(discount)
    up = np.array(up)
    strike = np.array(strike)
    work = np.empty(steps)
    with np.errstate(all="ignore"):
        for top in range(steps, 0, -_CHUNK):
            v = values[:top]
            v_up = values[1 : top + 1]
            w = work[:top]
            s = prices[:top]
            for i in range(top - 1, max(top - _CHUNK, 0) - 1, -1):
                np.multiply(p, v_up, out=w)
                np.multiply(q, v, out=v)
                np.add(w, v, out=v)
                np.multiply(discount, v, out=v)
                if american:
                    np.multiply(s, up, out=s)
                    # The exercise value differs from sign * (prices - strike)
                    # only in the sign of a zero, which np.maximum never picks
                    # over a held value >= 0.
                    if is_call:
                        np.subtract(s, strike, out=w)
                    else:
                        np.subtract(strike, s, out=w)
                    np.maximum(v, w, out=v)
                if i <= 2:
                    low[i] = v[: i + 1].copy()
    v2 = low.get(2, np.full(3, np.nan))
    v1 = low[1] if steps >= 1 else np.full(2, np.nan)
    return (
        float(low[0][0]),
        float(v1[0]),
        float(v1[1]),
        float(v2[0]),
        float(v2[1]),
        float(v2[2]),
    )
