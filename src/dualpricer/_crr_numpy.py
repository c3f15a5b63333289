"""Vectorized binomial backward-induction kernel.

The only induction kernel; ``lattice`` calls it once per tree.  Each step
updates the surviving nodes in place: the value and price arrays and one
work array are allocated once per tree, and every step writes into them
through ``out=`` ufuncs, in the same float operations and order as a step
that allocates its results.  The work array holds the up-move continuation
values, then the exercise values.  European trees skip the node prices
after the payoff, because only the early-exercise comparison reads them.
"""

import numpy as np

NAME = "numpy"


def induct(spot, strike, up, prob_up, discount, steps, is_call, american):
    """Backward induction over a recombining tree.

    Returns the six node values (v00, v10, v11, v20, v21, v22) at steps 0,
    1, and 2, nodes ordered bottom to top.  The step-2 slots are NaN when
    steps < 2.
    """
    sign = 1.0 if is_call else -1.0
    j = np.arange(steps + 1)
    prices = spot * up ** (2.0 * j - steps)
    values = np.maximum(sign * (prices - strike), 0.0)
    low = {}
    if steps <= 2:
        low[steps] = values.copy()
    p = prob_up
    q = 1.0 - prob_up
    work = np.empty(steps)
    for i in range(steps - 1, -1, -1):
        n = i + 1
        v = values[:n]
        w = work[:n]
        np.multiply(p, values[1 : n + 1], out=w)
        np.multiply(q, v, out=v)
        np.add(w, v, out=v)
        np.multiply(discount, v, out=v)
        if american:
            s = prices[:n]
            s *= up
            # The exercise value differs from sign * (prices - strike) only
            # in the sign of a zero, which np.maximum never picks over a
            # held value >= 0.
            if is_call:
                np.subtract(s, strike, out=w)
            else:
                np.subtract(strike, s, out=w)
            np.maximum(v, w, out=v)
        if i <= 2:
            low[i] = v.copy()
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
