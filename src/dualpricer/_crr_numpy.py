"""Vectorized binomial backward-induction kernel.

The only induction kernel; ``lattice`` calls it once per tree.  Each step
is one numpy slice update over the surviving nodes.
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
    for i in range(steps - 1, -1, -1):
        values = discount * (p * values[1 : i + 2] + q * values[: i + 1])
        prices = prices[: i + 1] * up
        if american:
            values = np.maximum(values, sign * (prices - strike))
        if i <= 2:
            low[i] = values
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
