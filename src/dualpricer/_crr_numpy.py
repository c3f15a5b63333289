"""Vectorized binomial backward-induction kernel.

The only induction kernel; ``lattice`` calls it once per group of trees
that share their up factor, step count and exercise style.  A group of B
trees is one ``(N+1, B)`` array: row j holds node j of every tree, and
column b is tree b.  Each tree brings its own spot, strike, right,
up-probability and step discount, so a put and the call on its swapped
problem, which share vol and maturity and hence up, are one group.  The
per-tree scalars are ``(B,)`` rows.  The rows that the step loop reads
(p, 1 - p, the discount and, for American trees, the strike) are copied
onto every row of an ``(N, B)`` array, because a ufunc that broadcasts a
short row runs one inner loop per row and measured slower than one
contiguous loop, at B = 1 too.  Every operation is elementwise or a shift
by whole rows, so no column ever reads another, and each tree gets the
same floats as when it is induced alone.  Tree b's node j starts at
up^(2j - N) spot_b, the same product as for a single tree.

The payoff is max(sign_b (price - strike_b), 0), with sign +1 for a call
and -1 for a put.  American trees then negate the prices and the strike
of their put columns once.  Negation is exact, so a put column's exercise
value ``price - strike`` is then fl(K - S) to the bit, with +0 where S = K,
and its prices keep their bits under ``* up``; one subtraction serves
both rights.

Each step updates the surviving nodes in place: the value, price and
strike arrays and one work array are allocated once per call, and every
step writes into them through ``out=`` ufuncs, in the same float
operations and order as a step that allocates its results,
discount * (p * v_up + (1 - p) * v).  The work array holds the up-move
continuation values, then the exercise values.  European trees skip the
node prices after the payoff, because only the early-exercise comparison
reads them.

A call is bound by the fixed cost of each ufunc call, not by its nodes, so
the step loop keeps that cost down, and batching B trees pays that cost
once instead of B times.  The steps run in chunks of ``_CHUNK``, and each
chunk takes its array views once, at the width of its first step; later
steps of the chunk also update the nodes above the live ones.  Those nodes
are dead: a live node at step i reads only nodes <= i + 1, which were
live at step i + 1, so a dead value never reaches a live one, and every
live node gets the same floats as in a loop that slices each step.  Dead
prices keep growing by ``up`` and may overflow, and dead values may turn
into inf or NaN, so the loop runs with float warnings off.  A live
overflow is not lost: it reaches the root as inf or NaN, and ``lattice``
rejects any output that is not finite.
"""

import numpy as np

# Steps per chunk of fixed views; 16 to 128 measured the same.
_CHUNK = 64


def induct(spots, strikes, up, prob_ups, discounts, steps, is_calls, american):
    """Backward induction over B recombining trees that share up and steps.

    ``spots``, ``strikes``, ``prob_ups``, ``discounts`` and ``is_calls`` are
    equal-length tuples, one entry per tree; ``up``, ``steps`` and
    ``american`` are shared.  Returns one tuple per tree of its six node
    values (v00, v10, v11, v20, v21, v22) at steps 0, 1, and 2, nodes
    ordered bottom to top.  The step-2 slots are NaN when steps < 2.  An
    output may be inf or NaN where a node value leaves the float range;
    the caller checks.
    """
    width = len(spots)
    sign = np.where(is_calls, 1.0, -1.0)
    j = np.arange(steps + 1)
    prices = (up ** (2.0 * j - steps))[:, None] * np.array(spots, dtype=float)
    strike = np.array(strikes, dtype=float)
    values = np.maximum(sign * (prices - strike), 0.0)
    low = {}
    if steps <= 2:
        low[steps] = values.copy()
    work = np.empty((steps, width))
    p, q, discount = np.empty_like(work), np.empty_like(work), np.empty_like(work)
    p[...] = prob_ups
    np.subtract(1.0, p, out=q)
    discount[...] = discounts
    up = np.array(up)
    if american:
        prices *= sign
        strike_rows = np.empty_like(work)
        strike_rows[...] = sign * strike
    multiply, add, subtract, maximum = np.multiply, np.add, np.subtract, np.maximum
    with np.errstate(all="ignore"):
        for top in range(steps, 0, -_CHUNK):
            v = values[:top]
            v_up = values[1 : top + 1]
            w = work[:top]
            pv, qv, dv = p[:top], q[:top], discount[:top]
            s = prices[:top]
            k = strike_rows[:top] if american else None
            for i in range(top - 1, max(top - _CHUNK, 0) - 1, -1):
                multiply(pv, v_up, out=w)
                multiply(qv, v, out=v)
                add(w, v, out=v)
                multiply(dv, v, out=v)
                if american:
                    multiply(s, up, out=s)
                    # The exercise value differs from sign * (prices - strike)
                    # only in the sign of a zero, which np.maximum never picks
                    # over a held value >= 0.
                    subtract(s, k, out=w)
                    maximum(v, w, out=v)
                if i <= 2:
                    low[i] = v[: i + 1].copy()
    v2 = low.get(2, np.full((3, width), np.nan))
    v1 = low[1] if steps >= 1 else np.full((2, width), np.nan)
    rows = (low[0][0], v1[0], v1[1], v2[0], v2[1], v2[2])
    return tuple(zip(*(row.tolist() for row in rows)))
