"""Array fast path for non-reactive runs.

`run_rounds` replays the exact decide/feedback/advance arithmetic of
`VerificationPolicy` over pre-drawn score, label, and exploration-uniform
arrays. The float expressions are written in the same shapes as the engine
so results agree bitwise; the uniform pool is consumed cursor-wise and only
on decisive rounds, matching the engine's one-draw-per-decisive-round
usage. Integer codes: region/action 0=accept, 1=reject, 2=uncertain or
strong-verify; g_observed is -1 on rounds without a strong query.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


REGION_ACCEPT = 0
REGION_REJECT = 1
REGION_UNCERTAIN = 2
ACTION_ACCEPT = 0
ACTION_REJECT = 1
ACTION_STRONG_VERIFY = 2


def kernel_backend() -> str:
    """Which path `run_rounds` takes: "numba" (compiled) or "python"."""
    return "numba" if _HAVE_NUMBA else "python"


@njit(cache=True)
def run_rounds(
    w,
    g,
    u,
    alpha,
    beta,
    eta,
    q_accept,
    q_reject,
    tau_reject_init,
    tau_accept_init,
):
    T = w.shape[0]
    region = np.empty(T, np.int64)
    action = np.empty(T, np.int64)
    q_arr = np.empty(T, np.float64)
    explored = np.zeros(T, np.bool_)
    g_observed = np.full(T, -1, np.int64)
    tau_r_before = np.empty(T, np.float64)
    tau_a_before = np.empty(T, np.float64)
    tau_r_after = np.empty(T, np.float64)
    tau_a_after = np.empty(T, np.float64)
    tr = tau_reject_init
    ta = tau_accept_init
    cursor = 0
    for t in range(T):
        tau_r_before[t] = tr
        tau_a_before[t] = ta
        wt = w[t]
        if wt > ta:
            reg = REGION_ACCEPT
        elif wt < tr:
            reg = REGION_REJECT
        else:
            reg = REGION_UNCERTAIN
        region[t] = reg
        if reg == REGION_UNCERTAIN:
            q = 1.0
            expl = False
            sv = True
        else:
            q = q_accept if reg == REGION_ACCEPT else q_reject
            expl = u[cursor] < q
            cursor += 1
            sv = expl
        q_arr[t] = q
        explored[t] = expl
        if sv:
            action[t] = ACTION_STRONG_VERIFY
            gt = g[t]
            g_observed[t] = gt
            ind_a = 1.0 if wt > ta else 0.0
            gate0 = 1.0 if gt == 0 else 0.0
            new_a = ta + eta * (gate0 * (ind_a - alpha)) / q
            if new_a < tr:
                new_a = tr
            ind_r = 1.0 if wt < tr else 0.0
            gate1 = 1.0 if gt == 1 else 0.0
            new_r = tr + eta * (gate1 * (beta - ind_r)) / q
            if new_r > new_a:
                new_r = new_a
            ta = new_a
            tr = new_r
        else:
            action[t] = reg
        tau_r_after[t] = tr
        tau_a_after[t] = ta
    return (
        region,
        action,
        q_arr,
        explored,
        g_observed,
        tau_r_before,
        tau_a_before,
        tau_r_after,
        tau_a_after,
        cursor,
    )
