"""Array fast path for runs whose items do not depend on the decisions
(non-reactive streams, and task streams with a point-mass difficulty), and
the column derivation both paths share.

`run_rounds` replays the decide/feedback/advance protocol of
`VerificationPolicy` over pre-drawn score, label, and exploration-uniform
arrays, in one pure-Python loop call per block. The loop carries only what
is sequential: the threshold pair after each round and the exploration
flag. It reads the scores, the labels and the uniform pool, as two boolean
coins per uniform (below q_accept, below q_reject), through memoryviews,
one uniform per decisive round as the engine does, and stores the
thresholds and flags through memoryviews of the returned float64 and bool
arrays. The threshold update has one formula, `increments`: a run's six
increments, one per region and strong label, computed once per run.
`step`, which `VerificationPolicy.feedback` calls, and `_loop` apply its
table with the same projection, so results agree bitwise. The per-item
engine records the same sequential state round by round, and
`derive_columns` turns it into every other trace column with numpy for
both. Integer codes:
region/action 0=accept, 1=reject, 2=uncertain or strong-verify;
g_observed is -1 on rounds without a strong query.
"""

from __future__ import annotations

import numpy as np

REGION_ACCEPT = 0
REGION_REJECT = 1
REGION_UNCERTAIN = 2
ACTION_ACCEPT = 0
ACTION_REJECT = 1
ACTION_STRONG_VERIFY = 2

# The policy's block of exploration uniforms, and the rounds per chunk of a
# `simulate` or `check` run.
_CHUNK = 1 << 12


def increments(alpha, beta, eta, q_accept, q_reject):
    """The threshold increments of an escalated round, as
    `table[region][g] = (d_reject, d_accept)` for the region codes and the
    strong label g. A round in a region with escalation probability q moves
    the accept threshold by eta * 1[g=0] * (1[w > accept] - alpha) / q and
    the reject threshold by eta * 1[g=1] * (beta - 1[w < reject]) / q; the
    region fixes both indicators, since reject <= accept."""
    return tuple(
        tuple(
            (eta * (gate1 * (beta - ind_r)) / q, eta * ((1.0 - gate1) * (ind_a - alpha)) / q)
            for gate1 in (0.0, 1.0)
        )
        for ind_a, ind_r, q in ((1.0, 0.0, q_accept), (0.0, 1.0, q_reject), (0.0, 0.0, 1.0))
    )


def step(tr, ta, w, g, table):
    """Thresholds after an escalated round with score w and strong label g,
    by the `increments` table of the run. The accept threshold moves first;
    the reject update then projects against the new accept value,
    preserving reject <= accept."""
    if w > ta:
        d_r, d_a = table[REGION_ACCEPT][g]
    elif w < tr:
        d_r, d_a = table[REGION_REJECT][g]
    else:
        d_r, d_a = table[REGION_UNCERTAIN][g]
    new_a = ta + d_a
    if new_a < tr:
        new_a = tr
    new_r = tr + d_r
    if new_r > new_a:
        new_r = new_a
    return new_r, new_a


def _loop(w, g, accept_coin, reject_coin, tr, ta, table, tau_r, tau_a, explored):
    """A block of rounds from thresholds (tr, ta), over indexable inputs and
    outputs (`run_rounds` passes memoryviews). A decisive round reads
    the next exploration coin, from coin 0 on: accept_coin[i] and
    reject_coin[i] say whether the i-th uniform falls below q_accept and
    q_reject, the test `VerificationPolicy.decide` makes. Stores the
    thresholds after each round in tau_r/tau_a and sets explored where a
    decisive round escalated; returns the final thresholds and the number
    of coins used. It applies the `increments` table as `step` does,
    written out here because a call of `step` costs as much as the rest of
    the round in plain Python. It assumes labels in {0, 1}, tr <= ta and
    no NaN score, which its callers check."""
    accept, reject, uncertain = table
    cursor = 0
    for t in range(len(w)):
        wt = w[t]
        if wt > ta:
            cursor += 1
            if not accept_coin[cursor - 1]:
                tau_r[t] = tr
                tau_a[t] = ta
                continue
            explored[t] = True
            d_r, d_a = accept[g[t]]
        elif wt < tr:
            cursor += 1
            if not reject_coin[cursor - 1]:
                tau_r[t] = tr
                tau_a[t] = ta
                continue
            explored[t] = True
            d_r, d_a = reject[g[t]]
        else:
            d_r, d_a = uncertain[g[t]]
        ta += d_a
        if ta < tr:
            ta = tr
        tr += d_r
        if tr > ta:
            tr = ta
        tau_r[t] = tr
        tau_a[t] = ta
    return tr, ta, cursor


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
    """Replay len(w) rounds. Returns the region, action, q, explored,
    g_observed and four threshold columns, and the number of uniforms
    used. The inputs may be strided views. A round reads at most one
    uniform, so only u[:T] is turned into coins."""
    T = w.shape[0]
    tau_r_after = np.empty(T, np.float64)
    tau_a_after = np.empty(T, np.float64)
    explored = np.zeros(T, np.bool_)
    table = increments(alpha, beta, eta, q_accept, q_reject)
    u = u[:T]
    ins = map(memoryview, (w, g, u < q_accept, u < q_reject))
    outs = map(memoryview, (tau_r_after, tau_a_after, explored))
    *_, cursor = _loop(*ins, tau_reject_init, tau_accept_init, table, *outs)
    cols = derive_columns(
        w, g, explored, tau_r_after, tau_a_after, q_accept, q_reject, tau_reject_init, tau_accept_init
    )
    return (*cols, cursor)


def derive_columns(
    w, g, explored, tau_r_after, tau_a_after, q_accept, q_reject, tau_reject_init, tau_accept_init
):
    """Every column of a run from its sequential state: the scores, the
    latent labels, the exploration flags and the threshold path after each
    round. The thresholds before a round are the path shifted one round
    behind the initial pair; the region compares the score strictly with
    them; escalated rounds observe the latent label. Returns the region,
    action, q, explored, g_observed and the four threshold columns."""
    T = w.shape[0]
    tau_r_before = np.empty(T, np.float64)
    tau_a_before = np.empty(T, np.float64)
    tau_r_before[:1] = tau_reject_init
    tau_a_before[:1] = tau_accept_init
    tau_r_before[1:] = tau_r_after[:-1]
    tau_a_before[1:] = tau_a_after[:-1]
    region = np.full(T, REGION_UNCERTAIN, np.int64)
    region[w < tau_r_before] = REGION_REJECT
    region[w > tau_a_before] = REGION_ACCEPT
    q_arr = np.array([q_accept, q_reject, 1.0], np.float64)[region]
    action = np.where(explored, ACTION_STRONG_VERIFY, region)
    g_observed = np.where(action == ACTION_STRONG_VERIFY, g, -1).astype(np.int64, copy=False)
    return (
        region, action, q_arr, explored, g_observed,
        tau_r_before, tau_a_before, tau_r_after, tau_a_after,
    )
