"""Computations the benchmark checks rnnlab against, written apart from it.

Nothing here imports rnnlab.  The LSTM is the package's documented map on
the stacked state x = [h, c]:

    pre_k = W_hk h + U_k z + b_k          (k in i, f, g, o)
    c'    = sigmoid(pre_f) c + sigmoid(pre_i) tanh(pre_g)
    h'    = sigmoid(pre_o) tanh(c')
    y     = h  or  W_out h + b_out

written with sigmoid(x) = 1 / (1 + exp(-x)) and batched over a leading
parameter axis P and a sequence axis S, so that a whole sweep is one array
program.  Weights come as a dict of named blocks (the cell JSON format),
each with a leading P axis.
"""

from __future__ import annotations

import math

import numpy as np

GATES = ("i", "f", "g", "o")


def sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def blocks_from_json(doc):
    """Cell JSON document -> ({name: (1, ...) array}, n_hidden, readout)."""
    blocks = {k: np.asarray(v, dtype=float)[None] for k, v in doc["blocks"].items()}
    return blocks, int(doc["n_hidden"]), doc.get("readout", "identity")


def scaled_blocks(blocks, scales):
    """Blocks of a single cell (P = 1) scaled by each s: theta(s) = s theta."""
    s = np.asarray(scales, dtype=float)
    return {k: s.reshape((-1,) + (1,) * (v.ndim - 1)) * v[0] for k, v in blocks.items()}


def _pre(blocks, k, h, z):
    pre = h @ np.swapaxes(blocks[f"W_h{k}"], -1, -2)
    if f"U_{k}" in blocks:
        pre = pre + z @ np.swapaxes(blocks[f"U_{k}"], -1, -2)
    if f"b_{k}" in blocks:
        pre = pre + blocks[f"b_{k}"][:, None, :]
    return pre


def lstm_step(blocks, h, c, z):
    """One step for h, c of shape (P, S, H) and z of shape (P or 1, S, Z)."""
    i = sigmoid(_pre(blocks, "i", h, z))
    f = sigmoid(_pre(blocks, "f", h, z))
    g = np.tanh(_pre(blocks, "g", h, z))
    o = sigmoid(_pre(blocks, "o", h, z))
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new, (i, f, g, o)


def readout(blocks, h):
    if "W_out" not in blocks:
        return h
    return np.einsum("pij,p...j->p...i", blocks["W_out"], h) + \
        blocks["b_out"].reshape(blocks["b_out"].shape[:1] + (1,) * (h.ndim - 2) + (-1,))


def run(blocks, n_hidden, x0, inputs, steps=None, keep_states=False):
    """Simulate P cells on S sequences.

    x0: (2H,) or (P, S, 2H); inputs: (S, T, Z) shared by all P, or None with
    ``steps`` for an input-free cell.  Returns states (P, S, T, 2H), or None
    unless ``keep_states``, and outputs (P, S, T, N_y), aligned as
    states[t+1] = f(states[t], z[t]) and outputs[t] = g(states[t]).
    """
    P = next(iter(blocks.values())).shape[0]
    if inputs is None:
        Z = np.zeros((1, int(steps), 0))
    else:
        Z = np.asarray(inputs, dtype=float)
    S, T = Z.shape[0], Z.shape[1]
    x = np.broadcast_to(np.asarray(x0, dtype=float), (P, S, 2 * n_hidden))
    h, c = x[..., :n_hidden].copy(), x[..., n_hidden:].copy()
    states = np.empty((P, S, T, 2 * n_hidden)) if keep_states else None
    hs = np.empty((P, S, T, n_hidden))
    for t in range(T):
        hs[:, :, t] = h
        if keep_states:
            states[:, :, t, :n_hidden] = h
            states[:, :, t, n_hidden:] = c
        if t + 1 < T:
            h, c, _ = lstm_step(blocks, h, c, Z[None, :, t])
    return states, readout(blocks, hs)


def closed_loop(blocks, n_hidden, x0, z0, steps):
    """Outputs (P, T, N_y) with the input fed back as a one-hot of the
    largest output: z[t+1][argmax y[t]] = 1 (``--feedback argmax``)."""
    P = next(iter(blocks.values())).shape[0]
    x = np.broadcast_to(np.asarray(x0, dtype=float), (P, 1, 2 * n_hidden))
    h, c = x[..., :n_hidden].copy(), x[..., n_hidden:].copy()
    z = np.broadcast_to(np.asarray(z0, dtype=float), (P, 1, len(z0))).copy()
    ys = []
    for t in range(steps):
        y = readout(blocks, h)
        ys.append(y[:, 0])
        if t + 1 < steps:
            h, c, _ = lstm_step(blocks, h, c, z)
            z = np.zeros_like(z)
            z[np.arange(P), 0, np.argmax(y[:, 0], axis=-1)] = 1.0
    return np.stack(ys, axis=1)


def rounding_tolerance(f, x0, nudge=1e-15, factor=100.0, floor=1e-12, coords=4):
    """Elementwise tolerance for comparing another implementation with f(x0).

    Two correct implementations differ in rounding at every step, and a
    chaotic map amplifies those differences as it amplifies a change of x0.
    So the tolerance is ``factor`` times the largest change that nudging one
    of the first ``coords`` coordinates of x0 by +-``nudge`` makes to f, plus
    ``floor``.
    """
    x0 = np.asarray(x0, dtype=float)
    base = f(x0)
    spread = np.zeros_like(base)
    for k in range(min(coords, x0.size)):
        for sign in (1.0, -1.0):
            x = x0.copy()
            x[k] += sign * nudge
            spread = np.maximum(spread, np.abs(f(x) - base))
    return base, floor + factor * spread


def squared_error_cost(outputs, targets):
    """Mean over steps and sequences of |y - y*|^2.

    outputs (P, S, T, N_y), targets (S, T, N_y) -> (P,)."""
    return np.sum((outputs - targets[None]) ** 2, axis=-1).mean(axis=(1, 2))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def flat_to_blocks(theta, layout):
    """(P, n) flat vectors -> blocks, with layout = [(name, shape), ...]."""
    theta = np.atleast_2d(theta)
    out, off = {}, 0
    for name, shape in layout:
        size = int(np.prod(shape))
        out[name] = theta[:, off:off + size].reshape((theta.shape[0],) + tuple(shape))
        off += size
    return out


def central_difference_gradient(cost_of_flat, theta, step=1e-6):
    """Central differences of a batched cost (rows of flat vectors -> costs)."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    plus = theta + step * np.eye(n)
    minus = theta - step * np.eye(n)
    values = cost_of_flat(np.vstack([plus, minus]))
    return (values[:n] - values[n:]) / (2.0 * step)


def reverse_gradient(blocks, n_hidden, x0, inputs, targets):
    """Squared-error cost and its gradient by back-propagation through time.

    Single cell (P = 1) on S sequences of inputs (S, T, Z) with every step
    scored; returns (cost, {block name: gradient}).
    """
    H = n_hidden
    Z = np.asarray(inputs, dtype=float)
    S, T = Z.shape[0], Z.shape[1]
    h = np.broadcast_to(np.asarray(x0, dtype=float)[:H], (1, S, H)).copy()
    c = np.broadcast_to(np.asarray(x0, dtype=float)[H:], (1, S, H)).copy()
    hs, cs, gates = [h], [c], []
    for t in range(T - 1):
        h, c, g = lstm_step(blocks, h, c, Z[None, :, t])
        hs.append(h)
        cs.append(c)
        gates.append(g)
    Hs = np.stack(hs, axis=2)                              # (1, S, T, H)
    Y = readout(blocks, Hs)
    diff = Y - targets[None]
    cost = float(np.mean(np.sum(diff ** 2, axis=-1)))
    dY = 2.0 * diff / (S * T)
    grads = {k: np.zeros_like(v) for k, v in blocks.items()}
    if "W_out" in blocks:
        grads["W_out"] += np.einsum("pstj,psti->pij", Hs, dY)
        grads["b_out"] += dY.sum(axis=(1, 2))
        dH = np.einsum("pij,psti->pstj", blocks["W_out"], dY)
    else:
        dH = dY
    dh = dH[:, :, T - 1].copy()
    dc = np.zeros_like(dh)
    for t in range(T - 2, -1, -1):
        i, f, g, o = gates[t]
        tc = np.tanh(cs[t + 1])
        dct = dc + dh * o * (1.0 - tc ** 2)
        dpre = {"i": dct * g * i * (1.0 - i), "f": dct * cs[t] * f * (1.0 - f),
                "g": dct * i * (1.0 - g ** 2), "o": dh * tc * o * (1.0 - o)}
        dh = dH[:, :, t].copy()
        for k in GATES:
            grads[f"W_h{k}"] += np.einsum("psi,psj->pij", dpre[k], hs[t])
            if f"U_{k}" in blocks:
                grads[f"U_{k}"] += np.einsum("psi,psj->pij", dpre[k], Z[None, :, t])
            if f"b_{k}" in blocks:
                grads[f"b_{k}"] += dpre[k].sum(axis=1)
            dh = dh + np.einsum("psi,pij->psj", dpre[k], blocks[f"W_h{k}"])
        dc = dct * f
    return cost, grads


# ---------------------------------------------------------------------------
# Lyapunov exponent by two trajectories
# ---------------------------------------------------------------------------


def benettin_exponent(blocks, n_hidden, x0, burn_in, horizon, d0=1e-8):
    """Largest exponent from a reference and a companion trajectory.

    The companion starts d0 away along (1, ..., 1)/sqrt(n) after the burn-in
    and is pulled back to distance d0 after every step; the mean log of the
    per-step stretch is the exponent (Benettin et al., 1980).
    """
    n = 2 * n_hidden
    x = np.asarray(x0, dtype=float).reshape(1, 1, n)
    Z = np.zeros((1, 1, 0))
    h, c = x[..., :n_hidden], x[..., n_hidden:]
    for _ in range(burn_in):
        h, c, _ = lstm_step(blocks, h, c, Z)
    v = np.full(n, 1.0 / math.sqrt(n))
    y = np.concatenate([h, c], axis=-1) + d0 * v
    log_sum = 0.0
    for _ in range(horizon):
        h2, c2, _ = lstm_step(blocks, y[..., :n_hidden], y[..., n_hidden:], Z)
        h, c, _ = lstm_step(blocks, h, c, Z)
        x = np.concatenate([h, c], axis=-1)
        d = np.concatenate([h2, c2], axis=-1) - x
        r = float(np.linalg.norm(d))
        log_sum += math.log(r / d0)
        y = x + d * (d0 / r)
    return log_sum / horizon


# ---------------------------------------------------------------------------
# closed-form smoothness bounds
# ---------------------------------------------------------------------------


def smoothness_bounds(L_f, N, L_g=1.0, L_fp=1.0, L_gp=1.0, K1=2.0, K2=2.0,
                      K3=2.0, K4=2.0, L_y=1.0, M_scale=1.0):
    """L_V and L_V' of the paper's growth laws, as an O(N^2) array sum.

    S(t) = sqrt(sum_{l<=t} L_f^{2l}), M(t) = M_scale S(t),
    T(t) = K4 (L_g' M(t) + L_g^2), with
    P(t, l) = L_f^{t-l} (L_g L_f' sum_{j=l..t} S(j) + L_f L_g' S(t)),
    Q(t, l) = L_f^{t-l} (K4 M(t) L_g L_f' sum_{j=l..t} S(j) + L_f T(t) S(t)),
    L_V  = (L_g / N) sum_t (K1 L_y + K2 M(t)) S(t),
    L_V' = (1/N) sum_t K3 L_y (sum_l P + L_g' S(t)) + sum_l Q + T(t) S(t).
    Powers are taken in the log domain so that L_f > 1 does not overflow
    before the final value does.
    """
    t = np.arange(N + 1, dtype=float)
    log_lf = math.log(L_f)
    S = np.sqrt(np.cumsum(np.exp(2.0 * log_lf * t)))
    M = M_scale * S
    T = K4 * (L_gp * M + L_g ** 2)
    ts = np.arange(1, N + 1)
    L_V = L_g / N * float(np.sum((K1 * L_y + K2 * M[ts]) * S[ts]))
    # seg[t, l] = sum_{j=l..t} S(j) for 1 <= l <= t, in blocks of rows t
    cum = np.concatenate([[0.0], np.cumsum(S)])
    ll = ts[None, :]
    total = 0.0
    for lo in range(1, N + 1, 256):
        tt = np.arange(lo, min(lo + 256, N + 1))[:, None]
        live = ll <= tt
        seg = np.where(live, cum[tt + 1] - cum[ll], 0.0)
        pw = np.where(live, np.exp(log_lf * np.maximum(tt - ll, 0)), 0.0)
        St, Mt, Tt = S[tt], M[tt], T[tt]
        P = pw * (L_g * L_fp * seg + L_f * L_gp * St)
        Q = pw * (K4 * Mt * L_g * L_fp * seg + L_f * Tt * St)
        L_J = P.sum(axis=1) + L_gp * St[:, 0]
        L_Jy = Q.sum(axis=1) + Tt[:, 0] * St[:, 0]
        total += float(np.sum(K3 * L_y * L_J + L_Jy))
    return L_V, total / N


def contractive_limit(L_f, L_g=1.0, L_fp=1.0, L_gp=1.0, K3=2.0, K4=2.0,
                      L_y=1.0, M_scale=1.0):
    """lim_{N->inf} L_V' for L_f < 1, with the inner sums as geometric series.

    As t grows S(t) -> S_inf = (1 - L_f^2)^(-1/2), sum_l L_f^(t-l) -> 1/(1-L_f)
    and sum_l L_f^(t-l) (t-l+1) S_inf -> S_inf / (1-L_f)^2.
    """
    S = 1.0 / math.sqrt(1.0 - L_f ** 2)
    M = M_scale * S
    T = K4 * (L_gp * M + L_g ** 2)
    g1 = 1.0 / (1.0 - L_f)
    g2 = g1 ** 2
    L_J = L_g * L_fp * S * g2 + L_f * L_gp * S * g1 + L_gp * S
    L_Jy = K4 * M * L_g * L_fp * S * g2 + L_f * T * S * g1 + T * S
    return K3 * L_y * L_J + L_Jy
