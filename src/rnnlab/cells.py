"""Concrete recurrent cells with hand-derived Jacobians.

Four cell kinds share the :class:`~rnnlab.statespace.DynamicalModel`
contract:

* ``VanillaRnnCell``   h' = tanh(W h + U z + b)
* ``LstmCell``         gated update on the stacked state x = [h, c]
* ``StableLstmCell``   an LSTM plus a spectral-norm projection of the
  recurrent blocks, keeping the map contractive
* ``OrthogonalRnnCell``  a vanilla cell whose recurrent matrix is the
  exponential of a skew-symmetric matrix, hence exactly orthogonal

``step`` and ``output`` broadcast over a leading axis of P stacked points:
the state may be (P, N_x) and the parameters (P, N_theta), as built by
``with_params`` from a matrix of parameter vectors.  ``jacobians`` is
single-point.  Cells also provide batched forward/backward passes used by
the training harness, where a batch of sequences shares one theta; the
backward pass is verified against forward sensitivity propagation in the
test suite.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import expm, expm_frechet
from scipy.special import expit as sigmoid

from .params import ParameterLayout, ParameterVector
from .statespace import DynamicalModel

CELL_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# small numerics helpers
# ---------------------------------------------------------------------------


def spectral_norm(M, method="exact", iters=50, tol=1e-10, seed=0):
    """Largest singular value, exact (SVD) or by power iteration."""
    M = np.asarray(M, dtype=float)
    if method == "exact":
        return float(np.linalg.norm(M, 2))
    if method != "power":
        raise ValueError("method must be 'exact' or 'power'")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        u = M @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            return 0.0
        u /= nu
        v = M.T @ u
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
        if abs(nv - sigma) < tol * max(1.0, nv):
            sigma = nv
            break
        sigma = nv
    return float(sigma)


def orthogonal_init(rng, n, gain=1.0):
    """Random orthogonal matrix via sign-fixed QR of a Gaussian."""
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    return gain * q


def realize_orthogonal(s_raw):
    """Orthogonal matrix W = exp(S) with S = tril(s_raw) - tril(s_raw)^T.

    Only the strictly lower triangle of ``s_raw`` is used, so the free
    parameters are the n(n-1)/2 entries below the diagonal.  The result
    satisfies W^T W = I to rounding because exp of a skew-symmetric
    matrix is exactly orthogonal in exact arithmetic.  A stack of
    (..., n, n) matrices gives the stack of their exponentials.
    """
    s_raw = np.asarray(s_raw, dtype=float)
    low = np.tril(s_raw, -1)
    return expm(low - np.swapaxes(low, -1, -2))


def orthogonal_tangent(s_raw, ds_raw):
    """Directional derivative of realize_orthogonal at s_raw along ds_raw."""
    s_raw = np.asarray(s_raw, dtype=float)
    low = np.tril(s_raw, -1)
    dlow = np.tril(np.asarray(ds_raw, dtype=float), -1)
    return expm_frechet(low - low.T, dlow - dlow.T, compute_expm=False)


def _pack_skew(H):
    return np.tril_indices(H, -1)


def _matvec(W, v):
    """W v over leading axes: a shared 2-D W, or one W per stacked point.

    A shared W keeps ``v @ W.T``, one GEMM for a whole batch of states; a
    stacked (P, m, n) W multiplies row by row with ``matmul``, which rounds
    exactly as ``v @ W.T`` does for the reference cell (``einsum`` does not).
    """
    if W.ndim == 2:
        return v @ W.T
    return (W @ v[..., None])[..., 0]


def _outer_block(coef, v):
    """Rows a of d(out)/d(W[a, :]) for pre = W v: block[a, a*len(v)+b] = coef[a] v[b]."""
    H = coef.shape[0]
    w = v.shape[0]
    block = np.zeros((H, H * w))
    for a in range(H):
        block[a, a * w : (a + 1) * w] = coef[a] * v
    return block


# ---------------------------------------------------------------------------
# readout plumbing shared by all cells
# ---------------------------------------------------------------------------


class _ReadoutMixin:
    """y = h (identity) or y = W_out h + b_out (linear, params in theta)."""

    def _readout_blocks(self):
        if self.readout == "linear":
            return [("W_out", (self.n_output, self.n_hidden)), ("b_out", (self.n_output,))]
        return []

    def _hidden_of(self, x):
        return x[..., : self.n_hidden]

    def output(self, x, z):
        h = self._hidden_of(np.asarray(x, dtype=float))
        if self.readout == "identity":
            return h.copy()
        return _matvec(self.params.get("W_out"), h) + self.params.get("b_out")

    def _readout_jacobians(self, x):
        """C (N_y, N_x) and F (N_y, N_theta) of the output map."""
        H = self.n_hidden
        C = np.zeros((self.output_dim, self.state_dim))
        F = np.zeros((self.output_dim, self.n_params))
        if self.readout == "identity":
            C[:, :H] = np.eye(H)
            return C, F
        W_out = self.params.get("W_out")
        C[:, :H] = W_out
        h = self._hidden_of(x)
        sl = self.params.layout.slice("W_out")
        Fw = F[:, sl]
        for a in range(self.output_dim):
            Fw[a, a * H : (a + 1) * H] = h
        F[:, self.params.layout.slice("b_out")] = np.eye(self.output_dim)
        return C, F

    def _readout_backward(self, dY, hs, grads):
        """Map per-step output gradients to hidden-state gradients.

        dY: (T, B, N_y), hs: (T, B, H).  Returns dH (T, B, H) and adds
        readout-weight gradients into ``grads`` when the readout is linear.
        """
        if self.readout == "identity":
            return dY
        W_out = self.params.get("W_out")
        grads["W_out"] += np.einsum("tby,tbh->yh", dY, hs)
        grads["b_out"] += dY.sum(axis=(0, 1))
        return dY @ W_out


def _init_input_weights(rng, H, Z):
    return rng.normal(0.0, 1.0 / np.sqrt(max(Z, 1)), size=(H, Z))


def _grads_to_flat(layout, grads):
    flat = np.zeros(layout.size)
    for name, g in grads.items():
        flat[layout.slice(name)] = np.asarray(g).ravel()
    return flat


# ---------------------------------------------------------------------------
# vanilla RNN
# ---------------------------------------------------------------------------


class VanillaRnnCell(_ReadoutMixin, DynamicalModel):
    name = "vanilla"

    def __init__(self, n_hidden, n_input=0, bias=True, readout="identity",
                 n_output=None, params=None, init_seed=None):
        self.n_hidden = int(n_hidden)
        self.n_input = int(n_input)
        self.bias = bool(bias)
        self.readout = readout
        self.n_output = int(n_output) if n_output is not None else self.n_hidden
        if readout not in ("identity", "linear"):
            raise ValueError("readout must be 'identity' or 'linear'")

        blocks = [("W", (self.n_hidden, self.n_hidden))]
        if self.n_input > 0:
            blocks.append(("U", (self.n_hidden, self.n_input)))
        if self.bias:
            blocks.append(("b", (self.n_hidden,)))
        blocks += self._readout_blocks()
        layout = ParameterLayout(blocks)

        if params is None:
            params = ParameterVector(layout)
            rng = np.random.default_rng(0 if init_seed is None else init_seed)
            if init_seed is not None:
                params = params.with_block("W", orthogonal_init(rng, self.n_hidden))
                if self.n_input > 0:
                    params = params.with_block(
                        "U", _init_input_weights(rng, self.n_hidden, self.n_input))
                if self.readout == "linear":
                    params = params.with_block(
                        "W_out",
                        rng.normal(0.0, 1.0 / np.sqrt(self.n_hidden),
                                   size=(self.n_output, self.n_hidden)))
        elif isinstance(params, np.ndarray) or isinstance(params, (list, tuple)):
            params = ParameterVector(layout, params)
        self.params = params

        self.state_dim = self.n_hidden
        self.input_dim = self.n_input
        self.output_dim = self.n_output if readout == "linear" else self.n_hidden

    def _config(self):
        return dict(n_hidden=self.n_hidden, n_input=self.n_input, bias=self.bias,
                    readout=self.readout, n_output=self.n_output)

    def with_params(self, values):
        return type(self)(params=np.asarray(values, dtype=float), **self._config())

    def _recurrent_matrix(self):
        return self.params.get("W")

    def _pre(self, h, z):
        pre = _matvec(self._recurrent_matrix(), h)
        if self.n_input > 0:
            pre = pre + _matvec(self.params.get("U"), z)
        if self.bias:
            pre = pre + self.params.get("b")
        return pre

    def step(self, x, z):
        return np.tanh(self._pre(np.asarray(x, dtype=float), np.asarray(z, dtype=float)))

    def jacobians(self, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        W = self._recurrent_matrix()
        hp = np.tanh(self._pre(x, z))
        d = 1.0 - hp ** 2
        A = d[:, None] * W
        B = np.zeros((self.state_dim, self.n_params))
        self._recurrent_param_jacobian(B, d, x)
        if self.n_input > 0:
            B[:, self.params.layout.slice("U")] = _outer_block(d, z)
        if self.bias:
            B[:, self.params.layout.slice("b")] = np.diag(d)
        C, F = self._readout_jacobians(x)
        return A, B, C, F

    def _recurrent_param_jacobian(self, B, d, h):
        B[:, self.params.layout.slice("W")] = _outer_block(d, h)

    # ---- batched training path ----

    def forward_batch(self, x0, Z):
        """x0: (B, H), Z: (B, T, Z).  Returns hs (T, B, H), outputs (T, B, N_y), cache."""
        B, T = Z.shape[0], Z.shape[1]
        hs = np.empty((T, B, self.n_hidden))
        h = x0
        for t in range(T):
            hs[t] = h
            if t + 1 < T:
                h = np.tanh(self._pre(h, Z[:, t]))
        return hs, self.output(hs, None), {"hs": hs, "Z": Z}

    def backward_batch(self, cache, dY):
        hs, Z = cache["hs"], cache["Z"]
        T, B, H = hs.shape
        layout = self.params.layout
        grads = {name: np.zeros(layout.spec(name).shape) for name in layout.names()}
        dH = self._readout_backward(dY, hs, grads)

        W = self._recurrent_matrix()
        dh = dH[T - 1].copy()
        gW = np.zeros((H, H))
        for t in range(T - 2, -1, -1):
            dpre = dh * (1.0 - hs[t + 1] ** 2)
            gW += dpre.T @ hs[t]
            if self.n_input > 0:
                grads["U"] += dpre.T @ Z[:, t]
            if self.bias:
                grads["b"] += dpre.sum(axis=0)
            dh = dpre @ W + dH[t]
        self._recurrent_grad(grads, gW)
        return _grads_to_flat(layout, grads)

    def _recurrent_grad(self, grads, gW):
        grads["W"] += gW


# ---------------------------------------------------------------------------
# orthogonal RNN
# ---------------------------------------------------------------------------


class OrthogonalRnnCell(VanillaRnnCell):
    """Vanilla cell whose recurrent matrix is exp of a skew-symmetric matrix.

    The free parameters are the strictly-lower-triangular entries of
    ``S_raw`` (packed row-major); the realized W has all eigenvalues on
    the unit circle for any parameter value, so no projection step is
    ever needed.
    """

    name = "ornn"

    def __init__(self, n_hidden, n_input=0, bias=True, readout="identity",
                 n_output=None, params=None, init_seed=None):
        H = int(n_hidden)
        self._n_skew = H * (H - 1) // 2
        blocks = [("S_raw", (self._n_skew,))]
        if int(n_input) > 0:
            blocks.append(("U", (H, int(n_input))))
        if bias:
            blocks.append(("b", (H,)))
        self.n_hidden = H
        self.n_input = int(n_input)
        self.bias = bool(bias)
        self.readout = readout
        self.n_output = int(n_output) if n_output is not None else H
        blocks += self._readout_blocks()
        layout = ParameterLayout(blocks)

        if params is None:
            params = ParameterVector(layout)
            if init_seed is not None:
                rng = np.random.default_rng(init_seed)
                params = params.with_block(
                    "S_raw", rng.uniform(-np.pi / H, np.pi / H, size=self._n_skew))
                if self.n_input > 0:
                    params = params.with_block("U", _init_input_weights(rng, H, self.n_input))
                if readout == "linear":
                    params = params.with_block(
                        "W_out", rng.normal(0.0, 1.0 / np.sqrt(H),
                                            size=(self.n_output, H)))
        elif isinstance(params, (np.ndarray, list, tuple)):
            params = ParameterVector(layout, params)
        self.params = params

        self.state_dim = H
        self.input_dim = self.n_input
        self.output_dim = self.n_output if readout == "linear" else H
        self._W_cache = None
        self._dW_cache = None

    def skew_matrix(self):
        H = self.n_hidden
        raw = self.params.get("S_raw")
        S = np.zeros(raw.shape[:-1] + (H, H))
        rows, cols = _pack_skew(H)
        S[..., rows, cols] = raw
        return S

    def _recurrent_matrix(self):
        if self._W_cache is None:
            self._W_cache = realize_orthogonal(self.skew_matrix())
        return self._W_cache

    def _recurrent_tangents(self):
        """d W / d S_raw[k] for every packed skew parameter (cached)."""
        if self._dW_cache is None:
            H = self.n_hidden
            low = np.tril(self.skew_matrix(), -1)
            S = low - low.T
            rows, cols = _pack_skew(H)
            tangents = []
            for i, j in zip(rows, cols):
                E = np.zeros((H, H))
                E[i, j] = 1.0
                E[j, i] = -1.0
                tangents.append(expm_frechet(S, E, compute_expm=False))
            self._dW_cache = tangents
        return self._dW_cache

    def _recurrent_param_jacobian(self, B, d, h):
        sl = self.params.layout.slice("S_raw")
        col = sl.start
        for dW in self._recurrent_tangents():
            B[:, col] = d * (dW @ h)
            col += 1

    def _recurrent_grad(self, grads, gW):
        low = np.tril(self.skew_matrix(), -1)
        S = low - low.T
        gS = expm_frechet(S.T, gW, compute_expm=False)
        gS = gS - gS.T
        grads["S_raw"] += gS[_pack_skew(self.n_hidden)]


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


class LstmCell(_ReadoutMixin, DynamicalModel):
    """Gated cell on the stacked state x = [h, c] (so N_x = 2 * N_h).

        c' = sigmoid(pre_f) * c + sigmoid(pre_i) * tanh(pre_g)
        h' = sigmoid(pre_o) * tanh(c')

    with pre_k = W_hk h + U_k z + b_k; input weights and biases are
    optional and drop out of the map entirely when disabled.
    """

    name = "lstm"
    GATES = ("i", "f", "g", "o")

    def __init__(self, n_hidden, n_input=0, bias=False, readout="identity",
                 n_output=None, params=None, init_seed=None):
        self.n_hidden = int(n_hidden)
        self.n_input = int(n_input)
        self.bias = bool(bias)
        self.readout = readout
        self.n_output = int(n_output) if n_output is not None else self.n_hidden
        H = self.n_hidden

        blocks = [(f"W_h{k}", (H, H)) for k in self.GATES]
        if self.n_input > 0:
            blocks += [(f"U_{k}", (H, self.n_input)) for k in self.GATES]
        if self.bias:
            blocks += [(f"b_{k}", (H,)) for k in self.GATES]
        blocks += self._readout_blocks()
        layout = ParameterLayout(blocks)

        if params is None:
            params = ParameterVector(layout)
            if init_seed is not None:
                rng = np.random.default_rng(init_seed)
                for k in self.GATES:
                    params = params.with_block(f"W_h{k}", orthogonal_init(rng, H))
                if self.n_input > 0:
                    for k in self.GATES:
                        params = params.with_block(
                            f"U_{k}", _init_input_weights(rng, H, self.n_input))
                if self.bias:
                    params = params.with_block("b_f", np.ones(H))
                if readout == "linear":
                    params = params.with_block(
                        "W_out", rng.normal(0.0, 1.0 / np.sqrt(H),
                                            size=(self.n_output, H)))
        elif isinstance(params, (np.ndarray, list, tuple)):
            params = ParameterVector(layout, params)
        self.params = params

        self.state_dim = 2 * H
        self.input_dim = self.n_input
        self.output_dim = self.n_output if readout == "linear" else H

    def _config(self):
        return dict(n_hidden=self.n_hidden, n_input=self.n_input, bias=self.bias,
                    readout=self.readout, n_output=self.n_output)

    def with_params(self, values):
        return type(self)(params=np.asarray(values, dtype=float), **self._config())

    def split_state(self, x):
        H = self.n_hidden
        return x[..., :H], x[..., H:]

    def _pre(self, k, h, z):
        pre = _matvec(self.params.get(f"W_h{k}"), h)
        if self.n_input > 0:
            pre = pre + _matvec(self.params.get(f"U_{k}"), z)
        if self.bias:
            pre = pre + self.params.get(f"b_{k}")
        return pre

    def _gates(self, h, z):
        i = sigmoid(self._pre("i", h, z))
        f = sigmoid(self._pre("f", h, z))
        a = np.tanh(self._pre("g", h, z))
        o = sigmoid(self._pre("o", h, z))
        return i, f, a, o

    def step(self, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        h, c = self.split_state(x)
        i, f, a, o = self._gates(h, z)
        c_new = f * c + i * a
        h_new = o * np.tanh(c_new)
        return np.concatenate([h_new, c_new], axis=-1)

    def jacobians(self, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        H = self.n_hidden
        h, c = self.split_state(x)
        i, f, a, o = self._gates(h, z)
        c_new = f * c + i * a
        tc = np.tanh(c_new)
        di = i * (1.0 - i)
        df = f * (1.0 - f)
        da = 1.0 - a ** 2
        do = o * (1.0 - o)
        dtc = 1.0 - tc ** 2

        # pre-activation coefficients: d c'/d pre_k and d h'/d pre_k
        c_coef = {"i": a * di, "f": c * df, "g": i * da, "o": np.zeros(H)}
        h_through_c = o * dtc
        h_coef = {k: h_through_c * c_coef[k] for k in ("i", "f", "g")}
        h_coef["o"] = tc * do

        Wh = {k: self.params.get(f"W_h{k}") for k in self.GATES}
        dc_dh = sum(c_coef[k][:, None] * Wh[k] for k in ("i", "f", "g"))
        dh_dh = h_coef["o"][:, None] * Wh["o"] + h_through_c[:, None] * dc_dh
        A = np.zeros((2 * H, 2 * H))
        A[:H, :H] = dh_dh
        A[:H, H:] = np.diag(h_through_c * f)
        A[H:, :H] = dc_dh
        A[H:, H:] = np.diag(f)

        layout = self.params.layout
        B = np.zeros((2 * H, self.n_params))
        for k in self.GATES:
            hb = _outer_block(h_coef[k], h)
            cb = _outer_block(c_coef[k], h)
            sl = layout.slice(f"W_h{k}")
            B[:H, sl] = hb
            B[H:, sl] = cb
            if self.n_input > 0:
                sl = layout.slice(f"U_{k}")
                B[:H, sl] = _outer_block(h_coef[k], z)
                B[H:, sl] = _outer_block(c_coef[k], z)
            if self.bias:
                sl = layout.slice(f"b_{k}")
                B[:H, sl] = np.diag(h_coef[k])
                B[H:, sl] = np.diag(c_coef[k])

        C, F = self._readout_jacobians(x)
        return A, B, C, F

    def recurrent_block_names(self):
        return [f"W_h{k}" for k in self.GATES]

    # ---- batched training path ----

    def forward_batch(self, x0, Z):
        B, T = Z.shape[0], Z.shape[1]
        H = self.n_hidden
        hs = np.empty((T, B, H))
        cs = np.empty((T, B, H))
        gates = np.empty((max(T - 1, 0), 4, B, H))
        h, c = self.split_state(x0)
        h = h.copy()
        c = c.copy()
        for t in range(T):
            hs[t] = h
            cs[t] = c
            if t + 1 < T:
                i, f, a, o = self._gates(h, Z[:, t])
                gates[t, 0], gates[t, 1], gates[t, 2], gates[t, 3] = i, f, a, o
                c = f * c + i * a
                h = o * np.tanh(c)
        return hs, self.output(hs, None), {"hs": hs, "cs": cs, "gates": gates, "Z": Z}

    def backward_batch(self, cache, dY):
        hs, cs, gates, Z = cache["hs"], cache["cs"], cache["gates"], cache["Z"]
        T, B, H = hs.shape
        layout = self.params.layout
        grads = {name: np.zeros(layout.spec(name).shape) for name in layout.names()}
        dH = self._readout_backward(dY, hs, grads)

        Wh = {k: self.params.get(f"W_h{k}") for k in self.GATES}
        dh = dH[T - 1].copy()
        dc = np.zeros((B, H))
        for t in range(T - 2, -1, -1):
            i, f, a, o = gates[t, 0], gates[t, 1], gates[t, 2], gates[t, 3]
            c_new = cs[t + 1]
            tc = np.tanh(c_new)
            do = dh * tc
            dct = dc + dh * o * (1.0 - tc ** 2)
            dpre = {
                "i": dct * a * (i * (1.0 - i)),
                "f": dct * cs[t] * (f * (1.0 - f)),
                "g": dct * i * (1.0 - a ** 2),
                "o": do * (o * (1.0 - o)),
            }
            for k in self.GATES:
                grads[f"W_h{k}"] += dpre[k].T @ hs[t]
                if self.n_input > 0:
                    grads[f"U_{k}"] += dpre[k].T @ Z[:, t]
                if self.bias:
                    grads[f"b_{k}"] += dpre[k].sum(axis=0)
            dh = sum(dpre[k] @ Wh[k] for k in self.GATES) + dH[t]
            dc = dct * f
        return _grads_to_flat(layout, grads)


class StableLstmCell(LstmCell):
    """LSTM whose recurrent blocks are projected to spectral norm <= target.

    The projection rescales any listed block whose largest singular
    value exceeds the target.  It is an explicit operation
    (:func:`project_stable`), applied by the trainer after every
    optimizer step, so that parameter rays, finite differences and
    Jacobians keep their plain meaning between projections.
    """

    name = "slstm"

    def __init__(self, *args, target_norm=0.97, projected_blocks=None, **kwargs):
        if not (0.0 < target_norm < 1.0):
            raise ValueError("target_norm must lie in (0, 1)")
        self.target_norm = float(target_norm)
        super().__init__(*args, **kwargs)
        self.projected_blocks = (
            tuple(projected_blocks) if projected_blocks is not None
            else tuple(self.recurrent_block_names())
        )

    def _config(self):
        cfg = super()._config()
        cfg.update(target_norm=self.target_norm, projected_blocks=self.projected_blocks)
        return cfg


def _project_params(params, block_names, target):
    # relative slack makes the projection exactly idempotent
    for name in block_names:
        W = params.get(name)
        s1 = spectral_norm(W)
        if s1 > target * (1.0 + 1e-12):
            params = params.with_block(name, W * (target / s1))
    return params


def project_stable(cell: StableLstmCell) -> StableLstmCell:
    """Rescale each listed recurrent block to spectral norm <= target_norm."""
    new_params = _project_params(cell.params, cell.projected_blocks, cell.target_norm)
    return cell.with_params(new_params.values)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_CELL_KINDS = {
    "vanilla": VanillaRnnCell,
    "lstm": LstmCell,
    "slstm": StableLstmCell,
    "ornn": OrthogonalRnnCell,
}


def cell_to_dict(cell) -> dict:
    doc = {
        "format_version": CELL_FORMAT_VERSION,
        "kind": cell.name,
        "n_hidden": cell.n_hidden,
        "n_input": cell.n_input,
        "bias": cell.bias,
        "readout": cell.readout,
        "n_output": cell.n_output,
        "blocks": cell.params.to_dict(),
    }
    if isinstance(cell, StableLstmCell):
        doc["target_norm"] = cell.target_norm
        doc["projected_blocks"] = list(cell.projected_blocks)
    return doc


def save_cell(cell, path):
    with open(path, "w") as fh:
        json.dump(cell_to_dict(cell), fh, indent=1)
        fh.write("\n")


def cell_from_dict(doc) -> DynamicalModel:
    kind = doc["kind"]
    if kind not in _CELL_KINDS:
        raise ValueError(f"unknown cell kind {kind!r}")
    kwargs = dict(
        n_hidden=doc["n_hidden"],
        n_input=doc.get("n_input", 0),
        bias=doc.get("bias", False),
        readout=doc.get("readout", "identity"),
        n_output=doc.get("n_output"),
    )
    if kind == "slstm":
        kwargs["target_norm"] = doc.get("target_norm", 0.97)
        kwargs["projected_blocks"] = doc.get("projected_blocks")
    cell = _CELL_KINDS[kind](**kwargs)
    cell.params = ParameterVector.from_dict(cell.params.layout, doc["blocks"])
    if kind == "ornn":
        cell._W_cache = None
        cell._dW_cache = None
    return cell


def load_cell(path) -> DynamicalModel:
    with open(path) as fh:
        return cell_from_dict(json.load(fh))


def make_cell(kind, n_hidden, n_input=0, bias=True, readout="linear",
              n_output=1, init_seed=0, target_norm=0.97):
    """Task-ready cell factory used by the trainer and the CLI."""
    if kind not in _CELL_KINDS:
        raise ValueError(f"unknown cell kind {kind!r}")
    kwargs = dict(n_hidden=n_hidden, n_input=n_input, bias=bias,
                  readout=readout, n_output=n_output, init_seed=init_seed)
    if kind == "slstm":
        kwargs["target_norm"] = target_norm
    return _CELL_KINDS[kind](**kwargs)


def chaotic_reference_cell() -> LstmCell:
    """The 2-unit chaotic LSTM shipped with the package (no input, no bias)."""
    from importlib.resources import files

    path = files("rnnlab.data").joinpath("chaotic_lstm_2x2.json")
    return cell_from_dict(json.loads(path.read_text()))


CHAOTIC_REFERENCE_STATE = np.array([0.5, 0.5, 0.5, 0.5])  # [h0, c0] stacked
