"""Concrete recurrent cells, each deriving its step once, as tangent and adjoint.

Four cell kinds share the :class:`~rnnlab.statespace.DynamicalModel`
contract:

* ``VanillaRnnCell``   h' = tanh(W h + U z + b)
* ``LstmCell``         gated update on the stacked state x = [h, c]
* ``StableLstmCell``   an LSTM plus a spectral-norm projection of the
  recurrent blocks, keeping the map contractive
* ``OrthogonalRnnCell``  a vanilla cell whose recurrent matrix is the
  exponential of a skew-symmetric matrix, hence exactly orthogonal

One base, ``_Cell``, owns the constructor, the readout, ``with_params``,
the file format, what the kinds share of the Jacobians, and the batched
backward pass.  A kind names its per-gate blocks once
(``_W``, ``_U``, ``_b``).  The LSTM's four gate blocks of each group,
``W_hi..W_ho`` say, lie back to back in theta as before, so it reads each
group as one fused (4H, ...) matrix (``ParameterVector.get_stacked``) and
computes all four gates in one product, with no change of layout.

``step`` and ``output`` broadcast over a leading axis of P stacked points:
the state may be (P, N_x) and the parameters (P, N_theta), as built by
``with_params`` from a matrix of parameter vectors.  So does
``step_tangent``, the step with the product A V for tangents V (..., N_x, k):
each kind forms A V from the gates of its step, never building A.
``jacobians`` is single-point and derives nothing of its own: A is A I, and
B = dx'/dtheta comes row by row from the step adjoint (below) of the unit
cotangents.

The gradient route runs forward through :func:`~rnnlab.statespace.rollout`
and back through one reverse loop in ``_Cell``.  A kind gives ``_advance``,
the next state and what the adjoint of its step needs (the LSTM's gates,
nothing for the vanilla cell), which ``rollout`` keeps, and
``_step_adjoint``, the transpose of its tangent step: from dL/dh' it gives
dL/d pre of the gates and what the state carries back besides h (the
LSTM's dL/dc).  The reverse loop adds the weight gradients at every step,
summed over the sequences: one GEMM per weight group under a shared theta,
one product per row under a stacked one.  The test suite checks the passes
against forward sensitivity propagation and finite differences, the
stacked rows against single points, and A and B against finite-difference
Jacobians.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np
from scipy.linalg import expm, expm_frechet
from scipy.special import expit as sigmoid

from .errors import ConfigError
from .params import ParameterLayout, ParameterVector
from .statespace import DynamicalModel

CELL_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# small numerics helpers
# ---------------------------------------------------------------------------


def spectral_norm(M):
    """Largest singular value (SVD)."""
    return float(np.linalg.norm(np.asarray(M, dtype=float), 2))


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


def _matvec(W, v):
    """W v over leading axes: a shared 2-D W, or one W per stacked point.

    A shared W keeps ``v @ W.T``, one GEMM for a whole batch of states; a
    stacked (P, m, n) W multiplies row by row with ``matmul``, which rounds
    exactly as ``v @ W.T`` does for the reference cell (``einsum`` does not).
    """
    if W.ndim == 2:
        return v @ W.T
    return (W @ v[..., None])[..., 0]


def _vecmat(v, W):
    """v W over leading axes, the transposed product of :func:`_matvec`."""
    if W.ndim == 2:
        return v @ W
    return (v[..., None, :] @ W)[..., 0, :]


def _sequence_sum(d, v):
    """sum_b d[b]^T v[b] over the leading axis of B sequences, as one product.

    Under a shared theta d is (B, k) and v (B, n), and this is ``d.T @ v``,
    one GEMM.  Under P stacked rows they are (B, P, k) and (B, P, n), or
    (B, 1, n) for a v all rows share, and the product runs row by row,
    giving (P, k, n).
    """
    rows = tuple(range(1, d.ndim - 1))  # transpose, not moveaxis: this runs every step
    return d.transpose(rows + (d.ndim - 1, 0)) @ v.transpose(rows + (0, v.ndim - 1))


# ---------------------------------------------------------------------------
# the shared cell base
# ---------------------------------------------------------------------------


class _Cell(DynamicalModel):
    """What every cell kind shares: constructor, readout, blocks and gradients.

    A kind names its per-gate blocks once, in ``_W`` (recurrent, (H, H)),
    ``_U`` (input, (H, N_z), when there are inputs) and ``_b`` (bias, (H,),
    when ``bias``, which defaults to the kind's ``_BIAS_DEFAULT``).  Each
    group lies back to back in theta, so the maps read it as one fused
    (K*H, ...) matrix of the K gates.  ``_blocks`` lays the groups out and
    ``_init_params``, run only with an ``init_seed`` (theta is zero
    otherwise), draws orthogonal W and Gaussian U; b stays zero.  A linear
    readout y = W_out h + b_out adds its blocks after them and draws W_out
    last; the identity readout y = h has none.  ``_CONFIG`` names the
    constructor arguments that, with theta, describe a cell: ``with_params``
    and the cell file format are built from it.  The maps read W, U and b
    through properties cached per instance (a cell is immutable).

    A kind gives ``_advance(x, z) -> (x', gates)``, from which ``step``,
    :func:`~rnnlab.statespace.rollout` and its ``step_tangent`` take the step;
    ``_step_adjoint(gates, x, x', dh', carry') -> (dpre, carry)``, from
    which ``backward_batch`` takes the reverse of the step and ``jacobians``
    takes B, as the adjoint of the N_x unit cotangents (A comes from
    ``step_tangent``).
    """

    _CONFIG = ("n_hidden", "n_input", "bias", "readout", "n_output")
    _W, _U, _b = ("W",), ("U",), ("b",)
    _BIAS_DEFAULT = True
    _STATE_PER_UNIT = 1  # state entries per hidden unit

    def __init__(self, n_hidden, n_input=0, bias=None, readout="identity",
                 n_output=None, params=None, init_seed=None):
        if readout not in ("identity", "linear"):
            raise ValueError("readout must be 'identity' or 'linear'")
        self.n_hidden = H = int(n_hidden)
        self.n_input = int(n_input)
        self.bias = self._BIAS_DEFAULT if bias is None else bool(bias)
        self.readout = readout
        self.n_output = int(n_output) if n_output is not None else H
        self.state_dim = self._STATE_PER_UNIT * H
        self.input_dim = self.n_input
        self.output_dim = self.n_output if readout == "linear" else H

        if not isinstance(params, ParameterVector):
            layout = ParameterLayout(self._blocks() + self._readout_blocks())
            if params is not None:
                params = ParameterVector(layout, params)
            else:
                params = ParameterVector(layout)
                if init_seed is not None:
                    rng = np.random.default_rng(init_seed)
                    params = self._init_params(params, rng)
                    if readout == "linear":
                        params = params.with_block(
                            "W_out", rng.normal(0.0, 1.0 / np.sqrt(H),
                                                size=(self.n_output, H)))
        self.params = params

    def _config(self):
        return {k: getattr(self, k) for k in self._CONFIG}

    def with_params(self, values):
        params = ParameterVector(self.params.layout, np.asarray(values, dtype=float))
        return type(self)(params=params, **self._config())

    # ---- parameter blocks ----

    def _blocks(self):
        H = self.n_hidden
        return [(name, (H, H)) for name in self._W] + self._drive_blocks()

    def _drive_blocks(self):
        H = self.n_hidden
        blocks = []
        if self.n_input > 0:
            blocks += [(name, (H, self.n_input)) for name in self._U]
        if self.bias:
            blocks += [(name, (H,)) for name in self._b]
        return blocks

    def _readout_blocks(self):
        if self.readout == "linear":
            return [("W_out", (self.n_output, self.n_hidden)), ("b_out", (self.n_output,))]
        return []

    def _init_params(self, params, rng):
        for name in self._W:
            params = params.with_block(name, orthogonal_init(rng, self.n_hidden))
        return self._init_drive(params, rng)

    def _init_drive(self, params, rng):
        if self.n_input > 0:
            for name in self._U:
                params = params.with_block(name, rng.normal(
                    0.0, 1.0 / np.sqrt(self.n_input), size=(self.n_hidden, self.n_input)))
        return params

    # ---- maps ----

    @cached_property
    def _W_mat(self):
        """The K recurrent blocks as one (..., K*H, H) matrix, a view of theta."""
        return self.params.get_stacked(self._W)

    @cached_property
    def _U_mat(self):
        return self.params.get_stacked(self._U)

    @cached_property
    def _b_vec(self):
        return self.params.get_stacked(self._b)

    def _pre(self, h, z):
        """Pre-activations of the K gates, (..., K*H)."""
        pre = _matvec(self._W_mat, h)
        if self.n_input > 0:
            pre = pre + _matvec(self._U_mat, z)
        if self.bias:
            pre += self._b_vec
        return pre

    def _hidden_of(self, x):
        return x[..., : self.n_hidden]

    def step(self, x, z):
        return self._advance(np.asarray(x, dtype=float), np.asarray(z, dtype=float))[0]

    def output(self, x, z):
        h = self._hidden_of(np.asarray(x, dtype=float))
        if self.readout == "identity":
            return h.copy()
        return _matvec(self.params.get("W_out"), h) + self.params.get("b_out")

    def jacobians(self, x, z):
        """A as A I from ``step_tangent``; row r of B = dx'/dtheta as the step
        adjoint of the unit cotangent e_r, which gives dpre = dx'_r/d pre of
        the gates, hence the blocks dpre h^T, dpre z^T and dpre."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        H, I = self.n_hidden, np.eye(self.state_dim)
        x_new, A = self.step_tangent(x, z, I)
        dpre = self._step_adjoint(self._advance(x, z)[1], x, x_new, I[:, :H], I[:, H:])[0]
        B = ParameterVector(self.params.layout, np.zeros((self.state_dim, self.n_params)))
        self._write_recurrent_rows(B, dpre, x[:H])
        if self.n_input > 0:
            np.einsum("rk,j->rkj", dpre, z, out=B.get_stacked(self._U))
        if self.bias:
            B.get_stacked(self._b)[...] = dpre
        C = np.zeros((self.output_dim, self.state_dim))
        F = ParameterVector(self.params.layout, np.zeros((self.output_dim, self.n_params)))
        if self.readout == "identity":
            C[:, :H] = np.eye(H)
        else:
            C[:, :H] = self.params.get("W_out")
            F.get("W_out")[np.diag_indices(self.output_dim)] = x[:H]  # dy_a/dW_out[a] = h
            F.get("b_out")[...] = np.eye(self.output_dim)
        return A, B.values, C, F.values

    def _write_recurrent_rows(self, B, dpre, h):
        """B's recurrent block dpre h^T, written straight into its strided view
        (several times faster than adding a temporary into it)."""
        np.einsum("rk,j->rkj", dpre, h, out=B.get_stacked(self._W))

    # ---- the batched backward pass ----

    def backward_batch(self, run, dY):
        """Gradient over theta of sum(dY * outputs), dY (T, *rows, N_y), from
        the states, kept gates and inputs of the forward ``rollout``, ``run``.

        One reverse loop: at each step ``_step_adjoint`` turns dh = dL/dh'
        into dpre = dL/d pre, which adds dpre^T h, dpre^T z and dpre, summed
        over the sequences, to the weight gradients, and dh <- dpre W.  Under
        a stacked theta the products run per row and the gradient is
        (P, N_theta).
        """
        xs, kept, Z = run.states, run.kept, run.inputs
        hs = self._hidden_of(xs)
        grad = ParameterVector(self.params.layout, np.zeros(self.params.values.shape))
        dH = dY  # dL/dh of each step through its own output
        if self.readout == "linear":
            g_out = grad.get("W_out")
            g_out += np.einsum("tb...k,tb...n->...kn", dY, hs)  # all steps at once
            g_bias = grad.get("b_out")
            g_bias += dY.sum(axis=(0, 1))
            dH = _vecmat(dY, self.params.get("W_out"))
        gW = np.zeros(self._W_mat.shape)
        gU = grad.get_stacked(self._U) if self.n_input > 0 else None
        gb = grad.get_stacked(self._b) if self.bias else None
        dh, carry = dH[-1], 0.0
        for t in range(len(xs) - 2, -1, -1):
            dpre, carry = self._step_adjoint(kept[t], xs[t], xs[t + 1], dh, carry)
            gW += _sequence_sum(dpre, hs[t])
            if gU is not None:
                gU += _sequence_sum(dpre, Z[t])
            if gb is not None:
                gb += dpre.sum(axis=0)
            dh = _vecmat(dpre, self._W_mat) + dH[t]
        self._add_recurrent_gradient(grad, gW)
        return grad.values

    def _add_recurrent_gradient(self, grad, gW):
        g = grad.get_stacked(self._W)
        g += gW


# ---------------------------------------------------------------------------
# vanilla RNN
# ---------------------------------------------------------------------------


class VanillaRnnCell(_Cell):
    name = "vanilla"

    def _advance(self, x, z):
        """The next state h' = tanh(pre); the adjoint needs nothing besides h'."""
        return np.tanh(self._pre(x, z)), None

    def _step_adjoint(self, gates, x, x_new, dh, carry):
        """dpre = dh (1 - h'^2); the vanilla state carries nothing else."""
        return dh * (1.0 - x_new ** 2), carry

    def step_tangent(self, x, z, V):
        """The step and A V = d * (W V), with d = 1 - tanh(pre)^2 = 1 - h'^2."""
        h_new = self.step(x, z)
        return h_new, (1.0 - h_new ** 2)[..., None] * (self._W_mat @ V)


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

    def _blocks(self):
        H = self.n_hidden
        return [("S_raw", (H * (H - 1) // 2,))] + self._drive_blocks()

    def _init_params(self, params, rng):
        H = self.n_hidden
        params = params.with_block(
            "S_raw", rng.uniform(-np.pi / H, np.pi / H, size=H * (H - 1) // 2))
        return self._init_drive(params, rng)

    def skew_matrix(self):
        H = self.n_hidden
        raw = self.params.get("S_raw")
        S = np.zeros(raw.shape[:-1] + (H, H))
        rows, cols = np.tril_indices(H, -1)
        S[..., rows, cols] = raw
        return S

    @cached_property
    def _W_mat(self):
        """The realized orthogonal W, (..., H, H)."""
        return realize_orthogonal(self.skew_matrix())

    def _write_recurrent_rows(self, B, dpre, h):
        """dx'/dS_raw from dx'/dW = dpre h^T, row by row, by the gradient's map."""
        self._add_recurrent_gradient(B, dpre[..., None] * h)

    def _add_recurrent_gradient(self, grad, gW):
        """dL/dS_raw from dL/dW, through the adjoint of the Frechet derivative of exp."""
        low = np.tril(self.skew_matrix(), -1)
        S = low - np.swapaxes(low, -1, -2)
        if gW.ndim == 2:
            gS = expm_frechet(S.T, gW, compute_expm=False)
        else:  # per stacked row, or per row of B; a row that diverged keeps NaN
            gS = np.full(gW.shape, np.nan)
            S = np.broadcast_to(S, gW.shape)  # B's rows share one S
            for p in np.flatnonzero(np.isfinite(gW).all(axis=(1, 2))):
                gS[p] = expm_frechet(S[p].T, gW[p], compute_expm=False)
        gS = gS - np.swapaxes(gS, -1, -2)
        g = grad.get("S_raw")
        g += gS[(..., *np.tril_indices(self.n_hidden, -1))]


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


def _unstack(gates):
    """The four gate views i, f, g, o of a (..., 4, H) stack."""
    return gates[..., 0, :], gates[..., 1, :], gates[..., 2, :], gates[..., 3, :]


def _slopes(gates):
    """d gate / d pre of a (..., 4, H) stack: sigmoid' at rows i, f, o, tanh' at g."""
    slope = gates * (1.0 - gates)
    slope[..., 2, :] = 1.0 - gates[..., 2, :] ** 2
    return slope


class LstmCell(_Cell):
    """Gated cell on the stacked state x = [h, c] (so N_x = 2 * N_h).

        c' = sigmoid(pre_f) * c + sigmoid(pre_i) * tanh(pre_g)
        h' = sigmoid(pre_o) * tanh(c')

    with pre_k = W_hk h + U_k z + b_k; input weights and biases are
    optional and drop out of the map entirely when disabled.  The maps
    work on the (..., 4, H) stack of gates; forget-gate biases start at 1.
    """

    name = "lstm"
    GATES = ("i", "f", "g", "o")
    _W = tuple(f"W_h{k}" for k in GATES)
    _U = tuple(f"U_{k}" for k in GATES)
    _b = tuple(f"b_{k}" for k in GATES)
    _BIAS_DEFAULT = False
    _STATE_PER_UNIT = 2

    def _init_params(self, params, rng):
        params = super()._init_params(params, rng)
        if self.bias:
            params = params.with_block("b_f", np.ones(self.n_hidden))
        return params

    def split_state(self, x):
        H = self.n_hidden
        return x[..., :H], x[..., H:]

    def _gates(self, h, z):
        """Gate activations, stacked as (..., 4, H) in the order i, f, g, o."""
        pre = self._pre(h, z)
        gates = pre.reshape(pre.shape[:-1] + (4, self.n_hidden))
        g = np.tanh(gates[..., 2, :])
        sigmoid(gates, out=gates)  # in place: one (..., 4H) array less to allocate
        gates[..., 2, :] = g
        return gates

    def _advance(self, x, z):
        """The next state [h', c'] and the (..., 4, H) gates its adjoint needs."""
        h, c = self.split_state(x)
        gates = self._gates(h, z)
        i, f, a, o = _unstack(gates)
        c_new = f * c + i * a
        return np.concatenate([o * np.tanh(c_new), c_new], axis=-1), gates

    def _step_adjoint(self, gates, x, x_new, dh, dc):
        """dL/d pre of the four gates, and dL/dc, from dh = dL/dh' and the
        carried dc = dL/dc' of the later steps:

            dc~ = dc + dh o (1 - tanh(c')^2)
            dpre = (dc~ a, dc~ c, dc~ i, dh tanh(c')) * gate slopes
            dL/dc = dc~ f
        """
        i, f, a, o = _unstack(gates)
        c = self.split_state(x)[1]
        tc = np.tanh(self.split_state(x_new)[1])
        dct = dc + dh * o * (1.0 - tc ** 2)
        dpre = np.stack([dct * a, dct * c, dct * i, dh * tc], axis=-2) * _slopes(gates)
        return dpre.reshape(dpre.shape[:-2] + (-1,)), dct * f

    def step_tangent(self, x, z, V):
        """The step and A V for V = [dh; dc], (..., 2H, k).  W dh gives the
        pre-activation tangents of all four gates; scaled by the gate slopes
        they are di, df, da, do, and

            dc' = df c + f dc + di a + i da
            dh' = do tanh(c') + o (1 - tanh(c')^2) dc'
        """
        x = np.asarray(x, dtype=float)
        V = np.asarray(V, dtype=float)
        H = self.n_hidden
        x_new, gates = self._advance(x, np.asarray(z, dtype=float))
        i, f, a, o = _unstack(gates)
        tc = np.tanh(x_new[..., H:])

        dpre = self._W_mat @ V[..., :H, :]
        dgates = dpre.reshape(dpre.shape[:-2] + (4, H, dpre.shape[-1]))
        dgates *= _slopes(gates)[..., None]
        di, df, da, do = (dgates[..., k, :, :] for k in range(4))
        # the gates and c as columns, against the k tangent columns
        i, f, a, o, c, tc = (v[..., None] for v in (i, f, a, o, x[..., H:], tc))
        dc = df * c + f * V[..., H:, :] + di * a + i * da
        dh = do * tc + o * (1.0 - tc ** 2) * dc
        return x_new, np.concatenate([dh, dc], axis=-2)


class StableLstmCell(LstmCell):
    """LSTM whose recurrent blocks are projected to spectral norm <= target.

    The projection rescales any listed block whose largest singular
    value exceeds the target.  It is an explicit operation
    (:func:`project_stable`), applied by the trainer after every
    optimizer step, so that parameter rays, finite differences and
    Jacobians keep their plain meaning between projections.
    """

    name = "slstm"
    _CONFIG = LstmCell._CONFIG + ("target_norm", "projected_blocks")

    def __init__(self, *args, target_norm=0.97, projected_blocks=None, **kwargs):
        if not (0.0 < target_norm < 1.0):
            raise ValueError("target_norm must lie in (0, 1)")
        self.target_norm = float(target_norm)
        self.projected_blocks = tuple(
            self._W if projected_blocks is None else projected_blocks)
        super().__init__(*args, **kwargs)


def project_stable(cell: StableLstmCell) -> StableLstmCell:
    """Rescale each listed recurrent block to spectral norm <= target_norm."""
    params = cell.params
    for name in cell.projected_blocks:
        W = params.get(name)
        s1 = spectral_norm(W)
        # relative slack makes the projection exactly idempotent
        if s1 > cell.target_norm * (1.0 + 1e-12):
            params = params.with_block(name, W * (cell.target_norm / s1))
    return cell.with_params(params.values)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_CELL_KINDS = {
    "vanilla": VanillaRnnCell,
    "lstm": LstmCell,
    "slstm": StableLstmCell,
    "ornn": OrthogonalRnnCell,
}


def _cell_class(kind):
    if kind not in _CELL_KINDS:
        raise ConfigError(f"unknown cell kind {kind!r}")
    return _CELL_KINDS[kind]


def cell_to_dict(cell) -> dict:
    """The cell file document: the shared config, theta, then kind extras."""
    config = cell._config()
    doc = {"format_version": CELL_FORMAT_VERSION, "kind": cell.name}
    doc.update((k, config.pop(k)) for k in _Cell._CONFIG)
    doc["blocks"] = cell.params.to_dict()
    doc.update((k, list(v) if isinstance(v, tuple) else v) for k, v in config.items())
    return doc


def cell_from_dict(doc) -> DynamicalModel:
    """Inverse of :func:`cell_to_dict`; absent config keys take their defaults."""
    version = doc.get("format_version", CELL_FORMAT_VERSION)
    if version != CELL_FORMAT_VERSION:
        raise ConfigError(
            f"cell format_version {version!r} is not {CELL_FORMAT_VERSION}")
    cls = _cell_class(doc["kind"])
    config = {k: doc[k] for k in cls._CONFIG if k in doc}
    layout = cls(**config).params.layout
    return cls(params=ParameterVector.from_dict(layout, doc["blocks"]), **config)


def load_cell(path) -> DynamicalModel:
    with open(path) as fh:
        return cell_from_dict(json.load(fh))


def make_cell(kind, n_hidden, n_input=0, bias=True, readout="linear",
              n_output=1, init_seed=0, target_norm=0.97):
    """Task-ready cell factory used by the trainer and the CLI."""
    cls = _cell_class(kind)
    extra = {"target_norm": target_norm} if cls is StableLstmCell else {}
    return cls(n_hidden=n_hidden, n_input=n_input, bias=bias, readout=readout,
               n_output=n_output, init_seed=init_seed, **extra)


def chaotic_reference_cell() -> LstmCell:
    """The 2-unit chaotic LSTM shipped with the package (no input, no bias)."""
    from importlib.resources import files

    path = files("rnnlab.data").joinpath("chaotic_lstm_2x2.json")
    return cell_from_dict(json.loads(path.read_text()))


CHAOTIC_REFERENCE_STATE = np.array([0.5, 0.5, 0.5, 0.5])  # [h0, c0] stacked
