"""Neural primitives: tanh MLP with manual backprop, differentiable
modified Gram-Schmidt, Adam, and parameter checkpoints.

Forward/backward accept either a single input vector (n,) or a batch
(B, n); Gram-Schmidt likewise works on a single (d, d) matrix or a stack
(B, d, d).  Backprop through Gram-Schmidt differentiates the recurrences
analytically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .stochmap import RandomStream


class DegenerateProjectionError(ValueError):
    """Gram-Schmidt input with near-dependent columns."""


class GradientError(ValueError):
    pass


# ---------------------------------------------------------------------------
# MLP


@dataclass
class MlpParams:
    sizes: Tuple[int, ...]
    weights: List[np.ndarray]
    biases: List[np.ndarray]
    activation: str = "tanh"

    def as_list(self) -> List[np.ndarray]:
        out = []
        for W, b in zip(self.weights, self.biases):
            out.extend([W, b])
        return out

    @staticmethod
    def from_list(sizes: Sequence[int], flat: List[np.ndarray]) -> "MlpParams":
        weights = flat[0::2]
        biases = flat[1::2]
        return MlpParams(tuple(sizes), list(weights), list(biases))


def init_mlp(sizes: Sequence[int], stream: RandomStream) -> MlpParams:
    """Weights uniform in +-1/sqrt(fan_in), biases zero."""
    weights, biases = [], []
    for i, (nin, nout) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = 1.0 / np.sqrt(nin)
        W = (stream.split(i).uniform((nin, nout)) * 2 - 1) * bound
        weights.append(W)
        biases.append(np.zeros(nout))
    return MlpParams(tuple(sizes), weights, biases)


def mlp_forward(params: MlpParams, x) -> Tuple[np.ndarray, dict]:
    """Affine/tanh chain with a linear last layer; cache supports backward."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[-1] != params.sizes[0]:
        raise ValueError(
            f"input width {h.shape[-1]} does not match first layer {params.sizes[0]}"
        )
    inputs = []
    n_layers = len(params.weights)
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = h @ W + b
        h = np.tanh(z) if i < n_layers - 1 else z
    cache = {"inputs": inputs, "out": h, "single": single}
    return (h[0] if single else h), cache


def mlp_backward(params: MlpParams, cache: dict, dout) -> Tuple[List[np.ndarray], np.ndarray]:
    """Exact reverse-mode gradients; returns ([dW0, db0, ...], dinput)."""
    dout = np.asarray(dout, dtype=float)
    single = cache["single"]
    dh = dout[None, :] if single else dout
    inputs = cache["inputs"]
    n_layers = len(params.weights)
    grads: List[np.ndarray] = [None] * (2 * n_layers)
    for i in range(n_layers - 1, -1, -1):
        h_in = inputs[i]
        if i < n_layers - 1:
            # dh is the gradient w.r.t. tanh(z); recompute tanh(z) from the
            # next layer's stored input
            a = inputs[i + 1]
            dz = dh * (1.0 - a * a)
        else:
            dz = dh
        grads[2 * i] = h_in.T @ dz
        grads[2 * i + 1] = dz.sum(axis=0)
        dh = dz @ params.weights[i].T
    return grads, (dh[0] if single else dh)


# ---------------------------------------------------------------------------
# Gram-Schmidt


def gram_schmidt_forward(M) -> Tuple[np.ndarray, dict]:
    """Orthonormalize columns by modified Gram-Schmidt; cache for backward.

    Accepts (d, d) or a stack (B, d, d).
    """
    M = np.asarray(M, dtype=float)
    single = M.ndim == 2
    A = M[None] if single else M
    d = A.shape[-1]
    Q = np.zeros_like(A)
    vs = []  # per column: list of v before each projection step, then pre-norm v
    rs = []
    norms = []
    for j in range(d):
        v = A[:, :, j].copy()
        v_hist, r_hist = [], []
        for i in range(j):
            qi = Q[:, :, i]
            r = np.einsum("bk,bk->b", qi, v)
            v_hist.append(v.copy())
            r_hist.append(r)
            v = v - r[:, None] * qi
        nrm = np.linalg.norm(v, axis=1)
        Q[:, :, j] = v / nrm[:, None]
        vs.append((v_hist, v.copy()))
        rs.append(r_hist)
        norms.append(nrm)
    cache = {"Q": Q, "vs": vs, "rs": rs, "norms": norms, "single": single,
             "shape": A.shape}
    return (Q[0] if single else Q), cache


def gram_schmidt_backward(cache: dict, dQ) -> np.ndarray:
    """Reverse-mode gradient of gram_schmidt_forward w.r.t. its input."""
    dQ = np.asarray(dQ, dtype=float)
    single = cache["single"]
    dQb = (dQ[None] if single else dQ).copy()
    Q = cache["Q"]
    B, d, _ = cache["shape"]
    dM = np.zeros(cache["shape"])
    for j in range(d - 1, -1, -1):
        v_hist, v_fin = cache["vs"][j]
        r_hist = cache["rs"][j]
        nrm = cache["norms"][j]
        qj = Q[:, :, j]
        g = dQb[:, :, j]
        # q = v/||v||  =>  dv = (g - q (q.g)) / ||v||
        dv = (g - qj * np.einsum("bk,bk->b", qj, g)[:, None]) / nrm[:, None]
        for i in range(j - 1, -1, -1):
            qi = Q[:, :, i]
            v_old = v_hist[i]
            r = r_hist[i]
            gq = np.einsum("bk,bk->b", dv, qi)
            # v_new = v_old - (qi.v_old) qi
            dQb[:, :, i] -= gq[:, None] * v_old + r[:, None] * dv
            dv = dv - qi * gq[:, None]
        dM[:, :, j] = dv
    return dM[0] if single else dM


def gram_schmidt_project(M) -> np.ndarray:
    """Project a nonsingular matrix onto the orthogonal group column-wise."""
    M = np.asarray(M, dtype=float)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[..., -1].min() <= 1e-10 * sv[..., 0].max():
        raise DegenerateProjectionError("columns are numerically dependent")
    Q, _ = gram_schmidt_forward(M)
    return Q


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamState:
    m: List[np.ndarray]
    v: List[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: List[np.ndarray], beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        beta1=beta1, beta2=beta2, eps=eps,
    )


def adam_step(params: List[np.ndarray], grads: List[np.ndarray], state: AdamState,
              lr: float) -> Tuple[List[np.ndarray], AdamState]:
    """Standard Adam update with bias correction; returns fresh params/state."""
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise GradientError("non-finite gradient passed to adam_step")
    t = state.t + 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        new_params.append(p - lr * mhat / (np.sqrt(vhat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(new_m, new_v, t, b1, b2, eps)


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_HEADER = "equisym-params v1"


def save_params(path: str, arrays: List[np.ndarray]) -> None:
    """Text checkpoint: header line, then per array a shape line and a
    single line of %.17g values (byte-stable across runs)."""
    with open(path, "w") as fh:
        fh.write(CHECKPOINT_HEADER + "\n")
        fh.write(f"{len(arrays)}\n")
        for a in arrays:
            fh.write("shape " + " ".join(str(s) for s in a.shape) + "\n")
            fh.write(" ".join("%.17g" % x for x in np.asarray(a).ravel()) + "\n")


def load_params(path: str) -> List[np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CHECKPOINT_HEADER:
            raise ValueError(f"unrecognized checkpoint header {header!r}")
        count = int(fh.readline())
        out = []
        for _ in range(count):
            shape_line = fh.readline().split()
            if shape_line[0] != "shape":
                raise ValueError("malformed checkpoint: missing shape line")
            shape = tuple(int(s) for s in shape_line[1:])
            vals = np.array([float(v) for v in fh.readline().split()])
            out.append(vals.reshape(shape))
    return out
