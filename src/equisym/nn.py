"""Neural primitives: tanh MLP with manual backprop, differentiable
modified Gram-Schmidt, Adam, and parameter checkpoints.

The MLP takes a (B, n) batch and its parameters as the flat list
[W0, b0, W1, b1, ...], Gram-Schmidt a (B, d, d) stack.  The forwards also
broadcast over leading stack axes, on the input or on every parameter, and
row i of a stacked forward equals the forward on stack row i, bit for bit.
The backwards take batches only.  Backprop through Gram-Schmidt
differentiates the recurrences analytically.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from typing import List, Sequence, Tuple

import numpy as np

from .stochmap import RandomStream


class DegenerateProjectionError(ValueError):
    """Gram-Schmidt input with near-dependent columns."""


class GradientError(ValueError):
    pass


# ---------------------------------------------------------------------------
# MLP


def init_mlp(sizes: Sequence[int], stream: RandomStream) -> List[np.ndarray]:
    """Flat parameters [W0, b0, W1, b1, ...]: weights uniform in
    +-1/sqrt(fan_in), biases zero."""
    params = []
    for i, (nin, nout) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = 1.0 / np.sqrt(nin)
        W = (stream.split(i).uniform((nin, nout)) * 2 - 1) * bound
        params += [W, np.zeros(nout)]
    return params


def mlp_forward(params: List[np.ndarray], x) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Affine/tanh chain with a linear last layer on a batch x of shape
    (..., B, n); params is [W0, b0, ...], with or without leading stack axes.
    Returns (output, the list of each layer's input)."""
    h = np.asarray(x, dtype=float)
    if h.ndim < 2 or h.shape[-1] != params[0].shape[-2]:
        raise ValueError(
            f"input of shape {h.shape} is not a batch of width {params[0].shape[-2]}"
        )
    inputs = []
    n_layers = len(params) // 2
    for i in range(n_layers):
        inputs.append(h)
        h = h @ params[2 * i]  # a fresh array, so the bias and tanh reuse it
        h += params[2 * i + 1][..., None, :]
        if i < n_layers - 1:
            np.tanh(h, out=h)
    return h, inputs


def mlp_backward(params: List[np.ndarray], inputs: list, dout, input_grad: bool = True) -> tuple:
    """Exact reverse-mode gradients of a batch forward, without stack axes,
    from its layer inputs; returns ([dW0, db0, ...], dinput), dinput None unless input_grad."""
    dh = np.asarray(dout, dtype=float)
    if dh.ndim != 2 or inputs[-1].ndim != 2:
        raise ValueError("mlp_backward takes a batch: stacked forwards have no backward")
    n_layers = len(inputs)
    grads: List[np.ndarray] = [None] * (2 * n_layers)
    for i in range(n_layers - 1, -1, -1):
        h_in = inputs[i]
        if i < n_layers - 1:
            # dh is the gradient w.r.t. tanh(z); recompute tanh(z) from the
            # next layer's stored input
            a = inputs[i + 1]
            dz = a * a  # dh * (1 - a^2) in one fresh array; the product commutes exactly
            np.subtract(1.0, dz, out=dz)
            dz *= dh
        else:
            dz = dh
        grads[2 * i] = h_in.T @ dz
        grads[2 * i + 1] = np.add.reduce(dz, axis=0)
        dh = dz @ params[2 * i].T if i or input_grad else None
    return grads, dh


# ---------------------------------------------------------------------------
# Condition numbers


DEGENERACY_CAP = 1e10  # cond above which Gram-Schmidt's columns count as dependent


def det(M) -> np.ndarray:
    """The determinant of each matrix of a (..., d, d) stack: by cofactors
    for d <= 3, where LAPACK's per-matrix cost dominates (its rounding is
    bounded in cond_within), and by np.linalg.det for d >= 4."""
    M = np.asarray(M, dtype=float)
    d = M.shape[-1]
    if d == 1:
        return M[..., 0, 0].copy()
    if d == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    if d == 3:
        a, b, c = M[..., 0, 0], M[..., 0, 1], M[..., 0, 2]
        p, q, r = M[..., 1, 0], M[..., 1, 1], M[..., 1, 2]
        s, t, v = M[..., 2, 0], M[..., 2, 1], M[..., 2, 2]
        return (a * (q * v - r * t) - b * (p * v - r * s)) + c * (p * t - q * s)
    return np.linalg.det(M)


def norm(x, axes: int = 1) -> np.ndarray:
    """np.linalg.norm over the last axes (1 or 2) of x, bit for bit for a
    C-contiguous x: rows under 8 entries as sums of whole columns, left to
    right as numpy sums them and faster on many rows; longer ones by numpy."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] * (x.shape[-2] if axes == 2 else 1)
    if not 0 < n < 8:
        return np.linalg.norm(x, axis=tuple(range(-axes, 0)))
    s = (x * x).reshape(x.shape[:x.ndim - axes] + (n,))
    acc = s[..., 0].copy()
    for i in range(1, n):
        acc += s[..., i]
    return np.sqrt(acc, out=acc)


def cond_within(M, cap: float) -> np.ndarray:
    """np.linalg.cond(M) <= cap for each matrix of a (..., d, d) stack,
    deciding most matrices without an SVD.

    Let N = M / max|m_ij| (cond is scale-invariant) and
    b = ||N||_F^d / |det N|.  Then cond <= b: sigma_1 <= ||N||_F and
    |det N| = prod sigma_i <= sigma_1^(d-1) sigma_d, so
    sigma_1 / sigma_d <= sigma_1^d / |det N|.  A matrix whose computed
    bound b' meets t = c_d u b' <= 1/16 and b' (1 + t) <= cap, with
    u = 2^-53 and c_d = 2^d (d^4 + 32 d^2), is accepted.  Every other one
    (near or above the cap, singular, non-finite) goes to np.linalg.cond
    itself, so the result is exactly np.linalg.cond(M) <= cap, including
    its LinAlgError on a NaN matrix.

    Why the slack t suffices.  Let k be the exact condition number of M,
    so k <= b, and b >= 1.  To first order in u, relative to b or k:
    - N = fl(M / s) is the exact scaling of M + F with |F| <= u |M|, so
      cond(N) is within 2 sqrt(d) u k of k;
    - the squares, the sum and the power give ||N||_F^d within
      (d^3 / 2 + 1) u;
    - det(N) is exact at d = 1, where N = +-1.  At d = 2 it is within
      u (|ad| + |bc| + |det N|) <= u (b / 2 + 1) |det N|, as
      |ad| + |bc| <= ||N||_F^2 / 2.  At d = 3 each of its six products meets
      at most five roundings, so it is within gamma_5 perm(|N|) <=
      5.01 u b |det N| (Higham, "Accuracy and Stability of Numerical
      Algorithms", Sec. 3.1), as perm(|N|) <= prod_i ||n_i||_1 <=
      3^(3/2) prod_i ||n_i||_2 <= ||N||_F^3 over N's rows n_i.  Underflow
      adds under 2^-1070, and an accepted N has |det N| >= 16 c_d u > 2^-40;
    - at d >= 4 det comes from LU with partial pivoting, the exact factors
      of N + E with ||E||_2 <= d^3 2^(d-1) u ||N||_2 (Higham, Thm 9.3), so
      within d^4 2^(d-1) u k of det N.  numpy forms it as
      sign * exp(sum ln|u_ii|); as every |u_ii| <= 2^(d-1) and their product
      is |det N| >= 1 / b, sum |ln|u_ii|| <= ln b + 2 d^2, which adds at most
      (d + 1)(1 + 2 d^2) u b;
    - the division adds u, and the SVD returns singular values within
      p_d u sigma_1 of the exact ones (LAPACK's bound, taking p_d <= 8 d^2),
      so numpy's cond is at most k (1 + (16 d^2 + 1) u k).
    These sum to at most half of c_d u b for every d >= 1 (76 u b of
    576 u b at d = 2, 169 of 2952 at d = 3), and t <= 1/16 keeps the
    second-order terms below the other half.  So numpy's cond of an
    accepted matrix is at most b' (1 + t) <= cap.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[-1]
    flat = M.reshape(-1, d, d)
    scale = reduce(np.maximum, np.abs(flat).reshape(len(flat), d * d).T)  # max|m_ij|
    with np.errstate(all="ignore"):  # zero, inf and NaN rows fall through to the SVD
        N = flat / scale[:, None, None]
        bound = np.einsum("bij,bij->b", N, N) ** (d / 2) / np.abs(det(N))
        slack = (2.0**d * (d**4 + 32 * d**2) * 2.0**-53) * bound
        ok = (slack <= 1 / 16) & (bound * (1 + slack) <= cap)
    unsure = ~ok
    if np.logical_or.reduce(unsure):
        ok[unsure] = np.linalg.cond(flat[unsure]) <= cap
    return ok.reshape(M.shape[:-2])


# ---------------------------------------------------------------------------
# Gram-Schmidt


def gram_schmidt_forward(M) -> Tuple[np.ndarray, dict]:
    """Orthonormalize the columns of each matrix of a stack (..., B, d, d)
    by modified Gram-Schmidt; cache for backward."""
    A = np.asarray(M, dtype=float)
    if A.ndim < 3 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"input of shape {A.shape} is not a stack of square matrices")
    d = A.shape[-1]
    Q = np.empty_like(A)  # every column is written below
    vs = []  # per column: v before each projection step
    rs = []
    norms = []
    for j in range(d):
        v = A[..., :, j].copy()
        v_hist, r_hist = [], []
        for i in range(j):
            qi = Q[..., :, i]
            r = np.einsum("...k,...k->...", qi, v)
            v_hist.append(v)
            r_hist.append(r)
            v = v - r[..., None] * qi
        nrm = norm(v)
        Q[..., :, j] = v / nrm[..., None]
        vs.append(v_hist)
        rs.append(r_hist)
        norms.append(nrm)
    return Q, {"Q": Q, "vs": vs, "rs": rs, "norms": norms}


def gram_schmidt_backward(cache: dict, dQ) -> np.ndarray:
    """Reverse-mode gradient of gram_schmidt_forward w.r.t. its input, for a
    (B, d, d) stack without further stack axes."""
    dQb = np.array(dQ, dtype=float)
    Q = cache["Q"]
    if dQb.ndim != 3 or Q.ndim != 3:
        raise ValueError("gram_schmidt_backward takes a (B, d, d) stack only")
    d = Q.shape[-1]
    dM = np.empty_like(Q)  # every column is written below
    for j in range(d - 1, -1, -1):
        v_hist = cache["vs"][j]
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
    return dM


# ---------------------------------------------------------------------------
# Optimizer


ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    params: np.ndarray  # every parameter, concatenated into one flat buffer
    m: np.ndarray  # first and second moments, flat like params
    v: np.ndarray
    t: int = 0


def adam_init(params: List[np.ndarray]) -> Tuple[List[np.ndarray], AdamState]:
    """Copy params into the flat buffer that Adam owns; returns (views,
    state), where views are the params as in-order views of that buffer."""
    flat = np.concatenate([a.ravel() for a in params])
    views, start = [], 0
    for a in params:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return views, AdamState(params=flat, m=np.zeros(flat.size), v=np.zeros(flat.size))


def adam_step(grads: List[np.ndarray], state: AdamState, lr: float) -> None:
    """Standard Adam update with bias correction, in place on state.params,
    state.m and state.v; grads are in adam_init's parameter order.

    One elementwise update over all parameters concatenated; each element
    sees the same expressions in the same order as a per-array update.  A
    non-finite gradient raises before anything changes.
    """
    g = np.concatenate(grads, axis=None)
    if not np.logical_and.reduce(np.isfinite(g)):
        raise GradientError("non-finite gradient passed to adam_step")
    state.t += 1
    m, v, t = state.m, state.v, state.t
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
    m *= ADAM_B1
    tmp = (1 - ADAM_B1) * g
    m += tmp
    v *= ADAM_B2
    np.multiply(1 - ADAM_B2, g, out=tmp)
    tmp *= g
    v += tmp
    # p -= lr mhat / (sqrt(vhat) + eps), with mhat and vhat bias-corrected
    step = m / (1 - ADAM_B1**t)
    step *= lr
    np.divide(v, 1 - ADAM_B2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    step /= tmp
    state.params -= step


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_HEADER = "equisym-params v1"


@contextmanager
def atomic_open(path: str):
    """A temp text file beside path that os.replace moves over path when the
    block exits cleanly, or that is removed if it raises: path stays whole."""
    tmp = f"{path}.tmp{os.getpid()}"  # open() keeps the umask's file mode
    fh = open(tmp, "w")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_params(path: str, arrays: List[np.ndarray]) -> None:
    """Text checkpoint: header line, then per array a shape line and a
    single line of %.17g values (byte-stable across runs)."""
    with atomic_open(path) as fh:
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
        count_line = fh.readline().strip()
        if not count_line.isdecimal():
            raise ValueError(f"malformed checkpoint: array count {count_line!r} is not an integer")
        out = []
        for i in range(int(count_line)):
            shape_line = fh.readline().split()
            if shape_line[:1] != ["shape"] or not all(s.isdecimal() for s in shape_line[1:]):
                raise ValueError(f"malformed checkpoint: bad shape line of array {i}")
            shape = tuple(int(s) for s in shape_line[1:])
            try:
                vals = np.array([float(v) for v in fh.readline().split()])
            except ValueError as exc:
                raise ValueError(f"malformed checkpoint: array {i}: {exc}") from None
            if vals.size != np.prod(shape, dtype=int):
                raise ValueError(f"malformed checkpoint: array {i} has {vals.size} values "
                                 f"but shape {shape}")
            out.append(vals.reshape(shape))
        if fh.read():
            raise ValueError("malformed checkpoint: trailing data")
    return out
