"""Matrix-inversion benchmark: learn A -> A^-1 with O(d)-equivariant models.

O(d) acts on inputs by left multiplication and on outputs by right
multiplication by the transpose, so the target map is equivariant:
(QA)^-1 = A^-1 Q^T.  Four model variants are provided:

- plain_mlp: unconstrained MLP, no symmetrisation
- sym_haar: symmetrised with gamma = Haar on O(d)
- sym_recursive: gamma itself symmetrised from an unconstrained
  noise-fed MLP projected onto O(d) by Gram-Schmidt, with a Haar base case
- canonical_deterministic: deterministic gamma = Gram-Schmidt of the input

A draw is a deterministic map of (params, X, noise), as a Markov kernel is
of its input and an independent noise input.  InversionModel._noise draws
the noise from a stream: the Haar stack from split(0) and sym_recursive's
eta from split(1).  Each draw is its base(X, noise), the part that reads no
parameter (InversionModel._bases: canonical's Gram-Schmidt of X, the
un-acted input C^T X, sym_recursive's backbone input), followed by the rest,
shared by all four variants: _draw_coset's coset, then _act (apply k,
re-act).  _forward runs the two for the prediction; objective_and_grads runs
them and backs through their outputs.  Holding the base fixed, the gradient
check differences _forward and _act without drawing again.

Training minimizes the Jensen upper bound: one reparameterised draw per
sample, loss l(y, yhat) = ||y^-1 yhat - I||_F, averaged over the batch.  A
step's batch and noise depend on the seed and the step index only, so train
draws them, and builds their bases, for a chunk of CHUNK_ROWS batch rows at
a time: each step from its own streams, with the chunk's caps tested, its
Haar normals factored and its bases built as one stack each, and a chunk
whose caps fail runs again step by step.  predict draws its Monte Carlo
draws' noise and bases the same way.  QR, the condition test and matrix
products work matrix by matrix and the rest is elementwise, so each row has
the bytes of a lone draw at any chunk size.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .groups import (REJECTION_LIMIT, RejectionError, _haar_from_normal, _normal_stack,
                     sample_accepted)
from .stochmap import RandomStream, monte_carlo_mean

VARIANTS = ("plain_mlp", "sym_haar", "sym_recursive", "canonical_deterministic")
SUMMARY_FIELDS = ("variant", "d", "final_loss", "equiv_gap", "seed", "diverged")
CHUNK_ROWS = 4096  # rows of the training steps or predict draws whose noise is stacked


class ConfigurationError(ValueError):
    pass


class DivergenceError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    d: int = 2
    variant: str = "sym_haar"
    hidden: int = 64
    steps: int = 20000
    batch_size: int = 128
    lr: float = 1e-4
    n_mc_eval: int = 100
    seed: int = 0
    condition_cap: float = 1e4
    n_test: int = 512

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        for name in ("d", "hidden", "steps", "batch_size", "n_mc_eval", "n_test"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigurationError(f"config field {name} must be an integer")
        if self.steps < 0:
            raise ConfigurationError("config field steps must be nonnegative")
        for name in ("d", "hidden", "batch_size", "n_mc_eval", "n_test"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"config field {name} must be positive")
        if not (0 < self.lr < math.inf and self.condition_cap > 1):  # also rejects NaN
            raise ConfigurationError("lr must be positive and finite, condition_cap above 1")
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise ConfigurationError("config field seed must be an integer in [0, 2**64)")


# ---------------------------------------------------------------------------
# Data


def _haar_batch(d: int, B: int, streams: Sequence[RandomStream]) -> np.ndarray:
    """A (len(streams), B, d, d) stack of Haar-distributed O(d) matrices,
    row j from streams[j]; one QR and sign fix runs on the whole stack."""
    return _haar_from_normal(_normal_stack(streams, (B, d, d)), False)


def sample_batch(d: int, B: int, stream: RandomStream,
                 condition_cap: float = 1e4) -> np.ndarray:
    """B Gaussian matrices with cond <= cap; the targets are their inverses."""
    return _sample_batches(d, B, [stream], condition_cap)[0]


def _sample_batches(d: int, B: int, streams: Sequence[RandomStream],
                    condition_cap: float) -> np.ndarray:
    """sample_batch of each stream, as one (len(streams), B, d, d) stack."""
    try:
        return sample_accepted(streams, B, d, lambda M: nn.cond_within(M, condition_cap))
    except RejectionError:
        raise ConfigurationError(f"condition cap {condition_cap} rejected "
                                 f"{REJECTION_LIMIT} batches in a row") from None


def _batch_losses(X: np.ndarray, Yhat: np.ndarray) -> np.ndarray:
    """Losses for a batch of inputs X, whose targets y = X^-1 give y^-1 = X."""
    d = X.shape[-1]
    R = X @ Yhat - np.eye(d)
    return nn.norm(R, 2)


# ---------------------------------------------------------------------------
# Models


@dataclass
class InversionModel:
    variant: str
    d: int
    hidden: int = 64
    k_sizes: Tuple[int, ...] = field(init=False)
    g0_sizes: Optional[Tuple[int, ...]] = field(init=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        dd = self.d * self.d
        self.k_sizes = (dd, self.hidden, self.hidden, dd)
        self.g0_sizes = (dd + self.d, self.hidden, dd) if self.variant == "sym_recursive" else None
        self.eye = np.eye(self.d)  # the objective's identity, built once
        self.n_k = 2 * (len(self.k_sizes) - 1)  # k's arrays lead params, gamma's follow

    @property
    def deterministic(self) -> bool:
        return self.variant in ("plain_mlp", "canonical_deterministic")

    def init(self, stream: RandomStream) -> List[np.ndarray]:
        params = nn.init_mlp(self.k_sizes, stream.split(0))
        if self.g0_sizes is not None:
            params += nn.init_mlp(self.g0_sizes, stream.split(1))
        return params

    # -- reparameterised draw -----------------------------------------------

    def _noise(self, B: int, streams: Sequence[RandomStream], couple=None) -> tuple:
        """Base draws of B rows from each of the streams, stacked by stream:
        () if deterministic, else the Haar stack C1 (one _haar_batch) from
        their split(0), premultiplied by couple when one is given, and for
        sym_recursive eta from their split(1)."""
        if self.deterministic:
            return ()
        C1 = _haar_batch(self.d, B, [s.split(0) for s in streams])
        C1 = C1 if couple is None else couple @ C1
        if self.variant == "sym_haar":
            return (C1,)
        return C1, _normal_stack([s.split(1) for s in streams], (B, self.d))

    def _bases(self, Xs, noise) -> list:
        """The parameter-free part of each draw, a tuple of views per row of
        Xs (n or 1 rows of (B, d, d) inputs) and noise: (None, None, flat(X))
        for plain_mlp; (C, C^T, flat(C^T X)) with C = C1 for sym_haar and
        GS(X) for canonical; (C1, [flat(C1^T X); eta]) for sym_recursive."""
        if self.variant == "plain_mlp":
            return [(None, None, Z) for Z in Xs.reshape(Xs.shape[:-2] + (self.d ** 2,))]
        C = noise[0] if noise else nn.gram_schmidt_forward(Xs)[0]  # canonical draws no noise
        Ct = C.swapaxes(-1, -2)
        Z = (Ct @ Xs).reshape(C.shape[:-2] + (self.d ** 2,))
        if self.variant == "sym_recursive":
            return list(zip(C, np.concatenate([Z, noise[1]], axis=-1)))
        return list(zip(C, Ct, Z))

    def _draw_coset(self, pg, X, base):
        """One gamma draw per batch row from its base: ((C, C^T, k's input Z),
        (the backbone's MLP cache, its Gram-Schmidt cache)); C is None for
        plain_mlp and the caches None off sym_recursive.  Raises
        nn.DegenerateProjectionError on a non-finite or near-singular backbone output."""
        if self.variant != "sym_recursive":
            return base, (None, None)  # no gradient flows into gamma here
        # sym_recursive: C = C1 * GS(nn_g0([flat(C1^T X); eta]))
        C1, inp = base
        U_flat, mlp_cache = nn.mlp_forward(pg, inp)
        U = U_flat.reshape(U_flat.shape[:-1] + (self.d, self.d))
        if not (np.logical_and.reduce(np.isfinite(U), axis=None)  # cond_within raises on NaN
                and np.logical_and.reduce(nn.cond_within(U, nn.DEGENERACY_CAP), axis=None)):
            raise nn.DegenerateProjectionError("gamma backbone output non-finite or near-singular")
        Qu, gs_cache = nn.gram_schmidt_forward(U)
        C = C1 @ Qu
        Ct = C.swapaxes(-1, -2)
        return (C, Ct, (Ct @ X).reshape(C.shape[:-2] + (self.d ** 2,))), (mlp_cache, gs_cache)

    def _act(self, pk, Ct, Z):
        """Apply k to the un-acted input Z = flat(C^T X), re-act Yhat = A C^T;
        Ct = None is plain_mlp (no group action).  Returns (Yhat, A, k's cache)."""
        A_flat, k_cache = nn.mlp_forward(pk, Z)
        A = A_flat.reshape(A_flat.shape[:-1] + (self.d, self.d))
        return (A if Ct is None else A @ Ct), A, k_cache

    def _forward(self, params, X, base):
        """The prediction Yhat at the draw's base (from _bases): _draw_coset,
        then _act; deterministic given (params, X, base)."""
        (_, Ct, Z), _ = self._draw_coset(params[self.n_k:], X, base)
        return self._act(params[:self.n_k], Ct, Z)[0]

    def draw(self, params, X, stream: RandomStream, couple=None) -> np.ndarray:
        """One reparameterised prediction per batch row, at the noise drawn
        from stream.  couple=Q (one d x d matrix, or one per row) evaluates
        at Q.X with the Haar base draws coupled G -> QG, which makes the draw
        exactly equal Q . (draw at X) for the symmetrised variants."""
        if couple is not None:
            X = couple @ X
        base, = self._bases(X[None], self._noise(len(X), [stream], couple))
        return self._forward(params, X, base)

    def predict(self, params, X, n_mc: int, stream: RandomStream) -> np.ndarray:
        """Averaged predictor: the mean over n_mc draws (1 if deterministic)
        of _forward at draw i's noise from stream.split(i), folded in order;
        CHUNK_ROWS rows of draws take one _noise and one _bases call."""
        if n_mc < 1:
            raise ValueError("predict needs n_mc >= 1")
        n = 1 if self.deterministic else n_mc
        chunk = max(1, CHUNK_ROWS // max(1, len(X)))
        bases = (base for start in range(0, n, chunk) for base in self._bases(X[None], self._noise(
            len(X), [stream.split(i) for i in range(start, min(start + chunk, n))])))
        return monte_carlo_mean(self._forward(params, X, base) for base in bases)

    # -- forward + backward ----------------------------------------------

    def objective_and_grads(self, params, X, base):
        """Jensen objective (one draw per sample, at the draw's base from
        _bases) and exact parameter grads."""
        if len(X) == 0:
            raise ValueError("objective_and_grads needs a nonempty batch")
        B, d = X.shape[0], self.d
        pk, pg = params[:self.n_k], params[self.n_k:]
        (C, Ct, Z), (mlp_cache, gs_cache) = self._draw_coset(pg, X, base)
        Yhat, A, k_cache = self._act(pk, Ct, Z)

        R = X @ Yhat - self.eye  # the residual of _batch_losses
        losses = nn.norm(R, 2)
        if not np.logical_and.reduce(np.isfinite(losses)):
            bad = int(np.argmax(~np.isfinite(losses)))
            raise DivergenceError(f"non-finite loss at batch index {bad}")
        objective = float(np.add.reduce(losses) / B)  # the bytes of losses.mean()

        # dl/dYhat for l = ||R||_F, averaged over the batch
        denom = np.where(losses > 1e-30, losses, 1.0)
        dYhat = X.transpose(0, 2, 1) @ R / denom[:, None, None] / B

        recursive = gs_cache is not None
        dA = dYhat if C is None else dYhat @ C
        grads, dZ_flat = nn.mlp_backward(pk, k_cache, dA.reshape(B, d * d), recursive)

        if recursive:
            # Yhat = A C^T and Z = C^T X both depend on C = C1 Qu
            dC = dYhat.transpose(0, 2, 1) @ A
            dZ = dZ_flat.reshape(B, d, d)
            dC += X @ dZ.transpose(0, 2, 1)
            dQu = base[0].transpose(0, 2, 1) @ dC  # base[0] is C1
            dU = nn.gram_schmidt_backward(gs_cache, dQu)
            grads_g0, _ = nn.mlp_backward(pg, mlp_cache, dU.reshape(B, d * d), False)
            grads = grads + grads_g0

        return objective, grads


# ---------------------------------------------------------------------------
# Training and evaluation


@dataclass
class TrainResult:
    params: List[np.ndarray]
    history: List[Tuple[int, float]]
    diverged: bool = False


def train(config: TrainConfig) -> TrainResult:
    """Fresh batch every step (no finite dataset); deterministic given seed.

    Step t draws its batch from steps.split(t).split(0) and its noise from
    steps.split(t).split(1), which deterministic variants, drawing no
    noise, do not build.  Neither depends on the parameters, so the
    draws of a chunk of max(1, CHUNK_ROWS // batch_size) steps are
    stacked before the chunk's steps run, with the bytes of step-by-step
    draws.  A step whose condition cap cannot be met raises
    ConfigurationError only when the loop, rerunning its chunk step by
    step, reaches it.  The run ends diverged at a non-finite or huge
    objective, a non-finite gradient, a degenerate gamma draw, or a
    non-finite final parameter, which p -= step never makes finite again.
    """
    model = InversionModel(config.variant, config.d, config.hidden)
    root = RandomStream(config.seed)
    params, state = nn.adam_init(model.init(root.split(0)))
    history: List[Tuple[int, float]] = []
    steps, d, B, cap = root.split(1), config.d, config.batch_size, config.condition_cap
    chunk = max(1, CHUNK_ROWS // B)
    chunks = [range(t, min(t + chunk, config.steps)) for t in range(0, config.steps, chunk)[::-1]]
    while chunks:
        ts = chunks.pop()
        streams = [steps.split(t) for t in ts]
        try:
            Xs = _sample_batches(d, B, [s.split(0) for s in streams], cap)
        except ConfigurationError:
            if len(ts) == 1:  # the loop has reached the step whose cap cannot be met
                raise
            chunks += [range(t, t + 1) for t in ts[::-1]]  # rerun the chunk step by step
            continue
        noise = () if model.deterministic else model._noise(B, [s.split(1) for s in streams])
        for step, X, base in zip(ts, Xs, model._bases(Xs, noise)):
            try:
                objective, grads = model.objective_and_grads(params, X, base)
                if not math.isfinite(objective) or objective > 1e6:
                    raise DivergenceError(f"objective {objective} at step {step + 1}")
                nn.adam_step(grads, state, config.lr)  # updates params in place
            except (DivergenceError, nn.GradientError, nn.DegenerateProjectionError):
                return TrainResult(params, history, diverged=True)
            history.append((step + 1, objective))
    finite = np.logical_and.reduce(np.isfinite(state.params))
    return TrainResult(params, history, diverged=not finite)


def equivariance_gap(model: InversionModel, params, X: np.ndarray, Qs: np.ndarray,
                     stream: RandomStream, n_mc: int = 16) -> np.ndarray:
    """Per-pair ||f(Q_i x_i) - f(x_i) Q_i^T||_F / (1 + ||f(x_i)||_F), coupled.

    X and Qs have shape (N, d, d).  Each pair is repeated n_mc times (once
    for deterministic variants), pair-major, and each side is one _forward
    batch.  The base noise is drawn once from stream: the coupled side
    reuses it with the Haar samples of the symmetrised variants
    premultiplied by Q_i, exactly as draw(..., couple=Q) would draw it, so
    for symmetrised models the identity holds pointwise up to float error.
    The coset and k's output are recomputed, not reused, so that the gap
    measures the model and not its construction.
    """
    if n_mc < 1:
        raise ValueError(f"equivariance_gap needs n_mc >= 1, got {n_mc}")
    Qs = np.asarray(Qs, dtype=float)
    if len(X) != len(Qs):
        raise ValueError(f"equivariance_gap needs one Q per row of X, got "
                         f"len(X) = {len(X)} and len(Qs) = {len(Qs)}")
    N, d = Qs.shape[0], Qs.shape[-1]
    Qt = np.transpose(Qs, (0, 2, 1))
    if np.any(nn.norm(Qt @ Qs - np.eye(d), 2) > 1e-9):
        raise ValueError("equivariance_gap requires every Q to be orthogonal")
    n = 1 if model.deterministic else n_mc
    Xr, Qr = np.repeat(X, n, axis=0), np.repeat(Qs, n, axis=0)
    noise = model._noise(N * n, [stream])
    coupled = noise and (Qr @ noise[0],) + noise[1:]
    f1, f2 = (model._forward(params, x, model._bases(x[None], z)[0])
              .reshape(N, n, d, d).mean(axis=1) for x, z in ((Xr, noise), (Qr @ Xr, coupled)))
    return nn.norm(f2 - f1 @ Qt, 2) / (1.0 + nn.norm(f1, 2))


def evaluate(model: InversionModel, params, n_test: int, n_mc: int,
             stream: RandomStream, condition_cap: float = 1e4,
             n_gap_pairs: int = 100) -> Tuple[float, float]:
    """Mean MC-averaged test loss and mean coupled equivariance gap."""
    if n_test < 1 or n_gap_pairs < 1:
        raise ValueError("evaluate needs n_test >= 1 and n_gap_pairs >= 1")
    X = sample_batch(model.d, n_test, stream.split(0), condition_cap)
    Yhat = model.predict(params, X, n_mc, stream.split(1))
    mean_loss = float(_batch_losses(X, Yhat).mean())

    gap_stream = stream.split(2)
    n_pairs = min(n_gap_pairs, n_test)
    Qs = _haar_batch(model.d, n_pairs, [gap_stream.split(0)])[0]
    gaps = equivariance_gap(model, params, X[:n_pairs], Qs, gap_stream.split(1),
                            n_mc=min(n_mc, 16))
    return mean_loss, float(gaps.mean())


# ---------------------------------------------------------------------------
# Artifacts


def write_history_csv(path: str, history: List[Tuple[int, float]]) -> None:
    with nn.atomic_open(path) as fh:
        fh.write("step,objective\n")
        for step, obj in history:
            fh.write("%d,%.17g\n" % (step, obj))


def write_summary(path: str, result: dict) -> None:
    """Write the SUMMARY_FIELDS of a run_experiment result as JSON."""
    with nn.atomic_open(path) as fh:
        json.dump({key: result[key] for key in SUMMARY_FIELDS}, fh, indent=2)
        fh.write("\n")


def run_experiment(config: TrainConfig) -> dict:
    """Train one variant and evaluate it; returns the summary fields.

    The run is diverged if training diverged or final_loss or equiv_gap is
    not finite; a degenerate gamma draw during evaluation makes both NaN.
    """
    result = train(config)
    model = InversionModel(config.variant, config.d, config.hidden)
    eval_stream = RandomStream(config.seed).split(2)
    try:
        mean_loss, gap = evaluate(
            model, result.params, config.n_test, config.n_mc_eval, eval_stream,
            config.condition_cap,
        )
    except nn.DegenerateProjectionError:
        mean_loss = gap = float("nan")
    return {
        "variant": config.variant,
        "d": config.d,
        "seed": config.seed,
        "final_loss": mean_loss,
        "equiv_gap": gap,
        "history": result.history,
        "params": result.params,
        "diverged": result.diverged or not (math.isfinite(mean_loss) and math.isfinite(gap)),
    }
