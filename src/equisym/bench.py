"""Matrix-inversion benchmark: learn A -> A^-1 with O(d)-equivariant models.

O(d) acts on inputs by left multiplication and on outputs by right
multiplication by the transpose, so the target map is equivariant:
(QA)^-1 = A^-1 Q^T.  Four model variants are provided:

- plain_mlp: unconstrained MLP, no symmetrisation
- sym_haar: symmetrised with gamma = Haar on O(d)
- sym_recursive: gamma itself symmetrised from an unconstrained
  noise-fed MLP projected onto O(d) by Gram-Schmidt, with a Haar base case
- canonical_deterministic: deterministic gamma = Gram-Schmidt of the input

All four share one forward path, InversionModel._forward, and differ only
in the coset draw _draw_coset.

Training minimizes the Jensen upper bound: one reparameterised draw per
sample, loss l(y, yhat) = ||y^-1 yhat - I||_F, averaged over the batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import nn
from .groups import REJECTION_LIMIT, RejectionError, _haar_orthogonal, sample_accepted
from .stochmap import RandomStream, monte_carlo_mean

VARIANTS = ("plain_mlp", "sym_haar", "sym_recursive", "canonical_deterministic")
SUMMARY_FIELDS = ("variant", "d", "final_loss", "equiv_gap", "seed", "diverged")


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
        if self.steps < 0:
            raise ConfigurationError("config field steps must be nonnegative")
        for name in ("d", "hidden", "batch_size", "n_mc_eval", "n_test"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"config field {name} must be positive")
        if not (self.lr > 0 and self.condition_cap > 1):  # also rejects NaN
            raise ConfigurationError("lr must be positive and condition_cap above 1")


# ---------------------------------------------------------------------------
# Data


def _haar_batch(d: int, B: int, stream: RandomStream) -> np.ndarray:
    """Stack of B Haar-distributed O(d) matrices."""
    return _haar_orthogonal(d, stream, False, batch=(B,))


def sample_batch(d: int, B: int, stream: RandomStream,
                 condition_cap: float = 1e4) -> np.ndarray:
    """B Gaussian matrices with cond <= cap; the targets are their inverses."""
    try:
        return sample_accepted(stream, B, d, lambda M: nn.cond_within(M, condition_cap))
    except RejectionError:
        raise ConfigurationError(f"condition cap {condition_cap} rejected "
                                 f"{REJECTION_LIMIT} batches in a row") from None


def loss(y: np.ndarray, yhat: np.ndarray) -> float:
    """l(y, yhat) = ||y^-1 yhat - I||_F; zero iff yhat = y."""
    y = np.asarray(y, dtype=float)
    if abs(np.linalg.det(y)) <= 1e-12:
        raise np.linalg.LinAlgError("loss target is singular")
    d = y.shape[0]
    return float(np.linalg.norm(np.linalg.solve(y, yhat) - np.eye(d)))


def _batch_losses(X: np.ndarray, Yhat: np.ndarray) -> np.ndarray:
    """Losses for a batch of inputs X, whose targets y = X^-1 give y^-1 = X."""
    d = X.shape[-1]
    R = X @ Yhat - np.eye(d)
    return np.linalg.norm(R, axis=(1, 2))


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

    @property
    def deterministic(self) -> bool:
        return self.variant in ("plain_mlp", "canonical_deterministic")

    def init(self, stream: RandomStream) -> List[np.ndarray]:
        params = nn.init_mlp(self.k_sizes, stream.split(0))
        if self.g0_sizes is not None:
            params += nn.init_mlp(self.g0_sizes, stream.split(1))
        return params

    # -- coset draw -------------------------------------------------------

    def _draw_coset(self, pg, X, stream: RandomStream, couple=None):
        """One gamma draw per batch row; returns (C, cache or None).

        With couple=Q, X is expected to already be Q.X and the Haar base
        draws are premultiplied by Q, realizing the coupling G -> QG.
        Raises nn.DegenerateProjectionError if a sym_recursive backbone
        output is too close to singular for Gram-Schmidt.
        """
        B, d = X.shape[0], self.d
        if self.variant == "plain_mlp":
            return None, None
        if self.variant == "canonical_deterministic":
            Q, cache = nn.gram_schmidt_forward(X)
            return Q, None  # no gradient flows into gamma here
        C1 = _haar_batch(d, B, stream.split(0))
        if couple is not None:
            C1 = couple @ C1
        if self.variant == "sym_haar":
            return C1, None
        # sym_recursive: C = C1 * GS(nn_g0([flat(C1^T X); eta]))
        Z1 = np.transpose(C1, (0, 2, 1)) @ X
        eta = stream.split(1).normal((B, d))
        inp = np.concatenate([Z1.reshape(B, d * d), eta], axis=1)
        U_flat, mlp_cache = nn.mlp_forward(pg, inp)
        U = U_flat.reshape(B, d, d)
        if not np.all(nn.cond_within(U, nn.DEGENERACY_CAP)):
            raise nn.DegenerateProjectionError("gamma backbone produced a near-singular output")
        Qu, gs_cache = nn.gram_schmidt_forward(U)
        C = C1 @ Qu
        cache = {"C1": C1, "Qu": Qu, "mlp_cache": mlp_cache, "gs_cache": gs_cache}
        return C, cache

    # -- forward ----------------------------------------------------------

    def _forward(self, params, X, stream: RandomStream, couple=None):
        """Draw C ~ gamma(X), un-act Z = C^T X, apply k, re-act Yhat = A C^T.

        plain_mlp is the case C = None (no group action).  Returns
        (Yhat, cache); the cache holds what the backward pass reads.
        """
        n_k = 2 * (len(self.k_sizes) - 1)
        pk, pg = params[:n_k], params[n_k:]
        B, d = X.shape[0], self.d
        if couple is not None:
            X = couple @ X
        C, coset_cache = self._draw_coset(pg, X, stream, couple=couple)
        Ct = None if C is None else np.transpose(C, (0, 2, 1))
        Z = X if C is None else Ct @ X
        A_flat, k_cache = nn.mlp_forward(pk, Z.reshape(B, d * d))
        A = A_flat.reshape(B, d, d)
        Yhat = A if C is None else A @ Ct
        cache = {"pk": pk, "pg": pg, "C": C, "coset": coset_cache, "k": k_cache, "A": A}
        return Yhat, cache

    def draw(self, params, X, stream: RandomStream, couple=None) -> np.ndarray:
        """One reparameterised prediction per batch row.

        couple=Q (one d x d matrix, or one per row) evaluates at Q.X with the
        Haar base draws coupled G -> QG, which makes the draw exactly equal
        Q . (draw at X) for the symmetrised variants.
        """
        return self._forward(params, X, stream, couple)[0]

    def predict(self, params, X, n_mc: int, stream: RandomStream) -> np.ndarray:
        """Averaged predictor: mean over n_mc draws (1 draw if deterministic)."""
        if n_mc < 1:
            raise ValueError("predict needs n_mc >= 1")
        n = 1 if self.deterministic else n_mc
        return monte_carlo_mean(lambda s: self.draw(params, X, s), stream, n)

    # -- forward + backward ----------------------------------------------

    def objective_and_grads(self, params, X, stream: RandomStream):
        """Jensen objective (one draw per sample) and exact parameter grads."""
        if len(X) == 0:
            raise ValueError("objective_and_grads needs a nonempty batch")
        B, d = X.shape[0], self.d
        Yhat, cache = self._forward(params, X, stream)

        R = X @ Yhat - np.eye(d)  # the residual of _batch_losses
        losses = np.linalg.norm(R, axis=(1, 2))
        if not np.all(np.isfinite(losses)):
            bad = int(np.argmax(~np.isfinite(losses)))
            raise DivergenceError(f"non-finite loss at batch index {bad}")
        objective = float(losses.mean())

        # dl/dYhat for l = ||R||_F, averaged over the batch
        denom = np.where(losses > 1e-30, losses, 1.0)
        dYhat = np.transpose(X, (0, 2, 1)) @ R / denom[:, None, None] / B

        C = cache["C"]
        dA = dYhat if C is None else dYhat @ C
        grads, dZ_flat = nn.mlp_backward(cache["pk"], cache["k"], dA.reshape(B, d * d))

        if self.variant == "sym_recursive":
            # Yhat = A C^T and Z = C^T X both depend on C = C1 Qu
            coset_cache = cache["coset"]
            dC = np.transpose(dYhat, (0, 2, 1)) @ cache["A"]
            dZ = dZ_flat.reshape(B, d, d)
            dC += X @ np.transpose(dZ, (0, 2, 1))
            dQu = np.transpose(coset_cache["C1"], (0, 2, 1)) @ dC
            dU = nn.gram_schmidt_backward(coset_cache["gs_cache"], dQu)
            grads_g0, _ = nn.mlp_backward(
                cache["pg"], coset_cache["mlp_cache"], dU.reshape(B, d * d)
            )
            grads = grads + grads_g0

        return objective, grads


# ---------------------------------------------------------------------------
# Training and evaluation


@dataclass
class TrainResult:
    config: TrainConfig
    params: List[np.ndarray]
    history: List[Tuple[int, float]]
    diverged: bool = False


def train(config: TrainConfig) -> TrainResult:
    """Fresh batch every step (no finite dataset); deterministic given seed."""
    model = InversionModel(config.variant, config.d, config.hidden)
    root = RandomStream(config.seed)
    params = model.init(root.split(0))
    state = nn.adam_init(params)
    history: List[Tuple[int, float]] = []
    for step in range(config.steps):
        s = root.split(1).split(step)
        X = sample_batch(config.d, config.batch_size, s.split(0), config.condition_cap)
        try:
            objective, grads = model.objective_and_grads(params, X, s.split(1))
            if not np.isfinite(objective) or objective > 1e6:
                raise DivergenceError(f"objective {objective} at step {step + 1}")
            params, state = nn.adam_step(params, grads, state, config.lr)
        except (DivergenceError, nn.GradientError, nn.DegenerateProjectionError):
            return TrainResult(config, params, history, diverged=True)
        history.append((step + 1, objective))
    return TrainResult(config, params, history)


def equivariance_gap(model: InversionModel, params, X: np.ndarray, Qs: np.ndarray,
                     stream: RandomStream, n_mc: int = 16) -> np.ndarray:
    """Per-pair ||f(Q_i x_i) - f(x_i) Q_i^T||_F / (1 + ||f(x_i)||_F), coupled.

    X and Qs have shape (N, d, d).  Each pair is repeated n_mc times (once
    for deterministic variants), pair-major, and both sides are drawn as one
    batch each from the same stream, so they share their base draws, with
    the Haar samples of the symmetrised variants premultiplied by Q_i; for
    symmetrised models the identity then holds pointwise up to float error.
    """
    if n_mc < 1:
        raise ValueError(f"equivariance_gap needs n_mc >= 1, got {n_mc}")
    Qs = np.asarray(Qs, dtype=float)
    if len(X) != len(Qs):
        raise ValueError(f"equivariance_gap needs one Q per row of X, got "
                         f"len(X) = {len(X)} and len(Qs) = {len(Qs)}")
    N, d = Qs.shape[0], Qs.shape[-1]
    Qt = np.transpose(Qs, (0, 2, 1))
    if np.any(np.linalg.norm(Qt @ Qs - np.eye(d), axis=(1, 2)) > 1e-9):
        raise ValueError("equivariance_gap requires every Q to be orthogonal")
    n = 1 if model.deterministic else n_mc
    Xr = np.repeat(X, n, axis=0)
    f1, f2 = (model.draw(params, Xr, stream, couple=c).reshape(N, n, d, d).mean(axis=1)
              for c in (None, np.repeat(Qs, n, axis=0)))
    return np.linalg.norm(f2 - f1 @ Qt, axis=(1, 2)) / (1.0 + np.linalg.norm(f1, axis=(1, 2)))


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
    Qs = _haar_batch(model.d, n_pairs, gap_stream.split(0))
    gaps = equivariance_gap(model, params, X[:n_pairs], Qs, gap_stream.split(1),
                            n_mc=min(n_mc, 16))
    return mean_loss, float(gaps.mean())


# ---------------------------------------------------------------------------
# Artifacts


def write_history_csv(path: str, history: List[Tuple[int, float]]) -> None:
    with open(path, "w") as fh:
        fh.write("step,objective\n")
        for step, obj in history:
            fh.write("%d,%.17g\n" % (step, obj))


def write_summary(path: str, result: dict) -> None:
    """Write the SUMMARY_FIELDS of a run_experiment result as JSON."""
    with open(path, "w") as fh:
        json.dump({key: result[key] for key in SUMMARY_FIELDS}, fh, indent=2)
        fh.write("\n")


def run_experiment(config: TrainConfig) -> dict:
    """Train one variant and evaluate it; returns the summary fields.

    A degenerate gamma draw during evaluation ends the run as diverged, as
    it does during training, with NaN final_loss and equiv_gap.
    """
    result = train(config)
    model = InversionModel(config.variant, config.d, config.hidden)
    eval_stream = RandomStream(config.seed).split(2)
    diverged = result.diverged
    try:
        mean_loss, gap = evaluate(
            model, result.params, config.n_test, config.n_mc_eval, eval_stream,
            config.condition_cap,
        )
    except nn.DegenerateProjectionError:
        mean_loss = gap = float("nan")
        diverged = True
    return {
        "variant": config.variant,
        "d": config.d,
        "seed": config.seed,
        "final_loss": mean_loss,
        "equiv_gap": gap,
        "history": result.history,
        "params": result.params,
        "diverged": diverged,
    }
