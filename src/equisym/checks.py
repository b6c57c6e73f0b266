"""Executable property suites: group axioms, coset-bundle laws,
symmetrisation identities and the Jensen bound, and gradient correctness.

Each suite returns a list of CheckResult rows; the CLI renders them and
the acceptance tests assert on them, running exactly what `equisym check
all` runs, as sizes and tolerances are this module's constants.  The group
and coset laws run as one call on stacks of samples, S_n's included.  Each
stability case draws its inputs as one stack and makes one stacked
symmetrised draw, sym.sampler(xs, stream, n), whose rows are n independent
draws (see stochmap).  The finite differences run one stacked forward per
parameter array, with the differences of a per-coordinate loop, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from . import bench, nn
from .equivariance import (
    Action,
    coset_bundle_orthogonal_in_gl,
    coset_bundle_semidirect,
    coset_bundle_trivial,
    trivial_action,
)
from .groups import (
    AXIOM_TOL,
    GroupDescriptor,
    element_distance,
    general_linear_group,
    orthogonal_group,
    perm_apply,
    special_euclidean_group,
    symmetric_group,
    translation_group,
)
from .stochmap import (
    RandomStream,
    Space,
    distributions_equal,
    enumerate_distribution,
    lift_deterministic,
)
from .symcore import (
    SymmetrisationSpec,
    average,
    gamma_columnwise_mean,
    gamma_from_haar,
    symmetrise,
)

DEFAULT_SEED = 20240817
N_SAMPLES = 1000  # random elements per role in the group and coset laws
N_POINTS = 100  # inputs per stability case, and (x, Q) pairs per gap row


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_error: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}  worst_error={self.worst_error:.3e}"


# ---------------------------------------------------------------------------
# Group axioms


def standard_groups() -> Dict[str, GroupDescriptor]:
    return {
        "O(2)": orthogonal_group(2),
        "O(3)": orthogonal_group(3),
        "SO(3)": orthogonal_group(3, special=True),
        "S_4": symmetric_group(4),
        "T_3": translation_group(3),
        "SE(2)": special_euclidean_group(2),
        "SE(3)": special_euclidean_group(3),
        "GL(2)": general_linear_group(2),
    }


def check_group_axioms(G: GroupDescriptor) -> CheckResult:
    """Associativity, unit, and inverse on random triples, one stream and
    one stack per role."""
    stream = RandomStream(DEFAULT_SEED)

    def law(g, h, n):
        return max(element_distance(G.mul(G.mul(g, h), n), G.mul(g, G.mul(h, n))),
                   element_distance(G.mul(g, G.identity), g),
                   element_distance(G.mul(G.identity, g), g),
                   element_distance(G.mul(g, G.inv(g)), G.identity))

    worst = law(*(G.random_element(stream.split(role), N_SAMPLES) for role in range(3)))
    return CheckResult(f"group axioms {G.name}", worst <= AXIOM_TOL, worst)


def check_groups() -> List[CheckResult]:
    return [check_group_axioms(G) for G in standard_groups().values()]


# ---------------------------------------------------------------------------
# Coset bundle laws


def standard_bundles():
    out = {"trivial O(2)": coset_bundle_trivial(orthogonal_group(2))}
    for d in (2, 3):
        out[f"O({d}) in GL({d})"] = coset_bundle_orthogonal_in_gl(d)
        se = special_euclidean_group(d)
        out[f"SE({d}) via_N"] = coset_bundle_semidirect(se, "via_N")
        out[f"SE({d}) via_H"] = coset_bundle_semidirect(se, "via_H")
    return out


def check_coset_bundle(name: str, bundle, drawn: Optional[dict] = None) -> CheckResult:
    """Right-inverse, H-invariance, and G-equivariance laws on random
    samples, one stream and one stack per role.  drawn, if given, keeps G's
    g and g' by id(G) for the next bundle of G; the laws only read them."""
    G = bundle.group
    H = bundle.phi.source
    q = bundle.q
    stream = RandomStream(DEFAULT_SEED)

    def law(g, g2, h):
        c = q(g)
        return max(
            element_distance(q(bundle.s(c)), c),  # q(s(c)) = c
            element_distance(q(G.mul(g, G.inv(bundle.phi.map(h)))), c),  # q(g phi(h)^-1) = q(g)
            element_distance(q(G.mul(g, g2)),  # q(g g') = g . q(g')
                             bundle.coset_action.apply(g, q(g2))),
        )

    drawn = {} if drawn is None else drawn
    if id(G) not in drawn:
        drawn[id(G)] = [G.random_element(stream.split(role), N_SAMPLES) for role in (0, 1)]
    g, g2 = drawn[id(G)]
    h = H.random_element(stream.split(2), N_SAMPLES) if H.random_element else H.identity
    worst = law(g, g2, h)
    return CheckResult(f"coset laws {name}", worst <= AXIOM_TOL, worst)


def check_cosets() -> List[CheckResult]:
    """Each standard bundle's coset laws.  SE(d)'s two bundles share one G,
    whose g and g' are drawn once: a second draw gives the same bytes."""
    drawn: dict = {}
    return [check_coset_bundle(name, bundle, drawn)
            for name, bundle in standard_bundles().items()]


# ---------------------------------------------------------------------------
# Symmetrisation identities


def janossy_setup(n: int):
    """S_n permuting coordinate tuples, trivial output action, k = first coord;
    a stack of m points is an (m, n) array."""
    G = symmetric_group(n)
    bundle = coset_bundle_trivial(G)
    x_space = Space(f"tuple{n}")
    y_space = Space("scalar")
    action_x = Action(group=G, space=x_space, apply=perm_apply)
    action_y = trivial_action(G, y_space)
    gamma = gamma_from_haar(bundle, action_x)
    spec = SymmetrisationSpec(bundle=bundle, action_x=action_x, action_y=action_y,
                              gamma=gamma)
    k = lift_deterministic(lambda x: x[0] if isinstance(x, tuple) else x[..., 0],
                           x_space, y_space)
    return spec, k


def check_janossy_equivariance(n: int) -> CheckResult:
    """Exact distributional equivariance at x and every g.x, zero tolerance."""
    spec, k = janossy_setup(n)
    sym = symmetrise(k, spec)
    stream = RandomStream(DEFAULT_SEED)
    G = spec.group
    ok = True
    for trial in range(5):
        x = tuple(float(v) for v in stream.split(trial).integers(0, 100, n))
        base = enumerate_distribution(sym, x)
        for g in G.elements:
            gx = spec.action_x.apply(g, x)
            pushed = [(p, spec.action_y.apply(g, y)) for p, y in base]
            if not distributions_equal(enumerate_distribution(sym, gx), pushed):
                ok = False
        # uniform-average formula: each coordinate appears with weight
        # (n-1)!/n! = 1/n
        counts = {v: Fraction(0) for v in x}
        for p, y in base:
            counts[y] += p
        if any(counts[v] != Fraction(x.count(v), n) for v in counts):
            ok = False
    return CheckResult(f"janossy exact equivariance S_{n}", ok, 0.0 if ok else 1.0)


def _stability_cases():
    """(name, bundle, act, gamma, sample_x); act acts on both X and Y, and
    act, gamma and sample_x(stream, n) work on stacks of n points."""
    cases = []

    # trivial bundle over O(2), on R^{2 x 5} with column rotation
    G = orthogonal_group(2)
    bundle = coset_bundle_trivial(G)
    act = Action(group=G, space=Space("R^(2x5)"), apply=lambda Q, x: Q @ x)
    cases.append(("trivial O(2) haar", bundle, act, gamma_from_haar(bundle, act),
                  lambda s, n: s.normal((n, 2, 5))))

    # O(2) in GL(2), on R^{2 x 4} under left multiplication, gamma(B) = B B^T
    gl = general_linear_group(2)
    bundle = coset_bundle_orthogonal_in_gl(2, gl=gl)
    act = Action(group=gl, space=Space("R^(2x4)"), apply=lambda A, x: A @ x)
    gamma = lift_deterministic(lambda B: B[..., :2] @ np.swapaxes(B[..., :2], -1, -2),
                               act.space, bundle.coset_space)
    cases.append(("O(2) in GL(2) gram gamma", bundle, act, gamma,
                  lambda s, n: np.concatenate([gl.random_element(s, n), s.normal((n, 2, 2))],
                                              axis=-1)))

    # SE(2) on point clouds, via_H with gamma = columnwise mean and via_N
    # with gamma = Haar on SO(2)
    se = special_euclidean_group(2)

    def se_apply(g, x):
        t, Q = g
        return Q @ x + t[..., :, None]

    act = Action(group=se, space=Space("R^(2x5)"), apply=se_apply)
    bundle = coset_bundle_semidirect(se, "via_H")
    cases.append(("SE(2) via_H columnwise mean", bundle, act,
                  gamma_columnwise_mean(bundle, act), lambda s, n: s.normal((n, 2, 5))))
    bundle = coset_bundle_semidirect(se, "via_N")
    cases.append(("SE(2) via_N haar", bundle, act, gamma_from_haar(bundle, act),
                  lambda s, n: s.normal((n, 2, 5))))
    return cases


def check_stability() -> List[CheckResult]:
    """sym_gamma(k)(x) = k(x) pointwise for the identity k, which is
    deterministic, equivariant and X-valued: one stack of N_POINTS inputs
    from split(0) and one stacked symmetrised draw from split(1) per case."""
    out = []
    for name, bundle, act, gamma, sample_x in _stability_cases():
        k = lift_deterministic(lambda x: x, act.space, act.space)
        sym = symmetrise(k, SymmetrisationSpec(bundle, act, act, gamma))
        stream = RandomStream(DEFAULT_SEED)
        xs = sample_x(stream.split(0), N_POINTS)
        worst = element_distance(sym.sampler(xs, stream.split(1), N_POINTS),
                                 k.sampler(xs, stream, N_POINTS))
        out.append(CheckResult(f"stability {name}", worst <= AXIOM_TOL, worst))
    return out


def check_idempotence() -> CheckResult:
    """Double symmetrisation matches single, exactly, on finite cases."""
    ok = True
    stream = RandomStream(DEFAULT_SEED)
    for n in (2, 3):
        spec, k = janossy_setup(n)
        once = symmetrise(k, spec)
        twice = symmetrise(once, spec)
        for trial in range(5):
            x = tuple(float(v) for v in stream.split(10 * n + trial).integers(0, 50, n))
            if not distributions_equal(enumerate_distribution(once, x),
                                       enumerate_distribution(twice, x)):
                ok = False
    return CheckResult("idempotence on finite cases", ok, 0.0 if ok else 1.0)


def check_jensen_rational() -> CheckResult:
    """Criterion 7a, in exact rationals: Janossy over S_2 at x = (3, 5), with
    the scalar surrogate loss |yhat/y - 1| and the invariant target y = 4.
    The expected loss of a draw is 1/4, and the loss of the exact average
    is 0, so E[loss] >= loss(E)."""
    spec, k = janossy_setup(2)
    sym = symmetrise(k, spec)
    x, y = (Fraction(3), Fraction(5)), Fraction(4)
    expected_loss = sum(p * abs(yhat / y - 1) for p, yhat in enumerate_distribution(sym, x))
    loss_of_mean = abs(average(sym).sampler(x, RandomStream(DEFAULT_SEED)) / y - 1)
    ok = expected_loss >= loss_of_mean and expected_loss == Fraction(1, 4) and loss_of_mean == 0
    return CheckResult("jensen bound in exact rationals S_2", ok, 0.0 if ok else 1.0)


def check_model_gaps() -> List[CheckResult]:
    """Coupled equivariance gap of untrained symmetrised benchmark models at
    d = 2 and 3, at most 1e-6 on each of N_POINTS (x, Q) pairs."""
    out = []
    for d in (2, 3):
        for variant in ("sym_haar", "sym_recursive", "canonical_deterministic"):
            model = bench.InversionModel(variant, d, hidden=16)
            stream = RandomStream(DEFAULT_SEED + d)
            params = model.init(stream.split(0))
            X = bench.sample_batch(d, N_POINTS, stream.split(1))
            Qs = bench._haar_batch(d, N_POINTS, [stream.split(2)])[0]
            try:
                worst = float(bench.equivariance_gap(model, params, X, Qs, stream.split(3),
                                                     n_mc=4).max())
            except nn.DegenerateProjectionError:  # a near-singular gamma draw fails the row
                worst = float("inf")
            out.append(CheckResult(
                f"equivariance gap {variant} d={d}", worst <= 1e-6, worst))
    return out


def check_symmetrise() -> List[CheckResult]:
    out = [check_janossy_equivariance(n) for n in (2, 3, 4)]
    out += check_stability()
    out.append(check_idempotence())
    out.append(check_jensen_rational())
    out += check_model_gaps()
    return out


# ---------------------------------------------------------------------------
# Gradients


def _relative_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-8)
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / scale)


def finite_difference_grads(f, params: List[np.ndarray], h: float = 1e-5):
    """Central finite differences of f, which maps a parameter list whose
    arrays carry one leading stack axis to one objective per stack row.

    Each array of n entries takes one call of f on 2n rows: row 2j moves
    entry j by +h and row 2j+1 by -h, and the other arrays are broadcast
    views."""
    grads = []
    for idx, p in enumerate(params):
        n, flat = p.size, p.ravel()
        rows = np.repeat(flat[None], 2 * n, axis=0)
        j = np.arange(n)
        rows[2 * j, j] = flat + h
        rows[2 * j + 1, j] = flat - h
        obj = f([rows.reshape((2 * n,) + p.shape) if i == idx
                 else np.broadcast_to(q, (2 * n,) + q.shape) for i, q in enumerate(params)])
        grads.append(((obj[0::2] - obj[1::2]) / (2 * h)).reshape(p.shape))
    return grads


def check_mlp_gradients() -> CheckResult:
    """Backprop through a random 3-5-2 net vs central differences."""
    stream = RandomStream(DEFAULT_SEED)
    mlp = nn.init_mlp((3, 5, 2), stream.split(0))
    x = stream.split(1).normal((1, 3))
    w = stream.split(2).normal((1, 2))

    def objective(flat):
        y, _ = nn.mlp_forward(flat, x)
        return np.vecdot(y[..., 0, :], w[0])

    y, cache = nn.mlp_forward(mlp, x)
    grads, _ = nn.mlp_backward(mlp, cache, w)
    fd = finite_difference_grads(objective, mlp)
    worst = max(_relative_error(g, f) for g, f in zip(grads, fd))
    return CheckResult("mlp gradients vs finite differences", worst <= 1e-5, worst)


def check_gram_schmidt_gradients() -> CheckResult:
    stream = RandomStream(DEFAULT_SEED)
    M = stream.normal((1, 3, 3))
    W = stream.split(1).normal((1, 3, 3))

    def objective(params):
        Q, _ = nn.gram_schmidt_forward(params[0])
        return (W * Q).sum(axis=(-3, -2, -1))

    Q, cache = nn.gram_schmidt_forward(M)
    dM = nn.gram_schmidt_backward(cache, W)
    fd = finite_difference_grads(objective, [M])
    worst = _relative_error(dM, fd[0])
    return CheckResult("gram-schmidt gradients vs finite differences",
                       worst <= 1e-5, worst)


def check_end_to_end_gradients() -> CheckResult:
    """Reparameterised gradient of the Jensen objective, sym_recursive d=2.

    A draw is deterministic given (params, X, noise), so its base is built
    once from the frozen stream: k's finite differences run through _act at
    the fixed coset C, and gamma's through _forward at the fixed base.
    Neither runs a backward pass or draws again."""
    model = bench.InversionModel("sym_recursive", d=2, hidden=8)
    stream = RandomStream(DEFAULT_SEED)
    params = model.init(stream.split(0))
    X = bench.sample_batch(2, 4, stream.split(1))
    frozen = stream.split(2)

    def objective(Yhat):  # objective_and_grads' objective at these predictions
        return bench._batch_losses(X, Yhat).mean(axis=-1)

    try:
        base, = model._bases(X[None], model._noise(len(X), [frozen]))
        _, grads = model.objective_and_grads(params, X, base)
        pk, pg = params[:model.n_k], params[model.n_k:]
        (_, Ct, Z), _ = model._draw_coset(pg, X, base)
        fd = (finite_difference_grads(lambda p: objective(model._act(p, Ct, Z)[0]), pk)
              + finite_difference_grads(lambda p: objective(model._forward(pk + p, X, base)), pg))
        worst = max(_relative_error(g, f) for g, f in zip(grads, fd))
    except nn.DegenerateProjectionError:  # a near-singular gamma draw fails the row
        worst = float("inf")
    return CheckResult("end-to-end jensen gradient vs finite differences",
                       worst <= 1e-4, worst)


def check_gradients() -> List[CheckResult]:
    return [
        check_mlp_gradients(),
        check_gram_schmidt_gradients(),
        check_end_to_end_gradients(),
    ]


# ---------------------------------------------------------------------------
# Suites


SUITES = {
    "groups": check_groups,
    "cosets": check_cosets,
    "symmetrise": check_symmetrise,
    "gradients": check_gradients,
}


def run_suite(name: str) -> List[CheckResult]:
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    return SUITES[name]()
