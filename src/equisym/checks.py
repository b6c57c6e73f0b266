"""Executable property suites: group axioms, coset-bundle laws,
symmetrisation identities, and gradient correctness.

Each suite returns a list of CheckResult rows; the CLI renders them and
the acceptance tests assert on them.
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
from .symcore import SymmetrisationSpec, gamma_columnwise_mean, gamma_from_haar, symmetrise

DEFAULT_SEED = 20240817


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


def check_group_axioms(G: GroupDescriptor, n_samples: int = 1000) -> CheckResult:
    """Associativity, unit, and inverse on random triples."""
    stream = RandomStream(DEFAULT_SEED)
    worst = 0.0
    for i in range(n_samples):
        s = stream.split(i)
        g = G.random_element(s.split(0))
        h = G.random_element(s.split(1))
        n = G.random_element(s.split(2))
        worst = max(worst, element_distance(G.mul(G.mul(g, h), n), G.mul(g, G.mul(h, n))))
        worst = max(worst, element_distance(G.mul(g, G.identity), g))
        worst = max(worst, element_distance(G.mul(G.identity, g), g))
        worst = max(worst, element_distance(G.mul(g, G.inv(g)), G.identity))
    return CheckResult(f"group axioms {G.name}", worst <= 1e-9, worst)


def check_groups(groups: Optional[Dict[str, GroupDescriptor]] = None,
                 n_samples: int = 1000) -> List[CheckResult]:
    groups = groups if groups is not None else standard_groups()
    return [check_group_axioms(G, n_samples) for G in groups.values()]


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


def check_coset_bundle(name: str, bundle, n_samples: int = 1000) -> CheckResult:
    """Right-inverse, H-invariance, and G-equivariance laws on random samples."""
    G = bundle.group
    H = bundle.phi.source
    stream = RandomStream(DEFAULT_SEED)
    worst = 0.0
    for i in range(n_samples):
        s = stream.split(i)
        g = G.random_element(s.split(0))
        g2 = G.random_element(s.split(1))
        h = H.random_element(s.split(2)) if H.random_element else H.identity
        c = bundle.q(g)
        # q(s(c)) = c
        worst = max(worst, element_distance(bundle.q(bundle.s(c)), c))
        # q(g phi(h)^-1) = q(g)
        g_h = G.mul(g, G.inv(bundle.phi.map(h)))
        worst = max(worst, element_distance(bundle.q(g_h), bundle.q(g)))
        # q(g g') = g . q(g')
        worst = max(
            worst,
            element_distance(bundle.q(G.mul(g, g2)),
                             bundle.coset_action.apply(g, bundle.q(g2))),
        )
    return CheckResult(f"coset laws {name}", worst <= 1e-9, worst)


def check_cosets(n_samples: int = 1000) -> List[CheckResult]:
    return [
        check_coset_bundle(name, bundle, n_samples)
        for name, bundle in standard_bundles().items()
    ]


# ---------------------------------------------------------------------------
# Symmetrisation identities


def janossy_setup(n: int):
    """S_n permuting coordinate tuples, trivial output action, k = first coord."""
    G = symmetric_group(n)
    bundle = coset_bundle_trivial(G)
    x_space = Space(f"tuple{n}")
    y_space = Space("scalar")
    action_x = Action(group=G, space=x_space, apply=perm_apply)
    action_y = trivial_action(G, y_space)
    gamma = gamma_from_haar(bundle, action_x)
    spec = SymmetrisationSpec(bundle=bundle, action_x=action_x, action_y=action_y,
                              gamma=gamma)
    k = lift_deterministic(lambda x: x[0], x_space, y_space)
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
    """(name, spec, k) with k deterministic, equivariant, X-valued."""
    cases = []

    # trivial bundle over O(2), identity on R^{2 x 5} with column rotation
    G = orthogonal_group(2)
    bundle = coset_bundle_trivial(G)
    space = Space("R^(2x5)", (2, 5))
    act = Action(group=G, space=space, apply=lambda Q, x: Q @ x)
    gamma = gamma_from_haar(bundle, act)
    spec = SymmetrisationSpec(bundle=bundle, action_x=act, action_y=act, gamma=gamma)
    cases.append(("trivial O(2) haar", spec,
                  lift_deterministic(lambda x: x, space, space),
                  lambda s: s.normal((2, 5))))

    # O(2) in GL(2), identity on R^{2 x 4} under left multiplication,
    # gamma(B) = B B^T
    gl = general_linear_group(2)
    bundle = coset_bundle_orthogonal_in_gl(2, gl=gl)
    space = Space("R^(2x4)", (2, 4))
    act = Action(group=gl, space=space, apply=lambda A, x: A @ x)
    gamma = lift_deterministic(lambda B: B[:, :2] @ B[:, :2].T, space,
                               bundle.coset_space)
    spec = SymmetrisationSpec(bundle=bundle, action_x=act, action_y=act, gamma=gamma)
    cases.append(("O(2) in GL(2) gram gamma", spec,
                  lift_deterministic(lambda x: x, space, space),
                  lambda s: np.concatenate([gl.random_element(s), s.normal((2, 2))], axis=1)))

    # SE(2) via_H, identity on point clouds, gamma = columnwise mean
    se = special_euclidean_group(2)
    bundle = coset_bundle_semidirect(se, "via_H")
    space = Space("R^(2x5)", (2, 5))

    def se_apply(g, x):
        t, Q = g
        return Q @ x + t[:, None]

    act = Action(group=se, space=space, apply=se_apply)
    gamma = gamma_columnwise_mean(bundle, act)
    spec = SymmetrisationSpec(bundle=bundle, action_x=act, action_y=act, gamma=gamma)
    cases.append(("SE(2) via_H columnwise mean", spec,
                  lift_deterministic(lambda x: x, space, space),
                  lambda s: s.normal((2, 5))))

    # SE(2) via_N, identity, gamma = Haar on SO(2)
    bundle = coset_bundle_semidirect(se, "via_N")
    gamma = gamma_from_haar(bundle, act)
    spec = SymmetrisationSpec(bundle=bundle, action_x=act, action_y=act, gamma=gamma)
    cases.append(("SE(2) via_N haar", spec,
                  lift_deterministic(lambda x: x, space, space),
                  lambda s: s.normal((2, 5))))

    return cases


def check_stability(n_points: int = 100, tol: float = 1e-9) -> List[CheckResult]:
    """sym_gamma(k)(x) = k(x) pointwise for deterministic equivariant k."""
    out = []
    for name, spec, k, sample_x in _stability_cases():
        sym = symmetrise(k, spec)
        stream = RandomStream(DEFAULT_SEED)
        worst = 0.0
        for i in range(n_points):
            x = sample_x(stream.split(2 * i))
            y = sym.sampler(x, stream.split(2 * i + 1))
            worst = max(worst, element_distance(y, k.sampler(x, stream)))
        out.append(CheckResult(f"stability {name}", worst <= tol, worst))
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


def check_model_gaps(dims=(2, 3), n_pairs: int = 100,
                     tol: float = 1e-6) -> List[CheckResult]:
    """Coupled equivariance gap of untrained symmetrised benchmark models."""
    out = []
    for d in dims:
        for variant in ("sym_haar", "sym_recursive", "canonical_deterministic"):
            model = bench.InversionModel(variant, d, hidden=16)
            stream = RandomStream(DEFAULT_SEED + d)
            params = model.init(stream.split(0))
            X = bench.sample_batch(d, n_pairs, stream.split(1))
            Qs = bench._haar_batch(d, n_pairs, stream.split(2))
            worst = float(bench.equivariance_gap(model, params, X, Qs, stream.split(3),
                                                 n_mc=4).max())
            out.append(CheckResult(
                f"equivariance gap {variant} d={d}", worst <= tol, worst))
    return out


def check_symmetrise() -> List[CheckResult]:
    out = [check_janossy_equivariance(n) for n in (2, 3, 4)]
    out += check_stability()
    out.append(check_idempotence())
    out += check_model_gaps()
    return out


# ---------------------------------------------------------------------------
# Gradients


def _relative_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-8)
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / scale)


def finite_difference_grads(f, params: List[np.ndarray], h: float = 1e-5):
    """Central finite differences of a scalar function of a parameter list."""
    grads = []
    for idx, p in enumerate(params):
        g = np.zeros_like(p)
        flat = p.ravel()
        gflat = g.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = f(params)
            flat[j] = orig - h
            down = f(params)
            flat[j] = orig
            gflat[j] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def check_mlp_gradients() -> CheckResult:
    """Backprop through a random 3-5-2 net vs central differences."""
    stream = RandomStream(DEFAULT_SEED)
    mlp = nn.init_mlp((3, 5, 2), stream.split(0))
    x = stream.split(1).normal((1, 3))
    w = stream.split(2).normal((1, 2))

    def objective(flat):
        y, _ = nn.mlp_forward(flat, x)
        return float(w[0] @ y[0])

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
        return float((W * Q).sum())

    Q, cache = nn.gram_schmidt_forward(M)
    dM = nn.gram_schmidt_backward(cache, W)
    fd = finite_difference_grads(objective, [M])
    worst = _relative_error(dM, fd[0])
    return CheckResult("gram-schmidt gradients vs finite differences",
                       worst <= 1e-5, worst)


def check_end_to_end_gradients() -> CheckResult:
    """Reparameterised gradient of the Jensen objective, sym_recursive d=2."""
    model = bench.InversionModel("sym_recursive", d=2, hidden=8)
    stream = RandomStream(DEFAULT_SEED)
    params = model.init(stream.split(0))
    X = bench.sample_batch(2, 4, stream.split(1))
    frozen = stream.split(2)

    def objective(p):
        obj, _ = model.objective_and_grads(p, X, frozen)
        return obj

    obj, grads = model.objective_and_grads(params, X, frozen)
    fd = finite_difference_grads(objective, params)
    worst = max(_relative_error(g, f) for g, f in zip(grads, fd))
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
