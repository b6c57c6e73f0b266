"""The symmetrisation combinator and its supporting constructions.

symmetrise() turns a map that is equivariant to a subgroup H into one
equivariant to the full group G, by sampling a coset from gamma, un-acting
by its representative, applying the map, and re-acting:

    C ~ gamma(dc|x),  g = s(C),  Y ~ k(dy | g^-1 . x),  return g . Y

Also provided: Haar and columnwise-mean base cases for gamma, the
expectation operator, and sequential composition of symmetrisation
procedures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .equivariance import Action, CosetBundle
from .groups import NoHaarError, elements_close, haar_sample
from .stochmap import (
    EnumerationError,
    RandomStream,
    StochasticMap,
    bind,
    distributions_equal,
    lift_deterministic,
    monte_carlo_mean,
)

GAMMA_CHECK_SEED = 1234  # stream of the construction-time spot-check of gamma


class SpecError(TypeError):
    pass


class GammaNotEquivariantError(ValueError):
    pass


@dataclass
class SymmetrisationSpec:
    bundle: CosetBundle
    action_x: Action
    action_y: Action
    gamma: StochasticMap  # X -> coset space, G-equivariant w.r.t. the coset action
    # points of X used to spot-check gamma's equivariance at construction;
    # empty disables the check (the obligation then rests on the caller)
    test_points: tuple = ()

    def __post_init__(self):
        if self.gamma.codomain != self.bundle.coset_space:
            raise SpecError(
                f"gamma codomain {self.gamma.codomain} does not match coset "
                f"space {self.bundle.coset_space}"
            )
        G = self.bundle.group
        if self.action_x.group is not G or self.action_y.group is not G:
            raise SpecError("actions and coset bundle must share the same group")
        if self.test_points:
            _verify_gamma(self)

    @property
    def group(self):
        return self.bundle.group


def _verify_gamma(spec: "SymmetrisationSpec") -> None:
    """Spot-check that gamma is equivariant: gamma(g.x) ~ g.gamma(x)."""
    G = spec.group
    stream = RandomStream(GAMMA_CHECK_SEED)
    act = spec.bundle.coset_action.apply
    for i, x in enumerate(spec.test_points):
        g = G.random_element(stream.split(i)) if G.random_element else G.identity
        gx = spec.action_x.apply(g, x)
        if spec.gamma.deterministic:
            lhs = spec.gamma.sampler(gx, stream)
            rhs = act(g, spec.gamma.sampler(x, stream))
            if not elements_close(lhs, rhs, 1e-6):
                raise GammaNotEquivariantError(
                    f"deterministic gamma fails equivariance at test point {i}"
                )
        elif spec.gamma.finite_support and G.elements is not None:
            lhs = spec.gamma.enumerator(gx)
            rhs = [(p, act(g, c)) for p, c in spec.gamma.enumerator(x)]
            if not distributions_equal(lhs, rhs):
                raise GammaNotEquivariantError(
                    f"finite-support gamma fails exact equivariance at test point {i}"
                )
        else:
            sampler = spec.gamma.sampler
            lhs = monte_carlo_mean(lambda s: _flatten_point(sampler(gx, s)),
                                   stream.split(10_000 + i), 400)
            rhs = monte_carlo_mean(lambda s: _flatten_point(act(g, sampler(x, s))),
                                   stream.split(20_000 + i), 400)
            if not elements_close(lhs, rhs, 0.25):
                raise GammaNotEquivariantError(
                    f"gamma fails statistical equivariance check at test point {i}"
                )


def _flatten_point(c):
    if isinstance(c, tuple):
        parts = [np.asarray(p, dtype=float).ravel() for p in c]
        return np.concatenate(parts) if parts else np.zeros(0)
    return np.asarray(c, dtype=float).ravel()


def symmetrise(k: StochasticMap, spec: SymmetrisationSpec) -> StochasticMap:
    """Symmetrise k along the spec's coset bundle using its gamma.

    gamma draws from split(0) and k from split(1), as in compose.  An
    unconstrained gamma0 into a bundle's coset space, symmetrised with that
    bundle's coset action as the Y-action, is an equivariant gamma for it.
    """
    if k.domain != spec.action_x.space or k.codomain != spec.action_y.space:
        raise SpecError(
            f"map spaces ({k.domain}, {k.codomain}) do not match spec spaces "
            f"({spec.action_x.space}, {spec.action_y.space})"
        )
    G = spec.group
    bundle = spec.bundle
    ax, ay = spec.action_x.apply, spec.action_y.apply
    gamma = spec.gamma

    def through(c, x):
        g = bundle.s(c)
        return g, ax(G.inv(g), x)

    def sampler(x, stream: RandomStream):
        g, x0 = through(gamma.sampler(x, stream.split(0)), x)
        return ay(g, k.sampler(x0, stream.split(1)))

    enum = None
    if gamma.finite_support and k.finite_support:

        def enum(x):
            def pushed(c):
                g, x0 = through(c, x)
                return [(q, ay(g, y)) for q, y in k.enumerator(x0)]
            return bind(gamma.enumerator(x), pushed)

    return StochasticMap(
        domain=k.domain,
        codomain=k.codomain,
        sampler=sampler,
        deterministic=gamma.deterministic and k.deterministic,
        enumerator=enum,
    )


def gamma_from_haar(bundle: CosetBundle, aX: Action) -> StochasticMap:
    """Input-independent gamma drawing Haar on the coset space.

    Available when the coset space is itself a compact group (the trivial
    bundle over a compact G, or a semidirect via_N bundle with compact H).
    Exactly equivariant because the Haar law is left-invariant.
    """
    cg = bundle.coset_group
    if cg is None or cg.haar is None:
        raise NoHaarError(
            "gamma_from_haar needs a coset space that is a compact group"
        )

    def sampler(x, stream: RandomStream):
        return haar_sample(cg, stream)

    sm = StochasticMap(
        domain=aX.space,
        codomain=bundle.coset_space,
        sampler=sampler,
        deterministic=False,
    )
    if cg.elements is not None:
        p = Fraction(1, len(cg.elements))
        sm.enumerator = lambda x: [(p, e) for e in cg.elements]
    return sm


def gamma_columnwise_mean(bundle: CosetBundle, aX: Action) -> StochasticMap:
    """Deterministic gamma x -> (1/n) sum_i x_i for columnwise actions on R^{d x n}.

    Equivariant for the trivial bundle over T_d and the via_H bundle of
    SE(d), whose coset spaces are both T_d concretely.
    """
    return lift_deterministic(lambda x: np.asarray(x, dtype=float).mean(axis=1),
                              aX.space, bundle.coset_space)


def average(
    k: StochasticMap,
    n_samples: int = 1,
    mode: str = "monte_carlo",
    seed: int = 0,
) -> StochasticMap:
    """Expectation operator: replace k by the deterministic map x -> E[k(.|x)].

    Exact mode sums p * y over the finite support (exact in rationals when
    the outcomes are rational).  Monte Carlo mode averages n_samples draws
    using streams derived from a seed frozen at construction, so the
    returned map is itself deterministic.
    """
    if mode == "exact_enumeration":
        if not k.finite_support:
            raise EnumerationError("exact averaging requires finite support")

        def f(x):
            return _convex_combination(k.enumerator(x))

    elif mode == "monte_carlo":
        if n_samples < 1:
            raise ValueError("monte_carlo averaging needs n_samples >= 1")

        def f(x):
            return monte_carlo_mean(lambda s: np.asarray(k.sampler(x, s), dtype=float),
                                    RandomStream(seed), n_samples)

    else:
        raise ValueError(f"unknown averaging mode {mode!r}")

    return lift_deterministic(f, k.domain, k.codomain)


def _convex_combination(atoms):
    exact = all(
        isinstance(y, (int, Fraction)) and not isinstance(y, bool) for _, y in atoms
    )
    if exact:
        return sum((p * y for p, y in atoms), Fraction(0))
    acc = None
    for p, y in atoms:
        term = float(p) * np.asarray(y, dtype=float)
        acc = term if acc is None else acc + term
    return acc


def compose_procedures(
    outer: SymmetrisationSpec, inner: SymmetrisationSpec
) -> Callable[[StochasticMap], StochasticMap]:
    """Apply two symmetrisation procedures in sequence: K -> H -> G."""
    if inner.group.name != outer.bundle.phi.source.name:
        raise SpecError(
            "inner procedure must target the source group of the outer homomorphism"
        )
    return lambda k: symmetrise(symmetrise(k, inner), outer)
