"""Group actions, homomorphisms, and concrete coset bundles.

A CosetBundle packages, for a homomorphism phi: H -> G, the coset map
q: G -> G/H, a right-inverse s with q(s(c)) = c, and the induced action of
G on G/H that makes q equivariant: q(g g') = g . q(g').

The standard bundles' q, s, phi.map and coset action accept stacks of
elements, as the groups' mul and inv do (see groups).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .groups import GroupDescriptor, general_linear_group, orthogonal_group, trivial_group
from .stochmap import Space


class ActionError(TypeError):
    pass


class NotPositiveDefiniteError(ValueError):
    pass


@dataclass
class Action:
    group: GroupDescriptor
    space: Space
    apply: Callable  # (group element, point) -> point


@dataclass
class Homomorphism:
    source: GroupDescriptor
    target: GroupDescriptor
    map: Callable  # element of source -> element of target


@dataclass
class CosetBundle:
    phi: Homomorphism
    coset_space: Space
    q: Callable  # G element -> coset point
    s: Callable  # coset point -> G element
    coset_action: Action  # G acting on G/H
    # descriptor of the coset space as a group, when it is one (trivial
    # bundle: G itself; semidirect bundles: the complementary factor)
    coset_group: Optional[GroupDescriptor] = None

    @property
    def group(self) -> GroupDescriptor:
        return self.phi.target


def trivial_action(G: GroupDescriptor, space: Space) -> Action:
    return Action(group=G, space=space, apply=lambda g, x: x)


def coset_bundle_trivial(G: GroupDescriptor) -> CosetBundle:
    """phi: I -> G; q = s = identity; coset action = left multiplication."""
    I = trivial_group()
    phi = Homomorphism(source=I, target=G, map=lambda e: G.identity)
    space = Space(f"coset:{G.name}/I")
    return CosetBundle(
        phi=phi,
        coset_space=space,
        q=lambda g: g,
        s=lambda c: c,
        coset_action=Action(group=G, space=space, apply=lambda g, c: G.mul(g, c)),
        coset_group=G,
    )


def coset_bundle_orthogonal_in_gl(d: int, gl: Optional[GroupDescriptor] = None) -> CosetBundle:
    """O(d) in GL(d,R): q(A) = A A^T onto positive-definite matrices.

    The right inverse is the lower-triangular Cholesky factor with positive
    diagonal, and the coset action is A . P = A P A^T.  Stacks are checked
    for positive-definiteness row by row.
    """
    G = gl if gl is not None else general_linear_group(d)
    H = orthogonal_group(d)
    phi = Homomorphism(source=H, target=G, map=lambda Q: Q)
    space = Space(f"pd({d})")

    def s(P):
        P = np.asarray(P, dtype=float)
        eigvals = np.linalg.eigvalsh(P)
        if np.any(eigvals[..., 0] <= 1e-12 * np.trace(P, axis1=-2, axis2=-1)):
            raise NotPositiveDefiniteError(
                "coset representative requested for a non-positive-definite matrix"
            )
        return np.linalg.cholesky(P)

    return CosetBundle(
        phi=phi,
        coset_space=space,
        q=lambda A: A @ np.swapaxes(A, -1, -2),
        s=s,
        coset_action=Action(group=G, space=space,
                            apply=lambda A, P: A @ P @ np.swapaxes(A, -1, -2)),
    )


def coset_bundle_semidirect(product: GroupDescriptor, which: str) -> CosetBundle:
    """Coset bundles of a semidirect product N x| H along its inclusions.

    which='via_N': phi = i_N, q projects to H, s includes H back, coset
    action (n, h) . h' = h h'.
    which='via_H': phi = i_H, q projects to N, s includes N back, coset
    action (n, h) . n' = n * (h |> n'); for SE(d) this is (t, Q) . t' = t + Q t'.
    """
    if product.factors is None:
        raise ActionError(f"{product.name} is not a semidirect product descriptor")
    N, H, rho = product.factors

    if which == "via_N":
        phi = Homomorphism(source=N, target=product, map=lambda n: (n, H.identity))
        space = Space(f"coset:{product.name}/N")
        return CosetBundle(
            phi=phi,
            coset_space=space,
            q=lambda g: g[1],
            s=lambda h: (N.identity, h),
            coset_action=Action(
                group=product, space=space, apply=lambda g, h2: H.mul(g[1], h2)
            ),
            coset_group=H,
        )
    if which == "via_H":
        phi = Homomorphism(source=H, target=product, map=lambda h: (N.identity, h))
        space = Space(f"coset:{product.name}/H")
        return CosetBundle(
            phi=phi,
            coset_space=space,
            q=lambda g: g[0],
            s=lambda n: (n, H.identity),
            coset_action=Action(
                group=product,
                space=space,
                apply=lambda g, n2: N.mul(g[0], rho(g[1], n2)),
            ),
            coset_group=N,
        )
    raise ActionError(f"unknown coset direction {which!r} (expected via_N or via_H)")
