"""Concrete groups: orthogonal, translation, general linear, permutation,
and semidirect/direct products, with Haar samplers where they exist.

Elements are plain values interpreted by their descriptor:

- orthogonal / general linear: dense (d, d) ndarray
- translation: (d,) ndarray
- permutation: tuple p with p[i] = sigma(i); composition (s*t)(i) = s(t(i))
- semidirect / direct products: pair (n, h) of factor elements

Samplers take an optional count n and then return a stack of n samples:
an array with a leading axis, a pair of stacks for a product, and a list
of tuples for S_n.  The array groups' mul and inv, and element_distance,
accept stacks, and a single element such as the identity broadcasts
against a stack; row i of a stacked result equals the single-element
result on row i, bit for bit.

Haar on O(d)/SO(d) is QR of a Gaussian matrix with the R-diagonal signs
absorbed into Q (which makes the law exactly invariant); Haar on S_n is a
uniform shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _itertools_permutations
from typing import Callable, List, Optional

import numpy as np

from .stochmap import RandomStream

AXIOM_TOL = 1e-9
DET_TOL = 1e-12
REJECTION_LIMIT = 100  # batches in a row that accept nothing before a rejection sampler gives up


class GroupError(ValueError):
    pass


class NoHaarError(GroupError):
    """Haar sampling requested on a noncompact group."""


class SingularityError(GroupError):
    """General linear element with vanishing determinant."""


class RejectionError(GroupError):
    """A rejection sampler accepted nothing in REJECTION_LIMIT batches in a row."""


@dataclass
class GroupDescriptor:
    name: str
    mul: Callable
    inv: Callable
    identity: object
    haar: Optional[Callable] = None  # (stream, n=None) -> element, or a stack of n
    elements: Optional[List] = None  # finite groups only, each listed once
    # random elements for property testing; Haar when available, otherwise
    # some fixed full-support distribution
    random_element: Optional[Callable] = None
    factors: Optional[tuple] = None  # (N, H, rho) of a semidirect product

    def __post_init__(self):
        if self.random_element is None and self.haar is not None:
            self.random_element = self.haar


def haar_sample(G: GroupDescriptor, stream: RandomStream):
    if G.haar is None:
        raise NoHaarError(f"group {G.name} has no Haar measure (not compact)")
    return G.haar(stream)


def _stack_shape(n: Optional[int]) -> tuple:
    return () if n is None else (n,)


def _row(stack, i: int):
    """Element i of a stack; a pair of stacks gives a pair."""
    return tuple(_row(s, i) for s in stack) if isinstance(stack, tuple) else stack[i]


def element_distance(g, h) -> float:
    """Max-abs distance between two elements of the same representation.

    Either side may be a stack, and a single element broadcasts against
    it: the result is the largest distance over the stack."""
    if isinstance(g, tuple) and not isinstance(h, np.ndarray):
        if len(g) != len(h):
            return float("inf")
        if g and isinstance(g[0], (int, np.integer)):
            return 0.0 if tuple(g) == tuple(h) else 1.0
        return max((element_distance(a, b) for a, b in zip(g, h)), default=0.0)
    ga, ha = np.asarray(g, dtype=float), np.asarray(h, dtype=float)
    k = min(ga.ndim, ha.ndim)  # element axes shared by both sides
    if ga.shape[ga.ndim - k:] != ha.shape[ha.ndim - k:]:
        return float("inf")
    diff = np.abs(ga - ha)
    return float(np.max(diff)) if diff.size else 0.0


def elements_close(g, h, tol: float = AXIOM_TOL) -> bool:
    return element_distance(g, h) <= tol


def sample_accepted(stream: RandomStream, n: int, d: int, accept: Callable) -> np.ndarray:
    """n Gaussian (d, d) matrices that pass accept, which maps a stack to one
    bool per matrix; the shortfall is redrawn from the same stream."""
    X = np.empty((n, d, d))
    filled = empty_batches = 0
    while filled < n:
        cand = stream.normal((n - filled, d, d))
        ok = cand[accept(cand)]
        empty_batches = 0 if len(ok) else empty_batches + 1
        if empty_batches == REJECTION_LIMIT:
            raise RejectionError(f"rejected {REJECTION_LIMIT} batches in a row")
        X[filled:filled + len(ok)] = ok
        filled += len(ok)
    return X


# ---------------------------------------------------------------------------
# Matrix groups


def _haar_orthogonal(d: int, stream: RandomStream, special: bool,
                     batch: tuple = ()) -> np.ndarray:
    """Haar on O(d), or SO(d) if special; a leading batch shape draws a stack
    of independent samples."""
    Q, R = np.linalg.qr(stream.normal(batch + (d, d)))
    Q = Q * np.copysign(1.0, R.diagonal(0, -2, -1))[..., None, :]
    if special:
        Q[..., :, 0] *= np.sign(np.linalg.det(Q))[..., None]
    return Q


def orthogonal_group(d: int, special: bool = False) -> GroupDescriptor:
    return GroupDescriptor(
        name=f"SO({d})" if special else f"O({d})",
        mul=lambda a, b: a @ b,
        inv=lambda g: np.swapaxes(g, -1, -2).copy(),
        identity=np.eye(d),
        haar=lambda stream, n=None: _haar_orthogonal(d, stream, special, _stack_shape(n)),
    )


def translation_group(d: int) -> GroupDescriptor:
    return GroupDescriptor(
        name=f"T_{d}",
        mul=lambda a, b: a + b,
        inv=lambda g: -g,
        identity=np.zeros(d),
        random_element=lambda stream, n=None: stream.normal(_stack_shape(n) + (d,)),
    )


def general_linear_group(d: int) -> GroupDescriptor:
    def ginv(g):
        if np.any(np.abs(np.linalg.det(g)) <= DET_TOL):
            raise SingularityError("element of GL has |det| below threshold")
        return np.linalg.inv(g)

    def grandom(stream, n=None):
        # Gaussian matrices kept where |det| > 1e-3 and cond < 1e3, which
        # keeps float round-off in axiom/coset checks well below the 1e-9
        # tolerance
        X = sample_accepted(stream, 1 if n is None else n, d, lambda M: (
            (np.abs(np.linalg.det(M)) > 1e-3) & (np.linalg.cond(M) < 1e3)))
        return X[0] if n is None else X

    return GroupDescriptor(
        name=f"GL({d})",
        mul=lambda a, b: a @ b,
        inv=ginv,
        identity=np.eye(d),
        random_element=grandom,
    )


# ---------------------------------------------------------------------------
# Permutations


def perm_compose(s: tuple, t: tuple) -> tuple:
    """(s*t)(i) = s(t(i))."""
    return tuple(s[t[i]] for i in range(len(s)))


def perm_inverse(s: tuple) -> tuple:
    out = [0] * len(s)
    for i, si in enumerate(s):
        out[si] = i
    return tuple(out)


def perm_apply(s: tuple, x: tuple) -> tuple:
    """Move entry i to position s(i): result[s(i)] = x[i]."""
    inv_s = perm_inverse(s)
    return tuple(x[inv_s[j]] for j in range(len(s)))


def symmetric_group(n: int) -> GroupDescriptor:
    return GroupDescriptor(
        name=f"S_{n}",
        mul=perm_compose,
        inv=perm_inverse,
        identity=tuple(range(n)),
        haar=lambda stream, k=None: (stream.permutation(n) if k is None
                                     else [stream.permutation(n) for _ in range(k)]),
        elements=[tuple(p) for p in _itertools_permutations(range(n))],
    )


def trivial_group() -> GroupDescriptor:
    e = ()
    return GroupDescriptor(
        name="I",
        mul=lambda a, b: e,
        inv=lambda g: e,
        identity=e,
        haar=lambda stream, n=None: e,  # the one element broadcasts as a stack
        elements=[e],
    )


# ---------------------------------------------------------------------------
# Products


def semidirect_product(
    N: GroupDescriptor,
    H: GroupDescriptor,
    rho: Callable,
    name: Optional[str] = None,
    check_samples: int = 32,
) -> GroupDescriptor:
    """Semidirect product N x| H with twist rho: (h, n) -> n'.

    Multiplication is (n, h)(n', h') = (n * rho(h, n'), h h') and inversion
    (n, h)^-1 = (rho(h^-1, n^-1), h^-1).  The compatibility condition
    rho(h, n * n') = rho(h, n) * rho(h, n') is verified on random samples
    at construction, drawn as one stack per role; rho is applied one
    element at a time, so it need not accept stacks.
    """
    stream = RandomStream(2**32 + 7)
    if check_samples and N.random_element is not None and H.random_element is not None:
        hs = H.random_element(stream.split(0), check_samples)
        n1s = N.random_element(stream.split(1), check_samples)
        n2s = N.random_element(stream.split(2), check_samples)
        for i in range(check_samples):
            h, n1, n2 = _row(hs, i), _row(n1s, i), _row(n2s, i)
            lhs = rho(h, N.mul(n1, n2))
            rhs = N.mul(rho(h, n1), rho(h, n2))
            if not elements_close(lhs, rhs):
                raise GroupError(
                    f"rho is not compatible with multiplication on {N.name}"
                )
            if not elements_close(rho(H.identity, n1), n1):
                raise GroupError("rho(identity, n) != n")

    def gmul(a, b):
        (n1, h1), (n2, h2) = a, b
        return (N.mul(n1, rho(h1, n2)), H.mul(h1, h2))

    def ginv(a):
        n, h = a
        hi = H.inv(h)
        return (rho(hi, N.inv(n)), hi)

    haar = None
    if N.haar is not None and H.haar is not None:
        haar = lambda stream, n=None: (N.haar(stream.split(0), n), H.haar(stream.split(1), n))

    random_element = None
    if N.random_element is not None and H.random_element is not None:
        random_element = lambda stream, n=None: (
            N.random_element(stream.split(0), n),
            H.random_element(stream.split(1), n),
        )

    elements = None
    if N.elements is not None and H.elements is not None:
        elements = [(n, h) for n in N.elements for h in H.elements]

    return GroupDescriptor(
        name=name or f"{N.name} x| {H.name}",
        mul=gmul,
        inv=ginv,
        identity=(N.identity, H.identity),
        haar=haar,
        elements=elements,
        random_element=random_element,
        factors=(N, H, rho),
    )


def direct_product(G: GroupDescriptor, H: GroupDescriptor) -> GroupDescriptor:
    return semidirect_product(
        G, H, rho=lambda h, n: n, name=f"{G.name} x {H.name}", check_samples=0
    )


def special_euclidean_group(d: int) -> GroupDescriptor:
    """SE(d) = T_d x| SO(d), elements (t, Q), product (t + Q t', Q Q')."""
    N = translation_group(d)
    H = orthogonal_group(d, special=True)
    return semidirect_product(N, H, rho=lambda Q, t: (Q @ t[..., None])[..., 0],
                              name=f"SE({d})")

