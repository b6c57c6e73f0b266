"""Concrete groups: orthogonal, translation, general linear, permutation,
and semidirect products, with Haar samplers where they exist.

Elements are plain values interpreted by their descriptor:

- orthogonal / general linear: dense (d, d) ndarray
- translation: (d,) ndarray
- permutation: tuple p with p[i] = sigma(i); composition (s*t)(i) = s(t(i))
- semidirect products: pair (n, h) of factor elements; a direct product is
  the semidirect product with the trivial twist (h, n) -> n

Samplers have the signature (stream, n=None); with a count n they return a
stack of n samples: an array with a leading axis (for S_n an int array, one
permutation per row), or a pair of stacks for a product.  mul, inv and
element_distance accept stacks, and a single element such as the identity
broadcasts against a stack; row i of a stacked result equals the
single-element result on row i, bit for bit.

Haar on O(d)/SO(d) is QR of a Gaussian matrix with the R-diagonal signs
absorbed into Q (which makes the law exactly invariant); Haar on S_n is a
uniform shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations as _itertools_permutations
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import nn
from .stochmap import RandomStream

AXIOM_TOL = 1e-9
DET_TOL = 1e-12
REJECTION_LIMIT = 100  # batches in a row that accept nothing before a rejection sampler gives up
TWIST_CHECK_SAMPLES = 32  # random triples on which a semidirect product's twist is checked


class GroupError(ValueError):
    pass


class NoHaarError(GroupError):
    """Haar sampling requested on a noncompact group."""


class SingularityError(GroupError):
    """General linear element with vanishing determinant."""


class RejectionError(GroupError):
    """A rejection sampler accepted nothing in REJECTION_LIMIT batches in a row."""


@dataclass(frozen=True)
class GroupDescriptor:
    """A group's law and samplers, frozen so that a shared descriptor such as
    the cached SE(d) cannot change; dataclasses.replace builds a variant."""

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
            object.__setattr__(self, "random_element", self.haar)


def haar_sample(G: GroupDescriptor, stream: RandomStream, n: Optional[int] = None):
    """A Haar sample of G, or a stack of n."""
    if G.haar is None:
        raise NoHaarError(f"group {G.name} has no Haar measure (not compact)")
    return G.haar(stream, n)


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


def _normal_stack(streams: Sequence[RandomStream], shape: tuple) -> np.ndarray:
    """A (len(streams),) + shape stack of standard normals whose row j is
    streams[j].normal(shape), drawn in place."""
    out = np.empty((len(streams),) + shape)
    for stream, row in zip(streams, out):
        stream.normal(shape, out=row)
    return out


def sample_accepted(streams: Sequence[RandomStream], n: int, d: int,
                    accept: Callable) -> np.ndarray:
    """A (len(streams), n, d, d) stack of Gaussian matrices that pass accept,
    which maps a stack to one bool per matrix.

    Each stream's first n candidates are drawn into one stack and accept
    runs once on all of them.  A stream's shortfall is redrawn from that
    stream alone, so row j is what streams[j] gives when drawn by itself;
    RejectionError is raised when REJECTION_LIMIT of one stream's batches in
    a row accept nothing.  Streams are finished in order.
    """
    X = _normal_stack(streams, (n, d, d))
    ok = accept(X.reshape(-1, d, d)).reshape(len(streams), n)
    for j in (~np.logical_and.reduce(ok, axis=1)).nonzero()[0]:
        kept, filled, empty_batches = X[j][ok[j]], 0, 0
        while True:
            empty_batches = 0 if len(kept) else empty_batches + 1
            if empty_batches == REJECTION_LIMIT:
                raise RejectionError(f"rejected {REJECTION_LIMIT} batches in a row")
            X[j, filled:filled + len(kept)] = kept
            filled += len(kept)
            if filled == n:
                break
            cand = streams[j].normal((n - filled, d, d))
            kept = cand[accept(cand)]
    return X


# ---------------------------------------------------------------------------
# Matrix groups


def _haar_from_normal(G: np.ndarray, special: bool) -> np.ndarray:
    """Haar samples on O(d), or SO(d) if special, from a stack of Gaussian
    (d, d) matrices: QR with R's diagonal signs absorbed into Q.  Each
    matrix is factored alone, so a row does not depend on the stack.  The
    SO(d) sign reads nn.det, exact in sign since |det Q| = 1 + O(u)."""
    Q, R = np.linalg.qr(G)
    Q = Q * np.copysign(1.0, R.diagonal(0, -2, -1))[..., None, :]
    if special:
        Q[..., :, 0] *= np.sign(nn.det(Q))[..., None]
    return Q


def _haar_orthogonal(d: int, stream: RandomStream, special: bool,
                     batch: tuple = ()) -> np.ndarray:
    """Haar on O(d), or SO(d) if special; a leading batch shape draws a stack
    of independent samples."""
    return _haar_from_normal(stream.normal(batch + (d, d)), special)


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
        # tolerance; cond <= nextafter(1e3, 0) is exactly cond < 1e3
        X = sample_accepted([stream], 1 if n is None else n, d, lambda M: (
            (np.abs(np.linalg.det(M)) > 1e-3) & nn.cond_within(M, np.nextafter(1e3, 0))))[0]
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


def perm_compose(s, t):
    """(s*t)(i) = s(t(i)).  Two tuples give a tuple; otherwise either side
    may be a (k, n) int stack, composed row by row."""
    if isinstance(s, tuple) and isinstance(t, tuple):
        return tuple(s[t[i]] for i in range(len(s)))
    return np.take_along_axis(*np.broadcast_arrays(s, t), axis=-1)


def perm_inverse(s):
    """The inverse of a tuple, or of each row of a (k, n) int stack."""
    if not isinstance(s, tuple):
        return np.argsort(s, axis=-1)
    out = [0] * len(s)
    for i, si in enumerate(s):
        out[si] = i
    return tuple(out)


def perm_apply(s, x):
    """Move entry i to position s(i): result[s(i)] = x[i].  A tuple moves a
    tuple; a (k, n) int stack moves a (k, n) stack of points row by row."""
    if not isinstance(s, tuple):
        out = np.empty_like(x)
        np.put_along_axis(out, s, x, axis=-1)
        return out
    out = [None] * len(s)
    for i, si in enumerate(s):
        out[si] = x[i]
    return tuple(out)


def symmetric_group(n: int) -> GroupDescriptor:
    return GroupDescriptor(
        name=f"S_{n}",
        mul=perm_compose,
        inv=perm_inverse,
        identity=tuple(range(n)),
        haar=lambda stream, k=None: stream.permutation(n, k),
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
) -> GroupDescriptor:
    """Semidirect product N x| H with twist rho: (h, n) -> n'.

    Multiplication is (n, h)(n', h') = (n * rho(h, n'), h h') and inversion
    (n, h)^-1 = (rho(h^-1, n^-1), h^-1).  The compatibility condition
    rho(h, n * n') = rho(h, n) * rho(h, n') is verified on
    TWIST_CHECK_SAMPLES random triples at construction, drawn as one stack
    per role; rho is applied one element at a time, so it need not accept
    stacks.
    """
    stream = RandomStream(2**32 + 7)
    if N.random_element is not None and H.random_element is not None:
        hs = H.random_element(stream.split(0), TWIST_CHECK_SAMPLES)
        n1s = N.random_element(stream.split(1), TWIST_CHECK_SAMPLES)
        n2s = N.random_element(stream.split(2), TWIST_CHECK_SAMPLES)
        for i in range(TWIST_CHECK_SAMPLES):
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

    def pair(sample_n, sample_h):
        """A sampler of (n, h): n from split(0), h from split(1)."""
        if sample_n is None or sample_h is None:
            return None
        return lambda stream, n=None: (sample_n(stream.split(0), n), sample_h(stream.split(1), n))

    elements = None
    if N.elements is not None and H.elements is not None:
        elements = [(n, h) for n in N.elements for h in H.elements]

    return GroupDescriptor(
        name=name or f"{N.name} x| {H.name}",
        mul=gmul,
        inv=ginv,
        identity=(N.identity, H.identity),
        haar=pair(N.haar, H.haar),
        elements=elements,
        random_element=pair(N.random_element, H.random_element),
        factors=(N, H, rho),
    )


@cache
def special_euclidean_group(d: int) -> GroupDescriptor:
    """SE(d) = T_d x| SO(d), elements (t, Q), product (t + Q t', Q Q').

    Built once per d: later calls return the same frozen descriptor.  The
    twist check, on a fixed stream with this rho, could not change on a
    rerun."""
    N = translation_group(d)
    H = orthogonal_group(d, special=True)
    N.identity.flags.writeable = H.identity.flags.writeable = False  # shared by every caller
    return semidirect_product(N, H, rho=lambda Q, t: (Q @ t[..., None])[..., 0],
                              name=f"SE({d})")

