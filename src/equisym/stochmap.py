"""Seeded stochastic maps: sampling, composition, products, exact enumeration.

A StochasticMap is a conditional distribution realized as a function
(input, RandomStream) -> output.  Deterministic functions are the special
case whose sampler ignores the stream.  Maps with finite support
additionally carry an exact enumerator with rational probabilities, which
is what lets the test suite check distributional identities with zero
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

import numpy as np


class ShapeError(ValueError):
    """Input does not match a map's domain descriptor."""


class CompositionError(TypeError):
    """Codomain/domain descriptors do not line up."""


class EnumerationError(ValueError):
    """Exact enumeration requested on a map without finite support."""


class RandomStream:
    """Splittable counter-based random stream.

    Children derived via split(tag) are statistically independent of the
    parent and of siblings with distinct tags, and do not depend on how
    many draws the parent has consumed.  Same seed + same draw sequence
    gives bit-identical output across runs.  The Philox generator is built
    on the first draw, so a stream that is only split costs no generator.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        if not (0 <= int(seed) < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = int(seed)
        self.path = _path

    @cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=self.seed, spawn_key=self.path))
        )

    def split(self, tag: int) -> "RandomStream":
        if int(tag) < 0:
            raise ValueError("split tag must be nonnegative")
        return RandomStream(self.seed, self.path + (int(tag),))

    def normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, shape=()) -> np.ndarray:
        return self._gen.random(shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> tuple:
        return tuple(int(i) for i in self._gen.permutation(n))

    def choice_index(self, n: int) -> int:
        return int(self._gen.integers(0, n))


@dataclass(frozen=True)
class Space:
    """Descriptor for a domain or codomain; compared structurally."""

    name: str
    shape: Optional[tuple] = None

    def check(self, x) -> None:
        if self.shape is None:
            return
        arr = np.asarray(x, dtype=object if _is_ragged(x) else None)
        if np.shape(arr) != self.shape:
            raise ShapeError(
                f"point of shape {np.shape(arr)} not in space {self.name} "
                f"(expected {self.shape})"
            )


def _is_ragged(x) -> bool:
    try:
        np.asarray(x)
        return False
    except Exception:
        return True


def pair_space(a: Space, b: Space) -> Space:
    return Space(f"({a.name})x({b.name})")


@dataclass
class StochasticMap:
    domain: Space
    codomain: Space
    sampler: Callable  # (x, RandomStream) -> y
    deterministic: bool = False
    enumerator: Optional[Callable] = None  # x -> list[(Fraction, y)], each y once

    @property
    def finite_support(self) -> bool:
        return self.enumerator is not None


def sample(k: StochasticMap, x, stream: RandomStream):
    """Draw once from k(dy|x), advancing the stream deterministically."""
    k.domain.check(x)
    return k.sampler(x, stream)


def monte_carlo_mean(draw: Callable, stream: RandomStream, n: int):
    """(1/n) sum_i draw(stream.split(i)), summed in order i = 0, ..., n - 1;
    n must be at least 1."""
    acc = None
    for i in range(n):
        y = draw(stream.split(i))
        acc = y if acc is None else acc + y
    return acc / n


def lift_deterministic(f: Callable, domain: Space, codomain: Space) -> StochasticMap:
    """Wrap a deterministic function as a stream-independent stochastic map."""

    def enum(x):
        return [(Fraction(1), f(x))]

    return StochasticMap(
        domain=domain,
        codomain=codomain,
        sampler=lambda x, stream: f(x),
        deterministic=True,
        enumerator=enum,
    )


def finite_map(outcomes: Callable, domain: Space, codomain: Space) -> StochasticMap:
    """Build a finitely supported map from an outcome function.

    outcomes(x) must return a list of (Fraction probability, point) whose
    probabilities sum to 1; a point may repeat, and the enumerator merges
    repeats.  The sampler draws by inverse CDF on a single uniform variate
    over the list as given.
    """

    def sampler(x, stream: RandomStream):
        atoms = outcomes(x)
        d = _common_denominator(atoms)
        u = Fraction(stream.choice_index(d), d)
        acc = Fraction(0)
        for p, y in atoms:
            acc += p
            if u < acc:
                return y
        return atoms[-1][1]

    return StochasticMap(domain=domain, codomain=codomain, sampler=sampler,
                         enumerator=lambda x: merge_atoms(outcomes(x)))


def _common_denominator(atoms) -> int:
    d = 1
    for p, _ in atoms:
        d = d * p.denominator // np.gcd(d, p.denominator)
    return int(d)


def compose(m: StochasticMap, k: StochasticMap) -> StochasticMap:
    """Sequential composition m after k.

    Child streams: k draws from split(stream, 0), m from split(stream, 1).
    This splitting discipline is frozen so sample paths are reproducible.
    """
    if k.codomain != m.domain:
        raise CompositionError(
            f"cannot compose: intermediate spaces {k.codomain} vs {m.domain}"
        )

    def sampler(x, stream: RandomStream):
        y = k.sampler(x, stream.split(0))
        return m.sampler(y, stream.split(1))

    enum = None
    if k.finite_support and m.finite_support:

        def enum(x):
            return bind(k.enumerator(x), m.enumerator)

    return StochasticMap(
        domain=k.domain,
        codomain=m.codomain,
        sampler=sampler,
        deterministic=k.deterministic and m.deterministic,
        enumerator=enum,
    )


def product(k: StochasticMap, m: StochasticMap) -> StochasticMap:
    """Parallel composition: sample both factors independently, pair results."""

    def sampler(xu, stream: RandomStream):
        x, u = xu
        return (k.sampler(x, stream.split(0)), m.sampler(u, stream.split(1)))

    enum = None
    if k.finite_support and m.finite_support:

        def enum(xu):
            x, u = xu
            return bind(k.enumerator(x), lambda y: [(q, (y, v)) for q, v in m.enumerator(u)])

    return StochasticMap(
        domain=pair_space(k.domain, m.domain),
        codomain=pair_space(k.codomain, m.codomain),
        sampler=sampler,
        deterministic=k.deterministic and m.deterministic,
        enumerator=enum,
    )


def bind(atoms, f):
    """Exact law of z for y ~ atoms and z ~ f(y), duplicates merged; atoms
    and f(y) are lists of (Fraction, point)."""
    return merge_atoms([(p * q, z) for p, y in atoms for q, z in f(y)])


def point_key(y):
    """Canonical hashable key for an output point, for merging duplicates."""
    if isinstance(y, np.ndarray):
        return ("ndarray", y.shape, y.tobytes())
    if isinstance(y, (tuple, list)):
        return tuple(point_key(v) for v in y)
    return y


def merge_atoms(atoms):
    """Merge duplicate points, summing exact rational probabilities."""
    merged: dict = {}
    for p, y in atoms:
        kkey = point_key(y)
        if kkey in merged:
            merged[kkey] = (merged[kkey][0] + p, merged[kkey][1])
        else:
            merged[kkey] = (p, y)
    return list(merged.values())


def enumerate_distribution(k: StochasticMap, x):
    """Exact outcome list [(Fraction, point)], each point once.

    Enumerators return merged atoms (bind and finite_map merge them); this
    checks that the probabilities are nonnegative and sum to 1 exactly, and
    raises EnumerationError if they do not or if k carries no enumerator.
    """
    if not k.finite_support:
        raise EnumerationError("map has no finite-support enumerator")
    atoms = k.enumerator(x)
    total = sum(p for p, _ in atoms)
    if total != 1:
        raise EnumerationError(f"enumerated probabilities sum to {total}, not 1")
    if any(p < 0 for p, _ in atoms):
        raise EnumerationError("negative probability in enumerator")
    return atoms


def distributions_equal(atoms_a, atoms_b) -> bool:
    """Exact equality of two finite distributions as multisets of atoms."""
    da = {point_key(y): p for p, y in merge_atoms(atoms_a)}
    db = {point_key(y): p for p, y in merge_atoms(atoms_b)}
    return da == db
