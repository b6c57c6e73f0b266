"""Seeded stochastic maps: sampling, composition, products, exact enumeration.

A StochasticMap is a conditional distribution realized as a function
(input, RandomStream) -> output.  Deterministic functions are the special
case whose sampler ignores the stream.  Every sampler has the signature
sampler(x, stream, n=None): with a count n, x is a stack of n points on a
leading axis (a pair of stacks for pair points, a sequence for finite_map)
and the sampler returns n independent outputs, the map's n-fold product
kernel.  Maps with finite support additionally carry an exact enumerator with
rational probabilities, which is what lets the test suite check
distributional identities with zero tolerance.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np


class CompositionError(TypeError):
    """Codomain/domain descriptors do not line up."""


class EnumerationError(ValueError):
    """Exact enumeration of a map without finite support, or of an invalid law."""


_ONE = Fraction(1)


def _words(n: int) -> list:
    """n's little-endian 32-bit words, as SeedSequence reads an int (0 is one word)."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


class RandomStream:
    """Splittable counter-based random stream.

    Children derived via split(tag) are statistically independent of the
    parent and of siblings with distinct tags, and do not depend on how
    many draws the parent has consumed.  Same seed + same draw sequence
    gives bit-identical output across runs.

    A stream holds its seed, its entropy words and its generator.  The
    generator is Philox(SeedSequence(entropy=seed, spawn_key=path)) for the
    path of split tags from the root, bit for bit, built on the first draw,
    so a stream that is only split costs no generator.  The entropy words
    are the seed's 32-bit words, padded to four, then each tag's words; a
    child extends its parent's, and SeedSequence reads them as one uint32
    array, far faster than a spawn key of Python ints.
    """

    def __init__(self, seed: int, _entropy: Optional[list] = None):
        seed = operator.index(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        # SeedSequence's entropy words for the seed and the split tags
        self._entropy = (_words(seed) + [0, 0, 0])[:4] if _entropy is None else _entropy
        self._gen = None  # the generator, built by _build on the first draw

    def _build(self) -> np.random.Generator:
        entropy = np.random.SeedSequence(np.array(self._entropy, dtype=np.uint32))
        self._gen = np.random.Generator(np.random.Philox(entropy))
        return self._gen

    def split(self, tag: int) -> "RandomStream":
        tag = operator.index(tag)
        if tag < 0:
            raise ValueError("split tag must be nonnegative")
        return RandomStream(self.seed, self._entropy + _words(tag))

    def normal(self, shape=(), out=None) -> np.ndarray:
        """Standard normals of the given shape, written into out if given."""
        return (self._gen or self._build()).standard_normal(shape, out=out)

    def uniform(self, shape=()) -> np.ndarray:
        return (self._gen or self._build()).random(shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return (self._gen or self._build()).integers(low, high, size=shape)

    def permutation(self, n: int, k: Optional[int] = None):
        """A uniform permutation of range(n) as a tuple, or with k a (k, n)
        int stack whose rows equal k successive single draws."""
        if k is None:
            return tuple(int(i) for i in (self._gen or self._build()).permutation(n))
        return (self._gen or self._build()).permuted(np.tile(np.arange(n), (k, 1)), axis=1)

    def choice_index(self, n: int) -> int:
        return int((self._gen or self._build()).integers(0, n))


@dataclass(frozen=True)
class Space:
    """Descriptor for a domain or codomain; compared structurally."""

    name: str


def pair_space(a: Space, b: Space) -> Space:
    return Space(f"({a.name})x({b.name})")


@dataclass
class StochasticMap:
    domain: Space
    codomain: Space
    sampler: Callable  # (x, RandomStream, n=None) -> y, or a stack of n
    deterministic: bool = False
    enumerator: Optional[Callable] = None  # x -> list[(Fraction, y)], each y once

    @property
    def finite_support(self) -> bool:
        return self.enumerator is not None


def monte_carlo_mean(draws: Iterable):
    """The mean of a nonempty iterable of draws, summed in the order given."""
    acc, n = None, 0
    for n, y in enumerate(draws, 1):
        acc = y if acc is None else acc + y
    if n == 0:
        raise ValueError("monte_carlo_mean needs at least one draw")
    return acc / n


def lift_deterministic(f: Callable, domain: Space, codomain: Space) -> StochasticMap:
    """Wrap a deterministic function as a stream-independent stochastic map;
    a stacked draw passes the stack to f."""

    def enum(x):
        return [(_ONE, f(x))]

    return StochasticMap(
        domain=domain,
        codomain=codomain,
        sampler=lambda x, stream, n=None: f(x),
        deterministic=True,
        enumerator=enum,
    )


def finite_map(outcomes: Callable, domain: Space, codomain: Space) -> StochasticMap:
    """Build a finitely supported map from an outcome function.

    outcomes(x) must return a list of (Fraction probability, point) whose
    probabilities sum to 1; a point may repeat, and the enumerator merges
    repeats.  The sampler and the enumerator raise EnumerationError naming an
    atom whose probability is not rational, and the sampler, as
    enumerate_distribution does, for a negative probability or a sum other
    than 1.  The sampler draws by inverse CDF
    on a single uniform variate over the list as given; a stacked draw takes
    a sequence of n points and returns n successive draws on the one stream.
    """

    def rational(x):
        atoms = outcomes(x)
        for p, y in atoms:
            if not isinstance(p, numbers.Rational):
                raise EnumerationError(f"probability {p!r} of outcome {y!r} is not rational")
        return atoms

    def sampler(x, stream: RandomStream, n: Optional[int] = None):
        if n is not None:
            return [draw_one(xi, stream) for xi in x]
        return draw_one(x, stream)

    def draw_one(x, stream: RandomStream):
        # u = i/d < p_1 + ... + p_j exactly when i < (p_1 + ... + p_j) d
        atoms = rational(x)
        nums, d = _numerators(atoms)
        i = stream.choice_index(d)
        acc = 0
        for n, (_, y) in zip(nums, atoms):
            acc += n
            if i < acc:
                return y

    return StochasticMap(domain=domain, codomain=codomain, sampler=sampler,
                         enumerator=lambda x: merge_atoms(rational(x)))


def compose(m: StochasticMap, k: StochasticMap) -> StochasticMap:
    """Sequential composition m after k.

    Child streams: k draws from split(stream, 0), m from split(stream, 1),
    a stack of each role from its one stream.  This splitting discipline is
    frozen so sample paths are reproducible.
    """
    if k.codomain != m.domain:
        raise CompositionError(
            f"cannot compose: intermediate spaces {k.codomain} vs {m.domain}"
        )

    def sampler(x, stream: RandomStream, n: Optional[int] = None):
        return m.sampler(k.sampler(x, stream.split(0), n), stream.split(1), n)

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
    """Parallel composition: sample both factors independently, pair results;
    k draws from split(0) and m from split(1), and a stacked draw takes and
    returns a pair of stacks."""

    def sampler(xu, stream: RandomStream, n: Optional[int] = None):
        x, u = xu
        return (k.sampler(x, stream.split(0), n), m.sampler(u, stream.split(1), n))

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
    and f(y) are lists of (Fraction, point).  Each point's probability is
    summed in integers and becomes one Fraction."""
    return _sum_points([(p.numerator * q.numerator, p.denominator * q.denominator, z)
                        for p, y in atoms for q, z in f(y)])


def point_key(y):
    """Canonical hashable key for an output point, for merging duplicates."""
    if isinstance(y, np.ndarray):
        return ("ndarray", y.shape, y.tobytes())
    if isinstance(y, (tuple, list)):
        return tuple(point_key(v) for v in y)
    return y


def merge_atoms(atoms):
    """Merge duplicate points, each one's probability summed in integers."""
    return _sum_points([(p.numerator, p.denominator, y) for p, y in atoms])


def _sum_points(terms):
    """[(Fraction, y)] from (numerator, denominator, y) terms, each point's
    summed over the lcm of its denominators; first y, first-appearance order."""
    merged: dict = {}
    for n, d, y in terms:
        key = point_key(y)
        if key in merged:
            m, e, y = merged[key]
            lcm = math.lcm(d, e)
            n, d = m * (lcm // e) + n * (lcm // d), lcm
        merged[key] = (n, d, y)
    return [(Fraction(n, d), y) for n, d, y in merged.values()]


def enumerate_distribution(k: StochasticMap, x):
    """Exact outcome list [(Fraction, point)], each point once.

    Enumerators return merged atoms (bind and finite_map merge them); this
    checks, on the numerators over the lcm of the denominators, that the
    probabilities are nonnegative and sum to 1 exactly, and raises
    EnumerationError if they do not or if k carries no enumerator.
    """
    if not k.finite_support:
        raise EnumerationError("map has no finite-support enumerator")
    atoms = k.enumerator(x)
    _numerators(atoms)
    return atoms


def _numerators(atoms) -> tuple:
    """(numerators, d): the atoms' probabilities over the lcm d of their
    denominators; raises EnumerationError unless they are nonnegative and
    sum to 1 exactly."""
    d = math.lcm(*(p.denominator for p, _ in atoms))
    nums = [p.numerator * (d // p.denominator) for p, _ in atoms]
    if sum(nums) != d:
        raise EnumerationError(f"enumerated probabilities sum to {Fraction(sum(nums), d)}, not 1")
    if any(n < 0 for n in nums):
        raise EnumerationError("negative probability in enumerator")
    return nums, d


def distributions_equal(atoms_a, atoms_b) -> bool:
    """Exact equality of two finite distributions as multisets of atoms.
    Only a side that repeats a point is merged (merging changes no other
    side), and a probability that is not numbers.Rational raises
    EnumerationError naming its atom."""
    return _law(atoms_a) == _law(atoms_b)


def _law(atoms) -> dict:
    atoms, law = list(atoms), {}
    for p, y in atoms:
        if not isinstance(p, numbers.Rational):
            raise EnumerationError(f"probability {p!r} of atom {y!r} is not rational")
        law[point_key(y)] = p
    return law if len(law) == len(atoms) else {point_key(y): p for p, y in merge_atoms(atoms)}
