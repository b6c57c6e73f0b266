import gc
import random
import weakref

import numpy as np
import pytest
from fractions import Fraction

from equisym import stochmap
from equisym.stochmap import (
    CompositionError,
    EnumerationError,
    RandomStream,
    Space,
    StochasticMap,
    compose,
    distributions_equal,
    enumerate_distribution,
    finite_map,
    lift_deterministic,
    monte_carlo_mean,
    point_key,
    product,
)

R1 = Space("R")
R2 = Space("R2")
ANY = Space("any")


def gaussian_map():
    return StochasticMap(domain=Space("unit"), codomain=R1,
                         sampler=lambda x, stream, n=None: float(stream.normal()))


def derivation_cases():
    """(seed, path) pairs: edge seeds and tags around 2^32 and 2^64, plus
    fixed-seed random ones, at depths 0 to 6, then tags of three and four
    words at depths 1 to 3."""
    rng = random.Random(2024)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [rng.randrange(2**64) for _ in range(5)]
    tags = [0, 1, 2**32 - 1, 2**32, 2**40]
    return [(seed, tuple(rng.choice(tags) if rng.random() < 0.5 else rng.randrange(8)
                         for _ in range(depth)))
            for seed in seeds for depth in range(7)] + [
        (0, (2**64,)), (2**64 - 1, (2**96 + 5,)), (3, (2**96 + 5, 2**64)),
        (2**32, (1, 2**64, 7)), (5, (2**64, 0, 2**96 + 5))]


def noise_map():
    """x -> x + N(0, 1), on a single point or a stack."""
    return StochasticMap(domain=R1, codomain=R1,
                         sampler=lambda x, s, n=None: x + s.normal(np.shape(x)))


def fair_coin(labels=("a", "b")):
    half = Fraction(1, 2)
    return finite_map(lambda x: [(half, labels[0]), (half, labels[1])], ANY, ANY)


class TestSample:
    def test_identity_lift(self):
        k = lift_deterministic(lambda x: x, R2, R2)
        out = k.sampler(np.array([1.0, 2.0]), RandomStream(0))
        assert np.array_equal(out, [1.0, 2.0])

    def test_constant_ignores_stream(self):
        k = lift_deterministic(lambda x: 7.0, ANY, R1)
        assert k.sampler("whatever", RandomStream(3)) == 7.0
        assert k.sampler("whatever", RandomStream(99)) == 7.0

    def test_gaussian_empirical_mean(self):
        k = gaussian_map()
        stream = RandomStream(42)
        draws = [k.sampler((), stream) for _ in range(10**5)]
        assert abs(np.mean(draws)) < 0.02


class TestLiftDeterministic:
    def test_negate(self):
        k = lift_deterministic(lambda x: -x, R1, R1)
        assert k.sampler(3.0, RandomStream(0)) == -3.0

    def test_transpose(self):
        k = lift_deterministic(lambda m: m.T, Space("M"), Space("M"))
        out = k.sampler(np.array([[1.0, 2.0], [3.0, 4.0]]), RandomStream(0))
        assert np.array_equal(out, [[1.0, 3.0], [2.0, 4.0]])

    def test_enumeration_is_dirac(self):
        k = lift_deterministic(lambda x: x + 1, R1, R1)
        assert enumerate_distribution(k, 4) == [(Fraction(1), 5)]

    def test_determinism_flag_holds(self):
        k = lift_deterministic(lambda x: x * 2, R1, R1)
        assert k.deterministic
        assert k.sampler(5, RandomStream(1)) == k.sampler(5, RandomStream(2))


class TestCompose:
    def test_lifts_compose_as_functions(self):
        f = lift_deterministic(lambda x: x + 1, R1, R1)
        g = lift_deterministic(lambda x: x * 3, R1, R1)
        assert compose(g, f).sampler(2, RandomStream(0)) == 9

    def test_noise_after_double_mean(self):
        # the mean of 10^5 draws of 2 + N(0, 1), one stack: the bound is
        # 6.3 standard errors, a false-failure rate of 3e-10
        k = compose(noise_map(), lift_deterministic(lambda x: 2.0 * x, R1, R1))
        n = 10**5
        draws = k.sampler(np.ones(n), RandomStream(7), n)
        assert draws.shape == (n,)
        assert abs(np.mean(draws) - 2.0) < 0.02

    def test_finite_multiply_and_merge(self):
        relabel = lift_deterministic(lambda v: "b", ANY, ANY)
        k = compose(relabel, fair_coin())
        assert enumerate_distribution(k, None) == [(Fraction(1), "b")]

    def test_descriptor_mismatch(self):
        f = lift_deterministic(lambda x: x, R1, R1)
        g = lift_deterministic(lambda x: x, R2, R2)
        with pytest.raises(CompositionError):
            compose(g, f)

    def test_associativity_on_enumerated_distributions(self):
        k = fair_coin(("a", "b"))
        m = finite_map(
            lambda v: [(Fraction(1, 3), v + "x"), (Fraction(2, 3), v + "y")], ANY, ANY
        )
        n = lift_deterministic(lambda v: v.upper(), ANY, ANY)
        left = compose(compose(n, m), k)
        right = compose(n, compose(m, k))
        assert distributions_equal(
            enumerate_distribution(left, None), enumerate_distribution(right, None)
        )


class TestProduct:
    def test_pair_of_identities(self):
        k = lift_deterministic(lambda x: x, R1, R1)
        p = product(k, k)
        assert p.sampler((3, 4), RandomStream(0)) == (3, 4)

    def test_equals_lift_of_pairwise_function(self):
        f = lift_deterministic(lambda x: x + 1, R1, R1)
        g = lift_deterministic(lambda x: x * 2, R1, R1)
        p = product(f, g)
        assert p.deterministic
        assert p.sampler((1, 5), RandomStream(0)) == (2, 10)

    def test_two_fair_coins(self):
        p = product(fair_coin(), fair_coin())
        atoms = enumerate_distribution(p, (None, None))
        assert len(atoms) == 4
        assert all(pr == Fraction(1, 4) for pr, _ in atoms)


class TestStacks:
    """A stacked draw, sampler(xs, stream, n), against the single-point law:
    each role's stack comes from its split of the stream, row 0 is the
    single draw on the same stream, and the rows are n independent draws."""

    n = 10**4

    def test_compose_stack_matches_single_point_law(self):
        # y = 2x + Z at x_i = i mod 3, so the residuals y - 2x are N(0, 1):
        # their mean and variance within 5 standard errors, a false-failure
        # rate of 1.2e-6
        k = compose(noise_map(), lift_deterministic(lambda x: 2.0 * x, R1, R1))
        xs = np.arange(self.n) % 3.0
        ys = k.sampler(xs, RandomStream(3), self.n)
        assert np.array_equal(ys, 2.0 * xs + RandomStream(3).split(1).normal(self.n))
        assert ys[0] == k.sampler(xs[0], RandomStream(3))
        r = ys - 2.0 * xs
        assert abs(r.mean()) <= 5 / np.sqrt(self.n)
        assert abs(r.var() - 1.0) <= 5 * np.sqrt(2 / self.n)

    def test_product_stack_matches_single_point_law(self):
        # (x + Z, fair coin) on a pair of stacks: the residuals' mean and
        # variance, the coin's frequency and the residuals' mean difference
        # between the coin's sides, each within 5 standard errors, a
        # false-failure rate of 2.3e-6
        p = product(noise_map(), fair_coin())
        xs = np.arange(self.n) % 3.0
        ys, coins = p.sampler((xs, [None] * self.n), RandomStream(4), self.n)
        assert np.array_equal(ys, xs + RandomStream(4).split(0).normal(self.n))
        assert coins == fair_coin().sampler([None] * self.n, RandomStream(4).split(1), self.n)
        y0, coin0 = p.sampler((xs[0], None), RandomStream(4))
        assert ys[0] == y0 and coins[0] == coin0
        r, heads = ys - xs, np.array(coins) == "a"
        assert abs(r.mean()) <= 5 / np.sqrt(self.n)
        assert abs(r.var() - 1.0) <= 5 * np.sqrt(2 / self.n)
        assert abs(heads.mean() - 0.5) <= 5 * 0.5 / np.sqrt(self.n)
        se = np.sqrt(1 / heads.sum() + 1 / (~heads).sum())
        assert abs(r[heads].mean() - r[~heads].mean()) <= 5 * se

    def test_finite_map_draw_is_the_inverse_cdf_of_one_index(self):
        # the draw is the first atom whose cumulative probability exceeds
        # u = i/d, for i the stream's one index below the common denominator
        atoms = [(Fraction(1, 6), "a"), (Fraction(1, 4), "b"), (Fraction(1, 3), "c"),
                 (Fraction(1, 4), "d")]
        k = finite_map(lambda x: atoms, ANY, ANY)
        for seed in range(200):
            u = Fraction(RandomStream(seed).choice_index(12), 12)
            cdf = np.cumsum([p for p, _ in atoms])
            assert k.sampler(None, RandomStream(seed)) == atoms[int(np.sum(cdf <= u))][1]

    def test_finite_map_stack_is_successive_single_draws(self):
        # exact, so it cannot fail by chance; the law of the draws is
        # TestStreams::test_enumerator_sampler_agreement's
        k = finite_map(lambda x: [(Fraction(1, x), "a"), (1 - Fraction(1, x), "b")], ANY, ANY)
        xs = [2, 3, 5, 7] * 250
        single = RandomStream(5)
        assert k.sampler(xs, RandomStream(5), len(xs)) == [k.sampler(x, single) for x in xs]


class TestEnumerate:
    def test_uniform_then_deterministic_six_outcomes(self):
        from equisym.groups import symmetric_group

        S3 = symmetric_group(3)
        sixth = Fraction(1, 6)
        gamma = finite_map(lambda x: [(sixth, g) for g in S3.elements], ANY, ANY)
        k = lift_deterministic(lambda g: g, ANY, ANY)
        atoms = enumerate_distribution(compose(k, gamma), None)
        assert len(atoms) == 6
        assert all(p == sixth for p, _ in atoms)

    def test_unsupported_enumeration(self):
        with pytest.raises(EnumerationError):
            enumerate_distribution(gaussian_map(), ())

    @staticmethod
    def reference_law(atoms):
        """Merge duplicate points Fraction by Fraction, first y of each kept."""
        merged = {}
        for p, y in atoms:
            q, y0 = merged.get(point_key(y), (Fraction(0), y))
            merged[point_key(y)] = (q + p, y0)
        return list(merged.values())

    def test_finite_map_merges_repeated_outcomes(self):
        third = Fraction(1, 3)
        k = finite_map(lambda x: [(third, "a"), (third, "b"), (third, "a")], ANY, ANY)
        assert enumerate_distribution(k, None) == [(2 * third, "a"), (third, "b")]
        # the integer sums against the Fraction fold: unequal denominators,
        # repeated array points, and a compose whose second kernel has
        # non-unit weights
        F = Fraction
        mixed = [(F(1, 6), "a"), (F(1, 4), "b"), (F(1, 3), "c"), (F(1, 12), "a"), (F(1, 6), "b")]
        arrays = [(F(1, 6), np.array([1.0, 2.0])), (F(1, 4), np.zeros(2)),
                  (F(1, 3), np.array([1.0, 2.0])), (F(1, 4), np.zeros(2))]
        weights = {"a": [(F(2, 5), "a"), (F(3, 5), "z")], "b": [(F(1, 7), "z"), (F(6, 7), "b")],
                   "c": [(F(1, 2), "a"), (F(1, 3), "c"), (F(1, 6), "z")]}
        second = finite_map(lambda y: weights[y], ANY, ANY)
        cases = [(finite_map(lambda x: mixed, ANY, ANY), self.reference_law(mixed)),
                 (finite_map(lambda x: arrays, ANY, ANY), self.reference_law(arrays)),
                 (compose(second, finite_map(lambda x: mixed, ANY, ANY)),
                  self.reference_law([(p * q, z) for p, y in mixed for q, z in weights[y]]))]
        for k, expected in cases:
            atoms = enumerate_distribution(k, None)
            assert [p for p, _ in atoms] == [p for p, _ in expected]
            assert all(type(p) is Fraction for p, _ in atoms)
            assert [point_key(y) for _, y in atoms] == [point_key(y) for _, y in expected]
        assert [p for p, _ in cases[0][1]] == [F(1, 4), F(5, 12), F(1, 3)]

    def test_total_other_than_one_is_an_error(self):
        k = StochasticMap(domain=ANY, codomain=ANY, sampler=None,
                          enumerator=lambda x: [(Fraction(1, 2), "a"), (Fraction(1, 3), "b")])
        with pytest.raises(EnumerationError, match="sum to 5/6, not 1"):
            enumerate_distribution(k, None)

    def test_negative_probability_is_an_error(self):
        k = StochasticMap(domain=ANY, codomain=ANY, sampler=None,
                          enumerator=lambda x: [(Fraction(3, 2), "a"), (Fraction(-1, 2), "b")])
        with pytest.raises(EnumerationError, match="negative probability"):
            enumerate_distribution(k, None)

    def test_float_probability_is_an_error_when_enumerated(self):
        k = finite_map(lambda x: [(0.5, "a"), (0.5, "b")], ANY, ANY)
        with pytest.raises(EnumerationError, match="probability 0.5 of outcome 'a'"):
            enumerate_distribution(k, None)

    def test_float_probability_is_an_error_when_drawn(self):
        k = finite_map(lambda x: [(Fraction(1, 2), "a"), (0.5, "b")], ANY, ANY)
        with pytest.raises(EnumerationError, match="probability 0.5 of outcome 'b'"):
            k.sampler(None, RandomStream(0))
        with pytest.raises(EnumerationError, match="not rational"):
            k.sampler([None, None], RandomStream(0), 2)

    # the enumerator's law checks, on laws a sampler drew from before:
    # [] raised a bare IndexError, 3/4 gave 'b' the missing mass (drawn
    # with probability 1/2), and 3/2 was silently truncated
    @pytest.mark.parametrize("atoms,message", [
        ([], "sum to 0, not 1"),
        ([(Fraction(1, 2), "a"), (Fraction(1, 4), "b")], "sum to 3/4, not 1"),
        ([(Fraction(1, 2), "a"), (Fraction(1, 1), "b")], "sum to 3/2, not 1"),
        ([(Fraction(3, 2), "a"), (Fraction(-1, 2), "b")], "negative probability"),
    ], ids=["empty", "sum_3_4", "sum_3_2", "negative"])
    def test_improper_law_is_an_error_when_drawn(self, atoms, message):
        k = finite_map(lambda x: atoms, ANY, ANY)
        for draw in (lambda: k.sampler(None, RandomStream(0)),
                     lambda: k.sampler([None, None], RandomStream(0), 2),
                     lambda: enumerate_distribution(k, None)):
            with pytest.raises(EnumerationError, match=message):
                draw()

    def test_finite_map_merges_repeated_array_outcomes(self):
        quarter = Fraction(1, 4)
        k = finite_map(lambda x: [(quarter, np.array([1.0, 2.0])), (quarter, np.zeros(2)),
                                  (2 * quarter, np.array([1.0, 2.0]))], ANY, ANY)
        atoms = enumerate_distribution(k, None)
        assert [p for p, _ in atoms] == [3 * quarter, quarter]
        assert np.array_equal(atoms[0][1], [1.0, 2.0]) and np.array_equal(atoms[1][1], [0.0, 0.0])

    def test_distributions_equal_merges_only_repeated_points(self, monkeypatch):
        # enumerated laws are merged already, so they are compared as they
        # are; each side went through merge_atoms before
        merges = []
        real = stochmap.merge_atoms
        monkeypatch.setattr(stochmap, "merge_atoms",
                            lambda atoms: merges.append(atoms) or real(atoms))
        third = Fraction(1, 3)
        k = finite_map(lambda x: [(third, "a"), (2 * third, "b")], ANY, ANY)
        law = enumerate_distribution(k, None)
        merges.clear()
        assert distributions_equal(law, list(reversed(law)))
        assert not distributions_equal(law, [(third, "b"), (2 * third, "a")])
        assert merges == []
        assert distributions_equal([(third, "b"), (third, "a"), (third, "b")], law)
        assert not distributions_equal([(third, "a"), (third, "a"), (third, "b")],
                                       [(third, "a"), (third, "b"), (third, "b")])
        assert len(merges) == 3

    @pytest.mark.parametrize("side", [0, 1])
    def test_distributions_equal_rejects_a_float_probability(self, side):
        exact = [(Fraction(1, 2), "a"), (Fraction(1, 2), "b")]
        floats = [(Fraction(1, 2), "a"), (0.5, "b")]
        pair = (floats, exact) if side == 0 else (exact, floats)
        with pytest.raises(EnumerationError, match="probability 0.5 of atom 'b' is not rational"):
            distributions_equal(*pair)

    def test_probabilities_sum_to_one_exactly(self):
        atoms = enumerate_distribution(fair_coin(), None)
        assert sum(p for p, _ in atoms) == 1


class TestMonteCarloMean:
    def test_sums_draws_in_split_order(self):
        # the same bytes as the hand fold, so callers keep their outputs
        draws = [RandomStream(3).split(i).normal(64) for i in range(3)]
        expected = (draws[0] + draws[1] + draws[2]) / 3
        assert np.array_equal(monte_carlo_mean(iter(draws)), expected)

    def test_no_draws(self):
        with pytest.raises(ValueError, match="at least one draw"):
            monte_carlo_mean(iter(()))


class TestStreams:
    def test_same_seed_bit_identical(self):
        a = RandomStream(123)
        b = RandomStream(123)
        assert np.array_equal(a.normal(10), b.normal(10))

    def test_split_children_independent_of_consumption(self):
        a = RandomStream(5)
        a.normal(100)  # consume
        b = RandomStream(5)
        assert np.array_equal(a.split(3).normal(4), b.split(3).normal(4))

    @pytest.mark.parametrize("path", [(), (0,), (1, 3), (2, 0, 7), (2**40, 5)])
    def test_draws_match_philox_reference(self, path):
        stream = RandomStream(9)
        for tag in path:
            stream = stream.split(tag)
        ref = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=9, spawn_key=path)))
        assert np.array_equal(stream.normal((3, 2)), ref.standard_normal((3, 2)))
        assert np.array_equal(stream.uniform(4), ref.random(4))
        assert np.array_equal(stream.integers(0, 100, 5), ref.integers(0, 100, size=5))

    @pytest.mark.parametrize("seed, path", derivation_cases())
    def test_derivation_matches_seed_sequence(self, seed, path):
        # a split-built stream draws what numpy's
        # Philox(SeedSequence(seed, spawn_key=path)) draws
        stream = RandomStream(seed)
        for tag in path:
            stream = stream.split(tag)
        ref = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=path)))
        expected = (ref.standard_normal(3), ref.random(2), ref.integers(0, 2**40, size=3),
                    tuple(int(i) for i in ref.permutation(6)))
        got = (stream.normal(3), stream.uniform(2), stream.integers(0, 2**40, 3),
               stream.permutation(6))
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @pytest.mark.parametrize("bad", [1.5, 2.7, "7"])
    def test_non_integral_seed_or_tag_rejected(self, bad):
        # int() would truncate 1.5 to 1 and parse "7", giving another seed's draws
        with pytest.raises(TypeError):
            RandomStream(bad)
        with pytest.raises(TypeError):
            RandomStream(0).split(bad)

    def test_numpy_integer_seed_and_tag_draw_as_ints(self):
        a = RandomStream(np.int64(7)).split(np.uint32(3))
        b = RandomStream(7).split(3)
        assert a.seed == 7 and type(a.seed) is int
        assert np.array_equal(a.normal(4), b.normal(4))

    @pytest.mark.parametrize("k", [0, 1, 333])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_permutation_stack_is_successive_single_draws(self, n, k):
        # one (k, n) stack draws what k single draws draw, and leaves the
        # stream where they leave it
        stacked, single = RandomStream(8).split(n), RandomStream(8).split(n)
        P = stacked.permutation(n, k)
        assert P.shape == (k, n) and P.dtype.kind == "i"
        assert [tuple(int(i) for i in row) for row in P] == [single.permutation(n)
                                                           for _ in range(k)]
        assert stacked.permutation(n) == single.permutation(n)

    def test_child_independent_of_parent_drawing_first(self):
        drew, idle = RandomStream(5).split(2), RandomStream(5).split(2)
        drew.normal(3)
        assert np.array_equal(drew.split(1).normal(6), idle.split(1).normal(6))
        # and splitting does not advance the parent
        assert np.array_equal(drew.normal(3), RandomStream(5).split(2).normal(6)[3:])

    def test_child_keeps_no_ancestor_alive(self):
        # a stream holds its entropy words, not its parent
        root = RandomStream(1)
        middle = root.split(0)
        child = middle.split(2)
        refs = [weakref.ref(root), weakref.ref(middle)]
        del root, middle
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert np.array_equal(child.normal(8), RandomStream(1).split(0).split(2).normal(8))

    def test_negative_split_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(5).split(-1)

    def test_distinct_tags_differ(self):
        s = RandomStream(5)
        assert not np.array_equal(s.split(0).normal(8), s.split(1).normal(8))

    def test_enumerator_sampler_agreement(self):
        k = finite_map(
            lambda x: [(Fraction(1, 4), "a"), (Fraction(3, 4), "b")], ANY, ANY
        )
        # 10^5 successive draws on one stream, one stack; each frequency
        # within 4 standard errors, a false-failure rate of 6e-5 (the two
        # deviations are equal)
        n = 10**5
        draws = k.sampler([None] * n, RandomStream(11), n)
        for p, y in enumerate_distribution(k, None):
            freq = draws.count(y) / n
            bound = 4 * np.sqrt(float(p) * (1 - float(p)) / n)
            assert abs(freq - float(p)) <= bound
