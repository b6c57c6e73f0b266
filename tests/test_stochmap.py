import numpy as np
import pytest
from fractions import Fraction

from equisym.stochmap import (
    CompositionError,
    EnumerationError,
    RandomStream,
    ShapeError,
    Space,
    StochasticMap,
    compose,
    distributions_equal,
    enumerate_distribution,
    finite_map,
    lift_deterministic,
    monte_carlo_mean,
    product,
    sample,
)

R1 = Space("R")
R2 = Space("R2", (2,))
ANY = Space("any")


def gaussian_map():
    return StochasticMap(domain=Space("unit"), codomain=R1,
                         sampler=lambda x, stream: float(stream.normal()))


def fair_coin(labels=("a", "b")):
    half = Fraction(1, 2)
    return finite_map(lambda x: [(half, labels[0]), (half, labels[1])], ANY, ANY)


class TestSample:
    def test_identity_lift(self):
        k = lift_deterministic(lambda x: x, R2, R2)
        out = sample(k, np.array([1.0, 2.0]), RandomStream(0))
        assert np.array_equal(out, [1.0, 2.0])

    def test_constant_ignores_stream(self):
        k = lift_deterministic(lambda x: 7.0, ANY, R1)
        assert sample(k, "whatever", RandomStream(3)) == 7.0
        assert sample(k, "whatever", RandomStream(99)) == 7.0

    def test_gaussian_empirical_mean(self):
        k = gaussian_map()
        stream = RandomStream(42)
        draws = [k.sampler((), stream) for _ in range(10**5)]
        assert abs(np.mean(draws)) < 0.02

    def test_shape_mismatch_rejected(self):
        k = lift_deterministic(lambda x: x, R2, R2)
        with pytest.raises(ShapeError):
            sample(k, np.array([1.0, 2.0, 3.0]), RandomStream(0))


class TestLiftDeterministic:
    def test_negate(self):
        k = lift_deterministic(lambda x: -x, R1, R1)
        assert sample(k, 3.0, RandomStream(0)) == -3.0

    def test_transpose(self):
        k = lift_deterministic(lambda m: m.T, Space("M", (2, 2)), Space("M", (2, 2)))
        out = sample(k, np.array([[1.0, 2.0], [3.0, 4.0]]), RandomStream(0))
        assert np.array_equal(out, [[1.0, 3.0], [2.0, 4.0]])

    def test_enumeration_is_dirac(self):
        k = lift_deterministic(lambda x: x + 1, R1, R1)
        assert enumerate_distribution(k, 4) == [(Fraction(1), 5)]

    def test_determinism_flag_holds(self):
        k = lift_deterministic(lambda x: x * 2, R1, R1)
        assert k.deterministic
        assert sample(k, 5, RandomStream(1)) == sample(k, 5, RandomStream(2))


class TestCompose:
    def test_lifts_compose_as_functions(self):
        f = lift_deterministic(lambda x: x + 1, R1, R1)
        g = lift_deterministic(lambda x: x * 3, R1, R1)
        assert sample(compose(g, f), 2, RandomStream(0)) == 9

    def test_noise_after_double_mean(self):
        double = lift_deterministic(lambda x: 2.0 * x, R1, R1)
        noise = StochasticMap(domain=R1, codomain=R1,
                              sampler=lambda x, s: x + float(s.normal()))
        k = compose(noise, double)
        stream = RandomStream(7)
        draws = [k.sampler(1.0, stream.split(i)) for i in range(10**5)]
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
        assert sample(p, (3, 4), RandomStream(0)) == (3, 4)

    def test_equals_lift_of_pairwise_function(self):
        f = lift_deterministic(lambda x: x + 1, R1, R1)
        g = lift_deterministic(lambda x: x * 2, R1, R1)
        p = product(f, g)
        assert p.deterministic
        assert sample(p, (1, 5), RandomStream(0)) == (2, 10)

    def test_two_fair_coins(self):
        p = product(fair_coin(), fair_coin())
        atoms = enumerate_distribution(p, (None, None))
        assert len(atoms) == 4
        assert all(pr == Fraction(1, 4) for pr, _ in atoms)


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

    def test_finite_map_merges_repeated_outcomes(self):
        third = Fraction(1, 3)
        k = finite_map(lambda x: [(third, "a"), (third, "b"), (third, "a")], ANY, ANY)
        assert enumerate_distribution(k, None) == [(2 * third, "a"), (third, "b")]

    def test_finite_map_merges_repeated_array_outcomes(self):
        quarter = Fraction(1, 4)
        k = finite_map(lambda x: [(quarter, np.array([1.0, 2.0])), (quarter, np.zeros(2)),
                                  (2 * quarter, np.array([1.0, 2.0]))], ANY, ANY)
        atoms = enumerate_distribution(k, None)
        assert [p for p, _ in atoms] == [3 * quarter, quarter]
        assert np.array_equal(atoms[0][1], [1.0, 2.0]) and np.array_equal(atoms[1][1], [0.0, 0.0])

    def test_probabilities_sum_to_one_exactly(self):
        atoms = enumerate_distribution(fair_coin(), None)
        assert sum(p for p, _ in atoms) == 1


class TestMonteCarloMean:
    def test_sums_draws_in_split_order(self):
        # the same bytes as the hand fold, so callers keep their outputs
        draw = lambda s: s.normal(64)
        stream = RandomStream(3)
        expected = (draw(stream.split(0)) + draw(stream.split(1)) + draw(stream.split(2))) / 3
        assert np.array_equal(monte_carlo_mean(draw, stream, 3), expected)


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

    def test_child_independent_of_parent_drawing_first(self):
        drew, idle = RandomStream(5).split(2), RandomStream(5).split(2)
        drew.normal(3)
        assert np.array_equal(drew.split(1).normal(6), idle.split(1).normal(6))
        # and splitting does not advance the parent
        assert np.array_equal(drew.normal(3), RandomStream(5).split(2).normal(6)[3:])

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
        stream = RandomStream(11)
        n = 10**5
        draws = [k.sampler(None, stream.split(i)) for i in range(n)]
        for p, y in enumerate_distribution(k, None):
            freq = draws.count(y) / n
            bound = 4 * np.sqrt(float(p) * (1 - float(p)) / n)
            assert abs(freq - float(p)) <= bound
