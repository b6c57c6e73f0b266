import numpy as np
import pytest
from fractions import Fraction

from equisym import checks
from equisym.checks import janossy_setup
from equisym.equivariance import (
    Action,
    CosetBundle,
    Homomorphism,
    coset_bundle_trivial,
    trivial_action,
)
from equisym.groups import (
    GroupDescriptor,
    orthogonal_group,
    perm_apply,
    perm_compose,
    perm_inverse,
    symmetric_group,
    translation_group,
)
from equisym.stochmap import (
    EnumerationError,
    RandomStream,
    Space,
    StochasticMap,
    compose,
    distributions_equal,
    enumerate_distribution,
    finite_map,
    lift_deterministic,
)
from equisym.symcore import (
    GammaNotEquivariantError,
    SpecError,
    SymmetrisationSpec,
    average,
    compose_procedures,
    gamma_columnwise_mean,
    gamma_from_haar,
    symmetrise,
)


def perm_sign(p):
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return 1 if inversions % 2 == 0 else -1


def translation_canonicalisation():
    """T_1 acting on pairs of reals by a common shift; gamma is the mean."""
    T1 = translation_group(1)
    bundle = coset_bundle_trivial(T1)
    x_space = Space("R^(1x2)", (1, 2))
    y_space = Space("R1", (1,))
    action_x = Action(group=T1, space=x_space, apply=lambda c, x: x + c[:, None])
    action_y = Action(group=T1, space=y_space, apply=lambda c, y: y + c)
    gamma = gamma_columnwise_mean(bundle, action_x)
    spec = SymmetrisationSpec(bundle=bundle, action_x=action_x, action_y=action_y,
                              gamma=gamma)
    k = lift_deterministic(lambda x: x[:, 0], x_space, y_space)
    return spec, k


class TestCanonicalisation:
    def test_worked_example(self):
        # sym(k)(x) = mean(x) + k(x - mean(x)); at [[0, 2]] that is 1 + (-1)
        spec, k = translation_canonicalisation()
        sym = symmetrise(k, spec)
        out = sym.sampler(np.array([[0.0, 2.0]]), RandomStream(0))
        assert np.allclose(out, [0.0])

    def test_exact_translation_equivariance(self):
        spec, k = translation_canonicalisation()
        sym = symmetrise(k, spec)
        stream = RandomStream(1)
        for i in range(20):
            x = stream.split(2 * i).normal((1, 2))
            c = stream.split(2 * i + 1).normal(1)
            lhs = sym.sampler(x + c[:, None], RandomStream(0))
            rhs = sym.sampler(x, RandomStream(0)) + c
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_deterministic_flag_propagates(self):
        spec, k = translation_canonicalisation()
        sym = symmetrise(k, spec)
        assert sym.deterministic

    def test_invariant_part_unchanged(self):
        # k already equivariant: identity on the mean
        spec, _ = translation_canonicalisation()
        k = lift_deterministic(lambda x: x.mean(axis=1), spec.action_x.space,
                               spec.action_y.space)
        sym = symmetrise(k, spec)
        x = RandomStream(2).normal((1, 2))
        assert np.allclose(sym.sampler(x, RandomStream(0)),
                           k.sampler(x, RandomStream(0)))


class TestGammaVerification:
    def _spec(self, gamma, points):
        spec, _ = translation_canonicalisation()
        return SymmetrisationSpec(bundle=spec.bundle, action_x=spec.action_x,
                                  action_y=spec.action_y, gamma=gamma,
                                  test_points=points)

    def test_equivariant_gamma_accepted(self):
        spec, _ = translation_canonicalisation()
        gamma = gamma_columnwise_mean(spec.bundle, spec.action_x)
        self._spec(gamma, (np.array([[0.0, 2.0]]), np.array([[1.0, -3.0]])))

    def test_non_equivariant_gamma_rejected(self):
        bad = lift_deterministic(lambda x: np.zeros(1), Space("R^(1x2)", (1, 2)),
                                 Space("coset:T_1/I"))
        with pytest.raises(GammaNotEquivariantError):
            self._spec(bad, (np.array([[0.0, 2.0]]),))

    def test_haar_gamma_passes_exact_finite_check(self):
        G = symmetric_group(3)
        bundle = coset_bundle_trivial(G)
        x_space = Space("tuple3")
        action_x = Action(group=G, space=x_space, apply=perm_apply)
        gamma = gamma_from_haar(bundle, action_x)
        gamma.domain = x_space
        SymmetrisationSpec(
            bundle=bundle, action_x=action_x,
            action_y=trivial_action(G, Space("scalar")),
            gamma=gamma, test_points=((1.0, 2.0, 3.0),))

    def _rotation_spec(self, gamma_for):
        # O(2) rotating the columns of R^(2x5): a gamma with neither a
        # deterministic flag nor an enumerator takes the statistical check
        G = orthogonal_group(2)
        bundle = coset_bundle_trivial(G)
        act = Action(group=G, space=Space("R^(2x5)", (2, 5)), apply=lambda Q, x: Q @ x)
        points = tuple(RandomStream(3).split(i).normal((2, 5)) for i in range(3))
        return SymmetrisationSpec(bundle=bundle, action_x=act, action_y=act,
                                  gamma=gamma_for(bundle, act), test_points=points)

    def test_haar_gamma_passes_statistical_check(self):
        self._rotation_spec(gamma_from_haar)

    def test_constant_gamma_fails_statistical_check(self):
        def constant(bundle, act):
            return StochasticMap(domain=act.space, codomain=bundle.coset_space,
                                 sampler=lambda x, s: np.eye(2))

        with pytest.raises(GammaNotEquivariantError):
            self._rotation_spec(constant)


class TestSpecErrors:
    def test_gamma_codomain_mismatch(self):
        spec, _ = translation_canonicalisation()
        wrong = lift_deterministic(lambda x: x, spec.action_x.space,
                                   Space("elsewhere"))
        with pytest.raises(SpecError):
            SymmetrisationSpec(bundle=spec.bundle, action_x=spec.action_x,
                               action_y=spec.action_y, gamma=wrong)

    def test_action_group_mismatch(self):
        spec, _ = translation_canonicalisation()
        other = Action(group=orthogonal_group(2), space=spec.action_x.space,
                       apply=lambda Q, x: x)
        with pytest.raises(SpecError):
            SymmetrisationSpec(bundle=spec.bundle, action_x=other,
                               action_y=spec.action_y, gamma=spec.gamma)

    def test_map_space_mismatch(self):
        spec, _ = translation_canonicalisation()
        k = lift_deterministic(lambda x: x, Space("other"), Space("other"))
        with pytest.raises(SpecError):
            symmetrise(k, spec)


class TestEnumeratorPropagation:
    def test_janossy_atoms(self):
        spec, k = janossy_setup(2)
        sym = symmetrise(k, spec)
        atoms = enumerate_distribution(sym, (3.0, 5.0))
        assert distributions_equal(atoms, [(Fraction(1, 2), 3.0),
                                           (Fraction(1, 2), 5.0)])
        assert not sym.deterministic

    def test_tied_coordinates_merge(self):
        spec, k = janossy_setup(3)
        sym = symmetrise(k, spec)
        atoms = enumerate_distribution(sym, (7.0, 7.0, 1.0))
        assert distributions_equal(atoms, [(Fraction(2, 3), 7.0),
                                           (Fraction(1, 3), 1.0)])


class TestCheckFailBranches:
    """Negative controls: each exact symmetrisation check reports FAIL when
    the map it checks breaks the property it asserts."""

    def test_janossy_fails_without_symmetrisation(self, monkeypatch):
        # k = first coordinate is neither invariant nor the uniform average
        # over coordinates, so both the equivariance and the average test fail
        monkeypatch.setattr(checks, "symmetrise", lambda k, spec: k)
        result = checks.check_janossy_equivariance(3)
        assert not result.passed and result.worst_error == 1.0

    def test_janossy_fails_on_map_that_is_not_invariant(self, monkeypatch):
        # the uniform average over coordinates, except at strictly
        # descending points; none of the check's points is one, so only the
        # equivariance test, at the permuted points, can fail
        def outcomes(x):
            if all(a > b for a, b in zip(x, x[1:])):
                return [(Fraction(1), x[0])]
            return [(Fraction(1, len(x)), v) for v in x]

        monkeypatch.setattr(checks, "symmetrise", lambda k, spec: finite_map(
            outcomes, spec.action_x.space, spec.action_y.space))
        result = checks.check_janossy_equivariance(3)
        assert not result.passed and result.worst_error == 1.0

    def test_janossy_fails_on_invariant_map_with_wrong_average(self, monkeypatch):
        # min(x) is invariant, so only the uniform-average test can fail
        monkeypatch.setattr(checks, "symmetrise", lambda k, spec: lift_deterministic(
            min, spec.action_x.space, spec.action_y.space))
        result = checks.check_janossy_equivariance(3)
        assert not result.passed and result.worst_error == 1.0

    def test_idempotence_fails_when_symmetrising_twice_differs(self, monkeypatch):
        # each application precomposes with the transposition of the first
        # two coordinates, so twice is k itself and once is not
        def swap_first_two(k, spec):
            swap = lift_deterministic(lambda x: (x[1], x[0]) + x[2:], k.domain, k.domain)
            return compose(k, swap)

        monkeypatch.setattr(checks, "symmetrise", swap_first_two)
        result = checks.check_idempotence()
        assert not result.passed and result.worst_error == 1.0


class TestAverage:
    def test_exact_rational(self):
        spec, k = janossy_setup(2)
        sym = symmetrise(k, spec)
        mean = average(sym, mode="exact_enumeration")
        x = (Fraction(3), Fraction(5))
        assert mean.sampler(x, RandomStream(0)) == Fraction(4)
        assert mean.deterministic

    def test_exact_float_outcomes(self):
        third = Fraction(1, 3)
        k = finite_map(lambda x: [(third, 0.1 * x), (2 * third, 2.5)], Space("R"), Space("R"))
        mean = average(k, mode="exact_enumeration")
        hand_sum = float(third) * (0.1 * 3.0) + float(2 * third) * 2.5
        assert mean.sampler(3.0, RandomStream(0)) == hand_sum

    def test_monte_carlo_converges(self):
        spec, k = janossy_setup(2)
        sym = symmetrise(k, spec)
        mean = average(sym, n_samples=4000, mode="monte_carlo", seed=5)
        est = mean.sampler((3.0, 5.0), RandomStream(0))
        assert abs(est - 4.0) < 0.05

    def test_monte_carlo_is_deterministic_map(self):
        spec, k = janossy_setup(2)
        sym = symmetrise(k, spec)
        mean = average(sym, n_samples=16, mode="monte_carlo", seed=1)
        a = mean.sampler((3.0, 5.0), RandomStream(0))
        b = mean.sampler((3.0, 5.0), RandomStream(77))
        assert a == b

    def test_exact_requires_finite_support(self):
        k = StochasticMap(domain=Space("R"), codomain=Space("R"),
                          sampler=lambda x, s: x + float(s.normal()))
        with pytest.raises(EnumerationError):
            average(k, mode="exact_enumeration")

    def test_invalid_arguments(self):
        k = lift_deterministic(lambda x: x, Space("R"), Space("R"))
        with pytest.raises(ValueError):
            average(k, n_samples=0, mode="monte_carlo")
        with pytest.raises(ValueError):
            average(k, mode="bogus")


class TestGammaRecursive:
    def test_constant_gamma0_becomes_equivariant(self):
        # a constant (non-equivariant) gamma0 symmetrised over S_2 yields the
        # uniform coset law, which is exactly equivariant
        G = symmetric_group(2)
        bundle = coset_bundle_trivial(G)
        x_space = Space("tuple2")
        action_x = Action(group=G, space=x_space, apply=perm_apply)
        gamma0 = lift_deterministic(lambda x: G.identity, x_space,
                                    bundle.coset_space)
        inner = SymmetrisationSpec(bundle=bundle, action_x=action_x,
                                   action_y=bundle.coset_action,
                                   gamma=_haar_on(bundle, action_x))
        gamma_rec = symmetrise(gamma0, inner)
        spec = SymmetrisationSpec(
            bundle=bundle, action_x=action_x,
            action_y=trivial_action(G, Space("scalar")),
            gamma=gamma_rec, test_points=((1.0, 2.0),))
        k = lift_deterministic(lambda x: x[0], x_space, Space("scalar"))
        sym = symmetrise(k, spec)
        atoms = enumerate_distribution(sym, (1.0, 2.0))
        assert distributions_equal(atoms, [(Fraction(1, 2), 1.0),
                                           (Fraction(1, 2), 2.0)])

    def test_codomain_mismatch_rejected(self):
        G = symmetric_group(2)
        bundle = coset_bundle_trivial(G)
        x_space = Space("tuple2")
        action_x = Action(group=G, space=x_space, apply=perm_apply)
        inner = SymmetrisationSpec(bundle=bundle, action_x=action_x,
                                   action_y=trivial_action(G, Space("scalar")),
                                   gamma=_haar_on(bundle, action_x))
        gamma0 = lift_deterministic(lambda x: G.identity, x_space,
                                    bundle.coset_space)
        with pytest.raises(SpecError):
            symmetrise(gamma0, inner)


def _haar_on(bundle, action_x):
    gamma = gamma_from_haar(bundle, action_x)
    gamma.domain = action_x.space
    return gamma


def alternating_group_3():
    evens = [p for p in symmetric_group(3).elements if perm_sign(p) == 1]
    return GroupDescriptor(
        name="A_3",
        mul=perm_compose,
        inv=perm_inverse,
        identity=(0, 1, 2),
        haar=lambda stream: evens[stream.choice_index(len(evens))],
        elements=evens,
    )


def sign_bundle(S3, A3):
    """Cosets of A_3 in S_3 labelled by the sign character."""
    phi = Homomorphism(source=A3, target=S3, map=lambda p: p)
    space = Space("sign")
    return CosetBundle(
        phi=phi,
        coset_space=space,
        q=lambda p: perm_sign(p),
        s=lambda c: (0, 1, 2) if c == 1 else (1, 0, 2),
        coset_action=Action(group=S3, space=space,
                            apply=lambda p, c: perm_sign(p) * c),
    )


class TestComposeProcedures:
    def _chain(self):
        S3 = symmetric_group(3)
        A3 = alternating_group_3()
        x_space = Space("tuple3")
        y_space = Space("scalar")
        inner_bundle = coset_bundle_trivial(A3)
        inner_ax = Action(group=A3, space=x_space, apply=perm_apply)
        inner = SymmetrisationSpec(
            bundle=inner_bundle, action_x=inner_ax,
            action_y=trivial_action(A3, y_space),
            gamma=_haar_on(inner_bundle, inner_ax))
        outer_bundle = sign_bundle(S3, A3)
        outer_ax = Action(group=S3, space=x_space, apply=perm_apply)
        half = Fraction(1, 2)
        gamma_sign = finite_map(lambda x: [(half, 1), (half, -1)],
                                x_space, outer_bundle.coset_space)
        outer = SymmetrisationSpec(
            bundle=outer_bundle, action_x=outer_ax,
            action_y=trivial_action(S3, y_space),
            gamma=gamma_sign, test_points=((1.0, 2.0, 3.0),))
        k = lift_deterministic(lambda x: x[0], x_space, y_space)
        return S3, outer, inner, k

    def test_two_stage_gives_full_uniform_average(self):
        # averaging over A_3 and then over the two sign cosets reaches all
        # of S_3, so each coordinate carries weight 1/3
        S3, outer, inner, k = self._chain()
        sym = compose_procedures(outer, inner)(k)
        atoms = enumerate_distribution(sym, (1.0, 2.0, 3.0))
        third = Fraction(1, 3)
        assert distributions_equal(
            atoms, [(third, 1.0), (third, 2.0), (third, 3.0)])

    def test_two_stage_exactly_invariant(self):
        S3, outer, inner, k = self._chain()
        sym = compose_procedures(outer, inner)(k)
        x = (4.0, 7.0, 9.0)
        base = enumerate_distribution(sym, x)
        for g in S3.elements:
            gx = perm_apply(g, x)
            assert distributions_equal(enumerate_distribution(sym, gx), base)

    def test_group_chain_mismatch_rejected(self):
        S3, outer, inner, k = self._chain()
        x_space = Space("tuple3")
        wrong_bundle = coset_bundle_trivial(S3)
        wrong_ax = Action(group=S3, space=x_space, apply=perm_apply)
        wrong_inner = SymmetrisationSpec(
            bundle=wrong_bundle, action_x=wrong_ax,
            action_y=trivial_action(S3, Space("scalar")),
            gamma=_haar_on(wrong_bundle, wrong_ax))
        with pytest.raises(SpecError):
            compose_procedures(outer, wrong_inner)
