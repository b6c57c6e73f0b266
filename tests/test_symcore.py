import types

import numpy as np
import pytest
from fractions import Fraction

import equisym
from equisym import checks, groups
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
    _haar_from_normal,
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
    monte_carlo_mean,
    point_key,
    product,
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
    x_space = Space("R^(1x2)")
    y_space = Space("R1")
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
        bad = lift_deterministic(lambda x: np.zeros(1), Space("R^(1x2)"),
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
        act = Action(group=G, space=Space("R^(2x5)"), apply=lambda Q, x: Q @ x)
        points = tuple(RandomStream(3).split(i).normal((2, 5)) for i in range(3))
        return SymmetrisationSpec(bundle=bundle, action_x=act, action_y=act,
                                  gamma=gamma_for(bundle, act), test_points=points)

    def test_haar_gamma_passes_statistical_check(self):
        self._rotation_spec(gamma_from_haar)

    def test_equivariant_gamma_with_a_nonzero_mean_passes_statistical_check(self):
        # gamma(x) = Q(x) diag(1, +-1) with Q(x) the sign-fixed QR factor of
        # x's first two columns, so Q(g x) = g Q(x), and gamma's mean
        # Q(x) diag(1, 0) moves with x: the check must compare the draws at
        # g.x with g times the draws at x
        def flip_gamma(bundle, act):
            def sampler(x, s, n=None):
                Q = _haar_from_normal(x[..., :2], False)
                flips = np.where(s.uniform(Q.shape[:-1]) < 0.5, -1.0, 1.0)
                flips[..., 0] = 1.0
                return Q * flips[..., None, :]

            return StochasticMap(domain=act.space, codomain=bundle.coset_space, sampler=sampler)

        self._rotation_spec(flip_gamma)

    def test_constant_gamma_fails_statistical_check(self):
        def constant(bundle, act):
            return StochasticMap(domain=act.space, codomain=bundle.coset_space,
                                 sampler=lambda x, s, n=None: np.eye(2))

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

    def test_janossy_s4_builds_one_fraction_per_point(self, monkeypatch):
        # the 24 atoms are summed in integers: one Fraction per distinct
        # output, and no Fraction arithmetic
        spec, k = janossy_setup(4)
        sym = symmetrise(k, spec)
        calls = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__",
                            lambda cls, *a, **kw: calls.append("new") or new(cls, *a, **kw))
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            op = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name,
                                lambda a, b, op=op, name=name: calls.append(name) or op(a, b))
        atoms = enumerate_distribution(sym, (1.0, 2.0, 3.0, 4.0))
        monkeypatch.undo()
        assert calls == ["new"] * 4
        assert atoms == [(Fraction(1, 4), y) for y in (1.0, 2.0, 3.0, 4.0)]


    def test_janossy_s4_computes_each_section_once(self, monkeypatch):
        # the enumerator keeps each coset's s(c) and its inverse: 24
        # inverses for S_4's 24 cosets, where the 125 enumerations of the
        # check computed 3,000
        inverses = [0]
        real = groups.perm_inverse
        monkeypatch.setattr(groups, "perm_inverse",
                            lambda s: inverses.__setitem__(0, inverses[0] + 1) or real(s))
        assert checks.check_janossy_equivariance(4).passed
        assert 0 < inverses[0] <= 24


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

    def test_stability_fails_on_map_that_is_not_equivariant(self, monkeypatch):
        # k swapped for x -> W x with W neither orthogonal nor commuting with
        # rotations: no case's group leaves it fixed, so every row fails
        W = np.array([[2.0, 1.0], [0.0, 1.0]])
        lift = checks.lift_deterministic

        def skewed_k(f, domain, codomain):  # k is the one lift from X to X
            return lift((lambda x: W @ f(x)) if domain == codomain else f, domain, codomain)

        monkeypatch.setattr(checks, "lift_deterministic", skewed_k)
        results = checks.check_stability()
        assert len(results) == 4
        assert all(not r.passed and r.worst_error > 1e-3 for r in results)


class TestStacks:
    """A stacked symmetrised draw against single-point draws on the
    stability cases, with k = W x so the output is not the input."""

    W = np.array([[2.0, 1.0], [0.0, 1.0]])

    def sym_and_points(self, name, n=50):
        case = {c[0]: c[1:] for c in checks._stability_cases()}[name]
        bundle, act, gamma, sample_x = case
        k = lift_deterministic(lambda x: self.W @ x, act.space, act.space)
        sym = symmetrise(k, SymmetrisationSpec(bundle, act, act, gamma))
        return sym, sample_x(RandomStream(5), n)

    @pytest.mark.parametrize("name", ["SE(2) via_H columnwise mean",
                                      "O(2) in GL(2) gram gamma"])
    def test_deterministic_gamma_rows_are_single_draws(self, name):
        sym, xs = self.sym_and_points(name)
        ys = sym.sampler(xs, RandomStream(6), len(xs))
        assert ys.shape == xs.shape
        for x, y in zip(xs, ys):
            assert np.array_equal(y, sym.sampler(x, RandomStream(6)))

    @pytest.mark.parametrize("name", ["trivial O(2) haar", "SE(2) via_N haar"])
    def test_haar_gamma_row_0_is_the_single_draw_and_rows_differ(self, name):
        # one point repeated: the rows differ only through gamma's draws
        sym, xs = self.sym_and_points(name)
        xs = np.broadcast_to(xs[0], xs.shape)
        ys = sym.sampler(xs, RandomStream(6), len(xs))
        assert np.array_equal(ys[0], sym.sampler(xs[0], RandomStream(6)))
        flat = ys.reshape(len(ys), -1)
        assert len({row.tobytes() for row in flat}) == len(ys)

    def test_gamma_stack_comes_from_split_0(self):
        # trivial O(2): s is the identity, so the draw is Q W Q^-1 x for the
        # Haar stack Q drawn from split(0)
        sym, xs = self.sym_and_points("trivial O(2) haar")
        G = orthogonal_group(2)
        Q = G.haar(RandomStream(6).split(0), len(xs))
        assert np.array_equal(sym.sampler(xs, RandomStream(6), len(xs)),
                              Q @ (self.W @ (G.inv(Q) @ xs)))

    def test_janossy_stack_rows(self):
        # a (6, 3) stack of points: row 0 is the single draw at the tuple
        # xs[0] on the same stream, and row i is coordinate P[i, 0] of point
        # i, for the Haar stack P drawn from split(0)
        spec, k = janossy_setup(3)
        sym = symmetrise(k, spec)
        xs = 10.0 * np.arange(18).reshape(6, 3)
        ys = sym.sampler(xs, RandomStream(8), len(xs))
        assert ys.shape == (6,)
        assert ys[0] == sym.sampler(tuple(xs[0]), RandomStream(8))
        P = spec.group.haar(RandomStream(8).split(0), len(xs))
        assert np.array_equal(ys, xs[np.arange(6), P[:, 0]])

    def test_stochastic_k_draws_its_stack_from_split_1(self):
        # k = a fair choice of the first two coordinates: its stacked draw is
        # k's n successive draws on split(1) at the un-acted points
        spec, _ = janossy_setup(3)
        half = Fraction(1, 2)
        k = finite_map(lambda x: [(half, x[0]), (half, x[1])],
                       spec.action_x.space, spec.action_y.space)
        xs = 10.0 * np.arange(18).reshape(6, 3)
        ys = symmetrise(k, spec).sampler(xs, RandomStream(8), len(xs))
        P = spec.group.haar(RandomStream(8).split(0), len(xs))
        x0 = perm_apply(perm_inverse(P), xs)
        assert ys == k.sampler(x0, RandomStream(8).split(1), len(xs))

    def test_two_argument_haar_serves_single_draws(self):
        # A_3's haar(stream, n=None) draws single elements only
        A3 = alternating_group_3()
        bundle = coset_bundle_trivial(A3)
        gamma = _haar_on(bundle, Action(group=A3, space=Space("tuple3"), apply=perm_apply))
        assert gamma.sampler((1.0, 2.0, 3.0), RandomStream(0)) in A3.elements

    def test_stability_check_draws_one_stack_per_case(self, monkeypatch):
        # one symmetrised draw per case, and one generator for its inputs
        # and one for a Haar gamma, on top of the 3 that building SE(2)
        # draws for its compatibility check: 9 in all.  One draw per point
        # made 400 sampler calls and 603 generators
        counts = {"sampler": 0, "Philox": 0}
        real_symmetrise, real_philox = checks.symmetrise, np.random.Philox

        def counted_symmetrise(k, spec):
            sym = real_symmetrise(k, spec)
            sampler = sym.sampler

            def counted(*args):
                counts["sampler"] += 1
                return sampler(*args)

            sym.sampler = counted
            return sym

        def counted_philox(*args, **kwargs):
            counts["Philox"] += 1
            return real_philox(*args, **kwargs)

        monkeypatch.setattr(checks, "symmetrise", counted_symmetrise)
        monkeypatch.setattr(np.random, "Philox", counted_philox)
        assert all(r.passed for r in checks.check_stability())
        assert counts["sampler"] == 4
        assert counts["Philox"] <= 16


class TestAverage:
    def test_exact_rational(self):
        spec, k = janossy_setup(2)
        sym = symmetrise(k, spec)
        mean = average(sym)
        x = (Fraction(3), Fraction(5))
        assert mean.sampler(x, RandomStream(0)) == Fraction(4)
        assert mean.deterministic

    def test_exact_float_outcomes(self):
        third = Fraction(1, 3)
        k = finite_map(lambda x: [(third, 0.1 * x), (2 * third, 2.5)], Space("R"), Space("R"))
        mean = average(k)
        hand_sum = float(third) * (0.1 * 3.0) + float(2 * third) * 2.5
        assert mean.sampler(3.0, RandomStream(0)) == hand_sum

    def test_monte_carlo_converges(self):
        # the Monte Carlo mean of 4000 symmetrised draws is near the exact
        # average, 4
        spec, k = janossy_setup(2)
        sym = symmetrise(k, spec)
        x = (3.0, 5.0)
        stream = RandomStream(5)
        est = monte_carlo_mean(sym.sampler(x, stream.split(i)) for i in range(4000))
        assert abs(est - average(sym).sampler(x, RandomStream(0))) < 0.05

    def test_stacked_draw_is_one_expectation_per_point(self):
        half = Fraction(1, 2)
        k = finite_map(lambda x: [(half, x), (half, x + 1)], Space("R"), Space("R"))
        mean = average(k)
        xs = (0, 10, 20)
        rows = mean.sampler(xs, RandomStream(0), len(xs))
        assert rows == [0.5, 10.5, 20.5]
        assert rows == [mean.sampler(x, RandomStream(0)) for x in xs]

    def test_exact_requires_finite_support(self):
        k = StochasticMap(domain=Space("R"), codomain=Space("R"),
                          sampler=lambda x, s, n=None: x + float(s.normal()))
        with pytest.raises(EnumerationError):
            average(k)

    def test_invalid_arguments(self):
        # average takes the map alone: it has no Monte Carlo mode or knobs
        k = lift_deterministic(lambda x: x, Space("R"), Space("R"))
        with pytest.raises(TypeError):
            average(k, n_samples=4)
        with pytest.raises(TypeError):
            average(k, mode="monte_carlo")


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
        haar=lambda stream, n=None: evens[stream.choice_index(len(evens))],  # single draws
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


def _noise_map():
    R = Space("R")
    return StochasticMap(R, R, lambda x, s, n=None: x + s.normal(np.shape(x)))


def _coin():
    third = Fraction(1, 3)
    return finite_map(lambda x: [(third, "a"), (2 * third, "b")], Space("R"), Space("R"))


def _janossy_sym():
    spec, k = janossy_setup(3)
    return symmetrise(k, spec)


def _trivial_o2_gamma():
    act = Action(orthogonal_group(2), Space("R^(2x5)"), lambda Q, x: Q @ x)
    return gamma_from_haar(coset_bundle_trivial(act.group), act)


SAMPLER_BUILDERS = {
    "lift_deterministic": (lambda: lift_deterministic(lambda x: 2.0 * x, Space("R"),
                                                      Space("R")), 3.0),
    "finite_map": (_coin, 1.0),
    "compose": (lambda: compose(_noise_map(), lift_deterministic(
        lambda x: 2.0 * x, Space("R"), Space("R"))), 1.0),
    "product": (lambda: product(_noise_map(), _coin()), (1.0, 2.0)),
    "symmetrise": (_janossy_sym, (1.0, 2.0, 3.0)),
    "gamma_from_haar": (_trivial_o2_gamma, np.ones((2, 5))),
    "gamma_columnwise_mean": (lambda: translation_canonicalisation()[0].gamma,
                              np.array([[0.0, 2.0]])),
    "average": (lambda: average(_janossy_sym()), (1.0, 2.0, 3.0)),
}


class TestSurface:
    @pytest.mark.parametrize("builder", list(SAMPLER_BUILDERS))
    def test_sampler_count_defaults_to_a_single_draw(self, builder):
        # one signature, sampler(x, stream, n=None): passing n=None draws
        # what the two-argument call draws, bit for bit
        build, x = SAMPLER_BUILDERS[builder]
        k = build()
        for seed in range(5):
            assert point_key(k.sampler(x, RandomStream(seed), None)) == point_key(
                k.sampler(x, RandomStream(seed)))

    def test_public_names_pinned(self):
        # the package's public surface; a change to it shows up here
        names = {n for n, v in vars(equisym).items()
                 if not n.startswith("_") and not isinstance(v, types.ModuleType)}
        assert names == {
            "RandomStream", "Space", "StochasticMap", "compose", "enumerate_distribution",
            "lift_deterministic", "product",
            "GroupDescriptor", "general_linear_group", "haar_sample", "orthogonal_group",
            "semidirect_product", "special_euclidean_group", "symmetric_group",
            "translation_group", "trivial_group",
            "Action", "CosetBundle", "Homomorphism", "coset_bundle_orthogonal_in_gl",
            "coset_bundle_semidirect", "coset_bundle_trivial",
            "SymmetrisationSpec", "average", "compose_procedures", "gamma_columnwise_mean",
            "gamma_from_haar", "symmetrise",
        }
