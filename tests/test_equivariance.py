import numpy as np
import pytest

from equisym.checks import check_coset_bundle, standard_bundles
from equisym.equivariance import (
    Action,
    ActionError,
    NotPositiveDefiniteError,
    coset_bundle_orthogonal_in_gl,
    coset_bundle_semidirect,
    coset_bundle_trivial,
)
from equisym.groups import (
    general_linear_group,
    haar_sample,
    orthogonal_group,
    special_euclidean_group,
)
from equisym.stochmap import RandomStream, Space


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def columnwise_se_action(d, n):
    SE = special_euclidean_group(d)
    return SE, Action(
        group=SE,
        space=Space(f"R^({d}x{n})"),
        apply=lambda g, x: g[1] @ x + g[0][:, None],
    )


class TestRestrict:
    """A G-action restricted along a bundle's phi: H -> G, h . x = phi(h) . x,
    the H-action that the map being symmetrised must commute with."""

    def test_trivial_homomorphism_gives_trivial_action(self):
        O2 = orthogonal_group(2)
        a = Action(group=O2, space=Space("R2"), apply=lambda Q, x: Q @ x)
        phi = coset_bundle_trivial(O2).phi
        x = np.array([3.0, -1.0])
        assert np.array_equal(a.apply(phi.map(()), x), x)

    def test_restricting_se2_to_rotations(self):
        SE2, a = columnwise_se_action(2, 3)
        phi = coset_bundle_semidirect(SE2, "via_H").phi
        Q = rot(0.3)
        x = RandomStream(1).normal((2, 3))
        assert np.allclose(a.apply(phi.map(Q), x), Q @ x)


class TestTrivialBundle:
    def test_q_and_coset_action(self):
        O2 = orthogonal_group(2)
        b = coset_bundle_trivial(O2)
        Q = haar_sample(O2, RandomStream(4))
        Q2 = haar_sample(O2, RandomStream(5))
        assert np.array_equal(b.q(Q), Q)
        assert np.array_equal(b.s(Q), Q)
        assert np.allclose(b.coset_action.apply(Q, Q2), Q @ Q2)


class TestOrthogonalInGl:
    def test_q_of_identity(self):
        b = coset_bundle_orthogonal_in_gl(2)
        assert np.allclose(b.q(np.eye(2)), np.eye(2))

    def test_diagonal_example(self):
        b = coset_bundle_orthogonal_in_gl(2)
        assert np.allclose(b.q(np.diag([2.0, 1.0])), np.diag([4.0, 1.0]))
        assert np.allclose(b.s(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))

    def test_q_invariant_under_right_orthogonal(self):
        b = coset_bundle_orthogonal_in_gl(2)
        gl = general_linear_group(2)
        s = RandomStream(6)
        for i in range(50):
            A = gl.random_element(s.split(i))
            Q = haar_sample(orthogonal_group(2), s.split(1000 + i))
            assert np.linalg.norm(b.q(A @ Q) - b.q(A)) <= 1e-9

    def test_section_rejects_indefinite(self):
        b = coset_bundle_orthogonal_in_gl(2)
        with pytest.raises(NotPositiveDefiniteError):
            b.s(np.diag([1.0, -1.0]))

    def test_section_checks_every_row_of_a_stack(self):
        b = coset_bundle_orthogonal_in_gl(2)
        P = np.stack([np.eye(2), 2.0 * np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(NotPositiveDefiniteError):
            b.s(P)
        assert np.array_equal(b.s(P[:2]), np.stack([np.eye(2), np.sqrt(2.0) * np.eye(2)]))


class TestSemidirectBundles:
    def test_via_h_projection_and_section(self):
        SE2 = special_euclidean_group(2)
        b = coset_bundle_semidirect(SE2, "via_H")
        t = np.array([2.0, -1.0])
        g = (t, rot(0.5))
        assert np.array_equal(b.q(g), t)
        st, sQ = b.s(t)
        assert np.array_equal(st, t) and np.array_equal(sQ, np.eye(2))

    def test_via_h_coset_action_example(self):
        SE2 = special_euclidean_group(2)
        b = coset_bundle_semidirect(SE2, "via_H")
        g = (np.array([1.0, 0.0]), rot(np.pi / 2))
        out = b.coset_action.apply(g, np.array([0.0, 1.0]))
        assert np.allclose(out, [0.0, 0.0], atol=1e-12)

    def test_via_n_projection_equivariance(self):
        SE2 = special_euclidean_group(2)
        b = coset_bundle_semidirect(SE2, "via_N")
        s = RandomStream(8)
        g = SE2.random_element(s.split(0))
        h = SE2.random_element(s.split(1))
        assert np.allclose(b.q(g), g[1])
        assert np.allclose(b.q(SE2.mul(g, h)),
                           b.coset_action.apply(g, b.q(h)))

    def test_non_semidirect_rejected(self):
        with pytest.raises(ActionError):
            coset_bundle_semidirect(orthogonal_group(2), "via_N")

    def test_unknown_direction_rejected(self):
        SE2 = special_euclidean_group(2)
        with pytest.raises(ActionError):
            coset_bundle_semidirect(SE2, "sideways")


class TestBundleLaws:
    @pytest.mark.parametrize("name", list(standard_bundles()))
    def test_laws(self, name):
        bundle = standard_bundles()[name]
        result = check_coset_bundle(name, bundle)
        assert result.passed, result.line()


class TestSemidirectEquivarianceSplit:
    def test_columnwise_mean_equivariant_to_both_restrictions(self):
        # equivariance to SE(2) columnwise is equivalent to equivariance to
        # the SO(2) and T_2 restrictions separately; the columnwise mean
        # satisfies all three
        SE2, a = columnwise_se_action(2, 4)
        s = RandomStream(10)
        x = s.normal((2, 4))
        mean = lambda m: m.mean(axis=1)
        (t, Q) = SE2.random_element(s.split(0))
        # full action
        assert np.allclose(mean(a.apply((t, Q), x)), Q @ mean(x) + t, atol=1e-9)
        # rotation-only restriction
        assert np.allclose(mean(Q @ x), Q @ mean(x), atol=1e-9)
        # translation-only restriction
        assert np.allclose(mean(x + t[:, None]), mean(x) + t, atol=1e-12)
