import hashlib

import numpy as np
import pytest

from equisym import checks
from equisym.checks import check_group_axioms, standard_bundles, standard_groups
from equisym.groups import (
    REJECTION_LIMIT,
    GroupError,
    NoHaarError,
    RejectionError,
    SingularityError,
    _haar_orthogonal,
    direct_product,
    element_distance,
    general_linear_group,
    haar_sample,
    orthogonal_group,
    perm_apply,
    perm_compose,
    perm_inverse,
    sample_accepted,
    semidirect_product,
    special_euclidean_group,
    symmetric_group,
    translation_group,
)
from equisym.stochmap import RandomStream


def ks_pvalue(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov test of samples against a continuous
    CDF: the statistic D with Stephens' small-n correction, and the p-value
    from the Kolmogorov series 2 sum_j (-1)^(j-1) exp(-2 j^2 lambda^2)."""
    F = cdf(np.sort(samples))
    n = len(F)
    i = np.arange(1, n + 1)
    D = max(np.max(i / n - F), np.max(F - (i - 1) / n))
    lam = (np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n)) * D
    j = np.arange(1, 101)
    return float(np.clip(2 * np.sum((-1.0) ** (j - 1) * np.exp(-2 * (j * lam) ** 2)), 0, 1))


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestMul:
    def test_two_quarter_turns(self):
        G = orthogonal_group(2)
        out = G.mul(rot(np.pi / 2), rot(np.pi / 2))
        assert np.allclose(out, [[-1, 0], [0, -1]], atol=1e-12)

    def test_unit_axiom(self):
        for G in standard_groups().values():
            g = G.random_element(RandomStream(1))
            assert element_distance(G.mul(g, G.identity), g) <= 1e-9

    def test_orthogonal_mul_is_matmul(self):
        for G in (orthogonal_group(3), orthogonal_group(3, special=True)):
            a = haar_sample(G, RandomStream(3).split(0))
            b = haar_sample(G, RandomStream(3).split(1))
            assert G.mul(a, b).tobytes() == (a @ b).tobytes()

    def test_long_orthogonal_product_stays_orthogonal(self):
        # O(d) products are plain matmuls; round-off over 10,000 factors
        # stays inside a 1e-12 bound on ||Q^T Q - I||_F
        G = orthogonal_group(3)
        stream = RandomStream(11)
        Q = G.identity
        for i in range(10_000):
            Q = G.mul(Q, haar_sample(G, stream.split(i)))
        assert np.linalg.norm(Q.T @ Q - np.eye(3)) <= 1e-12

    def test_se2_product_formula(self):
        SE2 = special_euclidean_group(2)
        g = (np.array([1.0, 0.0]), rot(np.pi / 2))
        h = (np.array([0.0, 1.0]), np.eye(2))
        t, Q = SE2.mul(g, h)
        # (t + Q t', Q Q')
        assert np.allclose(t, [0.0, 0.0], atol=1e-12)
        assert np.allclose(Q, rot(np.pi / 2))


class TestInv:
    def test_identity(self):
        G = orthogonal_group(3)
        assert np.allclose(G.inv(G.identity), G.identity)

    def test_orthogonal_is_transpose(self):
        G = orthogonal_group(3)
        Q = haar_sample(G, RandomStream(2))
        assert np.allclose(G.inv(Q), Q.T)
        assert np.linalg.norm(Q @ G.inv(Q) - np.eye(3)) <= 1e-9

    def test_translation_additive(self):
        G = translation_group(2)
        assert np.array_equal(G.inv(np.array([1.0, -2.0])), [-1.0, 2.0])

    def test_singular_gl_rejected(self):
        G = general_linear_group(2)
        with pytest.raises(SingularityError):
            G.inv(np.zeros((2, 2)))


class TestHaar:
    def test_orthogonality_enforced(self):
        for d in (2, 3, 5):
            G = orthogonal_group(d)
            Q = haar_sample(G, RandomStream(d))
            assert np.linalg.norm(Q.T @ Q - np.eye(d)) <= 1e-10

    def test_so_determinant(self):
        G = orthogonal_group(3, special=True)
        for i in range(20):
            Q = haar_sample(G, RandomStream(0).split(i))
            assert np.isclose(np.linalg.det(Q), 1.0)

    def test_s3_uniformity_chi_square(self):
        G = symmetric_group(3)
        stream = RandomStream(77)
        n = 60000
        counts = {g: 0 for g in G.elements}
        for i in range(n):
            counts[haar_sample(G, stream.split(i))] += 1
        expected = n / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # chi-square critical value, 5 dof, 0.999 quantile
        assert chi2 <= 20.515

    def test_o2_left_invariance(self):
        G = orthogonal_group(2)
        g = rot(np.radians(37))
        stream = RandomStream(5)
        acc_q = np.zeros((2, 2))
        acc_gq = np.zeros((2, 2))
        n = 10**5
        for i in range(n):
            Q = haar_sample(G, stream.split(i))
            acc_q += Q
            acc_gq += g @ Q
        assert np.max(np.abs(acc_q / n - acc_gq / n)) < 0.02

    def test_batched_orthogonal_matches_single_draws(self):
        # one sampler serves both: row i of a batch is the QR sign-fix of
        # the i-th Gaussian block, exactly as a single draw would make it
        for d in (2, 3, 4):
            Qs = _haar_orthogonal(d, RandomStream(d), False, batch=(5,))
            M = RandomStream(d).normal((5, d, d))
            for i in range(5):
                Q, R = np.linalg.qr(M[i])
                assert np.array_equal(Qs[i], Q * np.sign(np.diag(R)))
            single = _haar_orthogonal(d, RandomStream(d), False)
            assert np.array_equal(single, _haar_orthogonal(d, RandomStream(d), False,
                                                            batch=(1,))[0])

    def test_batched_special_matches_single_draws(self):
        # SO(d): the O(d) draw with column 0 negated where its det is -1
        flipped = 0
        for d in (2, 3, 4):
            Qs = _haar_orthogonal(d, RandomStream(d), True, batch=(5,))
            M = RandomStream(d).normal((5, d, d))
            for i in range(5):
                Q, R = np.linalg.qr(M[i])
                Q = Q * np.sign(np.diag(R))
                if np.linalg.det(Q) < 0:
                    Q[:, 0] *= -1
                    flipped += 1
                assert np.array_equal(Qs[i], Q)
            single = _haar_orthogonal(d, RandomStream(d), True)
            assert np.array_equal(single, _haar_orthogonal(d, RandomStream(d), True,
                                                            batch=(1,))[0])
        assert flipped > 0

    # The two laws below test the distribution itself, which the formula
    # tests above do not: a sampler that dropped the QR sign fix would still
    # match a formula that dropped it too.  20,000 draws at a fixed seed;
    # for a Haar sampler p is uniform, so a seed fails with probability
    # 1e-3.  Without the sign fix both give p = 0.0.

    def test_so3_rotation_angle_law(self):
        # the angle of a Haar rotation of R^3 has CDF (theta - sin theta) / pi
        Q = orthogonal_group(3, special=True).haar(RandomStream(2024), 20000)
        theta = np.arccos(np.clip((np.trace(Q, axis1=1, axis2=2) - 1) / 2, -1, 1))
        assert ks_pvalue(theta, lambda t: (t - np.sin(t)) / np.pi) > 1e-3

    def test_o2_first_column_angle_law(self):
        # the first column of a Haar O(2) element is uniform on the circle
        Q = orthogonal_group(2).haar(RandomStream(2025), 20000)
        phi = np.arctan2(Q[:, 1, 0], Q[:, 0, 0])
        assert ks_pvalue(phi, lambda t: (t + np.pi) / (2 * np.pi)) > 1e-3

    def test_noncompact_has_no_haar(self):
        for G in (translation_group(2), general_linear_group(2),
                  special_euclidean_group(2)):
            with pytest.raises(NoHaarError):
                haar_sample(G, RandomStream(0))


def row(x, i):
    """Row i of a stack; a pair of stacks gives a pair."""
    return tuple(row(c, i) for c in x) if isinstance(x, tuple) else x[i]


def assert_row_equal(stacked, single, i):
    """Row i of a stacked result equals the single-element result, bit for
    bit; a component that carries no stack axis broadcasts."""
    if isinstance(single, tuple):
        assert isinstance(stacked, tuple) and len(stacked) == len(single)
        for a, b in zip(stacked, single):
            assert_row_equal(a, b, i)
        return
    a = np.asarray(stacked)
    a = a[i] if a.ndim == np.ndim(single) + 1 else a
    assert a.shape == np.shape(single) and np.array_equal(a, single)


ARRAY_GROUPS = [name for name in standard_groups() if name != "S_4"]
N_STACK = 7


class TestStacks:
    @pytest.mark.parametrize("name", ARRAY_GROUPS)
    def test_mul_and_inv_rowwise(self, name):
        G = standard_groups()[name]
        a = G.random_element(RandomStream(21), N_STACK)
        b = G.random_element(RandomStream(22), N_STACK)
        for stacked, single in [(G.mul(a, b), lambda i: G.mul(row(a, i), row(b, i))),
                                (G.inv(a), lambda i: G.inv(row(a, i))),
                                (G.mul(a, G.identity), lambda i: G.mul(row(a, i), G.identity)),
                                (G.mul(G.identity, a), lambda i: G.mul(G.identity, row(a, i)))]:
            for i in range(N_STACK):
                assert_row_equal(stacked, single(i), i)

    @pytest.mark.parametrize("name", list(standard_bundles()))
    def test_bundle_maps_rowwise(self, name):
        bundle = standard_bundles()[name]
        G, H = bundle.group, bundle.phi.source
        g = G.random_element(RandomStream(23), N_STACK)
        h = H.random_element(RandomStream(24), N_STACK)
        c = bundle.q(g)
        for stacked, single in [
            (c, lambda i: bundle.q(row(g, i))),
            (bundle.s(c), lambda i: bundle.s(bundle.q(row(g, i)))),
            (bundle.coset_action.apply(g, c),
             lambda i: bundle.coset_action.apply(row(g, i), bundle.q(row(g, i)))),
            (bundle.phi.map(h), lambda i: bundle.phi.map(row(h, i))),
        ]:
            for i in range(N_STACK):
                assert_row_equal(stacked, single(i), i)

    def test_special_orthogonal_rows(self):
        for d in (2, 3, 4):
            Qs = orthogonal_group(d, special=True).haar(RandomStream(d), 200)
            assert Qs.shape == (200, d, d)
            assert np.allclose(np.linalg.det(Qs), 1.0, atol=1e-12)
            assert np.max(np.abs(Qs @ np.swapaxes(Qs, -1, -2) - np.eye(d))) <= 1e-12

    def test_general_linear_rows_are_first_accepted_draws(self):
        # a stack is the first n draws that pass the rejection test, taken
        # one matrix at a time from the same stream; single draws follow
        # the same formula
        G = general_linear_group(2)
        n = 3000
        stack = G.random_element(RandomStream(31), n)
        assert np.all(np.abs(np.linalg.det(stack)) > 1e-3)
        assert np.all(np.linalg.cond(stack) < 1e3)
        stream, ref, rejected = RandomStream(31), [], 0
        while len(ref) < n:
            A = stream.normal((2, 2))
            if abs(np.linalg.det(A)) > 1e-3 and np.linalg.cond(A) < 1e3:
                ref.append(A)
            else:
                rejected += 1
        assert rejected > 0
        assert np.array_equal(stack, np.array(ref))
        assert np.array_equal(G.random_element(RandomStream(31)), ref[0])

    def test_single_draws_unchanged(self):
        # the reference formulas of single draws
        stream = RandomStream(41)
        assert np.array_equal(translation_group(3).random_element(stream),
                              RandomStream(41).normal(3))
        SE3 = special_euclidean_group(3)
        t, Q = SE3.random_element(stream)
        assert np.array_equal(t, stream.split(0).normal(3))
        assert np.array_equal(Q, _haar_orthogonal(3, stream.split(1), True))
        assert SE3.mul((t, Q), (t, Q))[0].tobytes() == (t + Q @ t).tobytes()

    def test_element_distance_broadcasts_single_element(self):
        G = orthogonal_group(3)
        Qs = G.random_element(RandomStream(5), 4)
        # row 0 matches exactly, so the max must come from the other rows
        worst = element_distance(Qs, Qs[0])
        assert worst == max(element_distance(Q, Qs[0]) for Q in Qs) > 0
        assert element_distance(Qs[0], Qs) == worst
        assert element_distance(G.mul(Qs, G.inv(Qs)), G.identity) <= 1e-12
        assert element_distance(Qs, np.zeros(2)) == float("inf")


class TestPermutations:
    def test_compose_convention(self):
        s = (1, 2, 0)
        t = (0, 2, 1)
        st = perm_compose(s, t)
        assert all(st[i] == s[t[i]] for i in range(3))

    def test_inverse(self):
        s = (2, 0, 3, 1)
        assert perm_compose(s, perm_inverse(s)) == (0, 1, 2, 3)

    def test_action_on_tuples(self):
        s = (1, 0)  # swap
        assert perm_apply(s, (3.0, 5.0)) == (5.0, 3.0)
        # entry i moves to position s(i)
        s = (2, 0, 1)
        x = ("a", "b", "c")
        out = perm_apply(s, x)
        for i in range(3):
            assert out[s[i]] == x[i]


class TestSemidirect:
    def test_se2_identity(self):
        SE2 = special_euclidean_group(2)
        t, Q = SE2.identity
        assert np.array_equal(t, [0.0, 0.0])
        assert np.array_equal(Q, np.eye(2))

    def test_trivial_twist_is_direct_product(self):
        A = translation_group(2)
        B = orthogonal_group(2)
        D = direct_product(A, B)
        s = RandomStream(3)
        g = D.random_element(s.split(0))
        h = D.random_element(s.split(1))
        gh = D.mul(g, h)
        assert np.allclose(gh[0], g[0] + h[0])
        assert np.allclose(gh[1], g[1] @ h[1])
        gi = D.inv(g)
        assert np.allclose(gi[0], -g[0])
        assert np.allclose(gi[1], g[1].T)

    def test_incompatible_twist_rejected(self):
        N = translation_group(2)
        H = orthogonal_group(2)
        with pytest.raises(GroupError):
            semidirect_product(N, H, rho=lambda Q, t: Q @ t + 1.0)

    def test_action_decomposes_rotation_then_translation(self):
        SE2 = special_euclidean_group(2)
        s = RandomStream(9)
        for i in range(50):
            (t, Q) = SE2.random_element(s.split(i))
            x = s.split(1000 + i).normal((2, 4))
            full = Q @ x + t[:, None]
            decomposed = (Q @ x) + t[:, None]
            assert np.linalg.norm(full - decomposed) <= 1e-9

    def test_finite_direct_product_lists_its_elements(self):
        D = direct_product(symmetric_group(2), symmetric_group(3))
        assert len(D.elements) == 12 == len(set(D.elements))
        members = set(D.elements)
        assert all(D.mul(g, h) in members for g in D.elements for h in D.elements)

    def test_direct_product_haar_marginals(self):
        D = direct_product(orthogonal_group(2), symmetric_group(2))
        stream = RandomStream(13)
        n = 20000
        acc = np.zeros((2, 2))
        swap_count = 0
        for i in range(n):
            Q, p = haar_sample(D, stream.split(i))
            acc += Q
            swap_count += p == (1, 0)
        assert np.max(np.abs(acc / n)) < 0.03  # O(2) marginal mean ~ 0
        assert abs(swap_count / n - 0.5) < 0.02  # S_2 marginal uniform


class TestAxiomSuite:
    @pytest.mark.parametrize("name", list(standard_groups()))
    def test_axioms(self, name):
        result = check_group_axioms(standard_groups()[name], n_samples=200)
        assert result.passed, result.line()

    def test_laws_draw_from_few_streams(self, monkeypatch):
        # each role's samples come from one stream, not one stream per sample
        built = [0]
        init = RandomStream.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(RandomStream, "__init__", counting_init)
        checks.run_suite("groups")
        checks.run_suite("cosets")
        assert 0 < built[0] < 1000


class TestRejectionSampler:
    def test_gives_up_after_exactly_the_limit(self):
        batches = []

        def reject_all(M):
            batches.append(len(M))
            return np.zeros(len(M), dtype=bool)

        with pytest.raises(RejectionError, match="rejected 100 batches in a row"):
            sample_accepted(RandomStream(0), 5, 2, reject_all)
        assert REJECTION_LIMIT == 100 and batches == [5] * 100

    def test_an_accepted_row_restarts_the_count(self):
        # batch 50 accepts one row, so the sampler gives up 100 batches later
        batches = []

        def accept_one_in_batch_50(M):
            batches.append(len(M))
            ok = np.zeros(len(M), dtype=bool)
            ok[0] = len(batches) == 50
            return ok

        with pytest.raises(RejectionError):
            sample_accepted(RandomStream(0), 5, 2, accept_one_in_batch_50)
        assert batches == [5] * 50 + [4] * 100

    def test_general_linear_stack_pinned(self):
        # SHA-256 (float64 little-endian) recorded before GL(d) shared this
        # sampler with bench.sample_batch; this seed redraws 2 of 50 rows
        X = general_linear_group(2).random_element(RandomStream(18), 50)
        assert X.shape == (50, 2, 2)
        digest = hashlib.sha256(np.ascontiguousarray(X, dtype="<f8").tobytes()).hexdigest()
        assert digest == "5c9424a1eb96f3f482211ae0de6905ae3cdef41a173dd2de36e5479564ada7ae"
