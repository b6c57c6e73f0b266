import dataclasses
import hashlib

import numpy as np
import pytest

from equisym import checks, groups
from equisym.checks import check_group_axioms, standard_bundles, standard_groups
from equisym.groups import (
    REJECTION_LIMIT,
    GroupError,
    NoHaarError,
    RejectionError,
    SingularityError,
    _haar_from_normal,
    _haar_orthogonal,
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


def direct(G, H):
    """G x H: the semidirect product with the trivial twist."""
    return semidirect_product(G, H, rho=lambda h, n: n)


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
        # one stack of 60,000 draws; for a uniform sampler the statistic
        # exceeds the 0.999 quantile with probability 1e-3
        G = symmetric_group(3)
        n = 60000
        rows, counts = np.unique(G.haar(RandomStream(77), n), axis=0, return_counts=True)
        assert sorted(tuple(int(i) for i in r) for r in rows) == sorted(G.elements)
        expected = n / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        # chi-square critical value, 5 dof, 0.999 quantile
        assert chi2 <= 20.515

    def test_o2_left_invariance(self):
        # one stack of 10^5 draws; each entry of the mean of Q - gQ has
        # standard deviation about 0.0014, so the bound is 14 sigma and a
        # Haar sampler fails it with probability below 1e-40
        G = orthogonal_group(2)
        g = rot(np.radians(37))
        n = 10**5
        Q = G.haar(RandomStream(5), n)
        acc_q = Q.sum(axis=0)
        acc_gq = (g @ Q).sum(axis=0)
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

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_special_sign_is_lapacks(self, d):
        # the SO(d) sign fix reads the closed-form det for d <= 3; a
        # reference reading LAPACK's det flips the same columns
        G = RandomStream(60 + d).normal((10**5, d, d))
        Q, R = np.linalg.qr(G)
        Q = Q * np.copysign(1.0, R.diagonal(0, -2, -1))[..., None, :]
        Q[..., :, 0] *= np.sign(np.linalg.det(Q))[..., None]
        special = _haar_from_normal(G, True)
        assert np.array_equal(special, Q)
        assert np.all(np.abs(np.linalg.det(special) - 1) <= 1e-12)

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


ARRAY_GROUPS = list(standard_groups())
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

    def test_stacks_compose_and_invert_rowwise(self):
        # (k, n) int stacks give, row by row, what the tuple formulas give,
        # and a single tuple broadcasts against a stack
        s, t = (symmetric_group(5).haar(RandomStream(seed), 50) for seed in (1, 2))
        st, s_inv = perm_compose(s, t), perm_inverse(s)
        e = tuple(range(5))
        for i in range(50):
            si, ti = tuple(int(v) for v in s[i]), tuple(int(v) for v in t[i])
            assert tuple(st[i]) == perm_compose(si, ti)
            assert tuple(s_inv[i]) == perm_inverse(si)
            assert tuple(perm_compose(s, ti)[i]) == perm_compose(si, ti)
        assert np.array_equal(perm_compose(s, e), s) and np.array_equal(perm_compose(e, s), s)
        assert np.array_equal(perm_compose(s, s_inv), np.broadcast_to(e, (50, 5)))

    def test_action_on_tuples(self):
        s = (1, 0)  # swap
        assert perm_apply(s, (3.0, 5.0)) == (5.0, 3.0)
        # entry i moves to position s(i)
        s = (2, 0, 1)
        x = ("a", "b", "c")
        out = perm_apply(s, x)
        for i in range(3):
            assert out[s[i]] == x[i]

    def test_action_is_indexing_through_the_inverse_on_s4(self):
        # the one-pass scatter gives the tuples of result[j] = x[s^-1(j)]
        x = ("a", "b", "c", "d")
        for s in symmetric_group(4).elements:
            inv_s = perm_inverse(s)
            assert perm_apply(s, x) == tuple(x[inv_s[j]] for j in range(4))

    def test_stack_moves_each_row_as_the_tuple_action(self):
        # all of S_4 as one (24, 4) int stack acting on a (24, 4) point stack
        perms = symmetric_group(4).elements
        X = RandomStream(3).normal((len(perms), 4))
        out = perm_apply(np.array(perms), X)
        assert out.shape == X.shape and out.dtype == X.dtype
        for s, x, y in zip(perms, X, out):
            assert tuple(y) == perm_apply(s, tuple(x))


class TestSemidirect:
    def test_se2_identity(self):
        SE2 = special_euclidean_group(2)
        t, Q = SE2.identity
        assert np.array_equal(t, [0.0, 0.0])
        assert np.array_equal(Q, np.eye(2))

    def test_trivial_twist_is_direct_product(self):
        A = translation_group(2)
        B = orthogonal_group(2)
        D = direct(A, B)
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_se_is_built_once(self, d, monkeypatch):
        # the first build checks the twist, 4 rho calls on each of 32
        # triples; a second build returns the same descriptor and calls
        # rho 0 times, where each of the 5 builds in check all reran it
        rho_calls = [0]
        real = groups.semidirect_product

        def counting_product(N, H, rho, name=None):
            def counted(h, n):
                rho_calls[0] += 1
                return rho(h, n)
            return real(N, H, counted, name)

        monkeypatch.setattr(groups, "semidirect_product", counting_product)
        special_euclidean_group.cache_clear()
        try:
            first = special_euclidean_group(d)
            assert rho_calls[0] == 128
            assert special_euclidean_group(d) is first
            assert rho_calls[0] == 128
        finally:
            special_euclidean_group.cache_clear()

    def test_descriptors_are_frozen(self):
        SE2 = special_euclidean_group(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            SE2.mul = lambda a, b: a
        with pytest.raises(ValueError, match="read-only"):
            SE2.identity[1][0, 0] = 2.0
        O2 = orthogonal_group(2)
        assert O2.random_element is O2.haar
        broken = dataclasses.replace(O2, name="O(2)'")
        assert broken.mul is O2.mul and O2.name == "O(2)"

    def test_finite_direct_product_lists_its_elements(self):
        D = direct(symmetric_group(2), symmetric_group(3))
        assert len(D.elements) == 12 == len(set(D.elements))
        members = set(D.elements)
        assert all(D.mul(g, h) in members for g in D.elements for h in D.elements)

    @pytest.mark.parametrize("n", [None, 5])
    def test_product_samplers_split_n_then_h(self, n):
        # the N factor draws from split(0) and the H factor from split(1)
        shape = () if n is None else (n,)
        s = RandomStream(21)
        t, Q = special_euclidean_group(2).random_element(s, n)
        assert np.array_equal(t, s.split(0).normal(shape + (2,)))
        assert np.array_equal(Q, orthogonal_group(2, special=True).haar(s.split(1), n))
        O2, S2 = orthogonal_group(2), symmetric_group(2)
        R, p = direct(O2, S2).haar(s, n)
        assert np.array_equal(R, O2.haar(s.split(0), n))
        assert np.array_equal(p, S2.haar(s.split(1), n))

    def test_direct_product_haar_marginals(self):
        # one stack of 20,000 draws.  Each entry of the O(2) mean has
        # standard deviation 0.005 and the swap frequency 0.0035, so the
        # bounds are 6 and 5.7 sigma: a Haar sampler fails with probability
        # below 1e-7
        D = direct(orthogonal_group(2), symmetric_group(2))
        n = 20000
        Q, p = D.haar(RandomStream(13), n)
        acc = Q.sum(axis=0)
        swap_count = int(np.sum(np.all(p == (1, 0), axis=1)))
        assert np.max(np.abs(acc / n)) < 0.03  # O(2) marginal mean ~ 0
        assert abs(swap_count / n - 0.5) < 0.02  # S_2 marginal uniform


class TestAxiomSuite:
    @pytest.mark.parametrize("name", list(standard_groups()))
    def test_axioms(self, name):
        result = check_group_axioms(standard_groups()[name])
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

    def test_coset_laws_draw_se_once_per_role(self, monkeypatch):
        # SE(d)'s via_N and via_H bundles read one draw of g and g'; each
        # bundle drew its own before, 4 random_element calls per SE(d)
        calls = {2: 0, 3: 0}

        def counted_se(d):
            se = special_euclidean_group(d)

            def random_element(stream, n=None):
                calls[d] += 1
                return se.random_element(stream, n)
            return dataclasses.replace(se, random_element=random_element)

        expected = [checks.check_coset_bundle(name, bundle)
                    for name, bundle in standard_bundles().items()]
        monkeypatch.setattr(checks, "special_euclidean_group", counted_se)
        assert checks.check_cosets() == expected
        assert all(r.passed for r in expected)
        assert calls == {2: 2, 3: 2}

    def test_permutation_laws_draw_three_stacks(self, monkeypatch):
        # S_4's three roles are one permutation stack each; one draw per
        # sample made 3,000 permutation calls
        calls = []
        real = RandomStream.permutation
        monkeypatch.setattr(RandomStream, "permutation",
                            lambda self, *args: calls.append(args) or real(self, *args))
        assert all(r.passed for r in checks.run_suite("groups"))
        assert len(calls) <= 3


class TestRejectionSampler:
    def test_gives_up_after_exactly_the_limit(self):
        batches = []

        def reject_all(M):
            batches.append(len(M))
            return np.zeros(len(M), dtype=bool)

        with pytest.raises(RejectionError, match="rejected 100 batches in a row"):
            sample_accepted([RandomStream(0)], 5, 2, reject_all)
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
            sample_accepted([RandomStream(0)], 5, 2, accept_one_in_batch_50)
        assert batches == [5] * 50 + [4] * 100

    @staticmethod
    def cond_below_3(M):
        # keeps about a third of 2x2 Gaussian matrices, so most batches redraw
        return np.linalg.cond(M) <= 3.0

    def test_each_stream_row_is_its_single_stream_result(self):
        streams = [RandomStream(50).split(j) for j in range(6)]
        calls = []
        X = sample_accepted(streams, 8, 2, lambda M: calls.append(len(M)) or self.cond_below_3(M))
        assert X.shape == (6, 8, 2, 2) and calls[0] == 6 * 8 and len(calls) > 6
        for j in range(6):
            alone = sample_accepted([RandomStream(50).split(j)], 8, 2, self.cond_below_3)
            assert np.array_equal(X[j], alone[0])

    def test_a_never_accepting_stream_counts_its_own_batches(self):
        streams = [RandomStream(51).split(j) for j in range(3)]
        draws = []
        real_normal = streams[1].normal

        def nan_normal(shape, out=None):  # every matrix of stream 1 is rejected
            draws.append(shape)
            x = real_normal(shape, out=out)
            x[...] = np.nan
            return x

        streams[1].normal = nan_normal
        with pytest.raises(RejectionError, match="rejected 100 batches in a row"):
            sample_accepted(streams, 5, 2, lambda M: ~np.isnan(M).any(axis=(1, 2)))
        assert draws == [(5, 2, 2)] * REJECTION_LIMIT

    def test_general_linear_stack_pinned(self):
        # SHA-256 (float64 little-endian) recorded before GL(d) shared this
        # sampler with bench.sample_batch; this seed redraws 2 of 50 rows
        X = general_linear_group(2).random_element(RandomStream(18), 50)
        assert X.shape == (50, 2, 2)
        digest = hashlib.sha256(np.ascontiguousarray(X, dtype="<f8").tobytes()).hexdigest()
        assert digest == "5c9424a1eb96f3f482211ae0de6905ae3cdef41a173dd2de36e5479564ada7ae"
