import dataclasses
import hashlib
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equisym import bench, checks, nn
from equisym.checks import check_end_to_end_gradients
from equisym.equivariance import Action, coset_bundle_trivial
from equisym.groups import orthogonal_group
from equisym.stochmap import RandomStream, Space, StochasticMap, lift_deterministic
from equisym.symcore import SymmetrisationSpec, symmetrise


def loss(y: np.ndarray, yhat: np.ndarray) -> float:
    """l(y, yhat) = ||y^-1 yhat - I||_F; zero iff yhat = y.  The scalar
    reference for bench._batch_losses."""
    y = np.asarray(y, dtype=float)
    if abs(np.linalg.det(y)) <= 1e-12:
        raise np.linalg.LinAlgError("loss target is singular")
    d = y.shape[0]
    return float(np.linalg.norm(np.linalg.solve(y, yhat) - np.eye(d)))


class TestConfig:
    def test_defaults_valid(self):
        c = bench.TrainConfig()
        assert c.variant in bench.VARIANTS

    def test_unknown_variant(self):
        with pytest.raises(bench.ConfigurationError):
            bench.TrainConfig(variant="mystery")

    def test_nonpositive_fields(self):
        with pytest.raises(bench.ConfigurationError):
            bench.TrainConfig(d=0)
        with pytest.raises(bench.ConfigurationError):
            bench.TrainConfig(lr=0.0)
        for name in ("n_mc_eval", "n_test"):
            with pytest.raises(bench.ConfigurationError):
                bench.TrainConfig(**{name: 0})
        for name in ("lr", "condition_cap"):
            with pytest.raises(bench.ConfigurationError):
                bench.TrainConfig(**{name: float("nan")})

    @pytest.mark.parametrize("lr", [math.inf, -math.inf])
    def test_infinite_lr_rejected(self, lr):
        # one Adam step at lr = inf leaves every parameter non-finite
        with pytest.raises(bench.ConfigurationError, match="lr must be positive and finite"):
            bench.TrainConfig(lr=lr)

    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_infinite_condition_cap_is_no_cap(self, variant):
        config = bench.TrainConfig(variant=variant, condition_cap=math.inf, steps=2, hidden=4,
                                   batch_size=4)
        result = bench.train(config)
        assert not result.diverged and len(result.history) == 2

    @pytest.mark.parametrize("cap", [1.0, 0.5])
    def test_condition_cap_at_most_one(self, cap):
        # every matrix has cond >= 1, and a Gaussian one cond > 1 almost
        # surely, so such a cap would reject every batch
        with pytest.raises(bench.ConfigurationError):
            bench.TrainConfig(condition_cap=cap)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, seed):
        with pytest.raises(bench.ConfigurationError, match="seed"):
            bench.TrainConfig(seed=seed)
        assert bench.TrainConfig(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("seed", [1.5, 2.7, "7"])
    def test_non_integral_seed_rejected(self, seed):
        # RandomStream would reject it only when training starts
        with pytest.raises(bench.ConfigurationError, match="seed must be an integer"):
            bench.TrainConfig(seed=seed)

    @pytest.mark.parametrize("name,value", [
        ("d", 2.5), ("hidden", 8.0), ("steps", 3.5), ("batch_size", 16.7),
        ("n_mc_eval", 4.0), ("n_test", 4.2), ("d", "2")])
    def test_non_integral_size_rejected(self, name, value):
        # run_experiment would die on it with a bare TypeError
        with pytest.raises(bench.ConfigurationError, match=f"{name} must be an integer"):
            bench.TrainConfig(**{name: value})
        assert getattr(bench.TrainConfig(**{name: np.int64(3)}), name) == 3


class TestData:
    def test_condition_cap_respected(self):
        X = bench.sample_batch(2, 200, RandomStream(1), condition_cap=50.0)
        assert np.all(np.linalg.cond(X) <= 50.0)

    def test_condition_number_orthogonally_invariant(self):
        # cond(QX) = cond(X), so the condition cap keeps the Gaussian input
        # law O(d)-invariant; criterion 8's sym_haar assertion rests on it
        s = RandomStream(9)
        for d in (2, 3):
            X = bench.sample_batch(d, 200, s.split(d))
            Qs = bench._haar_batch(d, 200, [s.split(10 + d)])[0]
            np.testing.assert_allclose(np.linalg.cond(Qs @ X), np.linalg.cond(X),
                                       rtol=1e-9, atol=0)

    def test_input_law_isotropic(self):
        # an O(d)-invariant law has E[X] = 0 and E[X X^T] = c I; checked
        # within 5 standard errors
        n = 20000
        X = bench.sample_batch(2, n, RandomStream(10))
        assert np.max(np.abs(X.mean(axis=0))) <= 5 / np.sqrt(n)
        S = X @ np.transpose(X, (0, 2, 1))
        se = 5 * S.reshape(n, 4).std(axis=0).max() / np.sqrt(n)
        M = S.mean(axis=0)
        assert abs(M[0, 1]) <= se and abs(M[0, 0] - M[1, 1]) <= np.sqrt(2) * se

    def test_impossible_cap_raises(self):
        with pytest.raises(bench.ConfigurationError):
            bench.sample_batch(2, 4, RandomStream(2), condition_cap=1e-6)

    # SHA-256 (float64 little-endian) of sample_batch stacks, recorded before
    # the condition cap shared groups.sample_accepted with GL(d); cap 30
    # rejects 11 rows over three batches, so the redraw path runs too
    @pytest.mark.parametrize("cap,digest", [
        (1e4, "38557d13871eed8004dadc3433d2b5acdd3125db942a86be901e7b1525e8b59b"),
        (30.0, "792f271ff00a541533e8bb65568c3fe49ec7364118df1a6e158050f0ebfd904c"),
    ])
    def test_sample_batch_pinned(self, cap, digest):
        X = bench.sample_batch(3, 64, RandomStream(32), cap)
        assert X.shape == (64, 3, 3)
        assert hashlib.sha256(np.ascontiguousarray(X, dtype="<f8").tobytes()).hexdigest() == digest

    def test_haar_batch_orthogonal(self):
        Qs = bench._haar_batch(3, 50, [RandomStream(4)])[0]
        err = np.max(np.abs(np.transpose(Qs, (0, 2, 1)) @ Qs - np.eye(3)))
        assert err <= 1e-10


class TestLoss:
    def test_zero_at_truth(self):
        Y = np.linalg.inv(bench.sample_batch(2, 1, RandomStream(5)))
        assert loss(Y[0], Y[0]) <= 1e-12

    def test_identity_target_frobenius(self):
        # y = I: l(I, yhat) = ||yhat - I||_F
        yhat = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.isclose(loss(np.eye(2), yhat), 1.0)

    def test_orthogonally_invariant(self):
        # l((Qx)^-1, yhat Q^T) = l(x^-1, yhat)
        s = RandomStream(6)
        X = bench.sample_batch(2, 1, s.split(0))
        Y = np.linalg.inv(X)
        yhat = s.split(1).normal((2, 2))
        Q = bench._haar_batch(2, 1, [s.split(2)])[0][0]
        lhs = loss(np.linalg.inv(Q @ X[0]), yhat @ Q.T)
        assert np.isclose(lhs, loss(Y[0], yhat))

    def test_singular_target_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            loss(np.zeros((2, 2)), np.eye(2))

    def test_batch_losses_match_scalar(self):
        X = bench.sample_batch(2, 8, RandomStream(7))
        Y = np.linalg.inv(X)
        Yhat = RandomStream(8).normal((8, 2, 2))
        batched = bench._batch_losses(X, Yhat)
        for i in range(8):
            assert np.isclose(batched[i], loss(Y[i], Yhat[i]))


class TestModel:
    def test_param_counts(self):
        m = bench.InversionModel("sym_recursive", d=2, hidden=8)
        params = m.init(RandomStream(0))
        # k: three layers of (W, b); gamma backbone: two layers of (W, b)
        assert len(params) == 6 + 4
        m2 = bench.InversionModel("plain_mlp", d=2, hidden=8)
        assert len(m2.init(RandomStream(0))) == 6

    def test_deterministic_flags(self):
        assert bench.InversionModel("plain_mlp", 2).deterministic
        assert bench.InversionModel("canonical_deterministic", 2).deterministic
        assert not bench.InversionModel("sym_haar", 2).deterministic
        assert not bench.InversionModel("sym_recursive", 2).deterministic

    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_draw_shape_and_reproducibility(self, variant):
        m = bench.InversionModel(variant, d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 4, RandomStream(1))
        a = m.draw(params, X, RandomStream(2))
        b = m.draw(params, X, RandomStream(2))
        assert a.shape == (4, 2, 2)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_draw_is_forward_at_drawn_noise(self, variant, d, coupled):
        # a draw is deterministic given (params, X, noise): the noise comes
        # from the stream, coupled like the Haar draws, and nothing else does
        m = bench.InversionModel(variant, d=d, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(d, 5, RandomStream(1))
        Q = bench._haar_batch(d, 5, [RandomStream(2)])[0] if coupled else None
        s = RandomStream(3)
        X_acted = X if Q is None else Q @ X
        base, = m._bases(X_acted[None], m._noise(len(X), [s], Q))
        expected = m._forward(params, X_acted, base)
        assert np.array_equal(m.draw(params, X, s, couple=Q), expected)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_stacked_forward_equals_rowwise(self, variant, d):
        # a leading stack axis on every parameter: row i of _act and of
        # _forward equals the call with row i's parameters, bit for bit
        m = bench.InversionModel(variant, d=d, hidden=8)
        rows = [m.init(RandomStream(seed)) for seed in range(3)]
        stacked = [np.stack(arrays) for arrays in zip(*rows)]
        X = bench.sample_batch(d, 5, RandomStream(10))
        base, = m._bases(X[None], m._noise(len(X), [RandomStream(11)]))
        (_, Ct, Z), _ = m._draw_coset(rows[0][6:], X, base)
        acted = m._act(stacked[:6], Ct, Z)[0]
        forward = m._forward(stacked, X, base)
        assert acted.shape == forward.shape == (3, 5, d, d)
        for i, p in enumerate(rows):
            assert np.array_equal(acted[i], m._act(p[:6], Ct, Z)[0])
            assert np.array_equal(forward[i], m._forward(p, X, base))

    def test_coupled_draw_is_exactly_equivariant(self):
        m = bench.InversionModel("sym_haar", d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 4, RandomStream(1))
        Q = bench._haar_batch(2, 1, [RandomStream(2)])[0][0]
        coupled = m.draw(params, X, RandomStream(3), couple=Q)
        plain = m.draw(params, X, RandomStream(3))
        assert np.max(np.abs(coupled - plain @ Q.T)) <= 1e-12

    def test_plain_mlp_is_not_equivariant(self):
        m = bench.InversionModel("plain_mlp", d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 1, RandomStream(1))
        Q = bench._haar_batch(2, 1, [RandomStream(2)])[0][0]
        gap = bench.equivariance_gap(m, params, X[:1], Q[None], RandomStream(3))
        assert gap > 1e-3

    def test_gap_rejects_non_orthogonal(self):
        m = bench.InversionModel("sym_haar", d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 1, RandomStream(1))
        with pytest.raises(ValueError):
            bench.equivariance_gap(m, params, X[:1], np.diag([2.0, 1.0])[None],
                                   RandomStream(2))

    def test_gap_rejects_non_orthogonal_last_row(self):
        m = bench.InversionModel("sym_haar", d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 5, RandomStream(1))
        Qs = bench._haar_batch(2, 5, [RandomStream(2)])[0]
        Qs[-1] = np.diag([2.0, 1.0])
        with pytest.raises(ValueError):
            bench.equivariance_gap(m, params, X, Qs, RandomStream(3))

    @pytest.mark.parametrize("variant", ["plain_mlp", "canonical_deterministic"])
    def test_batched_gap_matches_rowwise(self, variant):
        m = bench.InversionModel(variant, d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 6, RandomStream(1))
        Qs = bench._haar_batch(2, 6, [RandomStream(2)])[0]
        gaps = bench.equivariance_gap(m, params, X, Qs, RandomStream(3))
        assert gaps.shape == (6,)
        for i in range(6):
            f1 = m.draw(params, X[i:i + 1], RandomStream(3))[0]
            f2 = m.draw(params, X[i:i + 1], RandomStream(3), couple=Qs[i])[0]
            expected = np.linalg.norm(f2 - f1 @ Qs[i].T) / (1.0 + np.linalg.norm(f1))
            # canonical's gap is itself rounding noise (~1e-16), which a
            # 6-row and a 1-row MLP product round differently: hence the atol
            np.testing.assert_allclose(gaps[i], expected, rtol=1e-12, atol=1e-15)

    def test_batched_gap_averages_distinct_draws(self):
        m = bench.InversionModel("sym_haar", d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 3, RandomStream(1))
        Qs = bench._haar_batch(2, 3, [RandomStream(2)])[0]
        calls = []
        real_forward = m._forward

        def spy(params, X, base):
            out = real_forward(params, X, base)
            calls.append((X, base, out))
            return out

        m._forward = spy
        gaps = bench.equivariance_gap(m, params, X, Qs, RandomStream(3), n_mc=4)
        assert len(calls) == 2
        (X1, (C1, _, _), f1), (X2, (C2, _, _), f2) = calls
        # pair-major repeats: pair i owns rows 4i .. 4i+3; the coupled side
        # is at Q_i x_i with the one Haar draw premultiplied by Q_i, which is
        # the noise that draw(..., couple=Q) draws from the same stream
        Qr = np.repeat(Qs, 4, axis=0)
        assert np.array_equal(X1, np.repeat(X, 4, axis=0))
        assert np.array_equal(X2, Qr @ X1)
        assert np.array_equal(C1, m._noise(12, [RandomStream(3)])[0][0])
        assert np.array_equal(C2, Qr @ C1)
        assert np.array_equal(C2, m._noise(12, [RandomStream(3)], couple=Qr)[0][0])
        assert len(m._noise(12, [RandomStream(3)])) == 1  # sym_haar draws no eta
        draws = f1.reshape(3, 4, 2, 2)
        for i in range(3):
            for a in range(4):
                for b in range(a):
                    assert np.linalg.norm(draws[i, a] - draws[i, b]) > 1e-6
        f1m = draws.mean(axis=1)
        f2m = f2.reshape(3, 4, 2, 2).mean(axis=1)
        expected = (np.linalg.norm(f2m - f1m @ np.transpose(Qs, (0, 2, 1)), axis=(1, 2))
                    / (1.0 + np.linalg.norm(f1m, axis=(1, 2))))
        np.testing.assert_array_equal(gaps, expected)
        assert gaps.shape == (3,)
        assert np.max(gaps) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_gap_draws_the_noise_once(self, variant, d, monkeypatch):
        # one Haar stack serves both sides, and the gaps are those of two
        # draws from the same stream, the second coupled by Q, bit for bit
        m = bench.InversionModel(variant, d=d, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(d, 5, RandomStream(1))
        Qs = bench._haar_batch(d, 5, [RandomStream(2)])[0]
        n = 1 if m.deterministic else 4
        f1, f2 = (m.draw(params, np.repeat(X, n, axis=0), RandomStream(3), couple=c)
                  .reshape(5, n, d, d).mean(axis=1) for c in (None, np.repeat(Qs, n, axis=0)))
        expected = (np.linalg.norm(f2 - f1 @ np.transpose(Qs, (0, 2, 1)), axis=(1, 2))
                    / (1.0 + np.linalg.norm(f1, axis=(1, 2))))
        haar_batches = []
        real_haar_batch = bench._haar_batch
        monkeypatch.setattr(bench, "_haar_batch",
                            lambda *args: haar_batches.append(args) or real_haar_batch(*args))
        gaps = bench.equivariance_gap(m, params, X, Qs, RandomStream(3), n_mc=4)
        assert np.array_equal(gaps, expected)
        assert len(haar_batches) == (0 if m.deterministic else 1)

    def test_gap_rejects_bad_arguments_before_drawing(self):
        m = bench.InversionModel("sym_haar", d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 5, RandomStream(1))
        Qs = bench._haar_batch(2, 5, [RandomStream(2)])[0]
        calls = []
        real_noise = m._noise
        m._noise = lambda *args, **kwargs: calls.append(args) or real_noise(*args, **kwargs)
        for n_mc in (0, -1):
            with pytest.raises(ValueError, match="n_mc"):
                bench.equivariance_gap(m, params, X, Qs, RandomStream(3), n_mc=n_mc)
        with pytest.raises(ValueError, match="len\\(X\\) = 3 and len\\(Qs\\) = 5"):
            bench.equivariance_gap(m, params, X[:3], Qs, RandomStream(3))
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_backbone_output_is_a_degenerate_gamma(self, bad):
        # np.linalg.cond, which cond_within hands a NaN matrix, raises
        # LinAlgError: the coset draw must fail as a degenerate gamma first
        m = bench.InversionModel("sym_recursive", d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 4, RandomStream(1))
        base, = m._bases(X[None], m._noise(len(X), [RandomStream(2)]))
        pg = params[6:]
        pg[-1][0] = bad  # the output bias: every row's U gets one bad entry
        with pytest.raises(nn.DegenerateProjectionError, match="output non-finite or near-singular"):
            m._draw_coset(pg, X, base)

    def test_predict_averages_draws(self):
        m = bench.InversionModel("sym_haar", d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 3, RandomStream(1))
        stream = RandomStream(2)
        mean = m.predict(params, X, 5, stream)
        acc = sum(m.draw(params, X, stream.split(i)) for i in range(5))
        assert np.allclose(mean, acc / 5)


def sign_matrices(d):
    """The 2^d diagonal sign matrices diag(+-1) of O(d), the identity first."""
    return [np.diag(signs) for signs in itertools.product((1.0, -1.0), repeat=d)]


class TestSignEquivariance:
    """On O(d)'s diagonal sign matrices D the symmetrised variants are
    equivariant bit for bit, so these tests have no tolerance.  Multiplying
    by D flips signs exactly, round-to-nearest is odd-symmetric
    (fl(-x) = -fl(x)), and every sum of the forward and the backward keeps
    its terms in their order, each picking up d_k^2 = 1.  plain_mlp is the
    negative control.  A perturbation that is itself sign-equivariant, such
    as C = C1 Qu + 1e-9 X in sym_recursive's coset, passes them."""

    @pytest.fixture(scope="class")
    def trained(self):
        """(model, parameters after 50 steps at hidden 16) per (variant, d)."""
        models = {}

        def get(variant, d):
            if (variant, d) not in models:
                config = bench.TrainConfig(variant=variant, d=d, hidden=16, steps=50,
                                           batch_size=16, seed=16)
                result = bench.train(config)
                assert not result.diverged
                models[variant, d] = bench.InversionModel(variant, d, 16), result.params
            return models[variant, d]

        return get

    @staticmethod
    def exact_under_every_d(variant, d):
        """What each test expects per sign matrix: exact for the identity,
        and for every other one unless the model is plain_mlp."""
        return [True] + [variant != "plain_mlp"] * (2 ** d - 1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_coupled_draw_is_the_draw_times_d(self, trained, variant, d):
        model, params = trained(variant, d)
        X = bench.sample_batch(d, 8, RandomStream(160 + d))
        drawn = model.draw(params, X, RandomStream(161))
        exact = [np.array_equal(model.draw(params, X, RandomStream(161), couple=D), drawn @ D)
                 for D in sign_matrices(d)]
        assert exact == self.exact_under_every_d(variant, d)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_gap_over_the_sign_matrices_is_zero(self, trained, variant, d):
        model, params = trained(variant, d)
        Ds = np.stack(sign_matrices(d)[1:])
        X = bench.sample_batch(d, len(Ds), RandomStream(162 + d))
        gaps = bench.equivariance_gap(model, params, X, Ds, RandomStream(163))
        if variant == "plain_mlp":
            assert np.all(gaps > 0) and gaps.mean() > 1e-2
        else:
            assert np.array_equal(gaps, np.zeros(len(Ds)))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_objective_and_gradients_are_sign_invariant(self, trained, variant, d):
        # at D X, with the Haar stack of the same noise premultiplied by D as
        # equivariance_gap couples it, objective_and_grads returns the bytes
        # it returns at X: the backward is equivariant exactly, too
        model, params = trained(variant, d)
        X = bench.sample_batch(d, 8, RandomStream(164 + d))
        stream = RandomStream(165)
        base, = model._bases(X[None], model._noise(len(X), [stream]))
        objective, grads = model.objective_and_grads(params, X, base)
        exact = []
        for D in sign_matrices(d):
            base_D, = model._bases((D @ X)[None], model._noise(len(X), [stream], couple=D))
            objective_D, grads_D = model.objective_and_grads(params, D @ X, base_D)
            exact.append(objective_D == objective
                         and all(np.array_equal(a, b) for a, b in zip(grads_D, grads)))
        assert exact == self.exact_under_every_d(variant, d)


class TestSymmetriseCombinator:
    """The benchmark's draws are symcore.symmetrise on stacks, bit for bit:
    the trivial bundle over O(d), X -> QX and Y -> YQ^T, k the lifted MLP."""

    SEEDS = range(20)

    @staticmethod
    def haar_spec(d, coset_y=False):
        """(bundle, stacks, spec) with gamma a Haar stack, one row per input;
        coset_y makes the Y-action the bundle's coset action."""
        G = orthogonal_group(d)
        bundle = coset_bundle_trivial(G)
        stacks = Space(f"stacks of {d}x{d}")
        gamma = StochasticMap(stacks, bundle.coset_space, lambda X, s, n=None: G.haar(s, len(X)))
        spec = SymmetrisationSpec(
            bundle, Action(G, stacks, lambda g, X: g @ X),
            bundle.coset_action if coset_y else
            Action(G, stacks, lambda g, Y: Y @ np.swapaxes(g, -1, -2)), gamma)
        return bundle, stacks, spec

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("variant", ["sym_haar", "canonical_deterministic"])
    def test_draw_is_symmetrise(self, variant, d):
        model = bench.InversionModel(variant, d, hidden=16)
        bundle, stacks, spec = self.haar_spec(d)
        if variant == "canonical_deterministic":
            spec = dataclasses.replace(spec, gamma=lift_deterministic(
                lambda X: nn.gram_schmidt_forward(X)[0], stacks, bundle.coset_space))
        for seed in self.SEEDS:
            params = model.init(RandomStream(seed))
            k = lift_deterministic(
                lambda Z: nn.mlp_forward(params[:6], Z.reshape(len(Z), d * d))[0].reshape(Z.shape),
                stacks, stacks)
            X = bench.sample_batch(d, 128, RandomStream(1000 + seed))
            s = RandomStream(2000 + seed)
            assert np.array_equal(symmetrise(k, spec).sampler(X, s), model.draw(params, X, s))

    @pytest.mark.parametrize("d", [2, 3])
    def test_recursive_gamma_is_symmetrise(self, d):
        # gamma0(Z, s) = GS(mlp([Z; eta])) with eta ~ s, symmetrised along the
        # Haar spec whose Y-action is the coset action
        model = bench.InversionModel("sym_recursive", d, hidden=16)
        bundle, stacks, inner = self.haar_spec(d, coset_y=True)
        for seed in self.SEEDS:
            params = model.init(RandomStream(seed))
            pg = params[6:]

            def gamma0(Z, s, n=None):
                B = len(Z)
                inp = np.concatenate([Z.reshape(B, d * d), s.normal((B, d))], axis=1)
                return nn.gram_schmidt_forward(nn.mlp_forward(pg, inp)[0].reshape(B, d, d))[0]

            gamma = symmetrise(StochasticMap(stacks, bundle.coset_space, gamma0), inner)
            X = bench.sample_batch(d, 128, RandomStream(1000 + seed))
            s = RandomStream(2000 + seed)
            assert np.array_equal(gamma.sampler(X, s),
                                  model._draw_coset(pg, X, model._bases(
                                      X[None], model._noise(len(X), [s]))[0])[0][0])


class TestGradients:
    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_objective_grads_match_finite_differences(self, variant, fd_reference):
        from equisym.checks import _relative_error

        m = bench.InversionModel(variant, d=2, hidden=6)
        stream = RandomStream(11)
        params = m.init(stream.split(0))
        X = bench.sample_batch(2, 3, stream.split(1))
        base, = m._bases(X[None], m._noise(len(X), [stream.split(2)]))

        def f(p):
            obj, _ = m.objective_and_grads(p, X, base)
            return obj

        obj, grads = m.objective_and_grads(params, X, base)
        fd = fd_reference(f, params)  # objective_and_grads takes no stacks
        worst = max(_relative_error(g, h) for g, h in zip(grads, fd))
        assert worst <= 1e-4

    def test_end_to_end_check(self):
        result = check_end_to_end_gradients()
        assert result.passed, result.line()

    def test_empty_batch_rejected(self):
        m = bench.InversionModel("plain_mlp", d=2, hidden=4)
        params = m.init(RandomStream(0))
        with pytest.raises(ValueError):
            m.objective_and_grads(params, np.zeros((0, 2, 2)), None)

    def test_nonfinite_loss_names_its_row(self):
        m = bench.InversionModel("plain_mlp", d=2, hidden=4)
        params = m.init(RandomStream(0))
        params[0][0, 0] = np.nan
        X = bench.sample_batch(2, 3, RandomStream(1))
        with pytest.raises(bench.DivergenceError, match="batch index 0"):
            m.objective_and_grads(params, X, m._bases(X[None], ())[0])

    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_end_to_end_check_objective_is_the_training_objective(self, variant):
        # check_end_to_end_gradients differences the loss of _act at the
        # fixed coset for k, and of _forward at the fixed noise for gamma, so
        # that no backward pass or fresh draw runs per evaluation; each must
        # be exactly the objective that objective_and_grads returns, at the
        # check's point and at perturbed ones, as must the loss of model.draw
        m = bench.InversionModel(variant, d=2, hidden=8)
        stream = RandomStream(13)
        params = m.init(stream.split(0))
        X = bench.sample_batch(2, 4, stream.split(1))
        frozen = stream.split(2)
        base, = m._bases(X[None], m._noise(len(X), [frozen]))
        pk, pg = params[:6], params[6:]
        (_, Ct, Z), _ = m._draw_coset(pg, X, base)

        def loss(Yhat):
            return float(bench._batch_losses(X, Yhat).mean())

        moved_pk = [a + 1e-5 for a in pk]
        moved_pg = [a + 1e-5 for a in pg]
        for k, g in ((pk, pg), (moved_pk, pg), (pk, moved_pg), (moved_pk, moved_pg)):
            expected = m.objective_and_grads(k + g, X, base)[0]
            assert loss(m._forward(k + g, X, base)) == expected
            assert loss(m.draw(k + g, X, frozen)) == expected
            if g is pg:  # the coset is fixed only while gamma's parameters are
                assert loss(m._act(k, Ct, Z)[0]) == expected

    @staticmethod
    def spy_fds(monkeypatch):
        """The arrays each checks.finite_difference_grads call returns, in
        call order, for the test's duration."""
        real_fd = checks.finite_difference_grads
        fds = []

        def spy(f, params):
            out = real_fd(f, params)
            fds.extend(out)
            return out

        monkeypatch.setattr(checks, "finite_difference_grads", spy)
        return fds

    def test_end_to_end_check_differences_match_the_drawn_objective(self, monkeypatch,
                                                                    fd_reference):
        # the check's finite differences, bit for bit, are those of the loss
        # of model.draw on the frozen stream, which draws the noise afresh
        # for each evaluation, one coordinate at a time
        fds = self.spy_fds(monkeypatch)
        assert check_end_to_end_gradients().passed

        m = bench.InversionModel("sym_recursive", d=2, hidden=8)
        stream = RandomStream(checks.DEFAULT_SEED)
        params = m.init(stream.split(0))
        X = bench.sample_batch(2, 4, stream.split(1))
        frozen = stream.split(2)
        drawn = fd_reference(
            lambda p: float(bench._batch_losses(X, m.draw(p, X, frozen)).mean()), params)
        assert len(fds) == len(drawn) == len(params)
        assert all(np.array_equal(a, b) for a, b in zip(fds, drawn))

    def test_mlp_and_gram_schmidt_rows_match_the_per_coordinate_loop(self, monkeypatch,
                                                                     fd_reference):
        # the rows' stacked differences, bit for bit, are those of their
        # scalar objectives one coordinate at a time: w . y for the MLP and
        # sum(W * Q) for Gram-Schmidt
        fds = self.spy_fds(monkeypatch)
        assert checks.check_mlp_gradients().passed
        assert checks.check_gram_schmidt_gradients().passed

        stream = RandomStream(checks.DEFAULT_SEED)
        mlp = nn.init_mlp((3, 5, 2), stream.split(0))
        x = stream.split(1).normal((1, 3))
        w = stream.split(2).normal((1, 2))
        M = stream.normal((1, 3, 3))
        W = stream.split(1).normal((1, 3, 3))
        looped = (fd_reference(lambda p: float(w[0] @ nn.mlp_forward(p, x)[0][0]), mlp)
                  + fd_reference(lambda p: float((W * nn.gram_schmidt_forward(p[0])[0]).sum()),
                                 [M]))
        assert len(fds) == len(looped) == len(mlp) + 1
        assert all(np.array_equal(a, b) for a, b in zip(fds, looped))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_stacked_differences_match_the_per_coordinate_loop(self, variant, d,
                                                               fd_reference):
        # the end-to-end check's construction on every variant: k's
        # differences through _act at the fixed coset and gamma's through
        # _forward at the fixed noise, stacked and one coordinate at a time
        m = bench.InversionModel(variant, d=d, hidden=8)
        stream = RandomStream(checks.DEFAULT_SEED + d)
        params = m.init(stream.split(0))
        X = bench.sample_batch(d, 4, stream.split(1))
        base, = m._bases(X[None], m._noise(len(X), [stream.split(2)]))
        pk, pg = params[:6], params[6:]
        (_, Ct, Z), _ = m._draw_coset(pg, X, base)
        fds = []
        for fd, loss in ((checks.finite_difference_grads,
                          lambda Yhat: bench._batch_losses(X, Yhat).mean(axis=-1)),
                         (fd_reference, lambda Yhat: float(bench._batch_losses(X, Yhat).mean()))):
            fds.append(fd(lambda p: loss(m._act(p, Ct, Z)[0]), pk)
                       + fd(lambda p: loss(m._forward(pk + p, X, base)), pg))
        stacked, looped = fds
        assert len(stacked) == len(looped) == len(params)
        assert all(np.array_equal(a, b) for a, b in zip(stacked, looped))

    @staticmethod
    def count_calls(monkeypatch, counts, owner, name):
        """Count owner.name's calls in counts[name] for the test's duration."""
        real = getattr(owner, name)
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def test_gradients_suite_runs_backward_once(self, monkeypatch):
        # the finite differences of the gradients suite need objectives
        # only; 481 objective_and_grads and 963 mlp_backward calls before
        counts = {}
        self.count_calls(monkeypatch, counts, bench.InversionModel, "objective_and_grads")
        self.count_calls(monkeypatch, counts, nn, "mlp_backward")
        assert all(r.passed for r in checks.run_suite("gradients"))
        assert counts["objective_and_grads"] <= 1
        assert counts["mlp_backward"] <= 3

    def test_gradients_suite_seeds_each_generator_from_entropy_words(self, monkeypatch):
        # one SeedSequence per generator, each given its entropy words as
        # one uint32 array and no spawn key: numpy reads the array in C but
        # coerces a spawn key of Python ints in Python
        real, seeded = np.random.SeedSequence, []

        def seed_sequence(*args, **kwargs):
            seeded.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", seed_sequence)
        counts = {}
        self.count_calls(monkeypatch, counts, np.random, "Philox")
        assert all(r.passed for r in checks.run_suite("gradients"))
        assert 0 < len(seeded) == counts["Philox"] <= 14
        for args, kwargs in seeded:
            assert not kwargs and len(args) == 1
            assert isinstance(args[0], np.ndarray) and args[0].dtype == np.uint32

    def test_gradients_suite_runs_one_forward_per_parameter_array(self, monkeypatch):
        # each parameter array's finite differences are one stacked forward;
        # one forward per perturbed coordinate made 733 mlp_forward, 205
        # gram_schmidt_forward, 186 _forward and 482 _act calls; reading the
        # end-to-end check's coset from _draw_coset, not a second full
        # forward, made 22, 8, 4 and 11
        counts = {}
        for owner, name in ((nn, "mlp_forward"), (nn, "gram_schmidt_forward"),
                            (bench.InversionModel, "_forward"), (bench.InversionModel, "_act")):
            self.count_calls(monkeypatch, counts, owner, name)
        assert all(r.passed for r in checks.run_suite("gradients"))
        assert counts["mlp_forward"] <= 22
        assert counts["gram_schmidt_forward"] <= 8
        assert counts["_forward"] <= 4
        assert counts["_act"] <= 11

    def test_gradients_suite_draws_the_noise_once(self, monkeypatch):
        # the end-to-end check draws its noise once and hands it to
        # objective_and_grads: 1 Haar stack, and 2 generators on top of the
        # 12 that the suite's parameters, inputs and weights draw from; 481
        # Haar stacks and 974 generators when each evaluation drew afresh,
        # and 2 and 16 when objective_and_grads drew its own
        counts = {}
        self.count_calls(monkeypatch, counts, bench, "_haar_batch")
        self.count_calls(monkeypatch, counts, np.random, "Philox")
        assert all(r.passed for r in checks.run_suite("gradients"))
        assert counts["_haar_batch"] <= 1
        assert counts["Philox"] <= 14


class TestTraining:
    def test_short_run_reduces_objective(self):
        config = bench.TrainConfig(variant="canonical_deterministic", steps=300,
                                   hidden=32, lr=1e-3, batch_size=64, seed=0)
        result = bench.train(config)
        assert not result.diverged
        assert len(result.history) == 300
        first = np.mean([o for _, o in result.history[:20]])
        last = np.mean([o for _, o in result.history[-20:]])
        assert last < first

    def test_training_deterministic_given_seed(self):
        config = bench.TrainConfig(variant="sym_haar", steps=20, hidden=8,
                                   batch_size=16, seed=3)
        a = bench.train(config)
        b = bench.train(config)
        assert a.history == b.history
        assert all(np.array_equal(p, q) for p, q in zip(a.params, b.params))

    # 20-step objectives per variant (d=2, hidden 8, B=16, seed 7), recorded
    # before the forward path was shared between draw and
    # objective_and_grads; any change to stream splitting, the gamma draws
    # or the chain rule moves them
    PINNED_HISTORY = {
        "plain_mlp": [
            1.51165171311282, 1.47278738665037, 1.51416084372685, 1.47284013318268,
            1.50115805444853, 1.49556720231248, 1.47382211246778, 1.54269637756781,
            1.51393693827205, 1.53269798388935, 1.52984548355065, 1.54152318955056,
            1.50736645568408, 1.50190987047024, 1.56387064391903, 1.5077356293637,
            1.55157514144813, 1.54955425375295, 1.56841599283026, 1.46990481181989,
        ],
        "sym_haar": [
            1.46303865991934, 1.51108641640917, 1.45415269995621, 1.49919261019189,
            1.52385454768718, 1.55292004324701, 1.52833590601738, 1.56708255467597,
            1.47112955083295, 1.52334334526645, 1.53714155237569, 1.51937747186688,
            1.49479192459661, 1.56742710549264, 1.50760687966625, 1.47116379020138,
            1.53066295515776, 1.50660126827197, 1.60258576490627, 1.54447278922737,
        ],
        "sym_recursive": [
            1.48514529566544, 1.52287789183042, 1.48397311349123, 1.52814203778809,
            1.49952723442395, 1.54220504482226, 1.54721840363854, 1.5328163338773,
            1.53591567927486, 1.49108762715527, 1.54859047008569, 1.47760847835617,
            1.49731902898027, 1.48816425100831, 1.53119956058789, 1.49058207045826,
            1.49089653355003, 1.51514574523377, 1.53912760470172, 1.51059478003122,
        ],
        "canonical_deterministic": [
            1.48458053391888, 1.49248704488109, 1.49539969096808, 1.51370158483728,
            1.51986189709992, 1.50470366502067, 1.5209191901258, 1.5408929630022,
            1.49940815607192, 1.50478095411409, 1.51936117579097, 1.50552842347508,
            1.49522271966621, 1.4971678329646, 1.52307690092823, 1.48938421600977,
            1.50569896160573, 1.4891658539924, 1.52590152202758, 1.50490287564793,
        ],
    }

    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_sample_path_pinned(self, variant):
        config = bench.TrainConfig(variant=variant, d=2, hidden=8, batch_size=16,
                                   steps=20, seed=7)
        result = bench.train(config)
        assert not result.diverged
        assert [step for step, _ in result.history] == list(range(1, 21))
        np.testing.assert_allclose([obj for _, obj in result.history],
                                   self.PINNED_HISTORY[variant], rtol=1e-12, atol=0)

    # SHA-256 of the final parameters (float64 little-endian bytes, in order)
    # of the pinned run above, plus sym_recursive at d=3; recorded before
    # the condition cap and Adam were vectorised.  Bitwise, so unlike the
    # rtol pin above it also catches last-ulp moves; a different BLAS or
    # numpy build may round matrix products differently and move it.
    PINNED_PARAMS_SHA256 = {
        ("plain_mlp", 2): "84284ac4726201ed619be5cddfbc84a7b99d3e6bcd439c8e460b2f9a81c0abc7",
        ("sym_haar", 2): "198e02da866329d5604de8631d499513e8ccd2fd0c33dd359793a369659fbd9f",
        ("sym_recursive", 2): "a3c0ac5488ecb9800491367006b6ed681d87060f4972311fafc4fc625f67f555",
        ("canonical_deterministic", 2):
            "9e8b16ce0db749cb81fe01a5cc26a45024c682546e9996bc0206653fe8ca4f4e",
        ("sym_recursive", 3): "85b33a796d6020f40231d052d5fdc2494eca0c4d6b8c35b58ddffaf313da3849",
    }

    @pytest.mark.parametrize("variant,d", list(PINNED_PARAMS_SHA256))
    def test_params_bit_identical(self, variant, d):
        config = bench.TrainConfig(variant=variant, d=d, hidden=8, batch_size=16,
                                   steps=20, seed=7)
        result = bench.train(config)
        assert not result.diverged
        digest = hashlib.sha256()
        for p in result.params:
            digest.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
        assert digest.hexdigest() == self.PINNED_PARAMS_SHA256[(variant, d)]

    def test_nonfinite_gradient_is_divergence(self, monkeypatch):
        real_backward = nn.mlp_backward

        def inf_backward(*args, **kwargs):
            grads, dx = real_backward(*args, **kwargs)
            return [np.full_like(g, np.inf) for g in grads], dx

        monkeypatch.setattr(nn, "mlp_backward", inf_backward)
        config = bench.TrainConfig(variant="plain_mlp", steps=5, hidden=8,
                                   batch_size=16, seed=0)
        result = bench.train(config)
        assert result.diverged
        assert len(result.history) == 0

    def test_exploding_objective_is_divergence(self, monkeypatch):
        monkeypatch.setattr(bench.InversionModel, "objective_and_grads",
                            lambda self, params, X, noise:
                            (2e6, [np.zeros_like(p) for p in params]))
        config = bench.TrainConfig(variant="plain_mlp", steps=5, hidden=8,
                                   batch_size=16, seed=0)
        result = bench.train(config)
        assert result.diverged
        assert len(result.history) == 0

    def test_nonfinite_parameter_is_divergence(self, monkeypatch):
        # an inf written into W0[0, 0] after the first update trains all 20
        # steps at finite objectives, as tanh saturates, and stays inf
        real_step = nn.adam_step

        def adam_step(grads, state, lr):
            real_step(grads, state, lr)
            if state.t == 1:
                state.params[0] = np.inf  # W0[0, 0], the flat buffer's first entry

        monkeypatch.setattr(nn, "adam_step", adam_step)
        config = bench.TrainConfig(variant="plain_mlp", steps=20, hidden=8,
                                   batch_size=16, seed=0)
        with np.errstate(all="ignore"):
            result = bench.train(config)
        assert len(result.history) == 20
        assert all(math.isfinite(objective) for _, objective in result.history)
        assert result.params[0][0, 0] == np.inf
        assert result.diverged

    def test_degenerate_gamma_is_divergence(self, degenerate_gamma):
        # the first _draw_coset raises (see the degenerate_gamma fixture)
        config = bench.TrainConfig(variant="sym_recursive", steps=5, hidden=8,
                                   batch_size=16, seed=0)
        result = bench.train(config)
        assert result.diverged
        assert len(result.history) == 0

    def test_degenerate_gamma_in_evaluate_is_divergence(self, degenerate_gamma):
        # with no training step, the first degenerate draw is evaluate's
        config = bench.TrainConfig(variant="sym_recursive", steps=0, hidden=8,
                                   n_mc_eval=4, n_test=16, seed=0)
        summary = bench.run_experiment(config)
        assert summary["diverged"]
        assert np.isnan(summary["final_loss"]) and np.isnan(summary["equiv_gap"])

    def test_run_experiment_summary_fields(self):
        config = bench.TrainConfig(variant="sym_haar", steps=10, hidden=8,
                                   batch_size=16, n_mc_eval=4, n_test=16, seed=1)
        summary = bench.run_experiment(config)
        for key in ("variant", "d", "seed", "final_loss", "equiv_gap",
                    "history", "params", "diverged"):
            assert key in summary
        assert summary["equiv_gap"] <= 1e-6
        assert np.isfinite(summary["final_loss"])


class TestRunContract:
    """A config that constructs ends, through run_experiment, in a summary
    (diverged or not) or in ConfigurationError (a condition cap no batch
    meets), never in another exception: huge or tiny learning rates and
    caps included, where float overflow is expected.  lr = inf does not
    construct; it trained sym_recursive into a LinAlgError before.  A
    summary that is not diverged has a finite final_loss and equiv_gap."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(variant=st.sampled_from(bench.VARIANTS), d=st.integers(1, 4),
           lr=st.sampled_from([1e-320, 1e-8, 1e-4, 1.0, 1e3, 1e100, 1e300, 1.7e308, math.inf]),
           cap=st.sampled_from([1 + 1e-12, 1.5, 3.0, 1e4, 1e300, math.inf]),
           steps=st.integers(0, 3), sizes=st.tuples(*[st.integers(1, 8)] * 4),
           seed=st.integers(0, 2**64 - 1))
    # one update at lr 1.7e308 made the parameters non-finite, and its
    # summary, NaN loss and gap, was not diverged
    @example(variant="sym_haar", d=2, lr=1.7e308, cap=1e4, steps=1, sizes=(5, 1, 4, 1), seed=1)
    def test_run_ends_in_a_summary_or_a_configuration_error(self, variant, d, lr, cap, steps,
                                                            sizes, seed):
        hidden, batch_size, n_test, n_mc_eval = sizes
        with np.errstate(all="ignore"):
            try:
                config = bench.TrainConfig(variant=variant, d=d, lr=lr, condition_cap=cap,
                                           steps=steps, hidden=hidden, batch_size=batch_size,
                                           n_test=n_test, n_mc_eval=n_mc_eval, seed=seed)
                summary = bench.run_experiment(config)
            except bench.ConfigurationError:  # lr = inf, or a cap no batch meets
                return
        assert set(bench.SUMMARY_FIELDS) <= set(summary)
        if not summary["diverged"]:
            assert math.isfinite(summary["final_loss"]) and math.isfinite(summary["equiv_gap"])


def stream_path(stream):
    """The split tags from the root to stream: its entropy words after the
    seed's four, one word per tag, since these tests' tags stay below 2**32."""
    return tuple(stream._entropy[4:])


def params_digest(params):
    digest = hashlib.sha256()
    for p in params:
        digest.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestTrainingChunks:
    """train draws the batches and noise of a chunk of
    max(1, CHUNK_ROWS // batch_size) steps as stacks, each step from
    its own streams: any chunk size trains the same bytes."""

    @staticmethod
    def run(monkeypatch, chunk_rows, **fields):
        """bench.train, batch size 16, with CHUNK_ROWS = chunk_rows
        (None: the default)."""
        config = bench.TrainConfig(**{"hidden": 8, "batch_size": 16, "seed": 7, **fields})
        with monkeypatch.context() as m:
            if chunk_rows is not None:
                m.setattr(bench, "CHUNK_ROWS", chunk_rows)
            return bench.train(config)

    @pytest.mark.parametrize("steps", [0, 20])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_chunk_size_does_not_move_the_run(self, variant, d, steps, monkeypatch):
        # chunks of 1 step (rows 16, and 8, below one batch), of 3 (20 is
        # not a multiple), and the default (256 steps, one partial chunk)
        runs = [self.run(monkeypatch, rows, variant=variant, d=d, steps=steps)
                for rows in (16, 8, 48, None)]
        assert bench.CHUNK_ROWS // 16 > steps
        for result in runs:
            assert not result.diverged
            assert result.history == runs[0].history
            assert params_digest(result.params) == params_digest(runs[0].params)
        assert [t for t, _ in runs[0].history] == list(range(1, steps + 1))

    @pytest.mark.parametrize("variant", ["plain_mlp", "sym_recursive"])
    def test_shortfall_redraws_inside_a_chunk(self, variant, monkeypatch):
        # at cap 3 most 2x2 Gaussian batches of 16 fall short; the chunk's
        # first candidates are one accept call, and each redraw is smaller
        # than a batch
        real_cond_within = nn.cond_within
        shapes = []

        def spy(M, cap):
            if cap == 3.0:
                shapes.append(np.shape(M)[0])
            return real_cond_within(M, cap)

        monkeypatch.setattr(nn, "cond_within", spy)
        chunked = self.run(monkeypatch, None, variant=variant, steps=20, condition_cap=3.0)
        assert shapes[0] == 20 * 16
        assert any(n < 16 for n in shapes[1:])
        single = self.run(monkeypatch, 16, variant=variant, steps=20, condition_cap=3.0)
        assert chunked.history == single.history
        assert params_digest(chunked.params) == params_digest(single.params)

    @staticmethod
    def cap_fails_at_step(monkeypatch, step):
        """Step `step`'s batch stream (root.split(1).split(step).split(0))
        draws only singular matrices, so its condition cap is never met."""
        real_normal = RandomStream.normal

        def normal(self, shape=(), out=None):
            x = real_normal(self, shape, out=out)
            if stream_path(self) == (1, step, 0):
                x[...] = 1.0
            return x

        monkeypatch.setattr(RandomStream, "normal", normal)

    @staticmethod
    def count_objectives(monkeypatch, explode_at=None):
        """Count objective_and_grads calls; call explode_at returns 2e6."""
        real = bench.InversionModel.objective_and_grads
        calls = []

        def objective_and_grads(self, params, X, noise):
            calls.append(len(X))
            obj, grads = real(self, params, X, noise)
            return (2e6 if len(calls) == explode_at else obj), grads

        monkeypatch.setattr(bench.InversionModel, "objective_and_grads", objective_and_grads)
        return calls

    @pytest.mark.parametrize("chunk_rows", [16, None])
    def test_a_cap_failing_mid_chunk_raises_when_its_step_is_reached(self, chunk_rows,
                                                                     monkeypatch):
        self.cap_fails_at_step(monkeypatch, 5)
        calls = self.count_objectives(monkeypatch)
        with pytest.raises(bench.ConfigurationError, match="rejected 100 batches"):
            self.run(monkeypatch, chunk_rows, variant="plain_mlp", steps=10)
        assert len(calls) == 5

    @pytest.mark.parametrize("chunk_rows", [16, None])
    def test_divergence_before_a_failing_cap_is_divergence(self, chunk_rows, monkeypatch):
        self.cap_fails_at_step(monkeypatch, 5)
        calls = self.count_objectives(monkeypatch, explode_at=3)
        result = self.run(monkeypatch, chunk_rows, variant="plain_mlp", steps=10)
        assert result.diverged and len(result.history) == 2 and len(calls) == 3

    @pytest.mark.parametrize("chunk_rows", [16, None])
    @pytest.mark.parametrize("variant", ["plain_mlp", "sym_recursive"])
    def test_a_rerun_chunk_trains_the_bytes_of_the_run(self, variant, chunk_rows, monkeypatch):
        # the default chunk's cap fails at step 5, so the chunk runs again
        # step by step and diverges at step 4: its 3 steps are those of a
        # 3-step run, objectives and parameters alike
        reference = self.run(monkeypatch, chunk_rows, variant=variant, steps=3)
        self.cap_fails_at_step(monkeypatch, 5)
        self.count_objectives(monkeypatch, explode_at=4)
        result = self.run(monkeypatch, chunk_rows, variant=variant, steps=10)
        assert result.diverged
        assert len(result.history) == 3 and result.history == reference.history
        assert params_digest(result.params) == params_digest(reference.params)

    @pytest.mark.parametrize("chunk_rows", [16, 48, None])
    def test_divergence_mid_chunk(self, chunk_rows, monkeypatch):
        # step 5 is inside the second chunk of 3 and the first default one
        self.count_objectives(monkeypatch, explode_at=5)
        result = self.run(monkeypatch, chunk_rows, variant="sym_haar", steps=10)
        assert result.diverged
        assert [t for t, _ in result.history] == [1, 2, 3, 4]

    @pytest.mark.parametrize("chunk_rows", [16, None])
    def test_cap_no_batch_meets_raises(self, chunk_rows, monkeypatch):
        with pytest.raises(bench.ConfigurationError, match="condition cap"):
            self.run(monkeypatch, chunk_rows, variant="plain_mlp", steps=10,
                     condition_cap=1 + 1e-12)

    # np.random.Philox builds of the pinned 20-step run (d=2, B=16, seed 7),
    # counted when each step drew alone: 3 for the parameters, and per step
    # one for the batch, one for the Haar stack and one for sym_recursive's eta
    PHILOX_BUILDS = {"plain_mlp": 23, "sym_haar": 43, "sym_recursive": 65,
                     "canonical_deterministic": 23}

    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_chunks_build_no_extra_generator(self, variant, monkeypatch):
        real_philox = np.random.Philox
        builds = []
        monkeypatch.setattr(np.random, "Philox",
                            lambda *a, **k: builds.append(1) or real_philox(*a, **k))
        config = bench.TrainConfig(variant=variant, d=2, hidden=8, batch_size=16,
                                   steps=20, seed=7)
        assert not bench.train(config).diverged
        assert len(builds) == self.PHILOX_BUILDS[variant]

    @pytest.mark.parametrize("variant", ["plain_mlp", "canonical_deterministic"])
    def test_deterministic_variants_build_no_noise_streams(self, variant, monkeypatch):
        # the pinned 20-step run builds the root, its parameter streams
        # (split(0), the model's split(0) and one per layer), the steps
        # stream, and per step its stream and the batch's split(0); the
        # noise split(1) of each step, which draws nothing here, is not built
        real_init, built = RandomStream.__init__, []

        def init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(RandomStream, "__init__", init)
        config = bench.TrainConfig(variant=variant, d=2, hidden=8, batch_size=16,
                                   steps=20, seed=7)
        assert not bench.train(config).diverged
        assert len(built) == 7 + 2 * 20


class TestStepDispatch:
    """A training step calls numpy's C entry points: no frame of numpy's
    Python wrappers (np.all, np.transpose, np.moveaxis, zeros_like,
    ndarray.sum and .any through _methods) or of functools runs in train,
    and the Python-level calls per step stay within a pinned budget."""

    WRAPPERS = ("numpy/_core/fromnumeric.py", "numpy/_core/numeric.py",
                "numpy/_core/_methods.py", "/functools.py")
    # Python-level calls per step of the pinned 20-step run (d=2, B=16,
    # hidden=8, seed 7) after a warm-up run, set-up included: 25.4, 39.1,
    # 92.35 and 25.9 with numpy 2.4, against 49.35, 66.05, 158.7 and 50.15
    # when np.all, np.transpose, ndarray.sum and cached_property ran on
    # every step; the budget leaves room for numpy's own internals to vary
    CALL_BUDGET = {"plain_mlp": 28, "sym_haar": 43, "sym_recursive": 100,
                   "canonical_deterministic": 28}

    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_train_calls_no_python_wrapper(self, variant):
        config = bench.TrainConfig(variant=variant, d=2, hidden=8, batch_size=16,
                                   steps=20, seed=7)
        bench.train(dataclasses.replace(config, steps=2))  # numpy's lazy imports
        files = []

        def profile(frame, event, arg):
            if event == "call":
                files.append(frame.f_code.co_filename.replace(os.sep, "/"))

        sys.setprofile(profile)
        try:
            result = bench.train(config)
        finally:
            sys.setprofile(None)
        assert not result.diverged
        assert [f for f in files if f.endswith(self.WRAPPERS)] == []
        assert len(files) / config.steps <= self.CALL_BUDGET[variant]


class TestTrainingBases:
    """train builds each chunk's bases, the part of every step's draw that
    reads no parameter, with the chunk's batches and noise, and each step
    runs only the rest of its forward and backward."""

    @pytest.mark.parametrize("chunk_rows,calls", [(None, 1), (48, 7)])
    def test_canonical_runs_one_gram_schmidt_per_chunk(self, chunk_rows, calls, monkeypatch):
        # 20 steps of 16 rows: one default chunk, or 7 chunks of 3 steps;
        # each step ran its own Gram-Schmidt of X before
        real = nn.gram_schmidt_forward
        shapes = []
        monkeypatch.setattr(nn, "gram_schmidt_forward",
                            lambda M: shapes.append(np.shape(M)) or real(M))
        result = TestTrainingChunks.run(monkeypatch, chunk_rows,
                                        variant="canonical_deterministic", steps=20)
        assert not result.diverged
        assert len(shapes) == calls
        assert sum(shape[0] for shape in shapes) == 20 and shapes[0][1:] == (16, 2, 2)

    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_only_sym_recursive_k_computes_an_input_gradient(self, variant, monkeypatch):
        real = nn.mlp_backward
        input_grads = []

        def spy(*args, **kwargs):
            grads, dinput = real(*args, **kwargs)
            input_grads.append(dinput is not None)
            return grads, dinput

        monkeypatch.setattr(nn, "mlp_backward", spy)
        result = TestTrainingChunks.run(monkeypatch, None, variant=variant, steps=3)
        assert not result.diverged
        per_step = [True, False] if variant == "sym_recursive" else [False]
        assert input_grads == per_step * 3

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_chunk_bases_equal_single_batch_bases(self, variant, d):
        # the bases of a 5-step chunk, and the objectives and gradients they
        # give, equal those of each step's batch and noise drawn alone
        m = bench.InversionModel(variant, d, hidden=8)
        params = m.init(RandomStream(0))
        streams = [RandomStream(1).split(t) for t in range(5)]
        Xs = bench._sample_batches(d, 16, [s.split(0) for s in streams], 1e4)
        chunk = m._bases(Xs, m._noise(16, [s.split(1) for s in streams]))
        assert len(chunk) == 5
        for s, X, base in zip(streams, Xs, chunk):
            X1 = bench.sample_batch(d, 16, s.split(0))
            single, = m._bases(X1[None], m._noise(16, [s.split(1)]))
            assert np.array_equal(X, X1)
            assert all(np.array_equal(a, b) for a, b in zip(base, single))
            obj, grads = m.objective_and_grads(params, X, base)
            obj1, grads1 = m.objective_and_grads(params, X1, single)
            assert obj == obj1
            assert all(np.array_equal(a, b) for a, b in zip(grads, grads1))


class TestPredictChunks:
    """predict draws the noise of max(1, CHUNK_ROWS // len(X)) draws as one
    _noise call, draw i from stream.split(i): any chunk size gives the
    bytes of the per-draw fold."""

    N_TEST = 5

    @staticmethod
    def per_draw_reference(model, params, X, n_mc, stream):
        """_forward at each draw's own noise, summed in order, over n."""
        n = 1 if model.deterministic else n_mc
        acc = None
        for i in range(n):
            base, = model._bases(X[None], model._noise(len(X), [stream.split(i)]))
            y = model._forward(params, X, base)
            acc = y if acc is None else acc + y
        return acc / n

    @pytest.mark.parametrize("n_mc", [1, 7, 100])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_chunk_size_does_not_move_predict(self, variant, d, n_mc, monkeypatch):
        model = bench.InversionModel(variant, d, hidden=8)
        params = model.init(RandomStream(0))
        X = bench.sample_batch(d, self.N_TEST, RandomStream(1))
        expected = self.per_draw_reference(model, params, X, n_mc, RandomStream(2))
        # chunks of 1 draw, of 3 (no n_mc above 1 is a multiple), and the
        # default (819 draws, one partial chunk)
        assert bench.CHUNK_ROWS // self.N_TEST > 100
        for rows in (1, 3 * self.N_TEST, bench.CHUNK_ROWS):
            with monkeypatch.context() as m:
                m.setattr(bench, "CHUNK_ROWS", rows)
                got = model.predict(params, X, n_mc, RandomStream(2))
            assert np.array_equal(got, expected)


class TestEvaluate:
    # evaluate's mean test loss per variant (d=2, hidden 8, B=16, 10 steps,
    # seed 5, 64 test inputs, 8 MC draws), recorded before the equivariance
    # gap was batched; the gap's draws must not move the loss path
    PINNED_LOSS = {
        "plain_mlp": 1.512528070780133,
        "sym_haar": 1.4734999726888691,
        "sym_recursive": 1.458433250381687,
        "canonical_deterministic": 1.5345833603015921,
    }

    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_loss_pinned(self, variant):
        config = bench.TrainConfig(variant=variant, d=2, hidden=8, batch_size=16,
                                   steps=10, seed=5)
        result = bench.train(config)
        model = bench.InversionModel(variant, 2, 8)
        loss, gap = bench.evaluate(model, result.params, 64, 8, RandomStream(5).split(2))
        np.testing.assert_allclose(loss, self.PINNED_LOSS[variant], rtol=1e-12, atol=0)
        assert np.isfinite(gap)

    @pytest.mark.parametrize("n_test,n_mc,n_gap_pairs", [(0, 4, 100), (16, 0, 100), (16, 4, 0)])
    def test_empty_request_rejected(self, n_test, n_mc, n_gap_pairs):
        model = bench.InversionModel("sym_haar", 2, 8)
        params = model.init(RandomStream(0))
        with pytest.raises(ValueError):
            bench.evaluate(model, params, n_test, n_mc, RandomStream(1),
                           n_gap_pairs=n_gap_pairs)

    @pytest.mark.parametrize("variant", ["plain_mlp", "sym_haar"])
    def test_predict_rejects_zero_draws(self, variant):
        # deterministic variants draw once anyway, but n_mc=0 is still an
        # empty request
        model = bench.InversionModel(variant, 2, 8)
        params = model.init(RandomStream(0))
        X = bench.sample_batch(2, 4, RandomStream(1))
        with pytest.raises(ValueError):
            model.predict(params, X, 0, RandomStream(2))


class TestArtifacts:
    def test_history_csv(self, tmp_path):
        path = str(tmp_path / "history.csv")
        bench.write_history_csv(path, [(1, 0.5), (2, 0.25)])
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "step,objective"
        assert lines[1].startswith("1,0.5")
        assert len(lines) == 3

    def test_summary_json(self, tmp_path):
        import json

        path = str(tmp_path / "summary.json")
        bench.write_summary(path, {"variant": "sym_haar", "d": 2, "final_loss": 0.4,
                                   "equiv_gap": 1e-8, "seed": 7, "diverged": False,
                                   "history": [(1, 0.5)], "params": []})
        data = json.loads(Path(path).read_text())
        assert data == {"variant": "sym_haar", "d": 2, "final_loss": 0.4,
                        "equiv_gap": 1e-8, "seed": 7, "diverged": False}

    @pytest.mark.parametrize("write,bad", [
        (nn.save_params, [np.zeros(3), np.array(["x"])]),
        (bench.write_history_csv, [(1, 0.5), (2, "x")]),
        (bench.write_summary, {"variant": "sym_haar", "d": 2, "final_loss": 0.4,
                               "equiv_gap": object(), "seed": 7, "diverged": False}),
    ])
    def test_interrupted_write_keeps_the_old_file(self, tmp_path, write, bad):
        # the bad entry raises after the first lines are written: the old
        # file is left byte for byte, and no temp file behind
        path = tmp_path / "artifact"
        path.write_bytes(b"previous artifact\n")
        with pytest.raises(TypeError):
            write(str(path), bad)
        assert path.read_bytes() == b"previous artifact\n"
        assert os.listdir(tmp_path) == ["artifact"]
