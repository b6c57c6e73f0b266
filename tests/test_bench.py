import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from equisym import bench, checks, nn
from equisym.checks import check_end_to_end_gradients, check_model_gaps
from equisym.equivariance import Action, coset_bundle_trivial
from equisym.groups import orthogonal_group
from equisym.stochmap import RandomStream, Space, StochasticMap, lift_deterministic
from equisym.symcore import SymmetrisationSpec, symmetrise


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

    @pytest.mark.parametrize("cap", [1.0, 0.5])
    def test_condition_cap_at_most_one(self, cap):
        # every matrix has cond >= 1, and a Gaussian one cond > 1 almost
        # surely, so such a cap would reject every batch
        with pytest.raises(bench.ConfigurationError):
            bench.TrainConfig(condition_cap=cap)


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
            Qs = bench._haar_batch(d, 200, s.split(10 + d))
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
        Qs = bench._haar_batch(3, 50, RandomStream(4))
        err = np.max(np.abs(np.transpose(Qs, (0, 2, 1)) @ Qs - np.eye(3)))
        assert err <= 1e-10


class TestLoss:
    def test_zero_at_truth(self):
        Y = np.linalg.inv(bench.sample_batch(2, 1, RandomStream(5)))
        assert bench.loss(Y[0], Y[0]) <= 1e-12

    def test_identity_target_frobenius(self):
        # y = I: l(I, yhat) = ||yhat - I||_F
        yhat = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.isclose(bench.loss(np.eye(2), yhat), 1.0)

    def test_orthogonally_invariant(self):
        # l((Qx)^-1, yhat Q^T) = l(x^-1, yhat)
        s = RandomStream(6)
        X = bench.sample_batch(2, 1, s.split(0))
        Y = np.linalg.inv(X)
        yhat = s.split(1).normal((2, 2))
        Q = bench._haar_batch(2, 1, s.split(2))[0]
        lhs = bench.loss(np.linalg.inv(Q @ X[0]), yhat @ Q.T)
        assert np.isclose(lhs, bench.loss(Y[0], yhat))

    def test_singular_target_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            bench.loss(np.zeros((2, 2)), np.eye(2))

    def test_batch_losses_match_scalar(self):
        X = bench.sample_batch(2, 8, RandomStream(7))
        Y = np.linalg.inv(X)
        Yhat = RandomStream(8).normal((8, 2, 2))
        batched = bench._batch_losses(X, Yhat)
        for i in range(8):
            assert np.isclose(batched[i], bench.loss(Y[i], Yhat[i]))


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

    def test_coupled_draw_is_exactly_equivariant(self):
        m = bench.InversionModel("sym_haar", d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 4, RandomStream(1))
        Q = bench._haar_batch(2, 1, RandomStream(2))[0]
        coupled = m.draw(params, X, RandomStream(3), couple=Q)
        plain = m.draw(params, X, RandomStream(3))
        assert np.max(np.abs(coupled - plain @ Q.T)) <= 1e-12

    def test_plain_mlp_is_not_equivariant(self):
        m = bench.InversionModel("plain_mlp", d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 1, RandomStream(1))
        Q = bench._haar_batch(2, 1, RandomStream(2))[0]
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
        Qs = bench._haar_batch(2, 5, RandomStream(2))
        Qs[-1] = np.diag([2.0, 1.0])
        with pytest.raises(ValueError):
            bench.equivariance_gap(m, params, X, Qs, RandomStream(3))

    @pytest.mark.parametrize("variant", ["plain_mlp", "canonical_deterministic"])
    def test_batched_gap_matches_rowwise(self, variant):
        m = bench.InversionModel(variant, d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 6, RandomStream(1))
        Qs = bench._haar_batch(2, 6, RandomStream(2))
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
        Qs = bench._haar_batch(2, 3, RandomStream(2))
        calls = []
        real_draw = m.draw

        def spy(params, X, stream, couple=None):
            out = real_draw(params, X, stream, couple)
            calls.append((X, couple, out))
            return out

        m.draw = spy
        gaps = bench.equivariance_gap(m, params, X, Qs, RandomStream(3), n_mc=4)
        assert len(calls) == 2
        (X1, c1, f1), (X2, c2, f2) = calls
        # pair-major repeats: pair i owns rows 4i .. 4i+3
        assert c1 is None
        assert np.array_equal(X1, np.repeat(X, 4, axis=0))
        assert np.array_equal(X2, X1)
        assert np.array_equal(c2, np.repeat(Qs, 4, axis=0))
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

    def test_gap_rejects_bad_arguments_before_drawing(self):
        m = bench.InversionModel("sym_haar", d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 5, RandomStream(1))
        Qs = bench._haar_batch(2, 5, RandomStream(2))
        calls = []
        real_draw = m.draw
        m.draw = lambda *args, **kwargs: calls.append(args) or real_draw(*args, **kwargs)
        for n_mc in (0, -1):
            with pytest.raises(ValueError, match="n_mc"):
                bench.equivariance_gap(m, params, X, Qs, RandomStream(3), n_mc=n_mc)
        with pytest.raises(ValueError, match="len\\(X\\) = 3 and len\\(Qs\\) = 5"):
            bench.equivariance_gap(m, params, X[:3], Qs, RandomStream(3))
        assert calls == []

    def test_untrained_sym_gaps_below_tolerance(self):
        for result in check_model_gaps(dims=(2,), n_pairs=20):
            assert result.passed, result.line()

    def test_predict_averages_draws(self):
        m = bench.InversionModel("sym_haar", d=2, hidden=8)
        params = m.init(RandomStream(0))
        X = bench.sample_batch(2, 3, RandomStream(1))
        stream = RandomStream(2)
        mean = m.predict(params, X, 5, stream)
        acc = sum(m.draw(params, X, stream.split(i)) for i in range(5))
        assert np.allclose(mean, acc / 5)


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
        gamma = StochasticMap(stacks, bundle.coset_space, lambda X, s: G.haar(s, len(X)))
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

            def gamma0(Z, s):
                B = len(Z)
                inp = np.concatenate([Z.reshape(B, d * d), s.normal((B, d))], axis=1)
                return nn.gram_schmidt_forward(nn.mlp_forward(pg, inp)[0].reshape(B, d, d))[0]

            gamma = symmetrise(StochasticMap(stacks, bundle.coset_space, gamma0), inner)
            X = bench.sample_batch(d, 128, RandomStream(1000 + seed))
            s = RandomStream(2000 + seed)
            assert np.array_equal(gamma.sampler(X, s), model._draw_coset(pg, X, s)[0])


class TestGradients:
    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_objective_grads_match_finite_differences(self, variant):
        from equisym.checks import _relative_error, finite_difference_grads

        m = bench.InversionModel(variant, d=2, hidden=6)
        stream = RandomStream(11)
        params = m.init(stream.split(0))
        X = bench.sample_batch(2, 3, stream.split(1))
        frozen = stream.split(2)

        def f(p):
            obj, _ = m.objective_and_grads(p, X, frozen)
            return obj

        obj, grads = m.objective_and_grads(params, X, frozen)
        fd = finite_difference_grads(f, params)
        worst = max(_relative_error(g, h) for g, h in zip(grads, fd))
        assert worst <= 1e-4

    def test_end_to_end_check(self):
        result = check_end_to_end_gradients()
        assert result.passed, result.line()

    def test_empty_batch_rejected(self):
        m = bench.InversionModel("plain_mlp", d=2, hidden=4)
        params = m.init(RandomStream(0))
        with pytest.raises(ValueError):
            m.objective_and_grads(params, np.zeros((0, 2, 2)), RandomStream(1))

    def test_nonfinite_loss_names_its_row(self):
        m = bench.InversionModel("plain_mlp", d=2, hidden=4)
        params = m.init(RandomStream(0))
        params[0][0, 0] = np.nan
        X = bench.sample_batch(2, 3, RandomStream(1))
        with pytest.raises(bench.DivergenceError, match="batch index 0"):
            m.objective_and_grads(params, X, RandomStream(2))

    @pytest.mark.parametrize("variant", bench.VARIANTS)
    def test_end_to_end_check_objective_is_the_training_objective(self, variant):
        # check_end_to_end_gradients differences the loss of model.draw, so
        # that no backward pass runs per evaluation; it must be exactly the
        # objective that objective_and_grads returns, at the check's point
        # and at a perturbed one
        m = bench.InversionModel(variant, d=2, hidden=8)
        stream = RandomStream(13)
        params = m.init(stream.split(0))
        X = bench.sample_batch(2, 4, stream.split(1))
        frozen = stream.split(2)
        for p in (params, [a + 1e-5 for a in params]):
            drawn = float(bench._batch_losses(X, m.draw(p, X, frozen)).mean())
            assert drawn == m.objective_and_grads(p, X, frozen)[0]

    def test_gradients_suite_runs_backward_once(self, monkeypatch):
        # the finite differences of the gradients suite need objectives
        # only; 481 objective_and_grads and 963 mlp_backward calls before
        counts = {"objective": 0, "mlp_backward": 0}

        def counted(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(bench.InversionModel, "objective_and_grads", "objective")
        counted(nn, "mlp_backward", "mlp_backward")
        assert all(r.passed for r in checks.run_suite("gradients"))
        assert counts["objective"] <= 1
        assert counts["mlp_backward"] <= 3


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
                            lambda self, params, X, stream:
                            (2e6, [np.zeros_like(p) for p in params]))
        config = bench.TrainConfig(variant="plain_mlp", steps=5, hidden=8,
                                   batch_size=16, seed=0)
        result = bench.train(config)
        assert result.diverged
        assert len(result.history) == 0

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
