import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisym import nn
from equisym.checks import (
    check_gram_schmidt_gradients,
    check_mlp_gradients,
    finite_difference_grads,
)
from equisym.groups import _haar_orthogonal
from equisym.stochmap import RandomStream


def with_conds(d, conds, stream):
    """Matrices U diag(sigma) V^T with sigma_1 / sigma_d = conds[i]."""
    n = len(conds)
    U = _haar_orthogonal(d, stream.split(0), False, batch=(n,))
    V = _haar_orthogonal(d, stream.split(1), False, batch=(n,))
    inner = np.sort(stream.split(2).uniform((n, d - 2)), axis=1)[:, ::-1]
    logs = np.concatenate([np.zeros((n, 1)), inner, np.ones((n, 1))], axis=1)
    sv = np.asarray(conds, dtype=float)[:, None] ** -logs
    return (U * sv[:, None, :]) @ np.transpose(V, (0, 2, 1))


class TestMlp:
    def test_init_shapes_and_bounds(self):
        p = nn.init_mlp((4, 8, 3), RandomStream(0))
        assert [W.shape for W in p[0::2]] == [(4, 8), (8, 3)]
        assert all(np.all(b == 0) for b in p[1::2])
        assert np.max(np.abs(p[0])) <= 1.0 / np.sqrt(4)
        assert np.max(np.abs(p[2])) <= 1.0 / np.sqrt(8)

    def test_last_layer_is_linear(self):
        # with zero hidden weights the output equals the last bias, however
        # large, which a tanh output layer could not produce
        p = nn.init_mlp((2, 3, 1), RandomStream(1))
        p[0::2] = [np.zeros_like(W) for W in p[0::2]]
        p[-1] = np.array([5.0])
        y, _ = nn.mlp_forward(p, np.array([[1.0, 1.0]]))
        assert y[0, 0] == 5.0

    def test_batch_matches_loop(self):
        p = nn.init_mlp((3, 6, 2), RandomStream(2))
        X = RandomStream(3).normal((5, 3))
        Y, _ = nn.mlp_forward(p, X)
        for i in range(5):
            y, _ = nn.mlp_forward(p, X[i:i + 1])
            assert np.allclose(Y[i], y[0])

    def test_width_mismatch(self):
        p = nn.init_mlp((3, 4, 2), RandomStream(0))
        with pytest.raises(ValueError):
            nn.mlp_forward(p, np.zeros((1, 5)))

    def test_width_mismatch_names_the_stacked_width(self):
        # stacked (5, 4, 3) weights take width 4, not the stack's 5
        p = [np.zeros((5, 4, 3)), np.zeros((5, 3))]
        with pytest.raises(ValueError, match=r"^input of shape \(5, 2, 6\) is not a batch of width 4$"):
            nn.mlp_forward(p, np.zeros((5, 2, 6)))

    def test_unbatched_input_rejected(self):
        # a 1-D input of the right width would otherwise give gradients of
        # the wrong shape in mlp_backward; a stacked input is a forward
        # only, and the backward rejects its cache
        p = nn.init_mlp((3, 4, 2), RandomStream(0))
        for x in (np.zeros(3), np.float64(0.0)):
            with pytest.raises(ValueError):
                nn.mlp_forward(p, x)
        _, cache = nn.mlp_forward(p, np.zeros((2, 2, 3)))
        for dout in (np.zeros((2, 2, 2)), np.zeros((2, 2))):
            with pytest.raises(ValueError, match="batch"):
                nn.mlp_backward(p, cache, dout)

    @pytest.mark.parametrize("stacked_input", [False, True])
    def test_stacked_forward_equals_rowwise(self, stacked_input):
        # a leading stack axis on every parameter, and on the input or not:
        # row i equals the batch forward with row i's parameters, bit for bit
        rows = [nn.init_mlp((3, 6, 6, 2), RandomStream(seed)) for seed in range(4)]
        for i, p in enumerate(rows):
            p[1::2] = [RandomStream(10 + i).split(j).normal(b.shape)
                       for j, b in enumerate(p[1::2])]
        stacked = [np.stack(arrays) for arrays in zip(*rows)]
        X = RandomStream(20).normal((4, 5, 3) if stacked_input else (5, 3))
        Y, cache = nn.mlp_forward(stacked, X)
        assert Y.shape == (4, 5, 2)
        for i, p in enumerate(rows):
            y, row_cache = nn.mlp_forward(p, X[i] if stacked_input else X)
            assert np.array_equal(Y[i], y)
            assert all(np.array_equal(np.broadcast_to(a, (4,) + b.shape)[i], b)
                       for a, b in zip(cache, row_cache))

    def test_gradients_match_finite_differences(self):
        result = check_mlp_gradients()
        assert result.passed, result.line()

    def test_batched_gradients_match_finite_differences(self):
        stream = RandomStream(8)
        p = nn.init_mlp((3, 5, 2), stream.split(0))
        X = stream.split(1).normal((4, 3))
        W = stream.split(2).normal((4, 2))

        def objective(flat):
            Y, _ = nn.mlp_forward(flat, X)
            return (W * Y).sum(axis=(-2, -1))

        Y, cache = nn.mlp_forward(p, X)
        grads, dX = nn.mlp_backward(p, cache, W)
        fd = finite_difference_grads(objective, p)
        for g, f in zip(grads, fd):
            assert np.max(np.abs(g - f)) <= 1e-6

    def test_input_gradient(self):
        stream = RandomStream(9)
        p = nn.init_mlp((3, 5, 2), stream.split(0))
        x = stream.split(1).normal((1, 3))
        w = stream.split(2).normal((1, 2))
        _, cache = nn.mlp_forward(p, x)
        _, dx = nn.mlp_backward(p, cache, w)
        h = 1e-6
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[0, j] += h
            xm[0, j] -= h
            up, _ = nn.mlp_forward(p, xp)
            dn, _ = nn.mlp_forward(p, xm)
            fd = (w[0] @ up[0] - w[0] @ dn[0]) / (2 * h)
            assert abs(dx[0, j] - fd) <= 1e-6

    def test_backward_without_input_gradient(self):
        # the same parameter gradients, bit for bit, without the last
        # dz @ W0^T: weights viewed as MatmulCount count their products
        class MatmulCount(np.ndarray):
            count = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                MatmulCount.count += ufunc is np.matmul
                return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

        stream = RandomStream(12)
        params = nn.init_mlp((4, 6, 6, 4), stream.split(0))
        x = stream.split(1).normal((5, 4))
        dout = stream.split(2).normal((5, 4))
        _, cache = nn.mlp_forward(params, x)
        counted = [p.view(MatmulCount) for p in params]
        out = []
        for input_grad in (True, False):
            MatmulCount.count = 0
            out.append(nn.mlp_backward(counted, cache, dout, input_grad) + (MatmulCount.count,))
        (grads, dx, n_with), (grads_without, dx_without, n_without) = out
        assert all(np.array_equal(a, b) for a, b in zip(grads, grads_without))
        assert np.array_equal(dx, nn.mlp_backward(params, cache, dout)[1])
        assert dx_without is None
        assert (n_with, n_without) == (3, 2)

    @pytest.mark.parametrize("B", [1, 4, 512])
    @pytest.mark.parametrize("sizes", [(4, 64, 64, 4), (6, 8, 4)])
    def test_matches_out_of_place_reference_bitwise(self, sizes, B):
        # the textbook out-of-place MLP, written out here as the reference;
        # the library computes the bias add, tanh and tanh derivative in
        # place, which must give the same bytes and leave the inputs alone
        def reference_forward(params, x):
            h, inputs = x, []
            n_layers = len(params) // 2
            for i in range(n_layers):
                inputs.append(h)
                z = h @ params[2 * i] + params[2 * i + 1]
                h = np.tanh(z) if i < n_layers - 1 else z
            return h, inputs

        def reference_backward(params, inputs, dh):
            grads = [None] * len(params)
            for i in range(len(inputs) - 1, -1, -1):
                a = inputs[i + 1] if i < len(inputs) - 1 else None
                dz = dh if a is None else dh * (1.0 - a * a)
                grads[2 * i] = inputs[i].T @ dz
                grads[2 * i + 1] = dz.sum(axis=0)
                dh = dz @ params[2 * i].T
            return grads, dh

        stream = RandomStream(B)
        params = nn.init_mlp(sizes, stream.split(0))
        params[1::2] = [stream.split(1).split(i).normal(b.shape)
                        for i, b in enumerate(params[1::2])]
        x = stream.split(2).normal((B, sizes[0]))
        dout = stream.split(3).normal((B, sizes[-1]))
        saved = [a.copy() for a in [x, dout] + params]

        y, cache = nn.mlp_forward(params, x)
        grads, dx = nn.mlp_backward(params, cache, dout)
        y_ref, inputs_ref = reference_forward(params, x)
        grads_ref, dx_ref = reference_backward(params, inputs_ref, dout)

        assert np.array_equal(y, y_ref)
        assert all(np.array_equal(a, b) for a, b in zip(cache, inputs_ref))
        assert all(np.array_equal(a, b) for a, b in zip(grads, grads_ref))
        assert np.array_equal(dx, dx_ref)
        assert all(np.array_equal(a, b) for a, b in zip([x, dout] + params, saved))


class TestGramSchmidt:
    def test_output_orthonormal(self):
        M = RandomStream(0).normal((1, 4, 4))
        Q, _ = nn.gram_schmidt_forward(M)
        assert np.linalg.norm(Q[0].T @ Q[0] - np.eye(4)) <= 1e-10

    def test_orthogonal_input_fixed(self):
        th = 0.4
        Q0 = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        Q, _ = nn.gram_schmidt_forward(Q0[None])
        assert np.allclose(Q[0], Q0, atol=1e-12)

    def test_left_equivariance(self):
        # GS(U M) = U GS(M) for orthogonal U acting on the left
        stream = RandomStream(5)
        M = stream.normal((1, 3, 3))
        U, _ = nn.gram_schmidt_forward(stream.split(1).normal((1, 3, 3)))
        left, _ = nn.gram_schmidt_forward(U @ M)
        right, _ = nn.gram_schmidt_forward(M)
        assert np.linalg.norm(left - U @ right) <= 1e-10

    def test_batch_matches_loop(self):
        Ms = RandomStream(6).normal((4, 3, 3))
        Qs, _ = nn.gram_schmidt_forward(Ms)
        for i in range(4):
            Qi, _ = nn.gram_schmidt_forward(Ms[i:i + 1])
            assert np.allclose(Qs[i], Qi[0])

    def test_unbatched_input_rejected(self):
        for M in (np.eye(3), np.zeros((2, 3, 2))):
            with pytest.raises(ValueError):
                nn.gram_schmidt_forward(M)
        # a stacked input is a forward only, and the backward rejects it
        _, cache = nn.gram_schmidt_forward(RandomStream(1).normal((2, 2, 3, 3)))
        for dQ in (np.zeros((2, 2, 3, 3)), np.zeros((2, 3, 3))):
            with pytest.raises(ValueError, match="stack"):
                nn.gram_schmidt_backward(cache, dQ)

    def test_stacked_forward_equals_rowwise(self):
        M = RandomStream(2).normal((4, 5, 3, 3))
        Q, _ = nn.gram_schmidt_forward(M)
        for i in range(4):
            assert np.array_equal(Q[i], nn.gram_schmidt_forward(M[i])[0])

    def test_gradients_match_finite_differences(self):
        result = check_gram_schmidt_gradients()
        assert result.passed, result.line()

    def test_batched_gradients_match_finite_differences(self):
        stream = RandomStream(7)
        Ms = stream.normal((2, 3, 3))
        W = stream.split(1).normal((2, 3, 3))

        def objective(params):
            Q, _ = nn.gram_schmidt_forward(params[0])
            return (W * Q).sum(axis=(-3, -2, -1))

        _, cache = nn.gram_schmidt_forward(Ms)
        dM = nn.gram_schmidt_backward(cache, W)
        fd = finite_difference_grads(objective, [Ms])
        assert np.max(np.abs(dM - fd[0])) <= 1e-6


class TestNorm:
    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e200, 1e-200])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_numpy_bit_for_bit(self, d):
        # 3 x 3 and 4 x 4 matrices go to np.linalg.norm itself, vectors and
        # smaller matrices sum left to right; special entries replace about
        # 1 in 10
        stream = RandomStream(40 + d)
        X = stream.normal((3, 500, d, d)) * np.exp(stream.split(1).uniform((3, 500, d, d)) * 60 - 30)
        special = stream.split(2).uniform(X.shape) < 0.1
        X[special] = self.SPECIAL[stream.split(3).integers(0, len(self.SPECIAL), special.sum())]
        with np.errstate(all="ignore"):
            for axes, axis in ((2, (-2, -1)), (1, -1)):
                got, ref = nn.norm(X, axes), np.linalg.norm(X, axis=axis)
                assert got.shape == ref.shape
                assert np.array_equal(got, ref, equal_nan=True)
                assert np.array_equal(nn.norm(X[0, :7], axes), np.linalg.norm(X[0, :7], axis=axis),
                                      equal_nan=True)


class TestCondWithin:
    # every case must equal the SVD decision np.linalg.cond(M) <= cap exactly

    @staticmethod
    def assert_matches_svd(M, cap):
        np.testing.assert_array_equal(nn.cond_within(M, cap), np.linalg.cond(M) <= cap)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("cap", [1e4, 1e10])
    def test_random_stacks(self, d, cap):
        M = RandomStream(d).normal((20000, d, d))
        self.assert_matches_svd(M, cap)
        self.assert_matches_svd(M[0], cap)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("cap", [1e4, 1e10])
    def test_conditioned_at_the_cap(self, d, cap):
        conds = cap * np.repeat([1 - 1e-6, 1 + 1e-6], 2000)
        M = with_conds(d, conds, RandomStream(int(np.log10(cap)) + d))
        ok = nn.cond_within(M, cap)
        self.assert_matches_svd(M, cap)
        assert ok[:2000].mean() > 0.5 and ok[2000:].mean() < 0.5  # both sides occur

    def test_singular_and_nan_rows(self):
        M = RandomStream(5).normal((6, 3, 3))
        M[1] = 0.0
        M[2, :, 2] = M[2, :, 0] - 2 * M[2, :, 1]
        M[3, 1] = M[3, 0]
        for cap in (1e4, 1e10, 1e300):
            self.assert_matches_svd(M, cap)
        assert not nn.cond_within(M[1], 1e300)  # cond of the zero matrix is inf
        M[4, 0, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cond(M)
        with pytest.raises(np.linalg.LinAlgError):
            nn.cond_within(M, 1e4)

    def test_one_by_one_and_infinite_rows(self):
        M = RandomStream(6).normal((6, 1, 1))
        M[1], M[2], M[3] = 0.0, np.inf, -np.inf
        for cap in (1.0, 1e4):
            self.assert_matches_svd(M, cap)
        M = RandomStream(7).normal((6, 3, 3))
        M[1, 0, 2], M[2, 1], M[3] = np.inf, -np.inf, np.inf
        for cap in (1e4, 1e300):
            self.assert_matches_svd(M, cap)
        assert not nn.cond_within(M[1:4], 1e300).any()

    @pytest.mark.parametrize("d", [2, 3])
    def test_strict_cap_of_general_linear_sampling(self, d):
        # GL(d) keeps cond < 1e3 as cond <= nextafter(1e3, 0)
        conds = 1e3 * np.repeat([1 - 1e-6, 1 + 1e-6], 2000)
        M = with_conds(d, conds, RandomStream(30 + d))
        ok = nn.cond_within(M, np.nextafter(1e3, 0))
        np.testing.assert_array_equal(ok, np.linalg.cond(M) < 1e3)
        assert ok[:2000].mean() > 0.5 and ok[2000:].mean() < 0.5  # both sides occur

    @pytest.mark.parametrize("d", [2, 3])
    def test_closed_form_det_moves_no_decision(self, d):
        # the cofactor det differs from LAPACK's in the last bits, inside
        # the slack that cond_within leaves for it
        M = with_conds(d, 1e4 * np.repeat([1 - 1e-6, 1 + 1e-6], 2000), RandomStream(40 + d))
        N = M / np.abs(M).max(axis=(1, 2), keepdims=True)
        closed, lapack = nn.det(N), np.linalg.det(N)
        assert np.any(closed != lapack)
        assert np.all(np.abs(closed - lapack) <= 1e-9 * np.abs(lapack))
        for cap in (1e4, 1e10):
            self.assert_matches_svd(M, cap)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), log_cap=st.floats(0, 12),
           log_scale=st.floats(-150, 150), rel=st.floats(-1e-5, 1e-5),
           seed=st.integers(0, 2**31))
    def test_matches_svd_over_dimension_cap_and_scale(self, d, log_cap, log_scale,
                                                       rel, seed):
        cap = 10.0**log_cap
        stream = RandomStream(seed)
        M = stream.split(0).normal((64, d, d))
        if d > 1:
            near = with_conds(d, cap * (1 + rel * np.linspace(-1, 1, 64)), stream.split(1))
            M = np.concatenate([M, near])
        self.assert_matches_svd(M * 10.0**log_scale, cap)


class TestAdam:
    def test_quadratic_converges(self):
        target = np.array([1.0, -2.0, 0.5])
        params, state = nn.adam_init([np.zeros(3)])
        for _ in range(3000):
            nn.adam_step([2 * (params[0] - target)], state, lr=0.01)
        assert np.max(np.abs(params[0] - target)) < 1e-3

    def test_first_step_bias_correction(self):
        # with bias correction the very first step has magnitude ~ lr
        params, state = nn.adam_init([np.array([0.0])])
        nn.adam_step([np.array([100.0])], state, lr=0.1)
        assert np.isclose(params[0][0], -0.1, rtol=1e-5)
        assert state.t == 1

    def test_rejects_nonfinite_gradient(self):
        params, state = nn.adam_init([np.zeros(2)])
        with pytest.raises(nn.GradientError):
            nn.adam_step([np.array([np.nan, 0.0])], state, lr=0.1)

    def test_init_copies_params_into_views_of_one_buffer(self):
        params = [np.arange(6.0).reshape(2, 3), np.array(6.0), np.arange(7.0, 9.0)]
        views, state = nn.adam_init(params)
        assert state.params.shape == (9,) and np.array_equal(state.params, np.arange(9.0))
        assert [v.shape for v in views] == [(2, 3), (), (2,)]
        assert all(v.base is state.params for v in views)
        assert not any(np.shares_memory(v, p) for v, p in zip(views, params))
        assert state.m.shape == state.v.shape == (9,) and state.t == 0

    def test_updates_in_place(self):
        # the views, the buffer and the moments keep their identity; the
        # gradients are only read
        views, state = nn.adam_init([np.ones((2, 3)), np.full(4, 2.0)])
        buf, m, v = state.params, state.m, state.v
        grads = [np.full((2, 3), 0.5), np.arange(4.0)]
        for step in range(1, 4):
            assert nn.adam_step(grads, state, lr=0.1) is None
            assert state.params is buf and state.m is m and state.v is v
            assert state.t == step
        assert np.array_equal(grads[0], np.full((2, 3), 0.5))
        assert np.array_equal(grads[1], np.arange(4.0))
        assert np.all(views[0] < 1) and np.count_nonzero(state.m) == 9
        assert views[1][0] == 2.0 and np.all(views[1][1:] < 2.0)  # zero gradient, no step

    def test_nonfinite_gradient_changes_nothing(self):
        params, state = nn.adam_init([np.ones(2), np.ones(3)])
        nn.adam_step([np.ones(2), np.ones(3)], state, lr=0.1)
        before = [state.params.copy(), state.m.copy(), state.v.copy()]
        with pytest.raises(nn.GradientError):
            nn.adam_step([np.ones(2), np.array([1.0, np.inf, 1.0])], state, lr=0.1)
        after = [state.params, state.m, state.v]
        assert state.t == 1 and all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_matches_per_array_reference_bitwise(self):
        # the textbook per-array update (Kingma & Ba, arXiv 1412.6980, with
        # bias correction), written out here as the reference
        def reference_step(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
            out = []
            for i, (p, g) in enumerate(zip(params, grads)):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                mhat = m[i] / (1 - b1**t)
                vhat = v[i] / (1 - b2**t)
                out.append(p - lr * mhat / (np.sqrt(vhat) + eps))
            return out

        stream = RandomStream(11)
        shapes = [(3, 4), (4,), (2, 3, 2), (), (1,), (5, 1)]
        params = [stream.split(i).normal(shape) for i, shape in enumerate(shapes)]
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        params, state = nn.adam_init(params)
        for step in range(1, 26):
            grads = [stream.split(100 + step).split(i).normal(shape) * 10.0**(i - 3)
                     for i, shape in enumerate(shapes)]
            nn.adam_step(grads, state, lr=1e-3)
            ref = reference_step(ref, grads, m, v, step, lr=1e-3)
            assert state.t == step
            assert [p.shape for p in params] == shapes
            assert b"".join(p.tobytes() for p in params) == b"".join(r.tobytes() for r in ref)
            assert state.m.tobytes() == b"".join(a.tobytes() for a in m)
            assert state.v.tobytes() == b"".join(a.tobytes() for a in v)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        arrays = [RandomStream(0).normal((3, 4)), np.array([1e-300, 1e300, -0.0]),
                  np.zeros(0)]
        path = str(tmp_path / "params.txt")
        nn.save_params(path, arrays)
        loaded = nn.load_params(path)
        assert len(loaded) == 3
        for a, b in zip(arrays, loaded):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            nn.load_params(str(path))

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        nn.save_params(str(path), [np.ones((2, 2)), np.zeros(3)])
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:4]))  # header, count, then the first array only
        with pytest.raises(ValueError):
            nn.load_params(str(path))

    def test_value_count_not_matching_the_shape_names_the_array(self, tmp_path):
        path = tmp_path / "params.txt"
        nn.save_params(str(path), [np.zeros(3), np.ones((2, 2))])
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = "1 1 1\n"  # array 1's values, three for shape (2, 2)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"^malformed checkpoint: array 1 has 3 values "
                                             r"but shape \(2, 2\)$"):
            nn.load_params(str(path))

    def test_non_numeric_value_names_the_array(self, tmp_path):
        path = tmp_path / "params.txt"
        nn.save_params(str(path), [np.zeros(3), np.ones((2, 2))])
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = "1 abc 1 1\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="^malformed checkpoint: array 1: could not convert "
                                             "string to float: 'abc'$"):
            nn.load_params(str(path))

    @pytest.mark.parametrize("count", ["two", "-1", "1.5", ""])
    def test_count_line_not_an_integer_rejected(self, tmp_path, count):
        path = tmp_path / "params.txt"
        nn.save_params(str(path), [np.zeros(3)])
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = count + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^malformed checkpoint: array count '{count}' "
                                             "is not an integer$"):
            nn.load_params(str(path))

    def test_shape_line_not_integers_names_the_array(self, tmp_path):
        path = tmp_path / "params.txt"
        nn.save_params(str(path), [np.zeros(3), np.ones((2, 2))])
        lines = path.read_text().splitlines(keepends=True)
        lines[4] = "shape 2 two\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="^malformed checkpoint: bad shape line of array 1$"):
            nn.load_params(str(path))

    def test_trailing_data_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        nn.save_params(str(path), [np.ones((2, 2)), np.zeros(3)])
        with open(path, "a") as fh:
            fh.write("shape 1\n5\n")
        with pytest.raises(ValueError):
            nn.load_params(str(path))
