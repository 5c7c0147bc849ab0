import math

import numpy as np
import pytest

from adgnn import autodiff as ad
from adgnn.autodiff import (
    Tape,
    adam_step,
    backward,
    binary_cross_entropy,
    init_optimizer,
    softmax_cross_entropy,
    tensor,
)
from adgnn.graph import aggregation_operator, build_graph, degrees
from gradcheck import REL_TOL, check_gradients, weighted_mean


KINDS = ("mean_self", "mean_nbr", "symnorm")


def rand_tensor(rng, rows, cols, shift=0.0):
    return tensor(rng.standard_normal((rows, cols)) + shift, requires_grad=True)


def ones_like(t):
    return tensor(np.ones(t.shape))


def aggregate(g, h, kind, rows=None):
    """spmm by the operator of one kind that the graph hands out."""
    return ad.spmm(*aggregation_operator(g, kind, rows), h)


class TestForwardValues:
    def test_relu(self):
        out = ad.relu(tensor([[-1.0, 2.0]]))
        assert np.array_equal(out.values, [[0.0, 2.0]])

    def test_relu_values_match_the_branch_bit_for_bit(self):
        tiny = np.nextafter(0.0, 1.0)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                            tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
                            1.0, -1.0, np.finfo(float).max, -np.finfo(float).max])
        rng = np.random.default_rng(0)
        x = np.concatenate([special, rng.standard_normal(64)]).reshape(-1, 4)
        expected = np.where(x > 0, x, 0.0)
        assert ad.relu_values(x).tobytes() == expected.tobytes()
        assert ad.relu(tensor(x)).values.tobytes() == expected.tobytes()

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        out = ad.matmul(tensor(np.eye(4)), tensor(x))
        assert np.array_equal(out.values, x)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            ad.matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 3))))
        with pytest.raises(ValueError):
            ad.add(tensor(np.ones((2, 3))), tensor(np.ones((3, 2))))

    def test_scalar_broadcast(self):
        # nothing broadcasts, not even a (1, 1) operand
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.add(tensor(np.ones((2, 3))), tensor([[2.0]]))


class TestTape:
    def test_linear_closed_form(self):
        # loss = mean(W @ x): dloss/dW[i,j] = x[j]/rows
        rng = np.random.default_rng(1)
        w = rand_tensor(rng, 3, 4)
        x = tensor(rng.standard_normal((4, 1)))
        with Tape() as tape:
            out = ad.matmul(w, x)
            loss = weighted_mean(out, ones_like(out))
        grads = backward(tape, loss)
        expected = np.tile(x.values.T, (3, 1)) / 3.0
        np.testing.assert_allclose(grads[w], expected, rtol=1e-12)

    def test_masked_path_gets_exact_zero(self):
        # in both update forms the taken rows of h get exact zeros, and
        # so do the untaken rows of an update that holds every row
        rng = np.random.default_rng(2)
        cond = np.array([True, True, False, True, False])
        for update_rows in (5, 3):
            h = rand_tensor(rng, 5, 2)
            update = rand_tensor(rng, update_rows, 2)
            with Tape() as tape:
                loss = weighted_mean(ad.merge_rows(h, cond, update), ones_like(h))
            grads = backward(tape, loss)
            assert np.all(grads[h][cond] == 0.0)
            if update_rows == 5:
                assert np.all(grads[update][~cond] == 0.0)

    def test_gather_gradient_matches_add_at(self):
        # repeated indices sum their gradient rows in index order, bit for
        # bit as an unbuffered np.add.at does
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rand_tensor(rng, 7, 3)
            idx = rng.integers(0, 7, size=25)
            scale = 10.0 ** rng.integers(-8, 8, (25, 1))
            w = tensor(rng.standard_normal((25, 3)) * scale)
            with Tape() as tape:
                loss = weighted_mean(ad.row_gather(a, idx), w)
            g = (1.0 / w.values.size) * w.values
            got = backward(tape, loss)[a]
            expected = np.zeros((7, 3))
            np.add.at(expected, idx, g)
            np.testing.assert_array_equal(got, expected)
            per_column = np.stack(
                [np.bincount(idx, weights=g[:, j], minlength=7) for j in range(3)], axis=1)
            assert got.tobytes() == per_column.tobytes()

    def test_backward_requires_recording(self):
        t = Tape()
        with pytest.raises(RuntimeError):
            backward(t, tensor([[1.0]]))

    def test_tape_consumed(self):
        x = tensor([[1.0]], requires_grad=True)
        with Tape() as tape:
            loss = weighted_mean(ad.relu(x), ones_like(x))
        backward(tape, loss)
        with pytest.raises(RuntimeError):
            backward(tape, loss)

    def test_loss_must_be_recorded_scalar(self):
        x = tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            out = ad.relu(x)
        with pytest.raises(ValueError):
            backward(tape, out)
        with Tape() as tape:
            _ = weighted_mean(ad.relu(x), ones_like(x))
            off_tape = tensor([[0.0]])
        with pytest.raises(RuntimeError):
            backward(tape, off_tape)

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError):
                with Tape():
                    pass

    def test_leaf_gradients_returned(self):
        x = tensor([[2.0]], requires_grad=True)
        with Tape() as tape:
            loss = weighted_mean(ad.relu(x), x)
        leaves = backward(tape, loss)
        assert set(leaves) == {x}  # not the relu output the tape produced
        assert leaves[x] == pytest.approx(4.0)

    def test_fresh_tapes_give_equal_gradients(self):
        # gradients live inside one backward call: a second tape over the
        # same leaves starts from zero instead of adding to the first
        x = tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        w = tensor([[0.5, -1.0], [2.0, 0.25]], requires_grad=True)
        runs = []
        for _ in range(3):
            with Tape() as tape:
                loss = weighted_mean(x, w)
            runs.append(backward(tape, loss))
        for grads in runs[1:]:
            assert set(grads) == {x, w}
            np.testing.assert_array_equal(grads[x], runs[0][x])
            np.testing.assert_array_equal(grads[w], runs[0][w])
        np.testing.assert_array_equal(runs[0][x], w.values / 4.0)


class TestGradChecks:
    N_INSTANCES = 20

    def run_many(self, make_case, seed):
        rng = np.random.default_rng(seed)
        for _ in range(self.N_INSTANCES):
            build, leaves = make_case(rng)
            assert check_gradients(build, leaves) < REL_TOL

    def test_matmul(self):
        def case(rng):
            a, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 4, 2)
            w = tensor(rng.standard_normal((3, 2)))
            return (lambda: weighted_mean(ad.matmul(a, b), w)), [a, b]

        self.run_many(case, 10)

    def test_binary_elementwise(self):
        def case(rng):
            a, b = rand_tensor(rng, 3, 3), rand_tensor(rng, 3, 3)
            w = tensor(rng.standard_normal((3, 3)))
            return (lambda: weighted_mean(ad.add(a, b), w)), [a, b]

        self.run_many(case, 11)

    def test_unary(self):
        def case(rng):
            a = rand_tensor(rng, 3, 4, shift=2.5)  # keep relu away from kink
            w = tensor(rng.standard_normal((3, 4)))
            return (lambda: weighted_mean(ad.relu(a), w)), [a]

        self.run_many(case, 14)

    def test_row_gather(self):
        def case(rng):
            a = rand_tensor(rng, 5, 4)
            idx = rng.integers(0, 5, size=7)  # repeats sum their rows
            w = tensor(rng.standard_normal((7, 4)))
            return (lambda: weighted_mean(ad.row_gather(a, idx), w)), [a]

        self.run_many(case, 17)

    @pytest.mark.parametrize("form", ["every_row", "active_rows"])
    def test_merge_rows(self, form):
        # the update holds every row, or the active rows alone
        def case(rng):
            h = rand_tensor(rng, 6, 3)
            cond = rng.integers(0, 2, size=6).astype(bool)
            update = rand_tensor(rng, 6 if form == "every_row" else int(cond.sum()), 3)
            w = tensor(rng.standard_normal((6, 3)))
            return (lambda: weighted_mean(ad.merge_rows(h, cond, update), w)), [h, update]

        self.run_many(case, 20 if form == "every_row" else 26)

    def test_dropout(self):
        def case(rng):
            a = rand_tensor(rng, 5, 4)
            seed = int(rng.integers(1 << 30))
            w = tensor(rng.standard_normal((5, 4)))

            def build():
                # fixed mask per case: same seed on every evaluation
                local = np.random.default_rng(seed)
                return weighted_mean(ad.dropout(a, 0.4, local), w)

            return build, [a]

        self.run_many(case, 21)

    def test_losses(self):
        def case(rng):
            logits = rand_tensor(rng, 6, 3)
            labels = rng.integers(0, 3, size=6)
            mask = rng.integers(0, 2, size=6).astype(bool)
            mask[int(rng.integers(6))] = True
            return (lambda: softmax_cross_entropy(logits, labels, mask)), [logits]

        self.run_many(case, 22)

        def bce_case(rng):
            p = tensor(rng.uniform(0.05, 0.95, (7, 1)), requires_grad=True)
            t = rng.integers(0, 2, size=7).astype(float)
            return (lambda: binary_cross_entropy(p, t)), [p]

        self.run_many(bce_case, 23)

    def test_spmm_all_kinds(self):
        def case(rng):
            n = 6
            g = build_graph(rng.integers(0, n, size=(10, 2)), n)
            h = rand_tensor(rng, n, 3)
            kind = KINDS[int(rng.integers(3))]
            w = tensor(rng.standard_normal((n, 3)))
            return (lambda: weighted_mean(aggregate(g, h, kind), w)), [h]

        self.run_many(case, 24)

    def test_spmm_row_slice(self):
        def case(rng):
            n = 7
            g = build_graph(rng.integers(0, n, size=(12, 2)), n)
            h = rand_tensor(rng, n, 3)
            rows = np.flatnonzero(rng.integers(0, 2, size=n))
            kind = KINDS[int(rng.integers(3))]
            w = tensor(rng.standard_normal((rows.size, 3)))
            return (lambda: weighted_mean(aggregate(g, h, kind, rows), w)), [h]

        self.run_many(case, 27)

    def test_gcn_layer_composite(self):
        # full layer: relu(spmm(H) @ W) on random 10x8 instances; redraw when
        # a pre-activation sits inside the finite-difference straddle of the
        # relu kink
        def case(rng):
            while True:
                n = 10
                g = build_graph(rng.integers(0, n, size=(18, 2)), n)
                h = rand_tensor(rng, n, 8)
                w_mat = rand_tensor(rng, 8, 4)
                pre = ad.matmul(aggregate(g, h, "symnorm"), w_mat)
                if np.abs(pre.values).min() > 1e-3:
                    break
            wt = tensor(rng.standard_normal((n, 4)))
            return (
                lambda: weighted_mean(
                    ad.relu(ad.matmul(aggregate(g, h, "symnorm"), w_mat)), wt
                )
            ), [h, w_mat]

        self.run_many(case, 25)


class TestSpmmSemantics:
    def test_path_mean_self(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        h = tensor([[2.0], [4.0], [6.0]])
        out = aggregate(g, h, "mean_self")
        assert out.values[1, 0] == pytest.approx(4.0)
        assert out.values[0, 0] == pytest.approx(3.0)

    def test_constant_fixed_point(self):
        rng = np.random.default_rng(3)
        g = build_graph(rng.integers(0, 8, size=(14, 2)), 8)
        h = tensor(np.full((8, 3), 1.7))
        np.testing.assert_allclose(aggregate(g, h, "mean_self").values, h.values)

    def test_edgeless_is_identity(self):
        rng = np.random.default_rng(4)
        g = build_graph([], 6)
        h = tensor(rng.standard_normal((6, 4)))
        np.testing.assert_array_equal(aggregate(g, h, "mean_self").values, h.values)

    def test_symnorm_pair(self):
        g = build_graph([(0, 1)], 2)
        h = tensor([[4.0], [8.0]])
        out = aggregate(g, h, "symnorm")
        np.testing.assert_allclose(out.values, [[6.0], [6.0]])

    def test_symnorm_isolated_identity(self):
        g = build_graph([], 1)
        h = tensor([[3.0, -1.0]])
        np.testing.assert_array_equal(aggregate(g, h, "symnorm").values, h.values)

    def test_mean_nbr_isolated_zero(self):
        g = build_graph([(0, 1)], 3)
        h = tensor(np.ones((3, 2)))
        out = aggregate(g, h, "mean_nbr")
        assert np.all(out.values[2] == 0.0)

    def test_permutation_symmetry_symnorm(self):
        rng = np.random.default_rng(6)
        n = 7
        g = build_graph(rng.integers(0, n, size=(12, 2)), n)
        h = rng.standard_normal((n, 3))
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        g_perm = build_graph([(perm[u], perm[v]) for u, v in g.edges()], n)
        out = aggregate(g, tensor(h), "symnorm").values
        out_perm = aggregate(g_perm, tensor(h[inv]), "symnorm").values
        np.testing.assert_allclose(out_perm[perm], out, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_backward_matches_materialized_transpose(self, kind):
        # the backward multiplies by the cached CSR transpose of the
        # operator; the CSC transpose view gives the same sums bit for bit
        rng = np.random.default_rng(8)
        n = 40
        g = build_graph(rng.integers(0, 30, size=(60, 2)), n)
        assert np.any(degrees(g) == 0)
        op, op_t = aggregation_operator(g, kind)
        h = rand_tensor(rng, n, 5)
        w = tensor(rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-6, 6, (n, 1)))
        with Tape() as tape:
            loss = weighted_mean(ad.spmm(op, op_t, h), w)
        g_out = (1.0 / w.values.size) * w.values
        got = backward(tape, loss)[h]
        np.testing.assert_array_equal(got, op.T @ g_out)
        np.testing.assert_array_equal(got, op.T.tocsr() @ g_out)

    def test_operator_columns_must_match_feature_rows(self):
        op, op_t = aggregation_operator(build_graph([(0, 1)], 3), "symnorm")
        with pytest.raises(ValueError, match="columns"):
            ad.spmm(op, op_t, tensor(np.ones((2, 2))))


class TestRowSlices:
    @pytest.mark.parametrize("kind", KINDS)
    def test_spmm_rows_match_the_full_operator(self, kind):
        # a row slice computes its rows and their backward bit for bit as
        # the full operator does with zero gradient in the other rows:
        # scipy multiplies by a CSR matrix and by its CSC transpose in its
        # own loops, not BLAS, adding each output row's stored entries in
        # order, and a slice keeps that order.  Row counts are powers of
        # two, so the loss scales 1 / size are exact
        rng = np.random.default_rng(9)
        n = 32
        g = build_graph(rng.integers(0, 24, size=(60, 2)), n)
        for rows in (np.sort(rng.choice(n, 8, replace=False)), np.arange(n),
                     np.array([5])):
            h = rand_tensor(rng, n, 4)
            w = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-6, 6, (n, 1))
            full_w = np.zeros((n, 4))
            full_w[rows] = w[rows] * (n // rows.size)
            with Tape() as tape:
                out = aggregate(g, h, kind, rows)
                loss = weighted_mean(out, tensor(w[rows]))
            sliced = backward(tape, loss)[h]
            with Tape() as tape:
                full = aggregate(g, h, kind)
                loss = weighted_mean(full, tensor(full_w))
            np.testing.assert_array_equal(out.values, full.values[rows])
            np.testing.assert_array_equal(sliced, backward(tape, loss)[h])

    def test_one_row_matmul_runs_as_a_row_of_gemm(self):
        # numpy hands a one-row product to gemv; matmul doubles the row so
        # that it takes gemm as larger row sets do, forward and in the
        # backward's g @ W.T.  BLAS does not promise that a row of gemm
        # rounds alike at every row count, so against the rows of the full
        # product the values need only be close.  Sizes are powers of two,
        # so the loss passes g back exactly
        rng = np.random.default_rng(11)
        for width in (4, 16):
            a = rand_tensor(rng, 300, width)
            b = rand_tensor(rng, width, width)
            g = rng.standard_normal((300, width))
            for rows in ([7], [3, 250]):
                part = tensor(a.values[rows], requires_grad=True)
                size = len(rows) * width
                with Tape() as tape:
                    out = ad.matmul(part, b)
                    loss = weighted_mean(out, tensor(g[rows] * size))
                grad = backward(tape, loss)[part]
                if len(rows) == 1:
                    twice = np.vstack([part.values, part.values])
                    np.testing.assert_array_equal(out.values, (twice @ b.values)[:1])
                    twice = np.vstack([g[rows], g[rows]])
                    np.testing.assert_array_equal(grad, (twice @ b.values.T)[:1])
                np.testing.assert_allclose(out.values, (a.values @ b.values)[rows],
                                           rtol=1e-13, atol=1e-13)
                np.testing.assert_allclose(grad, (g @ b.values.T)[rows],
                                           rtol=1e-13, atol=1e-13)

    def test_slice_reused_while_rows_repeat(self):
        rng = np.random.default_rng(10)
        g = build_graph(rng.integers(0, 12, size=(30, 2)), 12)
        h = tensor(rng.standard_normal((12, 2)))
        first, first_t = aggregation_operator(g, "symnorm", np.array([1, 4, 7]))
        assert aggregation_operator(g, "symnorm", np.array([1, 4, 7]))[0] is first
        assert first_t.format == "csc"
        np.testing.assert_array_equal(first_t.toarray(), first.toarray().T)
        other, _ = aggregation_operator(g, "symnorm", np.array([1, 4]))
        assert other is not first and other.shape == (2, 12)
        np.testing.assert_array_equal(aggregate(g, h, "symnorm", np.array([1, 4])).values,
                                      aggregate(g, h, "symnorm").values[[1, 4]])

    def test_merge_rows_values_and_validation(self):
        h = tensor(np.arange(8.0).reshape(4, 2))
        active = np.array([False, True, False, True])
        update = tensor([[-1.0, -2.0], [-3.0, -4.0]])
        expected = [[0, 1], [-1, -2], [4, 5], [-3, -4]]
        np.testing.assert_array_equal(ad.merge_rows(h, active, update).values, expected)
        every = tensor([[9.0, 9.0], [-1.0, -2.0], [9.0, 9.0], [-3.0, -4.0]])
        np.testing.assert_array_equal(ad.merge_rows(h, active, every).values, expected)
        np.testing.assert_array_equal(h.values, np.arange(8.0).reshape(4, 2))
        for flags, rows in ((active, tensor(np.zeros((3, 2)))),
                            (active, tensor(np.zeros((2, 3)))),
                            (active[:3], update)):
            with pytest.raises(ValueError):
                ad.merge_rows(h, flags, rows)

    def test_bad_rows_rejected(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        for rows in (np.array([0, 3]), np.array([-1]), np.array([[0, 1]])):
            with pytest.raises(ValueError):
                aggregation_operator(g, "symnorm", rows)


class TestLossValues:
    def test_uniform_logits(self):
        for c in (2, 5, 9):
            logits = tensor(np.zeros((4, c)))
            loss = softmax_cross_entropy(logits, np.zeros(4, dtype=int), np.ones(4, bool))
            assert loss.item() == pytest.approx(math.log(c))

    def test_half_probability(self):
        p = tensor(np.full((6, 1), 0.5))
        t = np.array([0, 1, 0, 1, 1, 0], dtype=float)
        assert binary_cross_entropy(p, t).item() == pytest.approx(math.log(2))

    def test_perfect_predictions_clamped(self):
        logits = tensor(np.eye(3) * 50.0)
        loss = softmax_cross_entropy(logits, np.arange(3), np.ones(3, bool))
        assert loss.item() < 1e-6
        p = tensor(np.array([[1.0], [0.0]]))
        assert binary_cross_entropy(p, np.array([1.0, 0.0])).item() < 1e-6

    def test_empty_mask_rejected(self):
        logits = tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.zeros(3, int), np.zeros(3, bool))
        with pytest.raises(ValueError):
            binary_cross_entropy(tensor(np.zeros((0, 1))), np.zeros(0))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": tensor(np.ones((2, 2)), requires_grad=True)}
        state = init_optimizer(params, lr=0.1)
        adam_step(params, {"w": np.zeros((2, 2))}, state)
        np.testing.assert_array_equal(params["w"].values, np.ones((2, 2)))

    def test_first_step_magnitude(self):
        for g0 in (3.0, -0.02, 150.0):
            params = {"w": tensor(np.zeros((1, 1)), requires_grad=True)}
            state = init_optimizer(params, lr=0.05)
            adam_step(params, {"w": np.array([[g0]])}, state)
            assert abs(params["w"].values[0, 0]) == pytest.approx(0.05, rel=1e-3)
            assert np.sign(params["w"].values[0, 0]) == -np.sign(g0)

    def test_identical_runs(self):
        def run():
            rng = np.random.default_rng(7)
            params = {"w": tensor(rng.standard_normal((3, 3)), requires_grad=True)}
            state = init_optimizer(params, lr=0.01)
            trace = []
            for _ in range(20):
                g = rng.standard_normal((3, 3))
                adam_step(params, {"w": g}, state)
                trace.append(params["w"].values.copy())
            return np.stack(trace)

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        params = {"w": tensor(np.ones((2, 2)), requires_grad=True)}
        state = init_optimizer(params)
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.ones((3, 1))}, state)


class TestDeterminism:
    def test_fixed_seed_bit_identical_losses(self):
        def train_curve():
            rng = np.random.default_rng(99)
            n = 12
            g = build_graph(rng.integers(0, n, size=(20, 2)), n)
            x = tensor(rng.standard_normal((n, 5)))
            y = rng.integers(0, 2, size=n)
            mask = np.ones(n, dtype=bool)
            params = {
                "w1": tensor(rng.standard_normal((5, 8)) * 0.3, requires_grad=True),
                "w2": tensor(rng.standard_normal((8, 2)) * 0.3, requires_grad=True),
            }
            state = init_optimizer(params, lr=0.02)
            losses = []
            for _ in range(25):
                with Tape() as tape:
                    h = ad.relu(ad.matmul(aggregate(g, x, "symnorm"), params["w1"]))
                    logits = ad.matmul(aggregate(g, h, "symnorm"), params["w2"])
                    loss = softmax_cross_entropy(logits, y, mask)
                grads = backward(tape, loss)
                adam_step(params, {k: grads[p] for k, p in params.items()}, state)
                losses.append(loss.item())
            return np.asarray(losses)

        a, b = train_curve(), train_curve()
        assert np.array_equal(a, b)
        assert a[-1] < a[0]
