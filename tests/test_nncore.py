import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference, rel_error
from trajlab import nncore
from trajlab.nncore import (Adam, Dense, LSTMCell, NonFiniteError, Parameter,
                            StepEmbedding, Tensor, adam_update, concat, conv2d,
                            load_checkpoint, save_checkpoint, upsample2x)
from trajlab.train import goal_loss


def col2im_reference(cols: np.ndarray, x_shape, kh, kw, stride, pad, ho, wo):
    """Scatter-add input gradient of conv2d, an independent algorithm kept as the oracle."""
    b, c, h, w = x_shape
    cols = cols.reshape(b, c, kh, kw, ho, wo)
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += cols[:, :, i, j]
    return xp[:, :, pad:pad + h, pad:pad + w]


# (stride, pad, size): inputs are (size, size + 1), so both axes and an odd
# stride-2 remainder row or column get covered
CONV_CASES = [(1, 1, 6), (2, 1, 7), (2, 0, 8), (1, 0, 5)]


def check_grad(fn, x0, atol=1e-4):
    """Compare autograd dL/dx against central finite differences at x0."""
    p = Parameter(x0.copy())
    out = fn(p)
    out.backward()
    num = finite_difference(lambda v: fn(Tensor(v)).data.item(), x0)
    assert rel_error(p.grad, num) < atol, f"max rel err {rel_error(p.grad, num)}"


class TestElementwiseGrads:
    def test_add_mul(self, rng):
        x = rng.standard_normal((3, 4))
        check_grad(lambda t: ((t + 2.0) * t).sum(), x)

    def test_pow(self, rng):
        x = rng.standard_normal((5,)) + 3.0
        check_grad(lambda t: (t ** 3).sum(), x)

    def test_div_rsub(self, rng):
        x = rng.standard_normal((4,)) + 5.0
        check_grad(lambda t: (t ** -1.0).sum(), x)
        check_grad(lambda t: (2.0 - t).sum(), x)

    def test_exp_log(self, rng):
        x = rng.standard_normal((6,))
        check_grad(lambda t: t.exp().sum(), x)
        check_grad(lambda t: (t.exp() + 1.0).log().sum(), x)

    def test_tanh_sigmoid_relu(self, rng):
        x = rng.standard_normal((8,))
        check_grad(lambda t: t.tanh().sum(), x)
        check_grad(lambda t: t.sigmoid().sum(), x)
        # keep relu inputs away from the kink
        x = np.where(np.abs(x) < 0.1, 0.5, x)
        check_grad(lambda t: t.relu().sum(), x)

    def test_clip_passthrough_region(self, rng):
        x = rng.uniform(-0.4, 0.4, size=(7,))
        check_grad(lambda t: t.clip(-0.5, 0.5).sum(), x)

    def test_clip_blocks_gradient_outside(self):
        p = Parameter(np.array([2.0, -2.0, 0.0]))
        p.clip(-1.0, 1.0).sum().backward()
        assert np.array_equal(p.grad, np.array([0.0, 0.0, 1.0]))

    def test_mean_getitem_reshape(self, rng):
        x = rng.standard_normal((3, 4))
        check_grad(lambda t: t.mean(), x)
        check_grad(lambda t: t[1:, :2].sum(), x)
        check_grad(lambda t: t.reshape(12).sum(), x)

    def test_getitem_basic_indices_only(self, rng):
        x = rng.standard_normal((3, 4))
        check_grad(lambda t: (t[0, -1] * t[..., None, 1:3]).sum(), x)
        check_grad(lambda t: t[np.int64(2)].sum(), x)
        for idx in ([0, 2], np.array([1]), (slice(None), [1, 1]), x > 0, True):
            with pytest.raises(TypeError, match="advanced index"):
                Tensor(x)[idx]

    def test_broadcast_add(self, rng):
        x = rng.standard_normal((4,))
        y = rng.standard_normal((3, 4))
        check_grad(lambda t: (t + y).sum(), x)


class TestMatmulConcatGrads:
    def test_matmul_left_right(self, rng):
        a0 = rng.standard_normal((3, 4))
        b0 = rng.standard_normal((4, 2))
        check_grad(lambda t: (t @ Tensor(b0)).sum(), a0)
        check_grad(lambda t: (Tensor(a0) @ t).sum(), b0)

    def test_concat(self, rng):
        x = rng.standard_normal((2, 3))
        y = rng.standard_normal((2, 5))
        check_grad(lambda t: (concat([t, Tensor(y)], axis=1) ** 2).sum(), x)
        check_grad(lambda t: (concat([Tensor(x), t], axis=1) ** 2).sum(), y)


class TestConvUpsampleGrads:
    def test_conv2d_forward_identity_kernel(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        assert np.array_equal(out.data, x)

    @pytest.mark.parametrize("stride, pad, size", CONV_CASES)
    def test_conv2d_forward_matches_direct_loops(self, rng, stride, pad, size):
        x = rng.standard_normal((2, 3, size, size + 1))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        ho = (size + 2 * pad - 3) // stride + 1
        wo = (size + 1 + 2 * pad - 3) // stride + 1
        ref = np.empty((2, 4, ho, wo))
        for n in range(2):
            for o in range(4):
                for i in range(ho):
                    for j in range(wo):
                        window = xp[n, :, i * stride:i * stride + 3, j * stride:j * stride + 3]
                        ref[n, o, i, j] = np.sum(window * w[o]) + b[o]
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad)
        assert out.data.shape == ref.shape
        assert np.allclose(out.data, ref, rtol=1e-12, atol=1e-12)

    def test_conv2d_grads(self, rng):
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3)) * 0.3
        b = rng.standard_normal(4)
        check_grad(lambda t: (conv2d(t, Tensor(w), Tensor(b)) ** 2).sum(), x)
        check_grad(lambda t: (conv2d(Tensor(x), t, Tensor(b)) ** 2).sum(), w)
        check_grad(lambda t: (conv2d(Tensor(x), Tensor(w), t) ** 2).sum(), b)

    # square cases keep their (stride, pad, size) ids; a swapped kh/kw offset
    # shows only with a non-square kernel
    @pytest.mark.parametrize("stride, pad, size, kernel", [
        pytest.param(*case, (3, 3), id="-".join(map(str, case)))
        for case in CONV_CASES + [(2, 1, 6)]] + [
        pytest.param(1, 1, 6, (2, 3), id="1-1-6-2x3"),
        pytest.param(1, 1, 6, (3, 2), id="1-1-6-3x2"),
        pytest.param(2, 1, 7, (2, 3), id="2-1-7-2x3"),
        pytest.param(2, 1, 7, (3, 2), id="2-1-7-3x2")])
    def test_conv2d_input_grad(self, rng, stride, pad, size, kernel):
        kh, kw = kernel
        x = rng.standard_normal((2, 3, size, size + 1))
        w = rng.standard_normal((4, 3, kh, kw)) * 0.3
        b = rng.standard_normal(4)
        check_grad(lambda t: (conv2d(t, Tensor(w), Tensor(b), stride, pad) ** 2).sum(), x)
        p = Parameter(x)
        out = conv2d(p, Tensor(w), Tensor(b), stride, pad)
        g = rng.standard_normal(out.shape)
        out.backward(g)
        ho, wo = out.shape[2:]
        dcols = np.matmul(w.reshape(4, -1).T, g.reshape(2, 4, ho * wo))
        ref = col2im_reference(dcols, x.shape, kh, kw, stride, pad, ho, wo)
        assert rel_error(p.grad, ref) < 1e-12

    @pytest.mark.parametrize("kernel, pad", [((3, 3), 3), ((2, 3), 2), ((3, 2), 2)],
                             ids=["3x3-pad3", "2x3-pad2", "3x2-pad2"])
    def test_conv2d_pad_beyond_kernel_rejected(self, rng, kernel, pad):
        w = rng.standard_normal((2, 1) + kernel)
        with pytest.raises(ValueError, match="pad"):
            conv2d(Tensor(rng.standard_normal((1, 1, 5, 5))), Tensor(w), Tensor(np.zeros(2)),
                   pad=pad)

    def test_conv2d_kernel_larger_than_padded_input_rejected(self, rng):
        w = rng.standard_normal((2, 1, 3, 3))
        with pytest.raises(ValueError, match="does not fit"):
            conv2d(Tensor(rng.standard_normal((1, 1, 2, 5))), Tensor(w), Tensor(np.zeros(2)),
                   pad=0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_conv2d_every_stride_matches_direct_sums(self, data):
        # one tap path serves every stride and kernel: forward, input and weight
        # gradients against direct sums over the padded input's windows
        draw = data.draw
        kh, kw, stride = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
        pad = draw(st.integers(0, min(kh, kw) - 1))
        h = draw(st.integers(max(1, kh - 2 * pad), 9))
        wd = draw(st.integers(max(1, kw - 2 * pad), 9))
        bsz, cin, cout = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
        r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        x = r.standard_normal((bsz, cin, h, wd))
        w = r.standard_normal((cout, cin, kh, kw))
        b = r.standard_normal(cout)
        ho, wo = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        ref = np.empty((bsz, cout, ho, wo))
        for i in range(ho):
            for j in range(wo):
                window = xp[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                ref[:, :, i, j] = np.einsum("bcpq,ocpq->bo", window, w) + b
        px, pw = Parameter(x), Parameter(w)
        out = conv2d(px, pw, Tensor(b), stride=stride, pad=pad)
        assert out.shape == ref.shape
        assert np.allclose(out.data, ref, rtol=1e-12, atol=1e-12)
        g = r.standard_normal(ref.shape)
        out.backward(g)
        dcols = np.matmul(w.reshape(cout, -1).T, g.reshape(bsz, cout, ho * wo))
        assert rel_error(px.grad, col2im_reference(dcols, x.shape, kh, kw, stride, pad, ho,
                                                   wo)) < 1e-12
        dw = np.empty(w.shape)
        for i in range(kh):
            for j in range(kw):
                taps = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
                dw[:, :, i, j] = np.einsum("borq,bcrq->oc", g, taps)
        assert rel_error(pw.grad, dw) < 1e-12

    def test_conv2d_retains_less_than_three_inputs(self, rng):
        # the op keeps its output and the padded input's phases, never a patch
        # matrix kh * kw times the input's size
        x = Parameter(rng.standard_normal((8, 12, 24, 24)))
        w = Parameter(rng.standard_normal((8, 12, 3, 3)))
        b = Parameter(np.zeros(8))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, b)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (8, 8, 24, 24)
        assert retained < 3 * x.data.nbytes, retained / x.data.nbytes

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_batch_blocks_change_no_bit(self, rng, monkeypatch, stride):
        # forward and input gradient run over blocks of the batch: one sample a
        # block and the whole batch in one block give the same bits
        x = rng.standard_normal((5, 3, 7, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        g = None
        runs = []
        for block_bytes in (1, 1 << 40):
            monkeypatch.setattr(nncore, "_BLOCK_BYTES", block_bytes)
            px = Parameter(x)
            out = conv2d(px, Tensor(w), Tensor(b), stride, 1)
            g = rng.standard_normal(out.shape) if g is None else g
            out.backward(g)
            runs.append((out.data, px.grad))
        assert all(np.array_equal(a, c) for a, c in zip(*runs))

    @pytest.mark.parametrize("x_leaf, w_leaf", [(Parameter, Parameter), (Tensor, Parameter),
                                                (Parameter, Tensor)])
    def test_conv2d_gradients_follow_each_backward(self, rng, x_leaf, w_leaf):
        # the padded output gradient one gradient builds and the other reuses
        # belongs to one backward: a second backward through the same op with
        # another seed must add exactly its own gradients
        x = rng.standard_normal((2, 3, 5, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        g1, g2 = rng.standard_normal((2, 2, 4, 3, 3))
        grads = []
        for seeds in ([g1], [g2], [g1, g2]):
            px, pw = x_leaf(x), w_leaf(w)
            out = conv2d(px, pw, Tensor(np.zeros(4)), stride=2)
            for g in seeds:
                out.grad = None
                out.backward(g)
            grads.append([t.grad for t in (px, pw) if isinstance(t, Parameter)])
        for one, two, both in zip(*grads):
            assert np.allclose(both, one + two, rtol=1e-13, atol=1e-13)

    def test_conv2d_stride2(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3)) * 0.3
        b = np.zeros(3)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, pad=1)
        assert out.data.shape == (1, 3, 3, 3)
        check_grad(lambda t: (conv2d(t, Tensor(w), Tensor(b), stride=2) ** 2).sum(), x)

    def test_upsample2x(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        out = upsample2x(Tensor(x))
        assert out.data.shape == (2, 3, 8, 8)
        assert np.array_equal(out.data[:, :, ::2, ::2], x)
        check_grad(lambda t: (upsample2x(t) ** 2).sum(), x)


class TestLayers:
    def test_dense_matches_numpy(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.standard_normal((5, 4))
        out = layer(Tensor(x))
        assert np.allclose(out.data, x @ layer.w.data + layer.b.data)

    def test_dense_param_grads(self, rng):
        x = rng.standard_normal((5, 4))

        def loss(wdata):
            layer = Dense(4, 3, np.random.default_rng(0))
            layer.w = Parameter(wdata) if isinstance(wdata, np.ndarray) else wdata
            return (layer(Tensor(x)) ** 2).sum()

        check_grad(loss, np.random.default_rng(0).standard_normal((4, 3)))

    def test_lstm_cell_grads(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = rng.standard_normal((2, 3))
        h0 = rng.standard_normal((2, 4))
        c0 = rng.standard_normal((2, 4))

        def run(xt):
            h, c = cell(xt, Tensor(h0), Tensor(c0))
            return (h ** 2).sum() + (c ** 2).sum()

        check_grad(run, x)

    def test_lstm_two_steps_through_state(self, rng):
        cell = LSTMCell(3, 4, rng)
        x1 = rng.standard_normal((1, 3))
        x2 = rng.standard_normal((1, 3))

        def run(xt):
            h, c = cell(xt, Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))
            h, c = cell(Tensor(x2), h, c)
            return (h ** 2).sum()

        check_grad(run, x1)

    def test_step_embedding_shape_and_range(self):
        emb = StepEmbedding(16)
        v = emb(7)
        assert v.shape == (16,)
        assert np.all(np.abs(v) <= 1.0)

    def test_step_embedding_distinct_steps(self):
        emb = StepEmbedding(32)
        vs = np.stack([emb(k) for k in range(1, 101)])
        d = np.linalg.norm(vs[:, None] - vs[None, :], axis=-1)
        assert np.min(d[~np.eye(100, dtype=bool)]) > 1e-3

    def test_step_embedding_memo_matches_array_path(self):
        # predict_noise reads `step(k)`; forward_t embeds a batch of steps
        emb = StepEmbedding(32)
        batch = emb(np.arange(1.0, 101.0))
        for k in range(1, 101):
            e = emb.step(k)
            assert e.tobytes() == batch[k - 1].tobytes(), k
            assert not e.flags.writeable
            assert emb.step(k) is e
        with pytest.raises(ValueError):
            emb.step(3)[0] = 0.0

    def test_step_embedding_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            StepEmbedding(7)


class TestAdam:
    def test_zero_gradient_no_motion(self):
        p = Parameter(np.array([1.0, -2.0]))
        opt = Adam({"p": p}, lr=0.1)
        opt.zero_grad()
        opt.step()
        assert np.array_equal(p.data, np.array([1.0, -2.0]))

    def test_first_step_magnitude_is_lr(self):
        # constant gradient: bias-corrected first update has magnitude ~lr
        p = Parameter(np.array([0.0]))
        opt = Adam({"p": p}, lr=0.01)
        p.grad[...] = 3.0
        opt.step()
        assert p.data[0] == pytest.approx(-0.01, rel=1e-6)

    def test_descends_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            p.grad[...] = 2.0 * p.data
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_matches_functional_form(self, rng):
        p = Parameter(rng.standard_normal((3,)))
        ref = p.data.copy()
        opt = Adam({"p": p}, lr=0.05)
        m = np.zeros(3)
        v = np.zeros(3)
        for t in range(1, 6):
            g = rng.standard_normal((3,))
            p.grad[...] = g
            opt.step()
            ref, m, v = adam_update(ref, g, m, v, t, 0.05)
            p.grad[...] = 0.0
        assert np.allclose(p.data, ref, atol=1e-15)

    def test_nonfinite_gradient_raises(self):
        p = Parameter(np.array([1.0]))
        opt = Adam({"p": p})
        p.grad[...] = np.nan
        with pytest.raises(NonFiniteError):
            opt.step()


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        arrays = {"a": rng.standard_normal((4, 5)),
                  "nested.weight": rng.standard_normal((2,))}
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.npz", {"__format_version__": np.zeros(1)})

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, __format_version__=np.array(99), a=np.zeros(2))
        with pytest.raises(ValueError):
            load_checkpoint(path)


def test_backward_accumulates_through_shared_node(rng):
    # y = x used twice: dL/dx must sum both paths
    p = Parameter(np.array([2.0]))
    out = (p * p + p).sum()
    out.backward()
    assert p.grad[0] == pytest.approx(2 * 2.0 + 1.0)


def test_repeated_backward_adds_each_gradient_once():
    # a second backward through nodes that an earlier one reached must not
    # propagate that earlier backward's gradients again
    p = Parameter(np.array([2.0]))
    h = p * 3.0
    (h * h).sum().backward()  # d(9 p^2)/dp = 36
    h.sum().backward()  # + 3
    assert p.grad[0] == 39.0
    q = Parameter(np.array([2.0]))
    loss = (q * q).sum()
    loss.backward()
    loss.backward()
    assert q.grad[0] == 8.0


def test_gradients_only_for_inputs_that_need_them(rng, monkeypatch):
    # conv2d's input gradient alone merges phases with `_phase_merge`; a data
    # input must not pay for it, and a data leaf gets no gradient at all
    x = rng.standard_normal((2, 3, 5, 5))
    w = Parameter(rng.standard_normal((4, 3, 3, 3)))
    b = Parameter(np.zeros(4))
    for leaf, merges in ((Tensor, 0), (Parameter, 1)):
        out = (conv2d(leaf(x), w, b) ** 2).sum()
        calls = []
        monkeypatch.setattr(nncore, "_phase_merge",
                            lambda *a, f=nncore._phase_merge: calls.append(1) or f(*a))
        out.backward()
        monkeypatch.undo()
        assert len(calls) == merges, leaf.__name__
    d = Tensor(rng.standard_normal(3))
    p = Parameter(rng.standard_normal(3))
    ((p * d).exp() + d).sum().backward()
    assert d.grad is None
    assert np.array_equal(p.grad, d.data * np.exp(p.data * d.data))


def test_graph_has_no_reference_cycles(rng):
    # a dropped graph must be freed by reference counting; cycles would keep
    # every step's arrays alive until the cyclic collector happens to run
    cell = LSTMCell(3, 4, rng)
    x = Tensor(rng.standard_normal((2, 3)))
    gc.collect()
    gc.disable()
    try:
        h, c = cell(x, Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))))
        loss = (h.exp() + c.tanh()).sum()
        loss.backward()
        del h, c, loss
        assert gc.collect() == 0
        # the goal head's path: both conv2d gradients share one padded output
        # gradient, and the loss is one op on the logits
        w1 = Parameter(rng.standard_normal((3, 2, 3, 3)))
        w2 = Parameter(rng.standard_normal((3, 3, 3, 3)))
        b = Parameter(np.zeros(3))
        h = conv2d(Parameter(rng.standard_normal((2, 2, 4, 4))), w1, b, stride=2)
        loss = goal_loss(upsample2x(conv2d(h, w2, b)), np.full((2, 3, 4, 4), 0.5))
        loss.backward()
        del h, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_no_grad_records_no_edges(rng):
    cell = LSTMCell(3, 4, rng)
    w = Parameter(rng.standard_normal((2, 3, 3, 3)))
    b = Parameter(np.zeros(2))
    x = rng.standard_normal((1, 3, 5, 5))

    def run():
        h, c = cell(Tensor(rng.standard_normal((2, 3))), Tensor(np.zeros((2, 4))),
                    Tensor(np.zeros((2, 4))))
        y = upsample2x(conv2d(Tensor(x), w, b)).sigmoid()
        return [h, c, y, concat([h, c]), (w * 2.0).sum()]

    with nncore.no_grad():
        assert all(t._edges == () for t in run())
    assert all(t._edges for t in run())


def test_no_grad_restores_recording_on_exit_and_on_raise():
    p = Parameter(np.ones(2))
    with nncore.no_grad():
        with nncore.no_grad():
            pass
        assert (p * 2.0)._edges == ()  # the inner block restores "off"
    assert (p * 2.0)._edges
    with pytest.raises(RuntimeError):
        with nncore.no_grad():
            raise RuntimeError("inside")
    out = (p * 2.0).sum()
    assert out._edges
    out.backward()
    assert np.array_equal(p.grad, [2.0, 2.0])
