import numpy as np
import pytest

from conftest import finite_difference, rel_error
from trajlab.denoiser import NoisePredictor
from trajlab.nncore import Parameter, Tensor
from trajlab.sampler import NoiseStream, SamplerConfig, sample_standard, tree_sample
from trajlab.schedule import make_linear_schedule


def make_net(seed=0, **kw):
    defaults = dict(t_f=4, d_f=6, width=8, embed_dim=4, blocks=2)
    defaults.update(kw)
    return NoisePredictor(rng=np.random.default_rng(seed), **defaults)


class TestForwardPaths:
    def test_output_shape(self, rng):
        net = make_net()
        out = net.predict_noise(3, rng.standard_normal((4, 2)), rng.standard_normal(6))
        assert out.shape == (4, 2)

    def test_deterministic(self, rng):
        net = make_net()
        y = rng.standard_normal((4, 2))
        f = rng.standard_normal(6)
        assert np.array_equal(net.predict_noise(5, y, f), net.predict_noise(5, y, f))

    def test_graph_and_fast_paths_agree(self, rng):
        net = make_net(seed=3)
        y = rng.standard_normal((4, 2))
        f = rng.standard_normal(6)
        fast = net.predict_noise(7, y, f)
        graph = net.forward_t(np.array([7.0]), y.reshape(1, -1), Tensor(f[None]))
        assert np.allclose(graph.data.reshape(4, 2), fast, atol=1e-12)

    def test_graph_path_batches_independently(self, rng):
        net = make_net(seed=4)
        ks = np.array([1.0, 50.0, 99.0])
        ys = rng.standard_normal((3, 8))
        fs = rng.standard_normal((3, 6))
        batched = net.forward_t(ks, ys, Tensor(fs)).data
        for i in range(3):
            single = net.predict_noise(int(ks[i]), ys[i].reshape(4, 2), fs[i])
            assert np.allclose(batched[i].reshape(4, 2), single, atol=1e-12)

    def test_accepts_feature_objects(self, rng):
        class Feat:
            vector = rng.standard_normal(6)

        net = make_net()
        y = rng.standard_normal((4, 2))
        a = net.predict_noise(2, y, Feat())
        b = net.predict_noise(2, y, Feat.vector)
        assert np.array_equal(a, b)

    def test_step_index_changes_output(self, rng):
        net = make_net()
        y = rng.standard_normal((4, 2))
        f = rng.standard_normal(6)
        assert not np.allclose(net.predict_noise(1, y, f), net.predict_noise(100, y, f))

    def test_feature_changes_output(self, rng):
        net = make_net()
        y = rng.standard_normal((4, 2))
        assert not np.allclose(net.predict_noise(3, y, np.zeros(6)),
                               net.predict_noise(3, y, np.ones(6)))

    @pytest.mark.parametrize("dims", [{}, dict(t_f=12, d_f=64, width=64, embed_dim=32, blocks=3)],
                             ids=["small", "model-default"])
    def test_fast_path_bitwise_equals_matmul_expression(self, rng, dims):
        # the row path is written with np.dot and in-place residual adds; it must
        # round exactly as `x @ W + b` with out-of-place adds does
        net = make_net(seed=5, **dims)
        for layer in [net.inp, *(d for pair in net.res for d in pair), net.outp]:
            layer.b.data[...] = rng.standard_normal(layer.b.data.shape)
        t_f, d_f = net.t_f, dims.get("d_f", 6)
        for k in (1, 17, 100):
            y, f = rng.standard_normal((t_f, 2)), rng.standard_normal(d_f)
            x = np.concatenate([y.ravel(), net.embed.step(k), f])
            h = np.tanh(x @ net.inp.w.data + net.inp.b.data)
            for d1, d2 in net.res:
                h = h + np.tanh(h @ d1.w.data + d1.b.data) @ d2.w.data + d2.b.data
            expected = (h @ net.outp.w.data + net.outp.b.data).reshape(t_f, 2)
            assert np.array_equal(net.predict_noise(k, y, f), expected)

    def test_nonfinite_output_rejected(self, rng):
        # the sampler checks every step's outputs, for all chains at once
        net = make_net()
        net.outp.w.data[...] = np.inf
        s = make_linear_schedule(10)
        cfg = SamplerConfig(K=10, K_I=5, K_t=2, N=2)
        fs = [rng.standard_normal(6) for _ in range(2)]
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="^trunk: .*non-finite at step 10$"):
                tree_sample(net.predict_noise, fs[0], fs, cfg, s, NoiseStream(0), 4)
            with pytest.raises(ValueError, match="^ddim chain 0: .*non-finite at step 10$"):
                sample_standard(net.predict_noise, fs, cfg, s, NoiseStream(0), "ddim", 4)


class TestGradients:
    def test_parameter_gradients_match_finite_differences(self, rng):
        net = make_net(seed=5, blocks=1)
        ks = np.array([3.0, 9.0])
        ys = rng.standard_normal((2, 8))
        fs = rng.standard_normal((2, 6))

        (net.forward_t(ks, ys, Tensor(fs)) ** 2).sum().backward()
        for name, p in net.parameters().items():
            def loss(v, p=p):
                orig = p.data
                p.data = v
                val = float((net.forward_t(ks, ys, Tensor(fs)) ** 2).sum().data)
                p.data = orig
                return val
            num = finite_difference(loss, p.data.copy())
            assert rel_error(p.grad, num) < 1e-4, name

    def test_feature_gradient_flows(self, rng):
        # conditioning input must stay in the graph (encoder training depends on it)
        net = make_net(seed=6)
        f = Parameter(rng.standard_normal((1, 6)))
        (net.forward_t(np.array([4.0]), rng.standard_normal((1, 8)), f) ** 2).sum().backward()
        assert f.grad is not None and np.any(f.grad != 0.0)
