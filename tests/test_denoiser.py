import numpy as np
import pytest

from conftest import finite_difference, rel_error
from trajlab.denoiser import NoisePredictor
from trajlab.nncore import Parameter, Tensor


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

    def test_nonfinite_output_rejected(self, rng):
        net = make_net()
        net.outp.w.data[...] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            net.predict_noise(1, rng.standard_normal((4, 2)), np.zeros(6))


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
