import numpy as np
import pytest

from conftest import finite_difference, rel_error
from trajlab.condition import SequenceEncoder, augment_batch
from trajlab.nncore import Tensor


def augment_one(X, g) -> np.ndarray:
    """(t_h, 8) rows of one history and goal, through the batch builder."""
    return augment_batch(np.asarray(X)[None], np.asarray(g)[None])[0]


class TestAugmentState:
    def test_hand_worked_example(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        g = np.array([5.0, 0.0])
        rows = augment_one(X, g)
        assert rows.shape == (3, 8)
        np.testing.assert_array_equal(rows[:, 0:2],
                                      [[-5.0, 0.0], [-4.0, 0.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(rows[:, 2:4], X)
        np.testing.assert_array_equal(rows[:, 4:6],
                                      [[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(rows[:, 6:8],
                                      [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])

    def test_constant_velocity_zero_acceleration(self):
        X = np.cumsum(np.tile([0.5, -0.25], (6, 1)), axis=0)
        rows = augment_one(X, np.zeros(2))
        assert np.allclose(rows[:, 4:6], [0.5, -0.25])
        assert np.allclose(rows[:, 6:8], 0.0)

    def test_positions_recoverable_from_velocities(self, rng):
        X = rng.standard_normal((8, 2))
        rows = augment_one(X, np.zeros(2))
        rebuilt = X[0] + np.vstack([np.zeros(2), np.cumsum(rows[1:, 4:6], axis=0)])
        assert np.allclose(rebuilt, X)

    def test_rejects_short_history(self):
        with pytest.raises(ValueError):
            augment_batch(np.zeros((3, 1, 2)), np.zeros((3, 2)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            augment_batch(np.zeros((3, 4, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            augment_batch(np.zeros((4, 2)), np.zeros((1, 2)))


class TestSequenceEncoder:
    def test_output_shape(self, rng):
        enc = SequenceEncoder(hidden=16, d_f=10, rng=rng)
        rows = augment_batch(rng.standard_normal((3, 8, 2)), rng.standard_normal((3, 2)))
        out = enc.encode(rows)
        assert isinstance(out, Tensor) and out.shape == (3, 10)

    def test_deterministic(self, rng):
        enc = SequenceEncoder(hidden=8, d_f=4, rng=np.random.default_rng(1))
        rows = augment_one(rng.standard_normal((8, 2)), np.zeros(2))[None]
        v1 = enc.encode(rows).data
        v2 = enc.encode(rows).data
        assert np.array_equal(v1, v2)

    def test_goal_changes_feature(self, rng):
        enc = SequenceEncoder(hidden=8, d_f=4, rng=np.random.default_rng(1))
        X = rng.standard_normal((8, 2))
        rows = augment_batch(np.stack([X, X]), np.array([[0.0, 0.0], [5.0, 5.0]]))
        v1, v2 = enc.encode(rows).data
        assert not np.allclose(v1, v2)

    def test_batched_forward_matches_single(self, rng):
        enc = SequenceEncoder(hidden=8, d_f=4, rng=np.random.default_rng(2))
        rows = rng.standard_normal((5, 8, 8))
        batched = enc.forward_t(rows).data
        for i in range(5):
            assert np.allclose(batched[i], enc.forward_t(rows[i:i + 1]).data[0],
                               atol=1e-12)

    def test_rejects_nonfinite_state(self, rng):
        enc = SequenceEncoder(hidden=8, d_f=4, rng=rng)
        rows = augment_one(np.zeros((4, 2)), np.zeros(2))[None]
        rows[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="augmented state contains non-finite"):
            enc.encode(rows)

    def test_rejects_nonfinite_output(self, rng):
        enc = SequenceEncoder(hidden=8, d_f=4, rng=rng)
        enc.proj.b.data[1] = np.inf
        rows = augment_one(np.zeros((4, 2)), np.zeros(2))[None]
        with pytest.raises(ValueError, match="encoder produced non-finite"):
            enc.encode(rows)

    def test_parameter_gradients_finite_difference(self, rng):
        enc = SequenceEncoder(hidden=4, d_f=3, rng=np.random.default_rng(3))
        rows = rng.standard_normal((2, 5, 8))
        params = enc.parameters()
        out = (enc.forward_t(rows) ** 2).sum()
        out.backward()
        for name, p in params.items():
            def loss(v, name=name, p=p):
                orig = p.data
                p.data = v
                val = float((enc.forward_t(rows) ** 2).sum().data)
                p.data = orig
                return val
            num = finite_difference(loss, p.data.copy())
            assert rel_error(p.grad, num) < 1e-4, name
