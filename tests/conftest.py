import numpy as np
import pytest

from trajlab.nncore import LSTMCell, Tensor, concat, conv2d, upsample2x


def finite_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar fn at x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        g[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b)) / denom)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def lstm_chain(x: np.ndarray, wx, wh, b) -> Tensor:
    """The final hidden state of `LSTMCell` with parameters `wx`, `wh`, `b`
    run over the T rows of (B, T, n_in) `x` from zero state, one cell call a
    step: the reference of `nncore.lstm`."""
    cell = LSTMCell(x.shape[2], wh.shape[0], np.random.default_rng(0))
    cell.wx, cell.wh, cell.b = wx, wh, b
    h = c = Tensor(np.zeros((len(x), cell.hidden)))
    for t in range(x.shape[1]):
        h, c = cell(Tensor(x[:, t]), h, c)
    return h


def upsample_conv_reference(low, skip, w, b) -> Tensor:
    """A decoder layer as written down, the reference of `goal.upsample_conv`:
    upsample, concatenate, convolve."""
    return conv2d(concat([upsample2x(low), skip], axis=1), w, b)
