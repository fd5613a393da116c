"""Goal-augmented history features and the shared sequence encoder.

Each history frame becomes an 8-vector [D, X, V, A]: offset to the goal,
position, velocity, acceleration. Velocities/accelerations use first
differences with the first row replicated so the row count stays t_h.
One encoder (a small LSTM plus an output projection) is shared between the
common-goal and diverse-goal features. `PredictionModel.condition`, the one
condition stage of training and prediction, builds the rows and calls the
checked `encode`; the encoder knows no sampler kinds (common/diverse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nncore import Dense, LSTMCell, Tensor, lstm


@dataclass
class ConditionFeature:
    vector: np.ndarray
    kind: str  # "common" or "diverse"


def augment_batch(X: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(B, t_h, 2) histories and (B, 2) goals -> (B, t_h, 8) rows [D, X, V, A]."""
    X = np.asarray(X, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != 2:
        raise ValueError(f"histories must have shape (B, t_h, 2), got {X.shape}")
    if X.shape[1] < 2:
        raise ValueError("need at least 2 history frames to form velocities")
    V = np.concatenate([X[:, 1:2] - X[:, 0:1], np.diff(X, axis=1)], axis=1)
    A = np.concatenate([V[:, 1:2] - V[:, 0:1], np.diff(V, axis=1)], axis=1)
    D = X - g[:, None, :]
    return np.concatenate([D, X, V, A], axis=2)


class SequenceEncoder:
    """LSTM over the augmented rows; final hidden state projected to d_f."""

    def __init__(self, hidden: int, d_f: int, rng: np.random.Generator):
        self.cell = LSTMCell(8, hidden, rng)
        self.proj = Dense(hidden, d_f, rng)

    def forward_t(self, rows: np.ndarray) -> Tensor:
        """Batched graph forward: (B, t_h, 8) -> Tensor (B, d_f). The LSTM over
        the t_h rows is one op (`lstm`) on the cell's parameters."""
        return self.proj(lstm(rows, self.cell.wx, self.cell.wh, self.cell.b))

    def encode(self, rows: np.ndarray) -> Tensor:
        """`forward_t` of (B, t_h, 8) rows with both sides checked finite: Tensor (B, d_f)."""
        if not np.all(np.isfinite(rows)):
            raise ValueError("augmented state contains non-finite entries")
        out = self.forward_t(rows)
        if not np.all(np.isfinite(out.data)):
            raise ValueError("encoder produced non-finite activations")
        return out

    def parameters(self) -> dict:
        out = {}
        for name, p in self.cell.parameters().items():
            out[f"encoder.cell.{name}"] = p
        for name, p in self.proj.parameters().items():
            out[f"encoder.proj.{name}"] = p
        return out
