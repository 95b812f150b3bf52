"""Dense and scalar reference computations for small instances.

Everything here is deliberately naive: dense linear algebra on explicit
matrices, guarded by instance-size checks. Tests and benchmarks compare the
production paths (sparse propagation, vectorized walks, sampled gradients)
against these.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardError
from .factors import PreferenceFactors, TAU, sigmoid

MAX_ORACLE_USERS = 500
MAX_ORACLE_CELLS = 1_000_000


def _check_w(W: np.ndarray) -> int:
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("W must be square")
    n = W.shape[0]
    if n > MAX_ORACLE_USERS:
        raise GuardError(f"oracle limited to {MAX_ORACLE_USERS} users, got {n}")
    if W.min() < -1e-12 or np.abs(W.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("W must be row-stochastic")
    return n


def dense_gamma_closed_form(W: np.ndarray, X: np.ndarray, c: float) -> np.ndarray:
    """Fixed point (I - cW)^{-1} (1 - c) X of the propagation recurrence."""
    n = _check_w(W)
    if not 0.0 <= c < 1.0:
        raise ValueError("c must lie in [0, 1)")
    A = np.eye(n) - c * np.asarray(W, dtype=np.float64)
    Y = np.linalg.solve(A, (1.0 - c) * np.asarray(X, dtype=np.float64))
    residual = np.abs(A @ Y - (1.0 - c) * X).max()
    if residual >= 1e-10:
        raise ArithmeticError(f"linear solve residual {residual:.3e} too large")
    return Y


def dense_stop_distribution(W: np.ndarray, c: float, t_m: int) -> np.ndarray:
    """S[u, v] = probability that a depth-limited walk from u stops at v.

    The walk continues with probability c and stops with 1 - c at each node;
    a walk still alive after t_m transitions jumps to a uniform user and
    stops there. Rows sum to 1.
    """
    n = _check_w(W)
    if not 0.0 <= c < 1.0:
        raise ValueError("c must lie in [0, 1)")
    if t_m < 0:
        raise ValueError("t_m must be nonnegative")
    W = np.asarray(W, dtype=np.float64)
    S = np.zeros((n, n), dtype=np.float64)
    power = np.eye(n)
    for _ in range(t_m):
        S += (1.0 - c) * power
        power = c * (power @ W)
    S += (1.0 - c) * power
    S += c * power.mean(axis=1, keepdims=True) @ np.ones((1, n))
    return S


def dense_gamma_truncated(W: np.ndarray, X: np.ndarray, c: float,
                          t_m: int) -> np.ndarray:
    """Exact per-pair walk emission intensity: stop distribution applied to X.

    Entry (u, i) is the expected number of times one walk from u stops at a
    consumer of i, i.e. beta times the expected emission count of (u, i).
    Matches the propagation fixed point as t_m grows.
    """
    return dense_stop_distribution(W, c, t_m) @ np.asarray(X, dtype=np.float64)


def exact_full_gradient(factors: PreferenceFactors, gamma: np.ndarray,
                        X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense gradient of sum_ui gamma_ui * ll(x_ui, sigma_ui), no l2 term."""
    n, m = X.shape
    if n * m > MAX_ORACLE_CELLS:
        raise GuardError(f"oracle limited to {MAX_ORACLE_CELLS} cells, got {n * m}")
    sig = np.clip(sigmoid(factors.P @ factors.Q.T), TAU, 1.0 - TAU)
    R = np.asarray(gamma, dtype=np.float64) * (np.asarray(X, dtype=np.float64) - sig)
    return R @ factors.Q, R.T @ factors.P
