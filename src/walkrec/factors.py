"""Latent preference factors and the Bernoulli likelihood around them."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ParseError

TAU = 1e-7
PAIR_DOT_CELLS = 1 << 20  # gathered cells per operand per pair_dots block
FACTORS_MAGIC = b"PREFFACT"
FACTORS_VERSION = 1


@dataclass
class ModelConfig:
    """Model-side knobs shared by every training mode.

    epsilon is the click probability of an unexposed pair; eta the prior
    exposure probability used by the confidence terms.
    """

    d: int = 32
    epsilon: float = 0.001
    eta: float = 0.5
    lr_theta: float = 0.05
    lr_phi: float = 0.01
    l2_theta: float = 1e-4

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if self.lr_theta <= 0 or self.lr_phi <= 0:
            raise ValueError("learning rates must be positive")
        if self.l2_theta < 0:
            raise ValueError("l2_theta must be nonnegative")


@dataclass
class PreferenceFactors:
    P: np.ndarray
    Q: np.ndarray

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def m(self) -> int:
        return self.Q.shape[0]

    @property
    def d(self) -> int:
        return self.P.shape[1]


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def clamped_sigmoid(z):
    return np.clip(sigmoid(z), TAU, 1.0 - TAU)


def init_factors(n: int, m: int, d: int, seed=0, scale: float = 0.1
                 ) -> PreferenceFactors:
    rng = np.random.default_rng(seed)
    return PreferenceFactors(
        P=rng.normal(0.0, scale, size=(n, d)),
        Q=rng.normal(0.0, scale, size=(m, d)),
    )


def predict(factors: PreferenceFactors, u: int, i: int) -> float:
    """Click probability of an exposed pair, clamped to [TAU, 1-TAU]."""
    if not 0 <= u < factors.n:
        raise IndexError(f"user id {u} out of range [0, {factors.n})")
    if not 0 <= i < factors.m:
        raise IndexError(f"item id {i} out of range [0, {factors.m})")
    return float(clamped_sigmoid(factors.P[u] @ factors.Q[i]))


def pair_dots(A: np.ndarray, rows, B: np.ndarray, cols) -> np.ndarray:
    """Row dot products A[rows[e]] . B[cols[e]] for every pair e (an SDDMM).

    Rows are gathered a bounded block at a time, so the temporaries hold at
    most PAIR_DOT_CELLS cells per operand whatever the number of pairs.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    out = np.empty(rows.shape[0], dtype=np.float64)
    step = max(1, PAIR_DOT_CELLS // max(1, A.shape[1]))
    for lo in range(0, rows.shape[0], step):
        hi = lo + step
        np.einsum("ij,ij->i", A[rows[lo:hi]], B[cols[lo:hi]], out=out[lo:hi])
    return out


def predict_pairs(factors: PreferenceFactors, users, items) -> np.ndarray:
    """Vectorized predict over parallel user/item id arrays."""
    return clamped_sigmoid(pair_dots(factors.P, users, factors.Q, items))


def bern_ll(x, b):
    """Bernoulli log likelihood x*log(b) + (1-x)*log(1-b), b clamped."""
    b = np.clip(b, TAU, 1.0 - TAU)
    x = np.asarray(x, dtype=np.float64)
    return x * np.log(b) + (1.0 - x) * np.log1p(-b)


def grad_theta_pair(factors: PreferenceFactors, u: int, i: int, x: float,
                    l2: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of bern_ll(x, predict(u, i)) - l2/2 * (|p_u|^2 + |q_i|^2).

    Returns (d/dp_u, d/dq_i); the residual form (x - sigma) * q is exact for
    the unclamped sigmoid and is what a full dense gradient sums over pairs.
    """
    p, q = factors.P[u], factors.Q[i]
    sig = clamped_sigmoid(p @ q)
    r = x - sig
    return r * q - l2 * p, r * p - l2 * q


def accumulate_pair_gradients(factors: PreferenceFactors, users, items,
                              labels, weights=None, sig=None
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Sum of per-pair likelihood gradients, evaluated at fixed factors.

    Returns dense (dP, dQ); repeated pairs add up. weights, if given, scale
    each pair's contribution; sig, if given, is predict_pairs at the same
    pairs and is used instead of recomputing it.
    """
    if sig is None:
        sig = predict_pairs(factors, users, items)
    r = np.asarray(labels, dtype=np.float64) - sig
    if weights is not None:
        r = r * weights
    # the residuals as an n x m sparse matrix; CSR conversion sums repeats
    S = sparse.csr_array((r, (users, items)), shape=(factors.n, factors.m))
    return S @ factors.Q, S.T @ factors.P


def save_factors(path: str, factors: PreferenceFactors) -> None:
    """Write the binary factors checkpoint (all integers little-endian u64)."""
    n, m, d = factors.n, factors.m, factors.d
    with open(path, "wb") as fh:
        fh.write(FACTORS_MAGIC)
        fh.write(struct.pack("<4Q", FACTORS_VERSION, n, m, d))
        fh.write(np.ascontiguousarray(factors.P, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(factors.Q, dtype="<f8").tobytes())


def load_factors(path: str) -> PreferenceFactors:
    with open(path, "rb") as fh:
        blob = fh.read()
    header = len(FACTORS_MAGIC) + 32
    if len(blob) < header or blob[:len(FACTORS_MAGIC)] != FACTORS_MAGIC:
        raise ParseError(path, 0, "not a factors checkpoint")
    version, n, m, d = struct.unpack("<4Q", blob[len(FACTORS_MAGIC):header])
    if version != FACTORS_VERSION:
        raise ParseError(path, 0, f"unsupported checkpoint version {version}")
    want = header + 8 * (n + m) * d
    if len(blob) != want:
        raise ParseError(path, 0, f"expected {want} bytes, found {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f8", offset=header)
    P = flat[:n * d].reshape(n, d).astype(np.float64)
    Q = flat[n * d:].reshape(m, d).astype(np.float64)
    return PreferenceFactors(P=P, Q=Q)
