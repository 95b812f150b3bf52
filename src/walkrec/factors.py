"""Latent preference factors and the Bernoulli likelihood around them."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, ParseError

TAU = 1e-7
# Cells per block wherever a long per-pair array is built a block at a time
# (the gathered operands of pair_dots, the walker's thinning uniforms):
# 64k float64 cells (512 KB) stay in cache and below the allocator's mmap
# threshold, so blocks are reused instead of mapped and faulted in afresh.
PAIR_DOT_CELLS = 1 << 16
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
        for name in ("epsilon", "eta", "lr_theta", "lr_phi", "l2_theta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.d < 1:
            raise ConfigError("d must be at least 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in (0, 1)")
        if not 0.0 < self.eta < 1.0:
            raise ConfigError("eta must lie in (0, 1)")
        if self.lr_theta <= 0 or self.lr_phi <= 0:
            raise ConfigError("learning rates must be positive")
        if self.l2_theta < 0:
            raise ConfigError("l2_theta must be nonnegative")


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
    """Numerically stable logistic function.

    1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) otherwise, both with
    e = exp(-|z|), computed without splitting the array by sign.
    """
    z = np.asarray(z, dtype=np.float64)
    # minimum(z, -z) is -|z|, but passes a NaN through with its own bits
    e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def clamped_sigmoid(z):
    out = sigmoid(z)
    return np.clip(out, TAU, 1.0 - TAU, out=out)


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


def write_checkpoint(path: str, magic: bytes, header, arrays) -> None:
    """Write the binary checkpoint layout: magic, the header as little-endian
    u64 (version first), then each array as little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{len(header)}Q", *header))
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_checkpoint(path: str, magic: bytes, header: tuple, arrays,
                    what: str) -> None:
    """Read write_checkpoint's layout into arrays, in place.

    header is the tuple this run's arrays would be written with, version
    first. A file that cannot be read, has another magic or any other
    header, or whose payload is not exactly the arrays' float64 values
    raises ParseError naming path and changes no array; what names the
    checkpoint kind in the message.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ParseError(path, 0, str(e)) from None
    start = len(magic) + 8 * len(header)
    if len(blob) < start or blob[:len(magic)] != magic:
        raise ParseError(path, 0, f"not a {what} checkpoint")
    found = struct.unpack(f"<{len(header)}Q", blob[len(magic):start])
    if found != header:
        raise ParseError(path, 0, f"{what} checkpoint header {found} does "
                         f"not match this run's {header}")
    sizes = [arr.size for arr in arrays]
    if len(blob) - start != 8 * sum(sizes):
        raise ParseError(path, 0, f"{what} checkpoint payload is "
                         f"{len(blob) - start} bytes, this run's arrays "
                         f"take {8 * sum(sizes)}")
    payload = np.frombuffer(blob, dtype="<f8", offset=start)
    for arr, part in zip(arrays, np.split(payload, np.cumsum(sizes)[:-1])):
        arr[...] = part.reshape(arr.shape)


def _layout(factors: PreferenceFactors):
    """The factors checkpoint's header (version, n, m, d) and arrays."""
    return ((FACTORS_VERSION, factors.n, factors.m, factors.d),
            (factors.P, factors.Q))


def save_factors(path: str, factors: PreferenceFactors) -> None:
    """Write the binary factors checkpoint in _layout's layout."""
    write_checkpoint(path, FACTORS_MAGIC, *_layout(factors))


def load_factors(path: str, n: int, m: int, d: int) -> PreferenceFactors:
    """The n x d and m x d factors a checkpoint of exactly that shape holds."""
    factors = PreferenceFactors(P=np.empty((n, d)), Q=np.empty((m, d)))
    read_checkpoint(path, FACTORS_MAGIC, *_layout(factors), "factors")
    return factors
