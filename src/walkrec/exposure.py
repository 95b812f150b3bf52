"""Exposure-confidence propagation and the variational objective it serves.

Each user-item pair carries a confidence weight gamma_ui, read as the
posterior probability that user u was exposed to item i. Weights are not
free parameters: one item's column gamma_.i is produced by unrolling

    gamma^(0) = x_.i
    gamma^(t+1) = (1 - c) * x_.i + c * W gamma^(t)

for t_m steps, where W is a row-stochastic user-to-user transition
(graphnet). Because 0 <= c < 1 the map is a sup-norm contraction with
modulus c, so the iterate sits within c^t_m of the unique fixed point
(I - cW)^{-1} (1 - c) x regardless of the starting column.

The training objective for a set of item columns is

    V = sum_ui gamma_ui * ll(x_ui, sigma_ui) + sum_ui g(gamma_ui; x_ui)

with ll the Bernoulli log likelihood of the preference model and g the
confidence regularizer below. phi_objective_and_backward differentiates V
through the unrolled recurrence with respect to every graph logit by
reverse-mode accumulation over the tape of propagated columns.
"""

from __future__ import annotations

import numpy as np

from .corpus import InteractionMatrix
from .factors import PreferenceFactors, clamped_sigmoid, label_ll_in_place
from .graphnet import normalize_edges

GAMMA_CLAMP = 1e-12


def _clog(v) -> np.ndarray:
    """log with the argument floored at GAMMA_CLAMP, so 0 * log 0 == 0."""
    return np.log(np.maximum(v, GAMMA_CLAMP))


def g_term(gamma, x, eta: float, epsilon: float) -> np.ndarray:
    """Confidence regularizer g(gamma; x) from the variational bound.

    g = (1 - gamma) * ll(x, epsilon) + ll(gamma, eta) - ll(gamma, gamma),
    ll(a, b) = a log b + (1 - a) log(1 - b). The last term is the negative
    entropy of gamma, so g rewards weights near the prior eta and, for x = 1,
    penalizes explaining a click as accidental (epsilon-level) exposure.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    le = x * _clog(epsilon) + (1.0 - x) * _clog(1.0 - epsilon)
    prior = gamma * _clog(eta) + (1.0 - gamma) * _clog(1.0 - eta)
    ent = gamma * _clog(gamma) + (1.0 - gamma) * _clog(1.0 - gamma)
    return (1.0 - gamma) * le + prior - ent


def g_term_grad(gamma, x, eta: float, epsilon: float) -> np.ndarray:
    """d g / d gamma, with the logit of gamma clamped like the logs."""
    gamma = np.asarray(gamma, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    le = x * _clog(epsilon) + (1.0 - x) * _clog(1.0 - epsilon)
    return -le + _clog(eta) - _clog(1.0 - eta) - _clog(gamma) + _clog(1.0 - gamma)


def _check_propagation_args(t_m: int, c: float) -> None:
    if t_m < 0:
        raise ValueError("t_m must be nonnegative")
    if not 0.0 <= c < 1.0:
        raise ValueError("c must lie in [0, 1)")


def _item_columns(X: InteractionMatrix, items: np.ndarray) -> np.ndarray:
    cols = np.zeros((X.n, items.shape[0]), dtype=np.float64)
    for jj, j in enumerate(items):
        cols[X.col(int(j)), jj] = 1.0
    return cols


def propagate_columns(graph, Xcols: np.ndarray, t_m: int, c: float,
                      keep_tape: bool = False):
    """Unroll the recurrence on a block of columns; optionally keep the tape.

    Returns (gamma, gammas, parts) where gammas lists gamma^(0..t_m), the
    whole tape the graph backward reads once d objective / d gamma^(t_m)
    has taken gamma^(t_m)'s slot, and parts is a list of t_m Nones (the
    backward keeps no other intermediates). Without keep_tape both lists
    are None.
    """
    _check_propagation_args(t_m, c)
    graph = normalize_edges(graph)
    gamma = Xcols
    gammas = [Xcols] if keep_tape else None
    for _ in range(t_m):
        wg = graph.apply_W(gamma)
        wg *= c
        wg += (1.0 - c) * Xcols
        gamma = wg
        if keep_tape:
            gammas.append(gamma)
    return gamma, gammas, [None] * t_m if keep_tape else None


def propagate_forward(graph, X: InteractionMatrix, item: int, t_m: int,
                      c: float) -> np.ndarray:
    """Confidence column gamma_.item after t_m propagation sweeps."""
    if not 0 <= item < X.m:
        raise IndexError(f"item id {item} out of range [0, {X.m})")
    cols = _item_columns(X, np.asarray([item], dtype=np.int64))
    gamma, _, _ = propagate_columns(graph, cols, t_m, c)
    return gamma[:, 0]


def _objective_and_gbar(gamma: np.ndarray, x: np.ndarray,
                        factors: PreferenceFactors, items: np.ndarray,
                        eta: float, epsilon: float) -> tuple[float, np.ndarray]:
    """V at gamma and d V / d gamma for the item columns x of items.

    Bit-equal to sum(gamma * ll) + sum(g_term(gamma, x, ...)) and to
    ll + g_term_grad(gamma, x, ...), with ll = bern_ll(x, sigma) at the
    preferences sigma of factors: every product and sum is the one those
    functions make, in the same order, but at most three n x J arrays are
    live at once. x holds only 0 and 1, so the terms they weigh by x or
    1 - x are exactly one of two constants per label, and ll is
    label_ll_in_place's, as in update_theta_from_batch.
    """
    ones = x.astype(bool)
    zeros = ~ones
    ce, c1e = _clog(eta), _clog(1.0 - eta)
    by_label = ((ones, _clog(epsilon)), (zeros, _clog(1.0 - epsilon)))
    # g_term: (1 - gamma) * le + prior - ent
    a = np.subtract(1.0, gamma)
    a *= c1e
    b = np.multiply(gamma, ce)
    b += a  # prior
    np.subtract(1.0, gamma, out=a)
    for where, le in by_label:
        np.multiply(a, le, out=a, where=where)
    a += b
    np.subtract(1.0, gamma, out=b)
    c = np.maximum(b, GAMMA_CLAMP)
    np.log(c, out=c)
    c *= b
    np.maximum(gamma, GAMMA_CLAMP, out=b)
    np.log(b, out=b)
    b *= gamma
    b += c  # ent
    del c
    a -= b
    g_sum = np.sum(a)
    del a, b  # the sigmoid's temporaries take their place
    ll = label_ll_in_place(clamped_sigmoid(factors.P @ factors.Q[items].T),
                           ones, zeros)
    a = np.multiply(gamma, ll)
    value = float(np.sum(a) + g_sum)
    # g_term_grad: -le + log(eta) - log(1 - eta) - log(gamma) + log(1 - gamma)
    np.maximum(gamma, GAMMA_CLAMP, out=a)
    np.log(a, out=a)
    for where, le in by_label:
        np.subtract(-le + ce - c1e, a, out=a, where=where)
    b = np.subtract(1.0, gamma)
    np.maximum(b, GAMMA_CLAMP, out=b)
    np.log(b, out=b)
    a += b
    ll += a
    return value, ll


def phi_objective_and_backward(params, factors: PreferenceFactors,
                               X: InteractionMatrix, items, t_m: int, c: float,
                               eta: float, epsilon: float):
    """Objective over the selected item columns and its graph-logit gradient.

    The forward pass tapes gamma^(0..t_m). The objective and its gradient
    in gamma^(t_m) are taken in place over three n x J buffers, and the
    gradient takes gamma^(t_m)'s tape slot (the reverse pass never reads
    gamma^(t_m), and counts its steps by the tape's length), so the
    backward holds the only reference to it and frees it at its first
    step. The reverse pass walks the tape once, recomputing what it needs
    of each step, accumulating gradients in probability space and pulling
    them back through the softmax (and, in pseudo mode, the mixing
    sigmoid) at the end. Cost is O(t_m * edges * len(items)).
    """
    items = np.asarray(items, dtype=np.int64)
    if items.size and (items.min() < 0 or items.max() >= X.m):
        raise IndexError("item id out of range")
    mat = normalize_edges(params)
    Xcols = _item_columns(X, items)
    _, gammas, _ = propagate_columns(mat, Xcols, t_m, c, keep_tape=True)
    gamma, gammas[-1] = gammas[-1], None
    value, gammas[-1] = _objective_and_gbar(gamma, Xcols, factors, items,
                                            eta, epsilon)
    del gamma
    return value, mat.backward(gammas, c)
