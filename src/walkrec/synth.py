"""Synthetic instances drawn from the model's own generative story.

Used by benchmarks and the end-to-end tests: users fall into latent groups,
each group is over-exposed to its own pool of items, and a click requires
both exposure and preference. Held-out positives generated the same way let
ranking quality measure how well a learner recovers the planted structure.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .corpus import InteractionMatrix, matrix_from_pairs
from .errors import ConfigError, EmptyDatasetError
from .factors import PreferenceFactors, clamped_sigmoid


@dataclass
class SynthInstance:
    train: InteractionMatrix
    test: InteractionMatrix
    exposure: np.ndarray
    truth: PreferenceFactors
    group_of_user: np.ndarray
    pool_of_item: np.ndarray


def planted_instance(n: int = 300, m: int = 500, d: int = 8, groups: int = 4,
                     exposure_in: float = 0.35, exposure_out: float = 0.02,
                     accidental: float = 0.001, test_fraction: float = 0.2,
                     factor_scale: float = 1.2, seed: int = 0) -> SynthInstance:
    """Sample one planted-community instance.

    Exposure probability is exposure_in inside a user's own group pool and
    exposure_out elsewhere; clicks are Bernoulli(sigmoid(p.q)) when exposed
    and Bernoulli(accidental) otherwise. Each generated positive goes to the
    test split with probability test_fraction (users keep at least one train
    positive; users with no positives at all are dropped and ids repacked).
    A size below 1 or a probability outside [0, 1] is a ConfigError naming
    the parameter.
    """
    for name, size in (("n", n), ("m", m), ("d", d), ("groups", groups)):
        if size < 1:
            raise ConfigError(f"synth {name} must be at least 1, got {size}")
    for name, p in (("exposure_in", exposure_in), ("exposure_out", exposure_out),
                    ("accidental", accidental), ("test_fraction", test_fraction)):
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"synth {name} must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    group_of_user = rng.integers(0, groups, size=n)
    pool_of_item = rng.integers(0, groups, size=m)
    eta = np.where(group_of_user[:, None] == pool_of_item[None, :],
                   exposure_in, exposure_out)
    truth = PreferenceFactors(
        P=rng.normal(0.0, factor_scale / np.sqrt(d), size=(n, d)),
        Q=rng.normal(0.0, factor_scale / np.sqrt(d), size=(m, d)))
    pref = clamped_sigmoid(truth.P @ truth.Q.T)
    exposed = rng.random((n, m)) < eta
    clicks = np.where(exposed, rng.random((n, m)) < pref,
                      rng.random((n, m)) < accidental)
    us, its = np.nonzero(clicks)
    to_test = rng.random(us.shape[0]) < test_fraction
    # keep at least one train positive per user
    for u in np.unique(us):
        sel = us == u
        if to_test[sel].all():
            first = np.flatnonzero(sel)[0]
            to_test[first] = False
    keep_users = np.unique(us[~to_test])
    if keep_users.size == 0:
        raise EmptyDatasetError(
            f"synth n={n},m={m},d={d},groups={groups},exposure_in={exposure_in},"
            f"exposure_out={exposure_out},accidental={accidental},"
            f"test_fraction={test_fraction},factor_scale={factor_scale},"
            f"seed={seed} draws no positive pair")
    remap = np.full(n, -1, dtype=np.int64)
    remap[keep_users] = np.arange(keep_users.shape[0])
    ok = remap[us] >= 0
    us, its, to_test = us[ok], its[ok], to_test[ok]
    nn = keep_users.shape[0]
    train = matrix_from_pairs(nn, m, remap[us[~to_test]], its[~to_test])
    test = matrix_from_pairs(nn, m, remap[us[to_test]], its[to_test])
    return SynthInstance(train=train, test=test, exposure=eta[keep_users],
                         truth=PreferenceFactors(P=truth.P[keep_users],
                                                 Q=truth.Q),
                         group_of_user=group_of_user[keep_users],
                         pool_of_item=pool_of_item)


def parse_synth_spec(spec: str) -> dict:
    """Parse "n=300,m=500,d=8,groups=4,seed=1" style benchmark specs; the
    keys are planted_instance's parameters, each of its default's type."""
    out: dict[str, float | int] = {}
    params = inspect.signature(planted_instance).parameters
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad synth spec fragment {part!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in params:
            raise ConfigError(f"unknown synth spec key {key!r}")
        try:
            out[key] = type(params[key].default)(value)
        except ValueError:
            raise ConfigError(f"bad synth spec value {part!r}") from None
    return out
