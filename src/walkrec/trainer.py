"""Training loops binding the samplers, factors, and propagation graph.

Three modes share one alternating scheme per epoch:

  samwalker      social graph; walk-sampled theta step, then a graph step on
                 a uniform subset of item columns
  samwalker_pp   same loop on the pseudo graph (no social data needed)
  exmf_dense     no graph; exact per-pair confidence sweep (closed form)
                 alternating with full-batch theta ascent; guarded to small
                 instances

Theta updates apply plain SGD on the batch-sum gradient: the constant
beta/alpha that would make the batch sum an unbiased full-gradient estimate
is absorbed into lr_theta. Every epoch draws its randomness from a stream
derived as SeedSequence(seed, spawn_key=(epoch + 1,)), so resuming from a
checkpoint replays the exact run that uninterrupted training would produce.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .corpus import InteractionMatrix, SocialEdges
from .errors import ConfigError, GuardError
from .exposure import g_term, phi_objective_and_backward
from .factors import (ModelConfig, PreferenceFactors, TAU,
                      accumulate_pair_gradients, bern_ll, clamped_sigmoid,
                      init_factors, load_factors, predict_pairs, save_factors,
                      sigmoid)
from .graphnet import (PseudoGraphParams, SocialGraphParams,
                       build_pseudo_graph, build_social_graph, load_graph,
                       normalize_edges, save_graph)
from .walker import SamplerConfig, SampleBatch, WalkEngine

_logger = logging.getLogger(__name__)

MODES = ("samwalker", "samwalker_pp", "exmf_dense")
ABLATIONS = ("none", "no_item", "no_community")
DENSE_CELL_GUARD = 10_000_000


@dataclass
class TrainConfig:
    mode: str = "samwalker_pp"
    epochs: int = 50
    K: int = 32
    n_si: int = 100
    theta_steps: int = 1
    eval_every: int = 0
    eval_ks: tuple[int, ...] = (5, 10)
    seed: int = 0
    ablation: str = "none"
    model: ModelConfig = field(default_factory=ModelConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        if self.ablation != "none" and self.mode != "samwalker_pp":
            raise ConfigError("bridge ablations only apply to samwalker_pp")
        if self.epochs < 0 or self.n_si < 1 or self.theta_steps < 1:
            raise ConfigError("epochs must be >= 0; n_si, theta_steps >= 1")
        if self.K < 1:
            raise ConfigError("K must be at least 1")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0")
        if not self.eval_ks or min(self.eval_ks) < 1:
            raise ConfigError("eval_ks must be positive cutoffs")


@dataclass
class TrainState:
    config: TrainConfig
    factors: PreferenceFactors
    graph: SocialGraphParams | PseudoGraphParams | None
    gamma: np.ndarray | None
    epoch: int
    history: list[dict]


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(epoch + 1,)))


def update_theta_from_batch(factors: PreferenceFactors, batch: SampleBatch,
                            lr: float, l2: float = 0.0) -> float:
    """One SGD step on the batch-sum gradient, in place.

    Gradients for all entries are accumulated at the current factors and
    applied once, so repeated pairs contribute additively. Returns the
    batch's summed log likelihood at the pre-step factors, from the same
    predictions the gradient uses. An empty batch logs a warning, changes
    nothing and returns 0.
    """
    if batch.size == 0:
        _logger.warning("empty sample batch; theta update skipped")
        return 0.0
    labels = batch.labels.astype(np.float64)
    sig = predict_pairs(factors, batch.users, batch.items)
    dP, dQ = accumulate_pair_gradients(factors, batch.users, batch.items,
                                       labels, sig=sig)
    if l2 > 0.0:
        cu = np.bincount(batch.users, minlength=factors.n)[:, None]
        ci = np.bincount(batch.items, minlength=factors.m)[:, None]
        dP -= l2 * cu * factors.P
        dQ -= l2 * ci * factors.Q
    factors.P += lr * dP
    factors.Q += lr * dQ
    return float(np.sum(bern_ll(labels, sig)))


def update_phi_step(graph, factors: PreferenceFactors, X: InteractionMatrix,
                    items, model: ModelConfig, sampler: SamplerConfig) -> float:
    """Ascend the graph logits on the selected item columns; returns the
    objective value at the pre-step parameters.

    graph is the parameters or their fold; either way the fold's parameters
    are updated in place, and a fold passed in is stale afterwards.
    """
    fold = normalize_edges(graph)
    value, grads = phi_objective_and_backward(
        fold, factors, X, items, sampler.t_m, sampler.c,
        model.eta, model.epsilon)
    for name, grad in vars(grads).items():
        logits = getattr(fold.params, name)
        logits += model.lr_phi * grad
    return value


def exmf_gamma_star(x, sig, eta: float, epsilon: float) -> np.ndarray:
    """Coordinate-wise maximizer of the bound over a free gamma.

    Setting d/dgamma [gamma * ll(x, sig) + g(gamma; x)] = 0 gives
    logit(gamma*) = ll(x, sig) - ll(x, epsilon) + logit(eta).
    """
    x = np.asarray(x, dtype=np.float64)
    logit_eta = np.log(eta) - np.log1p(-eta)
    z = bern_ll(x, sig) - bern_ll(x, epsilon) + logit_eta
    return sigmoid(z)


def _select_phi_items(m: int, n_si: int, rng: np.random.Generator) -> np.ndarray:
    if n_si >= m:
        return np.arange(m, dtype=np.int64)
    return np.sort(rng.choice(m, size=n_si, replace=False).astype(np.int64))


def init_state(train: InteractionMatrix, config: TrainConfig,
               social: SocialEdges | None = None) -> TrainState:
    if config.mode == "samwalker":
        if social is None:
            raise ConfigError("samwalker mode requires social edges")
        graph = build_social_graph(
            social, seed=np.random.SeedSequence(config.seed, spawn_key=(0, 1)))
    elif config.mode == "samwalker_pp":
        graph = build_pseudo_graph(
            train, K=config.K,
            seed=np.random.SeedSequence(config.seed, spawn_key=(0, 1)))
        if config.ablation == "no_community":
            graph.mix_logits[:] = 1000.0
            graph.freeze_mix = True
        elif config.ablation == "no_item":
            graph.mix_logits[:] = -1000.0
            graph.freeze_mix = True
    else:
        if train.n * train.m > DENSE_CELL_GUARD:
            raise GuardError(
                f"exmf_dense on {train.n}x{train.m} exceeds {DENSE_CELL_GUARD} cells")
        graph = None
    factors = init_factors(
        train.n, train.m, config.model.d,
        seed=np.random.SeedSequence(config.seed, spawn_key=(0, 0)))
    return TrainState(config=config, factors=factors, graph=graph,
                      gamma=None, epoch=0, history=[])


def _walk_epoch(state: TrainState, train: InteractionMatrix,
                rng: np.random.Generator) -> dict:
    cfg = state.config
    fold = normalize_edges(state.graph)
    engine = WalkEngine(fold, train, cfg.sampler)
    batch_size = 0
    theta_ll = 0.0
    for _ in range(cfg.theta_steps):
        batch = engine.sample_batch(rng)
        batch_size += batch.size
        theta_ll += update_theta_from_batch(state.factors, batch,
                                            cfg.model.lr_theta,
                                            cfg.model.l2_theta)
    items = _select_phi_items(train.m, cfg.n_si, rng)
    value = update_phi_step(fold, state.factors, train, items,
                            cfg.model, cfg.sampler)
    return {"epoch": state.epoch, "phi_objective": value,
            "batch_size": batch_size, "batch_ll": theta_ll,
            "transition_steps": engine.last_transition_steps}


def _dense_epoch(state: TrainState, Xd: np.ndarray) -> dict:
    cfg = state.config
    model = cfg.model
    sig = clamped_sigmoid(state.factors.P @ state.factors.Q.T)
    gamma = exmf_gamma_star(Xd, sig, model.eta, model.epsilon)
    R = gamma * (Xd - sig)
    state.factors.P += model.lr_theta * (R @ state.factors.Q
                                         - model.l2_theta * state.factors.P)
    state.factors.Q += model.lr_theta * (R.T @ state.factors.P
                                         - model.l2_theta * state.factors.Q)
    state.gamma = gamma
    value = float(np.sum(gamma * bern_ll(Xd, sig))
                  + np.sum(g_term(gamma, Xd, model.eta, model.epsilon)))
    return {"epoch": state.epoch, "objective": value}


def fit(train: InteractionMatrix, config: TrainConfig,
        social: SocialEdges | None = None, test: InteractionMatrix | None = None,
        state: TrainState | None = None, log_path: str | None = None) -> TrainState:
    """Run config.epochs training epochs, resuming from state if given."""
    if state is None:
        state = init_state(train, config, social)
    Xd = train.to_dense(DENSE_CELL_GUARD) if config.mode == "exmf_dense" else None
    log_fh = open(log_path, "a", encoding="utf-8") if log_path else None
    try:
        for _ in range(config.epochs):
            rng = _epoch_rng(config.seed, state.epoch)
            if config.mode == "exmf_dense":
                record = _dense_epoch(state, Xd)
            else:
                record = _walk_epoch(state, train, rng)
            state.epoch += 1
            if (test is not None and config.eval_every
                    and state.epoch % config.eval_every == 0):
                from .metrics import evaluate
                report = evaluate(state.factors, train, test, ks=config.eval_ks)
                for metric, k, value in report.rows():
                    name = metric if k is None else f"{metric}@{k}"
                    record[name] = value
                    if log_fh:
                        log_fh.write(json.dumps(
                            {"epoch": state.epoch, "metric": name,
                             "value": value}, sort_keys=True) + "\n")
            state.history.append(record)
    finally:
        if log_fh:
            log_fh.close()
    return state


def fit_uniform_baseline(train: InteractionMatrix, config: TrainConfig
                         ) -> PreferenceFactors:
    """Uniform-confidence control: same optimizer and per-epoch sample
    budget, but pairs drawn uniformly and no confidence weighting."""
    sc = config.sampler
    size = max(1, int(np.ceil(sc.alpha / sc.beta * train.nnz)))
    factors = init_factors(
        train.n, train.m, config.model.d,
        seed=np.random.SeedSequence(config.seed, spawn_key=(0, 0)))
    for epoch in range(config.epochs):
        rng = _epoch_rng(config.seed, epoch)
        for _ in range(config.theta_steps):
            users = rng.integers(0, train.n, size=size)
            items = rng.integers(0, train.m, size=size)
            batch = SampleBatch(users=users, items=items,
                                labels=train.labels(users, items),
                                expected_scale=1.0 / size)
            update_theta_from_batch(factors, batch, config.model.lr_theta,
                                    config.model.l2_theta)
    return factors


def save_state(out_dir: str, state: TrainState) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_factors(os.path.join(out_dir, "factors.bin"), state.factors)
    if state.graph is not None:
        save_graph(os.path.join(out_dir, "graph.bin"), state.graph)
    meta = {
        "mode": state.config.mode,
        "epoch": state.epoch,
        "seed": state.config.seed,
        "K": state.config.K,
        "ablation": state.config.ablation,
        "d": state.config.model.d,
        "history": state.history,
    }
    with open(os.path.join(out_dir, "state.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_state(out_dir: str, config: TrainConfig, train: InteractionMatrix,
               social: SocialEdges | None = None) -> TrainState:
    """Rebuild a TrainState from save_state output plus the data topology."""
    with open(os.path.join(out_dir, "state.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta["mode"] != config.mode:
        raise ConfigError(
            f"checkpoint mode {meta['mode']!r} does not match {config.mode!r}")
    factors = load_factors(os.path.join(out_dir, "factors.bin"))
    graph = None
    if config.mode != "exmf_dense":
        graph = load_graph(os.path.join(out_dir, "graph.bin"),
                           train=train, social=social)
        if config.mode == "samwalker_pp" and config.ablation != "none":
            graph.freeze_mix = True
    return TrainState(config=config, factors=factors, graph=graph, gamma=None,
                      epoch=int(meta["epoch"]), history=list(meta["history"]))
