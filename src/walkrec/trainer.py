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

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .corpus import (InteractionMatrix, SocialEdges, read_json_object,
                     write_json_object)
from .errors import ConfigError, EstimatorError, GuardError
from .exposure import g_term, phi_objective_and_backward
from .factors import (ModelConfig, PreferenceFactors,
                      accumulate_pair_gradients, bern_ll, clamped_sigmoid,
                      init_factors, load_factors, predict_pairs, save_factors,
                      sigmoid)
from .graphnet import (ABLATION_MIX, PseudoGraphParams, SocialGraphParams,
                       build_pseudo_graph, build_social_graph, load_graph,
                       logit_arrays, normalize_edges, save_graph)
from .metrics import evaluate
from .walker import BaselineSampler, SamplerConfig, SampleBatch, WalkEngine

_logger = logging.getLogger(__name__)

MODES = ("samwalker", "samwalker_pp", "exmf_dense")
ABLATIONS = tuple(ABLATION_MIX)
DENSE_CELL_GUARD = 10_000_000


def parse_ks(text: str) -> tuple[int, ...]:
    """Distinct positive integers from a comma-separated list (cutoffs for
    --ks, depths for --tm-values)."""
    bad = f"bad list {text!r}: expected distinct positive integers, comma separated"
    try:
        ks = tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise ConfigError(bad) from None
    if not ks or min(ks) < 1 or len(set(ks)) != len(ks):
        raise ConfigError(bad)
    return ks


# The flat settings schema: CLI flag dest / --config key / state.json key
# -> (section of TrainConfig, or None for TrainConfig itself; field; parser;
# the flag's help text).
FLAT_FIELDS = {
    "mode": (None, "mode", str, "training mode"),
    "d": ("model", "d", int, "factor dimension"),
    "k": (None, "K", int, "community count, samwalker_pp only"),
    "epochs": (None, "epochs", int, "epochs to run"),
    "alpha": ("sampler", "alpha", int, "walks per user per batch"),
    "beta": ("sampler", "beta", float, "item thinning divisor"),
    "c": ("sampler", "c", float, "walk continuation probability"),
    "t_m": ("sampler", "t_m", int, "propagation depth / walk cap"),
    "eta": ("model", "eta", float, "prior exposure probability"),
    "epsilon": ("model", "epsilon", float, "accidental click probability"),
    "lr_theta": ("model", "lr_theta", float, "factor learning rate"),
    "lr_phi": ("model", "lr_phi", float, "graph learning rate"),
    "l2_theta": ("model", "l2_theta", float, "per-entry factor l2"),
    "n_si": (None, "n_si", int, "item columns per graph step"),
    "theta_steps": (None, "theta_steps", int, "factor batches per epoch"),
    "eval_every": (None, "eval_every", int, "evaluate every E epochs, 0 for never"),
    "ks": (None, "eval_ks", parse_ks, "evaluation cutoffs, comma separated"),
    "seed": (None, "seed", int, "master rng seed"),
    "ablation": (None, "ablation", str, "freeze the bridge mix, samwalker_pp only"),
}
# Settings a resumed run may change: they do not alter the trajectory.
RESUME_FREE = ("epochs", "eval_every", "ks")


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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.eval_ks or min(self.eval_ks) < 1:
            raise ConfigError("eval_ks must be positive cutoffs")
        if len(set(self.eval_ks)) != len(self.eval_ks):
            raise ConfigError(f"eval_ks repeats a cutoff: {self.eval_ks}")

    def to_flat(self) -> dict:
        """The settings as one JSON-ready object keyed as FLAT_FIELDS."""
        flat = {key: getattr(getattr(self, section) if section else self, name)
                for key, (section, name, *_) in FLAT_FIELDS.items()}
        flat["ks"] = ",".join(str(k) for k in self.eval_ks)
        return flat

    @classmethod
    def from_flat(cls, settings: dict, origin: str = "settings") -> "TrainConfig":
        """Build a config from flat settings; missing keys take the dataclass
        defaults, and seed sets both this and the sampler's seed. origin
        names the source of the settings in errors."""
        unknown = sorted(set(settings) - set(FLAT_FIELDS))
        if unknown:
            raise ConfigError(f"{origin}: unknown config keys {unknown}")
        parts = {None: {}, "model": {}, "sampler": {}}
        for key, value in settings.items():
            section, name, parse, _ = FLAT_FIELDS[key]
            if value is None or isinstance(value, (bool, list, dict)):
                raise ConfigError(f"{origin}: {key} must be a number or a "
                                  f"string, got {json.dumps(value)}")
            if parse is int and isinstance(value, float) and not value.is_integer():
                raise ConfigError(f"{origin}: {key} must be an integer, got {value!r}")
            try:
                parts[section][name] = parse(value)
            except ValueError as e:
                raise ConfigError(f"{origin}: {key}: {e}") from None
        if "seed" in parts[None]:
            parts["sampler"]["seed"] = parts[None]["seed"]
        return cls(**parts[None], model=ModelConfig(**parts["model"]),
                   sampler=SamplerConfig(**parts["sampler"]))


@dataclass
class TrainState:
    config: TrainConfig
    factors: PreferenceFactors
    graph: SocialGraphParams | PseudoGraphParams | None
    train_sha256: str
    epoch: int
    history: list[dict]


def train_sha256(train: InteractionMatrix) -> str:
    """Fingerprint of the train matrix a state was fitted on."""
    h = hashlib.sha256()
    for part in ([train.n, train.m], train.row_indptr, train.row_items):
        h.update(np.asarray(part, dtype=np.int64).tobytes())
    return h.hexdigest()


def _check_same_run(have: TrainConfig, want: TrainConfig, where: str,
                    what: str) -> None:
    """Refuse to continue the run have describes under want.

    Every setting except RESUME_FREE (and K outside samwalker_pp) must
    match; a mismatch is a ConfigError naming the field, since the continued
    run would neither replay have's run nor be recorded truthfully. The
    message names have as the `what` found at `where`.
    """
    saved, wanted = have.to_flat(), want.to_flat()
    for key, (_, name, *_) in FLAT_FIELDS.items():
        if key in RESUME_FREE or (key == "k" and want.mode != "samwalker_pp"):
            continue
        if saved[key] != wanted[key]:
            raise ConfigError(
                f"{where}: {what} {name} {saved[key]!r} does not match "
                f"{wanted[key]!r}; resume with the {what}'s settings")


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

    Labels are 0 or 1, so the log likelihood takes one log per pair: the
    term bern_ll multiplies by zero is exactly zero, and the sum over the
    same per-pair terms in the same order is bit-equal to bern_ll's. The
    terms overwrite the predictions once the gradient no longer needs
    them; the batch itself is left unchanged.
    """
    if batch.size == 0:
        _logger.warning("empty sample batch; theta update skipped")
        return 0.0
    sig = predict_pairs(factors, batch.users, batch.items)
    dP, dQ = accumulate_pair_gradients(factors, batch.users, batch.items,
                                       batch.labels, sig=sig)
    if l2 > 0.0:
        cu = np.bincount(batch.users, minlength=factors.n)[:, None]
        ci = np.bincount(batch.items, minlength=factors.m)[:, None]
        dP -= l2 * cu * factors.P
        dQ -= l2 * ci * factors.Q
    factors.P += lr * dP
    factors.Q += lr * dQ
    ones = batch.labels.astype(bool)
    zeros = ~ones
    np.log(sig, out=sig, where=ones)
    np.negative(sig, out=sig, where=zeros)
    np.log1p(sig, out=sig, where=zeros)
    return float(np.sum(sig))


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
    grad = logit_arrays(grads)
    for name, logits in logit_arrays(fold.params).items():
        logits += model.lr_phi * grad[name]
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


def _build_graph(train: InteractionMatrix, config: TrainConfig,
                 social: SocialEdges | None, drawn: bool):
    """config's graph on train (None for exmf_dense), its logits drawn from
    config.seed, or undrawn for a checkpoint to be read into."""
    seed = np.random.SeedSequence(config.seed, spawn_key=(0, 1))
    if config.mode == "samwalker":
        if social is None:
            raise ConfigError("samwalker mode needs social edges: a prepared "
                              "directory's social.tsv (prepare --social)")
        return build_social_graph(social, seed=seed, drawn=drawn)
    if config.mode == "samwalker_pp":
        return build_pseudo_graph(train, K=config.K, seed=seed,
                                  ablation=config.ablation, drawn=drawn)
    if train.n * train.m > DENSE_CELL_GUARD:
        raise GuardError(
            f"exmf_dense on {train.n}x{train.m} exceeds {DENSE_CELL_GUARD} cells")
    return None


def init_state(train: InteractionMatrix, config: TrainConfig,
               social: SocialEdges | None = None) -> TrainState:
    graph = _build_graph(train, config, social, drawn=True)
    factors = init_factors(
        train.n, train.m, config.model.d,
        seed=np.random.SeedSequence(config.seed, spawn_key=(0, 0)))
    return TrainState(config=config, factors=factors, graph=graph,
                      train_sha256=train_sha256(train), epoch=0, history=[])


def _walk_epoch(state: TrainState, train: InteractionMatrix,
                rng: np.random.Generator) -> dict:
    cfg = state.config
    fold = normalize_edges(state.graph)
    engine = WalkEngine(fold, train, cfg.sampler)
    batch_size = transition_steps = 0
    theta_ll = 0.0
    for step in range(cfg.theta_steps):
        batch = engine.sample_batch(rng)
        batch_size += batch.size
        transition_steps += engine.last_transition_steps
        if step == cfg.theta_steps - 1:
            del engine  # no walk follows: free the row samplers before theta
        theta_ll += update_theta_from_batch(state.factors, batch,
                                            cfg.model.lr_theta,
                                            cfg.model.l2_theta)
    del batch  # freed before the graph step tapes its columns
    items = _select_phi_items(train.m, cfg.n_si, rng)
    value = update_phi_step(fold, state.factors, train, items,
                            cfg.model, cfg.sampler)
    return {"epoch": state.epoch, "phi_objective": value,
            "batch_size": batch_size, "batch_ll": theta_ll,
            "transition_steps": transition_steps}


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
    value = float(np.sum(gamma * bern_ll(Xd, sig))
                  + np.sum(g_term(gamma, Xd, model.eta, model.epsilon)))
    return {"epoch": state.epoch, "objective": value}


def _check_finite(state: TrainState, record: dict) -> None:
    """Refuse a diverged run: every float in the epoch's record, P, Q and
    the graph logits must be finite. The first that is not raises
    EstimatorError naming the epoch and the quantity."""
    quantities = [(key, value) for key, value in record.items()
                  if isinstance(value, float)]
    quantities += [("P", state.factors.P), ("Q", state.factors.Q)]
    if state.graph is not None:
        quantities += [(f"graph {name}", value)
                       for name, value in logit_arrays(state.graph).items()]
    for name, value in quantities:
        if not np.isfinite(value).all():
            raise EstimatorError(
                f"training diverged in epoch {state.epoch}: {name} is not "
                "finite (lower lr_theta or lr_phi)")


def fit(train: InteractionMatrix, config: TrainConfig,
        social: SocialEdges | None = None, test: InteractionMatrix | None = None,
        state: TrainState | None = None, log_path: str | None = None) -> TrainState:
    """Run config.epochs training epochs, resuming from state if given.

    A state given must have been trained on train with config's settings,
    except RESUME_FREE, as load_state requires of a checkpoint; social must
    cover train's users, and test, when evaluation will run, must have
    train's shape. Each mismatch is a ConfigError naming the argument or
    field, raised before any epoch runs; state.config then becomes config.
    An epoch that leaves a non-finite value raises EstimatorError, and the
    log at log_path is first put back as the call found it: the same bytes,
    or absent if it was absent.
    """
    if social is not None and social.n != train.n:
        raise ConfigError(f"fit: social has {social.n} users but train has "
                          f"{train.n}")
    if (test is not None and config.eval_every
            and (test.n, test.m) != (train.n, train.m)):
        raise ConfigError(f"fit: test is {test.n}x{test.m} but train is "
                          f"{train.n}x{train.m}")
    if state is None:
        state = init_state(train, config, social)
    else:
        if state.train_sha256 != train_sha256(train):
            raise ConfigError("fit: state was trained on other data (train "
                              "matrix SHA-256 differs)")
        _check_same_run(state.config, config, "fit", "state")
        state.config = config
    Xd = train.to_dense(DENSE_CELL_GUARD) if config.mode == "exmf_dense" else None
    log_fh = None
    if log_path:
        log_existed = os.path.exists(log_path)
        log_fh = open(log_path, "a", encoding="utf-8")
        log_size = log_fh.tell()
    try:
        for _ in range(config.epochs):
            rng = _epoch_rng(config.seed, state.epoch)
            if config.mode == "exmf_dense":
                record = _dense_epoch(state, Xd)
            else:
                record = _walk_epoch(state, train, rng)
            state.epoch += 1
            _check_finite(state, record)
            if (test is not None and config.eval_every
                    and state.epoch % config.eval_every == 0):
                report = evaluate(state.factors, train, test, ks=config.eval_ks)
                for name, value in report.as_dict().items():
                    record[name] = value
                    if log_fh:
                        log_fh.write(json.dumps(
                            {"epoch": state.epoch, "metric": name,
                             "value": value}, sort_keys=True) + "\n")
            state.history.append(record)
    except EstimatorError:
        if log_fh:
            log_fh.truncate(log_size)
            log_fh.close()
            if not log_existed:
                os.remove(log_path)
        raise
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
    sampler = BaselineSampler("allunion", train)
    factors = init_factors(
        train.n, train.m, config.model.d,
        seed=np.random.SeedSequence(config.seed, spawn_key=(0, 0)))
    for epoch in range(config.epochs):
        rng = _epoch_rng(config.seed, epoch)
        for _ in range(config.theta_steps):
            update_theta_from_batch(factors, sampler.sample(size, rng),
                                    config.model.lr_theta,
                                    config.model.l2_theta)
    return factors


def save_state(out_dir: str, state: TrainState) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_factors(os.path.join(out_dir, "factors.bin"), state.factors)
    if state.graph is not None:
        save_graph(os.path.join(out_dir, "graph.bin"), state.graph)
    meta = {"config": state.config.to_flat(), "epoch": state.epoch,
            "history": state.history, "train_sha256": state.train_sha256}
    write_json_object(os.path.join(out_dir, "state.json"), meta)


def load_state(out_dir: str, config: TrainConfig | None, train: InteractionMatrix,
               social: SocialEdges | None = None) -> TrainState:
    """Rebuild a TrainState from save_state output plus the data topology.

    config None means the settings state.json records; otherwise every
    setting but RESUME_FREE (and K outside samwalker_pp) must match it, and
    train must be the matrix the checkpoint was fitted on, or the resumed
    run would neither replay the checkpointed one nor be recorded truthfully.
    A mismatch, or a missing, malformed, wrongly shaped or non-finite
    checkpoint file (each file is read into arrays allocated at this run's
    shapes, nothing drawn), is a ConfigError or ParseError naming the field
    or the file.
    """
    path = os.path.join(out_dir, "state.json")
    meta = read_json_object(path)
    if not isinstance(meta.get("config"), dict):
        raise ConfigError(f"{path}: no config object (a checkpoint from an "
                          "older walkrec cannot be resumed; retrain)")
    if (type(meta.get("epoch")) is not int or meta["epoch"] < 0
            or not isinstance(meta.get("history"), list)
            or not isinstance(meta.get("train_sha256"), str)):
        raise ConfigError(f"{path}: epoch, history or train_sha256 missing "
                          "or malformed")
    saved = TrainConfig.from_flat(meta["config"], origin=path)
    config = config or saved
    _check_same_run(saved, config, out_dir, "checkpoint")
    graph = _build_graph(train, config, social, drawn=False)
    if meta["train_sha256"] != train_sha256(train):
        raise ConfigError(f"{out_dir}: checkpoint was trained on other data "
                          "(train matrix SHA-256 differs); use the "
                          "checkpoint's data")
    factors = load_factors(os.path.join(out_dir, "factors.bin"),
                           train.n, train.m, config.model.d)
    files = {"factors.bin": [factors.P, factors.Q]}
    if graph is not None:
        load_graph(os.path.join(out_dir, "graph.bin"), graph)
        files["graph.bin"] = logit_arrays(graph).values()
    for name, arrays in files.items():
        if not all(np.isfinite(a).all() for a in arrays):
            raise ConfigError(f"{os.path.join(out_dir, name)}: holds non-finite "
                              "values (the run that wrote it diverged); retrain")
    return TrainState(config=config, factors=factors, graph=graph,
                      train_sha256=meta["train_sha256"], epoch=meta["epoch"],
                      history=list(meta["history"]))
