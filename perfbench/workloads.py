"""The benchmark's workloads: seeded inputs, untraced runs, traced runs.

Every workload starts from a raw token TSV made by ``gen`` from the seed and
hands walkrec only that file (and, for social_walk, a raw social edge file),
through public functions.

  pp_graph     samwalker_pp on a planted instance whose graph-step edge
               gathers outgrow the L2 caches; the graph step dominates.
  social_walk  samwalker on the same instance plus a homophilous social
               graph; the sampler and theta step dominate and no
               pseudo-graph code runs.
"""

from __future__ import annotations

import copy
import json
import os
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from walkrec import corpus, metrics, trainer
from walkrec.factors import ModelConfig
from walkrec.trainer import TrainConfig
from walkrec.walker import SamplerConfig

import gen
from tracing import Tracer, traced_epoch, traced_forward

TEST_FRACTION = 0.2
MAX_ITEM_COUNT = 1_000_000  # prepare keeps every item
RERANK_USERS = 64
SETUP_REPEATS = 5
MIN_ROUNDS = 3  # whatever --seconds says
ROUND_EPOCHS = 3


@dataclass(frozen=True)
class Workload:
    mode: str
    instance: dict
    train: dict
    social: dict | None = None
    tiny: dict = field(default_factory=dict)


_SAMPLER = dict(beta=20.0, c=0.9, t_m=5)

WORKLOADS = {
    "pp_graph": Workload(
        mode="samwalker_pp",
        instance=dict(n=1000, m=1500, d=8, groups=8),
        train=dict(d=32, K=16, alpha=100, n_si=100, **_SAMPLER),
        tiny=dict(n=120, m=200, groups=4)),
    "social_walk": Workload(
        mode="samwalker",
        instance=dict(n=1000, m=1500, d=8, groups=8),
        social=dict(out_degree=20, homophily=0.8),
        train=dict(d=32, K=16, alpha=200, n_si=10, **_SAMPLER),
        tiny=dict(n=120, m=200, groups=4)),
}


class Ops:
    """Counts operations (epochs, evaluations) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems) -> None:
        problems = list(problems)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def _scaled(wl: Workload, tiny: bool) -> tuple[dict, dict]:
    """(instance, training settings), the instance shrunk for smoke runs."""
    return dict(wl.instance, **(wl.tiny if tiny else {})), wl.train


def train_config(wl: Workload, tr: dict, seed: int) -> TrainConfig:
    """One epoch per ``fit`` call."""
    return TrainConfig(
        mode=wl.mode, epochs=1, K=tr["K"], n_si=tr["n_si"], seed=seed,
        model=ModelConfig(d=tr["d"]),
        sampler=SamplerConfig(alpha=tr["alpha"], beta=tr["beta"], c=tr["c"],
                              t_m=tr["t_m"], seed=seed))


def make_raw(wl: Workload, inst: dict, seed: int, work: str) -> dict:
    """Write the seeded raw inputs; returns their paths."""
    users, items, groups, _ = gen.planted_positives(
        seed=np.random.SeedSequence(seed, spawn_key=(0,)), **inst)
    paths = {"interactions": os.path.join(work, "raw_interactions.tsv")}
    gen.write_raw_tsv(paths["interactions"], np.column_stack([users, items]), "u", "i")
    if wl.social:
        edges = gen.planted_social(groups, seed=np.random.SeedSequence(seed, spawn_key=(1,)),
                                   **wl.social)
        paths["social"] = os.path.join(work, "raw_social.tsv")
        gen.write_raw_tsv(paths["social"], edges, "u", "u")
    return paths


def prepare(raw: dict, out: str, seed: int, tracer: Tracer) -> None:
    """In-process equivalent of ``walkrec prepare`` with a symmetrized
    social file, one span per corpus call."""
    os.makedirs(out, exist_ok=True)
    with tracer.span("corpus.load"):
        loaded = corpus.load_interactions(raw["interactions"], fmt="tsv")
        pairs = None
        if "social" in raw:
            user_map = {tok: j for j, tok in enumerate(loaded.user_ids)}
            pairs = corpus.load_social(raw["social"], user_map, fmt="tsv")
    with tracer.span("corpus.filter"):
        result = corpus.binarize_and_filter(loaded.interactions, min_item_count=1,
                                            max_item_count=MAX_ITEM_COUNT)
    with tracer.span("corpus.split"):
        train, test = corpus.split_train_test(
            result.matrix, corpus.SplitSpec(test_fraction=TEST_FRACTION, seed=seed))
    with tracer.span("corpus.write"):
        corpus.write_pairs(os.path.join(out, "interactions_train.tsv"), train)
        corpus.write_pairs(os.path.join(out, "interactions_test.tsv"), test)
        if pairs is not None:
            old_to_new = corpus.inverse_index(result.user_index, len(loaded.user_ids))
            edges = corpus.social_edges(train.n, corpus.reindex_pairs(pairs, old_to_new),
                                        symmetrize=True)
            src = np.repeat(np.arange(edges.n), np.diff(edges.indptr))
            corpus.write_pairs(os.path.join(out, "social.tsv"),
                               corpus.matrix_from_pairs(edges.n, edges.n, src, edges.targets))
        with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump({"n": train.n, "m": train.m}, fh)


def load_prepared(data: str, tracer: Tracer):
    """Read a prepared directory the way ``walkrec train`` does."""
    with tracer.span("corpus.read"):
        with open(os.path.join(data, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        n, m = manifest["n"], manifest["m"]
        train = corpus.read_pairs(os.path.join(data, "interactions_train.tsv"), n=n, m=m)
        test = corpus.read_pairs(os.path.join(data, "interactions_test.tsv"), n=n, m=m)
        social = None
        social_path = os.path.join(data, "social.tsv")
        if os.path.exists(social_path):
            links = corpus.read_pairs(social_path, n=n, m=n)
            social = corpus.social_edges(n, np.column_stack([links.row_users,
                                                             links.row_items]))
    return train, test, social


def setup(data: str, config: TrainConfig, tracer: Tracer):
    """Prepared files to a state ready for its first epoch; returns
    (seconds, train, test, social, state)."""
    t0 = time.perf_counter()
    train, test, social = load_prepared(data, tracer)
    with tracer.span("trainer.init_state"):
        state = trainer.init_state(train, config, social)
    return time.perf_counter() - t0, train, test, social, state


def epoch_problems(state, train) -> list[str]:
    """Finite objective and factors, and the sampler within its budget."""
    rec = state.history[-1]
    cfg = state.config
    out = []
    if not np.isfinite(rec["phi_objective"]):
        out.append(f"phi objective {rec['phi_objective']}")
    if not (np.isfinite(state.factors.P).all() and np.isfinite(state.factors.Q).all()):
        out.append("non-finite factors")
    budget = cfg.sampler.alpha * train.n * cfg.sampler.t_m
    if rec["transition_steps"] > budget:
        out.append(f"{rec['transition_steps']} transition steps > budget {budget}")
    return out


def _idcg(k: int) -> float:
    return float(np.sum(1.0 / np.log2(np.arange(1, k + 1) + 1.0)))


def rerank_problems(factors, train, test, rng: np.random.Generator) -> list[str]:
    """evaluate's Recall@10 and NDCG on sampled users against a brute-force
    re-rank that counts, for each test item, the candidates scoring higher or
    scoring equal with a smaller id. The arithmetic matches, so the values
    must agree exactly."""
    with_test = np.flatnonzero(test.row_counts > 0)
    pick = np.sort(rng.choice(with_test, size=min(RERANK_USERS, with_test.size),
                              replace=False))
    sub = corpus.matrix_from_pairs(test.n, test.m, np.repeat(pick, test.row_counts[pick]),
                                   np.concatenate([test.row(u) for u in pick]))
    report = metrics.evaluate(factors, train, sub, ks=(10,))
    rec = ndcg = 0.0
    ids = np.arange(train.m)
    for u in pick.tolist():
        scores = factors.Q @ factors.P[u]
        cand = np.ones(train.m, dtype=bool)
        cand[train.row(u)] = False
        te = test.row(u)
        ranks = np.array([1 + np.sum(cand & ((scores > scores[j]) | ((scores == scores[j])
                                                                    & (ids < j))))
                          for j in te.tolist()], dtype=np.int64)
        rec += int(np.sum(ranks <= 10)) / te.shape[0]
        ndcg += float(np.sum(1.0 / np.log2(ranks + 1.0))) / _idcg(te.shape[0])
    rec, ndcg = rec / pick.shape[0], ndcg / pick.shape[0]
    out = []
    if rec != report.recall[10]:
        out.append(f"re-rank recall@10 {rec!r} != evaluate {report.recall[10]!r}")
    if ndcg != report.ndcg:
        out.append(f"re-rank ndcg {ndcg!r} != evaluate {report.ndcg!r}")
    return out


def random_recall(train, test, k: int = 10) -> float:
    """Expected macro Recall@k of a uniformly random candidate ranking."""
    users = np.flatnonzero(test.row_counts > 0)
    cand = train.m - train.row_counts[users]
    return float(np.mean(np.minimum(k, cand) / cand))


def _median(values) -> float:
    return float(statistics.median(values))


def _timed_epoch(state, train, social, config, ops: Ops) -> float:
    t0 = time.perf_counter()
    trainer.fit(train, config, social=social, state=state)
    dt = time.perf_counter() - t0
    ops.record(f"epoch {state.epoch}", epoch_problems(state, train))
    return dt


def _another_round(start: float, rounds: int, seconds: float) -> bool:
    """At least MIN_ROUNDS, then as many as fit in --seconds at the mean
    round length so far."""
    if rounds < MIN_ROUNDS:
        return True
    return (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds


def run_library(name: str, seed: int, seconds: float, work: str, tiny: bool,
                ops: Ops) -> dict:
    """Untraced run of pp_graph or social_walk; returns the samples of each
    end-to-end metric.

    Each round sets up a fresh state from the prepared files, trains
    ROUND_EPOCHS epochs one ``fit`` call at a time, writes the checkpoint and
    evaluates. Rounds repeat until --seconds is used up, so every metric is
    a median over samples spread across the run; each round must reproduce
    the first one's factors and report exactly.
    """
    wl = WORKLOADS[name]
    inst, tr = _scaled(wl, tiny)
    off = Tracer(name, enabled=False)
    config = train_config(wl, tr, seed)
    data, model = os.path.join(work, "data"), os.path.join(work, "model")
    prepare(make_raw(wl, inst, seed, work), data, seed, off)
    times = {"setup": [], "epoch": [], "train": [], "eval": []}
    first = None
    start = time.perf_counter()
    while _another_round(start, len(times["train"]), seconds):
        t0 = time.perf_counter()
        setup_s, train, test, social, state = setup(data, config, off)
        epochs = [_timed_epoch(state, train, social, config, ops)
                  for _ in range(ROUND_EPOCHS)]
        trainer.save_state(model, state)
        times["train"].append(time.perf_counter() - t0)
        times["setup"].append(setup_s)
        times["epoch"].extend(epochs[1:])  # the first epoch of a round warms up
        for _ in range(2):  # evaluate is short: sample it twice a round
            t0 = time.perf_counter()
            report = metrics.evaluate(state.factors, train, test, ks=(10,))
            times["eval"].append(time.perf_counter() - t0)
            if first is None:
                first = (state.factors.P.copy(), state.factors.Q.copy(), report.as_dict())
                ops.record("evaluate", rerank_problems(state.factors, train, test,
                                                       np.random.default_rng(seed)))
            else:
                same = (np.array_equal(first[0], state.factors.P)
                        and np.array_equal(first[1], state.factors.Q)
                        and first[2] == report.as_dict())
                ops.record("evaluate", [] if same else ["round differs from the first"])
    print(f"quality recall@10 {first[2]['recall@10']:.6f} "
          f"random {random_recall(train, test):.6f}")
    return {"setup_s": times["setup"], "epoch_s": times["epoch"],
            "eval_s": times["eval"], "train_s": times["train"],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]}


def _same_state(a, b) -> bool:
    arrays = ("logits",) if hasattr(a.graph, "logits") else (
        "ui_logits", "iu_logits", "uc_logits", "cu_logits", "mix_logits")
    return (np.array_equal(a.factors.P, b.factors.P)
            and np.array_equal(a.factors.Q, b.factors.Q)
            and all(np.array_equal(getattr(a.graph, k), getattr(b.graph, k)) for k in arrays))


def run_traced(name: str, seed: int, seconds: float, work: str, tiny: bool,
               ops: Ops, tracer: Tracer) -> dict:
    """Traced run of any workload, in-process; returns per-layer metrics.

    Traced epochs alternate with untraced ``fit`` epochs run from a copy of
    the same state: the two must leave identical states, and their times
    give the tracing overhead. One more traced epoch runs under tracemalloc
    for per-layer peaks; its times are not used.
    """
    wl = WORKLOADS[name]
    inst, tr = _scaled(wl, tiny)
    config = train_config(wl, tr, seed)
    data = os.path.join(work, "data")
    prepare(make_raw(wl, inst, seed, work), data, seed, tracer)
    for _ in range(SETUP_REPEATS):
        _, train, test, social, state = setup(data, config, tracer)
    _timed_epoch(state, train, social, config, ops)
    window = time.perf_counter()
    untraced, counts = [], None
    while _another_round(window, len(untraced), seconds):
        # alternate which of the pair runs first, so neither side always
        # finds the caches warm
        shadow = copy.deepcopy(state, memo={id(train): train, id(social): social})
        traced_first = len(untraced) % 2 == 1
        if traced_first:
            out = traced_epoch(state, train, tracer)
        untraced.append(_timed_epoch(shadow, train, social, config, ops))
        if not traced_first:
            out = traced_epoch(state, train, tracer)
        ops.record(f"traced epoch {state.epoch}", epoch_problems(state, train)
                   + ([] if _same_state(state, shadow)
                      else ["traced epoch and fit epoch disagree"]))
        counts = counts or out["counts"]
    tracemalloc.start()
    tracer.memory = True
    try:
        out = traced_epoch(state, train, tracer)
    finally:
        tracer.memory = False
        tracemalloc.stop()
    ops.record(f"memory epoch {state.epoch}", epoch_problems(state, train))
    tape = traced_forward(state, train, out["items"], tracer)
    with tracer.span("trainer.save_state"):
        trainer.save_state(os.path.join(work, "model"), state)
    with tracer.span("metrics.evaluate"):
        report = metrics.evaluate(state.factors, train, test, ks=(10,))
    ops.record("evaluate", rerank_problems(state.factors, train, test,
                                           np.random.default_rng(seed)))
    return layer_metrics(tracer, counts, tape, report.users, state.config, train.n,
                         _median(untraced))


LAYER_SPANS = ("graphnet.fold", "walker.engine", "walker.stop", "walker.emit",
               "factors.predict", "factors.theta", "exposure.phi_step")


def layer_metrics(tracer: Tracer, counts: dict, tape: dict, users: int, config,
                  n: int, untraced_epoch: float) -> dict:
    """Per-layer metrics from the recorded spans and computed counts."""
    self_time = tracer.self_times()
    timed = [s for s in tracer.spans if not s["memory_pass"]]
    epochs = [s for s in timed if s["name"] == "epoch"]

    def per_epoch(name):
        return _median([sum(self_time[s["id"]] for s in timed
                            if s["name"] == name and s["parent"] == e["id"])
                        for e in epochs])

    def once(name):
        return _median([self_time[s["id"]] for s in timed if s["name"] == name])

    def peak(name):
        return max(s["peak_mb"] for s in tracer.spans
                   if s["memory_pass"] and s["name"] == name)

    layer_self = sum(self_time[s["id"]] for s in timed
                     if s["parent"] is not None and tracer.spans[s["parent"]]["name"] == "epoch")
    epoch_wall = sum(e["end"] - e["start"] for e in epochs)
    sc = config.sampler
    out = {f"{name}_s": per_epoch(name) for name in LAYER_SPANS}
    out["exposure.forward_s"] = once("exposure.forward")
    out["exposure.backward_s"] = out["exposure.phi_step_s"] - out["exposure.forward_s"]
    out.update({
        "exposure.edge_visits": tape["edge_visits"],
        "exposure.tape_mb": tape["tape_mb"],
        "exposure.phi_peak_mb": peak("exposure.phi_step"),
        "factors.theta_pairs": counts["pairs"],
        "factors.theta_peak_mb": peak("factors.theta"),
        "walker.walks": counts["walks"],
        "walker.transition_steps": counts["transition_steps"],
        "walker.budget_ratio": counts["transition_steps"] / (sc.alpha * n * sc.t_m),
        "walker.candidates": counts["candidates"],
        "walker.pairs": counts["pairs"],
        "walker.emit_yield": counts["pairs"] / max(counts["candidates"], 1),
        "walker.positive_frac": counts["positives"] / max(counts["pairs"], 1),
        "walker.emit_peak_mb": peak("walker.emit"),
        "metrics.evaluate_s": once("metrics.evaluate"),
        "metrics.users": users,
        "corpus.read_s": once("corpus.read"),
        "corpus.load_s": once("corpus.load"),
        "corpus.filter_s": once("corpus.filter"),
        "corpus.split_s": once("corpus.split"),
        "corpus.write_s": once("corpus.write"),
        "trainer.init_state_s": once("trainer.init_state"),
        "trainer.save_state_s": once("trainer.save_state"),
        "trace.coverage": layer_self / epoch_wall,
        "trace.overhead": _median([e["end"] - e["start"] for e in epochs]) / untraced_epoch - 1.0,
    })
    out["metrics.users_per_s"] = users / out["metrics.evaluate_s"]
    return out
