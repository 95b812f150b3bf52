"""Spans recorded around calls into walkrec's layers, and the traced epoch.

The benchmark times layers from outside: each span wraps one call into a
layer's module. Spans are kept in memory and written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc

import numpy as np

from walkrec.exposure import propagate_columns
from walkrec.factors import bern_ll, predict_pairs
from walkrec.graphnet import normalize_edges
from walkrec.trainer import update_phi_step, update_theta_from_batch
from walkrec.walker import SampleBatch, WalkEngine

MB = 1024.0 * 1024.0


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    With ``memory=True`` every span also records the tracemalloc peak above
    the traced memory at its start (``peak_mb``). Resetting the peak at a
    span's start spoils the peak of an enclosing span, so only leaf spans'
    peaks are meaningful.
    """

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.memory = False
        self.epoch: int | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "epoch": self.epoch,
               "memory_pass": self.memory, "start": None, "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        if self.memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.memory:
                rec["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / MB
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    """The per-epoch stream the trainer documents:
    SeedSequence(seed, spawn_key=(epoch + 1,))."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(epoch + 1,)))


def phi_items(m: int, n_si: int, rng: np.random.Generator) -> np.ndarray:
    """The graph step's item columns, drawn as the trainer draws them."""
    if n_si >= m:
        return np.arange(m, dtype=np.int64)
    return np.sort(rng.choice(m, size=n_si, replace=False).astype(np.int64))


def item_columns(train, items: np.ndarray) -> np.ndarray:
    """Dense n x len(items) indicator block of the given item columns."""
    cols = np.zeros((train.n, items.shape[0]), dtype=np.float64)
    for jj, j in enumerate(items.tolist()):
        cols[train.col(j), jj] = 1.0
    return cols


def traced_epoch(state, train, tracer: Tracer) -> dict:
    """One walk-mode training epoch through public calls, one span per layer.

    Mirrors the trainer's epoch step for step and consumes the same random
    stream, so the state it leaves equals that of ``fit(..., epochs=1)``.
    Returns the epoch's exact work counts and the graph step's item columns.
    """
    cfg = state.config
    sc = cfg.sampler
    rng = epoch_rng(cfg.seed, state.epoch)
    tracer.epoch = state.epoch
    counts = {"walks": 0, "transition_steps": 0, "candidates": 0, "pairs": 0,
              "positives": 0}
    batch_ll = 0.0
    with tracer.span("epoch"):
        with tracer.span("graphnet.fold"):
            fold = normalize_edges(state.graph)
        with tracer.span("walker.engine"):
            engine = WalkEngine(fold, train, sc)
        for _ in range(cfg.theta_steps):
            origins = np.repeat(np.arange(engine.n, dtype=np.int64), sc.alpha)
            with tracer.span("walker.stop"):
                stops = engine.stop_users(origins, rng)
            with tracer.span("walker.emit"):
                users, items, labels = engine.emit(origins, stops, rng)
            batch = SampleBatch(users=users, items=items, labels=labels,
                                expected_scale=sc.beta / sc.alpha)
            if batch.size:
                with tracer.span("factors.predict"):
                    sig = predict_pairs(state.factors, users, items)
                    batch_ll += float(np.sum(bern_ll(labels.astype(np.float64), sig)))
            with tracer.span("factors.theta"):
                update_theta_from_batch(state.factors, batch, cfg.model.lr_theta,
                                        cfg.model.l2_theta)
            counts["walks"] += int(origins.shape[0])
            counts["transition_steps"] += engine.last_transition_steps
            counts["candidates"] += int(train.row_counts[stops].sum())
            counts["pairs"] += batch.size
            counts["positives"] += int(labels.sum())
        cols = phi_items(train.m, cfg.n_si, rng)
        with tracer.span("exposure.phi_step"):
            value = update_phi_step(state.graph, state.factors, train, cols,
                                    cfg.model, sc)
    state.history.append({"epoch": state.epoch, "phi_objective": value,
                          "batch_size": counts["pairs"], "batch_ll": batch_ll,
                          "transition_steps": engine.last_transition_steps})
    state.epoch += 1
    tracer.epoch = None
    return {"counts": counts, "items": cols}


def traced_forward(state, train, items: np.ndarray, tracer: Tracer) -> dict:
    """One extra taped propagation on a pre-folded graph; returns the tape's
    computed size and the forward edge visits, t_m * n_si * edges."""
    sc = state.config.sampler
    fold = normalize_edges(state.graph)
    cols = item_columns(train, items)
    with tracer.span("exposure.forward"):
        _, gammas, parts = propagate_columns(fold, cols, sc.t_m, sc.c, keep_tape=True)
    taped = {id(a): a.nbytes for a in gammas}
    for step in parts:
        for a in step or ():
            taped[id(a)] = a.nbytes
    if fold.kind == "pseudo":  # user-item, item-user, user-community, community-user
        edges = 2 * train.nnz + 2 * fold.n * fold.K
    else:
        edges = int(fold.targets.shape[0])
    return {"tape_mb": sum(taped.values()) / MB,
            "edge_visits": sc.t_m * items.shape[0] * edges}
