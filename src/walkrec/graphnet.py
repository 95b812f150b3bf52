"""Parameterized user-to-user transition structures.

Two graph families share one interface. The social graph puts a learnable
logit on every directed friend edge; rows of the transition matrix W are
per-user softmaxes over out-edges. The pseudo graph has no explicit edges:
a user hops either through an item bridge (user -> consumed item -> that
item's consumer) or through one of K community bridges, mixed by a per-user
gate a_u = sigmoid(mix_logit_u), so

    W[u, v] = a_u * sum_i phi_ui * phi_iv + (1 - a_u) * sum_c phi_uc * phi_cv

with each phi block row-softmaxed. W is never materialized at scale: the
social W and the pseudo bridges (user->item UI, item->user IU) are scipy
CSR matrices. normalize_edges folds the logits into a frozen transition,
and both families' folds share one interface: apply_W maps a column block
(n x J) through W in O(edges * J), backward pulls a propagation gradient
back to the logits from the propagated columns alone (applying W's
transpose as it goes), row_samplers builds the inverse-CDF samplers a
walk draws its hops from, and step draws one walk transition per user with
them. A fold does not keep its samplers: the walk that builds them owns
them, so they are freed with it. No other module needs to know which family
it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .corpus import InteractionMatrix, SocialEdges
from .errors import ConfigError, GuardError
from .factors import pair_dots, read_checkpoint, sigmoid, write_checkpoint

GRAPH_MAGIC = b"PROPGRPH"
GRAPH_VERSION = 1
MODE_SOCIAL = 0
MODE_PSEUDO = 1
INIT_SCALE = 0.01  # standard deviation of the initial edge logits
# Initial mix logit per bridge ablation: sigmoid(+-1000) is exactly 1 or 0,
# where the gate's gradient a(1 - a) is exactly 0, so an ablated mix stays.
ABLATION_MIX = {"none": 0.0, "no_item": -1000.0, "no_community": 1000.0}


def segment_softmax(logits: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Stable softmax within each consecutive group of a flat array."""
    counts = np.diff(indptr)
    if logits.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    nz = counts > 0
    starts = indptr[:-1][nz]
    reps = counts[nz]
    out = logits - np.repeat(np.maximum.reduceat(logits, starts), reps)
    np.exp(out, out=out)
    out /= np.repeat(np.add.reduceat(out, starts), reps)
    return out


def segment_softmax_vjp(probs: np.ndarray, grad_probs: np.ndarray,
                        indptr: np.ndarray) -> np.ndarray:
    """Pull a gradient in probability space back to logit space, per group."""
    counts = np.diff(indptr)
    if probs.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    nz = counts > 0
    pg = probs * grad_probs
    dot = np.repeat(np.add.reduceat(pg, indptr[:-1][nz]), counts[nz])
    return pg - probs * dot


def row_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def row_softmax_vjp(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    pg = probs * grad_probs
    return pg - probs * pg.sum(axis=1, keepdims=True)


@dataclass
class SocialGraphParams:
    """Learnable state of the social transition graph."""

    edges: SocialEdges
    logits: np.ndarray

    @property
    def n(self) -> int:
        return self.edges.n


@dataclass
class PseudoGraphParams:
    """Learnable state of the pseudo transition graph.

    Topology is exactly the training matrix: one user->item logit per
    observed pair in user-grouped (CSR) order, one item->user logit per pair
    in item-grouped (CSC) order, plus dense user<->community logits and the
    per-user mixing logit.
    """

    train: InteractionMatrix
    K: int
    ui_logits: np.ndarray
    iu_logits: np.ndarray
    uc_logits: np.ndarray
    cu_logits: np.ndarray
    mix_logits: np.ndarray

    @property
    def n(self) -> int:
        return self.train.n

    @property
    def m(self) -> int:
        return self.train.m


def logit_arrays(params) -> dict[str, np.ndarray]:
    """A graph's learnable arrays by name, in checkpoint order: the one list
    the checkpoint, the graph step and the finiteness check read. A fold's
    backward returns the gradient as params of its family, indexed alike."""
    if isinstance(params, SocialGraphParams):
        return {"logits": params.logits}
    if isinstance(params, PseudoGraphParams):
        return {name: getattr(params, name) for name in (
            "ui_logits", "iu_logits", "uc_logits", "cu_logits", "mix_logits")}
    raise TypeError(f"not a graph parameter object: {type(params).__name__}")


class _RowSampler:
    """Inverse-CDF draws from per-group categorical rows of a flat array.

    Group g's probabilities occupy probs[indptr[g]:indptr[g+1]] and sum to 1;
    every group that is drawn from must be non-empty. ``flat`` holds each
    group's cumulative sums offset by the group id, and a draw of uniform r
    in group g is the first position of the group with flat >= g + r, or the
    group's last position if there is none.

    Draws start from a guide table (the cutpoint method: Chen & Asau 1974;
    Devroye 1986, III.2.4): for a group with d entries, bucket b < d points
    at the first position whose cumulative sum reaches b/d, so a draw in
    bucket floor(r * d) is at most a step or two away. Each guided answer
    is checked against the search it replaces and a draw that cannot be
    proven falls back to that search, so the result is always exactly
    clip(searchsorted(flat, g + r), first, last) of the group.
    """

    GUIDED_STEPS = 2  # forward steps from the guide before falling back

    def __init__(self, probs: np.ndarray, indptr: np.ndarray):
        counts = np.diff(indptr)
        cs = np.concatenate([[0.0], np.cumsum(probs)])
        base = cs[indptr[:-1]]
        group_ids = np.repeat(np.arange(counts.shape[0]), counts)
        self.flat = cs[1:] - np.repeat(base, counts) + group_ids
        self.indptr = indptr
        self.counts = counts
        self.finite = bool(np.isfinite(self.flat).all())
        starts = np.repeat(indptr[:-1], counts)
        last = np.repeat(indptr[1:] - 1, counts)
        bucket = (np.arange(self.flat.shape[0]) - starts) / np.repeat(counts, counts)
        self.guide = np.clip(np.searchsorted(self.flat, group_ids + bucket,
                                             side="left"), starts, last)
        # upper is flat with each group's last entry raised to +inf, so a
        # guided step never leaves its group. Rounding can carry a group's
        # last cumulative sum past the next group's first, so flat is not
        # always globally sorted. below[p] is the largest flat value before
        # p, or -inf at a group's first position; floor[g] is the largest
        # flat value before group g.
        self.upper = self.flat.copy()
        self.upper[indptr[1:][counts > 0] - 1] = np.inf
        before = np.concatenate([[-np.inf], np.maximum.accumulate(self.flat)])
        self.below = before[:-1].copy()
        self.below[indptr[:-1][counts > 0]] = -np.inf
        self.floor = before[indptr[:-1]]

    def _search(self, groups: np.ndarray, target: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.flat, target, side="left")
        return np.clip(idx, self.indptr[groups], self.indptr[groups + 1] - 1)

    def draw(self, groups: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One draw per entry of groups; returns flat positions."""
        r = rng.random(groups.shape[0])
        target = groups + r
        if not self.finite:
            return self._search(groups, target)
        d = self.counts[groups]
        bucket = np.minimum((r * d).astype(np.int64), d - 1)
        idx = self.guide[self.indptr[groups] + bucket]
        for _ in range(self.GUIDED_STEPS):
            idx += self.upper[idx] < target
        # idx is the search's answer if it reaches the target (or is its
        # group's last position) and nothing before it does: flat is sorted
        # within a group and every later group starts at or above g + 1,
        # which no target g + r exceeds.
        miss = np.flatnonzero((self.upper[idx] < target) | (self.below[idx] >= target))
        if miss.size:
            # Where an earlier group's sum rounded past the target, the
            # search is not unique: which crossing it finds depends on the
            # keys searched before, so only the search over the whole batch
            # reproduces it.
            if (target[miss] <= self.floor[groups[miss]]).any():
                return self._search(groups, target)
            idx[miss] = self._search(groups[miss], target[miss])
        return idx


def _initial_logits(rng, size) -> np.ndarray:
    """N(0, INIT_SCALE^2) logits from rng, or allocated undrawn if rng is
    None."""
    if rng is None:
        return np.empty(size, dtype=np.float64)
    return rng.normal(0.0, INIT_SCALE, size=size)


def build_social_graph(edges: SocialEdges, seed=0,
                       drawn: bool = True) -> SocialGraphParams:
    """Social logits drawn from seed; undrawn (for a checkpoint to be read
    into) if not drawn."""
    rng = np.random.default_rng(seed) if drawn else None
    return SocialGraphParams(edges=edges,
                             logits=_initial_logits(rng, edges.n_edges))


def build_pseudo_graph(train: InteractionMatrix, K: int = 32, seed=0,
                       ablation: str = "none",
                       drawn: bool = True) -> PseudoGraphParams:
    """Pseudo-graph logits drawn from seed, the mix set by the ablation;
    the bridge logits are undrawn (for a checkpoint to be read into) if
    not drawn."""
    if K < 1:
        raise ConfigError("K must be at least 1")
    if ablation not in ABLATION_MIX:
        raise ConfigError(f"unknown ablation {ablation!r}; expected one of "
                          f"{tuple(ABLATION_MIX)}")
    rng = np.random.default_rng(seed) if drawn else None
    nnz, n, m = train.nnz, train.n, train.m
    return PseudoGraphParams(
        train=train,
        K=K,
        ui_logits=_initial_logits(rng, nnz),
        iu_logits=_initial_logits(rng, nnz),
        uc_logits=_initial_logits(rng, (n, K)),
        cu_logits=_initial_logits(rng, (K, n)),
        mix_logits=np.full(n, ABLATION_MIX[ablation]),
    )


class SocialTransition:
    """Materialized row-stochastic social transition, frozen at one logit state."""

    kind = "social"

    def __init__(self, params: SocialGraphParams):
        self.params = params
        ed = params.edges
        self.n = ed.n
        self.indptr = ed.indptr
        self.targets = ed.targets
        self.src = np.repeat(np.arange(ed.n, dtype=np.int64), np.diff(ed.indptr))
        self.probs = segment_softmax(params.logits, ed.indptr)
        self.W = sparse.csr_array((self.probs, self.targets, self.indptr),
                                  shape=(ed.n, ed.n))

    def apply_W(self, G: np.ndarray) -> np.ndarray:
        """W G, as a new array."""
        return self.W @ G

    def backward(self, gammas, gbar, c: float) -> SocialGraphParams:
        """Logit gradient, as params, from the tape gamma^(0..t_m) and
        d objective / d gamma^(t_m)."""
        gprobs = np.zeros_like(self.probs)
        for t in range(len(gammas) - 1, 0, -1):
            gprobs += c * pair_dots(gbar, self.src, gammas[t - 1], self.targets)
            if t > 1:  # d objective / d gamma^(0) is never read
                gbar = c * (self.W.T @ gbar)
        return replace(self.params,
                       logits=segment_softmax_vjp(self.probs, gprobs, self.indptr))

    def row_samplers(self) -> tuple[_RowSampler]:
        """A new sampler over each user's out-edges, for step."""
        return (_RowSampler(self.probs, self.indptr),)

    def step(self, v: np.ndarray, rng: np.random.Generator,
             samplers: tuple[_RowSampler]) -> np.ndarray:
        """One random transition from each user in v, drawn by the
        row_samplers of this fold."""
        (edges,) = samplers
        return self.targets[edges.draw(v, rng)]


class PseudoTransition:
    """Materialized pseudo transition, frozen at one logit state.

    ``a`` is forced to 0 for users with no training positives so that their
    item-bridge softmax (which is empty) is never consulted.
    """

    kind = "pseudo"

    def __init__(self, params: PseudoGraphParams):
        self.params = params
        tr = params.train
        self.n, self.m, self.K = tr.n, tr.m, params.K
        self.ui_indptr = tr.row_indptr
        self.ui_items = tr.row_items
        self.ui_users = tr.row_users
        self.iu_indptr = tr.col_indptr
        self.iu_users = tr.col_users
        self.iu_items = tr.col_items
        self.ui_probs = segment_softmax(params.ui_logits, self.ui_indptr)
        self.iu_probs = segment_softmax(params.iu_logits, self.iu_indptr)
        self.uc_probs = row_softmax(params.uc_logits)
        self.cu_probs = row_softmax(params.cu_logits)
        self.a = sigmoid(params.mix_logits)
        self.forced = tr.row_counts == 0
        self.a[self.forced] = 0.0
        self.UI = sparse.csr_array((self.ui_probs, self.ui_items, self.ui_indptr),
                                   shape=(self.n, self.m))
        self.IU = sparse.csr_array((self.iu_probs, self.iu_users, self.iu_indptr),
                                   shape=(self.m, self.n))

    def _bridges(self, G: np.ndarray):
        """The bridge operands of W G: (IU G, cu_probs G, item-bridge
        output, community-bridge output)."""
        s = self.IU @ G
        mi = self.UI @ s
        tc = self.cu_probs @ G
        return s, tc, mi, self.uc_probs @ tc

    def apply_W(self, G: np.ndarray) -> np.ndarray:
        """W G, as a new array; the bridge outputs are blended in place."""
        _, _, mi, mc = self._bridges(G)
        mi *= self.a[:, None]
        mc *= (1.0 - self.a)[:, None]
        mi += mc
        return mi

    def backward(self, gammas, gbar, c: float) -> PseudoGraphParams:
        """Logit gradient, as params, from the tape gamma^(0..t_m) and
        d objective / d gamma^(t_m).

        Each step's bridge operands are recomputed from gamma^(t-1) by the
        forward's own products, so they are bit-equal to the forward's and
        the tape holds the propagated columns only. The backward reads the
        two bridge outputs only as their difference.
        """
        gui = np.zeros_like(self.ui_probs)
        giu = np.zeros_like(self.iu_probs)
        guc = np.zeros_like(self.uc_probs)
        gcu = np.zeros_like(self.cu_probs)
        ga = np.zeros(self.n, dtype=np.float64)
        for t in range(len(gammas) - 1, 0, -1):
            prev = gammas[t - 1]
            s, tc, dm, mc = self._bridges(prev)
            dm -= mc  # item-bridge output minus community-bridge output
            del mc
            ga += c * np.einsum("uj,uj->u", gbar, dm)
            del dm
            mbar = (c * self.a)[:, None] * gbar
            gui += pair_dots(mbar, self.ui_users, s, self.ui_items)
            del s
            sbar = self.UI.T @ mbar
            giu += pair_dots(sbar, self.iu_items, prev, self.iu_users)
            np.multiply((c * (1.0 - self.a))[:, None], gbar, out=mbar)
            tbar = self.uc_probs.T @ mbar
            guc += mbar @ tc.T
            del mbar, tc
            gcu += tbar @ prev.T
            if t > 1:  # d objective / d gamma^(0) is never read
                gbar = self.IU.T @ sbar
                del sbar
                gbar += self.cu_probs.T @ tbar
        gmix = self.a * (1.0 - self.a) * ga
        gmix[self.forced] = 0.0
        return replace(self.params,
                       ui_logits=segment_softmax_vjp(self.ui_probs, gui, self.ui_indptr),
                       iu_logits=segment_softmax_vjp(self.iu_probs, giu, self.iu_indptr),
                       uc_logits=row_softmax_vjp(self.uc_probs, guc),
                       cu_logits=row_softmax_vjp(self.cu_probs, gcu),
                       mix_logits=gmix)

    def row_samplers(self) -> tuple[_RowSampler, ...]:
        """New samplers for the user->item, item->user, user->community and
        community->user hops, for step."""
        return (_RowSampler(self.ui_probs, self.ui_indptr),
                _RowSampler(self.iu_probs, self.iu_indptr),
                _RowSampler(self.uc_probs.ravel(), np.arange(self.n + 1) * self.K),
                _RowSampler(self.cu_probs.ravel(), np.arange(self.K + 1) * self.n))

    def step(self, v: np.ndarray, rng: np.random.Generator,
             samplers: tuple[_RowSampler, ...]) -> np.ndarray:
        """One random transition from each user in v, drawn by the
        row_samplers of this fold: an item hop with probability a_v, else a
        community hop."""
        ui, iu, uc, cu = samplers
        item_branch = rng.random(v.shape[0]) < self.a[v]
        out = np.empty_like(v)
        vi = v[item_branch]
        if vi.size:
            i = self.ui_items[ui.draw(vi, rng)]
            out[item_branch] = self.iu_users[iu.draw(i, rng)]
        vc = v[~item_branch]
        if vc.size:
            comm = uc.draw(vc, rng) - vc * self.K
            out[~item_branch] = cu.draw(comm, rng) - comm * self.n
        return out


def normalize_edges(params):
    """Fold the current logits into a frozen transition object.

    An already-folded transition is returned unchanged, so every function
    taking a graph accepts either the parameters or their fold.
    """
    if isinstance(params, (SocialTransition, PseudoTransition)):
        return params
    if isinstance(params, SocialGraphParams):
        return SocialTransition(params)
    if isinstance(params, PseudoGraphParams):
        return PseudoTransition(params)
    raise TypeError(f"not a graph parameter object: {type(params).__name__}")


def dense_transition(graph, max_cells: int = 10_000_000) -> np.ndarray:
    """Materialize W. Guarded; for oracles and small tests only."""
    graph = normalize_edges(graph)
    if graph.n * graph.n > max_cells:
        raise GuardError(f"dense transition of {graph.n} users exceeds {max_cells} cells")
    return graph.apply_W(np.eye(graph.n))


def _layout(params):
    """The graph checkpoint's header (version, mode, n, m, K, edge count),
    with m and K zero in social mode, and its logit_arrays; topology is not
    stored."""
    arrays = tuple(logit_arrays(params).values())
    if isinstance(params, SocialGraphParams):
        return (GRAPH_VERSION, MODE_SOCIAL, params.n, 0, 0,
                params.edges.n_edges), arrays
    return (GRAPH_VERSION, MODE_PSEUDO, params.n, params.m, params.K,
            params.train.nnz), arrays


def save_graph(path: str, params) -> None:
    """Write the graph logits checkpoint in _layout's layout."""
    write_checkpoint(path, GRAPH_MAGIC, *_layout(params))


def load_graph(path: str, params) -> None:
    """Read a graph checkpoint into params' logits, in place; the file must
    have been written from params of the same family and sizes."""
    read_checkpoint(path, GRAPH_MAGIC, *_layout(params), "graph")
