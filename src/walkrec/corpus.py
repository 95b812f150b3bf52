"""Interaction and social-edge data: loading, binarizing, filtering, splitting.

Interaction files are one event per line, ``user<delim>item[<delim>weight]``,
delimiter tab or comma, ``#`` starts a comment line. Raw id tokens are remapped
to dense 0-based integers in first-appearance order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyDatasetError, GuardError, ParseError


class Interaction(NamedTuple):
    user: int
    item: int
    raw_weight: float | None = None


@dataclass(frozen=True)
class LoadResult:
    """Remapped events plus the dense-id -> raw-token tables."""

    interactions: list[Interaction]
    user_ids: list[str]
    item_ids: list[str]


@dataclass(frozen=True)
class InteractionMatrix:
    """Binary interaction matrix in paired CSR/CSC form.

    ``row_items`` holds item ids grouped by user, sorted within each group;
    ``col_users`` holds user ids grouped by item, sorted within each group.
    """

    n: int
    m: int
    row_indptr: np.ndarray
    row_items: np.ndarray
    col_indptr: np.ndarray
    col_users: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.row_items.shape[0])

    def row(self, u: int) -> np.ndarray:
        return self.row_items[self.row_indptr[u]:self.row_indptr[u + 1]]

    def col(self, i: int) -> np.ndarray:
        return self.col_users[self.col_indptr[i]:self.col_indptr[i + 1]]

    @cached_property
    def row_counts(self) -> np.ndarray:
        return np.diff(self.row_indptr)

    @cached_property
    def col_counts(self) -> np.ndarray:
        return np.diff(self.col_indptr)

    @cached_property
    def row_users(self) -> np.ndarray:
        """User id of each entry of ``row_items`` (flat, grouped by user)."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.row_counts)

    @cached_property
    def col_items(self) -> np.ndarray:
        """Item id of each entry of ``col_users`` (flat, grouped by item)."""
        return np.repeat(np.arange(self.m, dtype=np.int64), self.col_counts)

    @cached_property
    def _pair_keys(self) -> np.ndarray:
        # sorted ascending because rows are emitted in user order, items sorted
        return self.row_users * np.int64(self.m) + self.row_items

    def labels(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """x_ui for each (user, item) pair, as a uint8 array."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        keys = users * np.int64(self.m) + items
        if self.nnz == 0:
            return np.zeros(keys.shape, dtype=np.uint8)
        pos = np.minimum(np.searchsorted(self._pair_keys, keys), self.nnz - 1)
        return (self._pair_keys[pos] == keys).astype(np.uint8)

    def contains(self, u: int, i: int) -> bool:
        return bool(self.labels(np.array([u]), np.array([i]))[0])

    def to_dense(self, max_cells: int = 10_000_000) -> np.ndarray:
        if self.n * self.m > max_cells:
            raise GuardError(
                f"dense matrix of {self.n}x{self.m} exceeds {max_cells} cells")
        dense = np.zeros((self.n, self.m), dtype=np.float64)
        dense[self.row_users, self.row_items] = 1.0
        return dense


@dataclass(frozen=True)
class SocialEdges:
    """Directed social edges in CSR form over n users."""

    n: int
    indptr: np.ndarray
    targets: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.targets.shape[0])

    def neighbors(self, u: int) -> np.ndarray:
        return self.targets[self.indptr[u]:self.indptr[u + 1]]


@dataclass(frozen=True)
class FilterResult:
    matrix: InteractionMatrix
    user_index: np.ndarray
    """user_index[new_id] = id the user had before filtering."""
    item_index: np.ndarray


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float
    folds: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in [0, 1)")
        if self.folds is not None and self.folds < 2:
            raise ValueError("folds must be at least 2")


def _sniff_delimiter(line: str) -> str:
    return "\t" if "\t" in line else ","


def _read_bytes(path: str) -> bytes:
    """The whole file; a path that cannot be opened or read raises
    ParseError at line 0."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(path, 0, str(e)) from None


def _data_lines(path: str, blob: bytes):
    """(line number, stripped text) of each non-blank, non-comment line of
    blob, the bytes of path.

    The file is decoded whole, which is faster than line by line. Bytes that
    are not UTF-8 raise ParseError at their line number.
    """
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(path, blob.count(b"\n", 0, e.start) + 1,
                         f"not UTF-8 text ({e.reason})") from None
    for line_no, line in enumerate(map(str.strip, text.split("\n")), start=1):
        if line and not line.startswith("#"):
            yield line_no, line


def load_interactions(path: str, fmt: str | None = None) -> LoadResult:
    """Read an interaction file, remapping raw id tokens to dense integers.

    fmt is "tsv", "csv", or None to sniff per line. Raises ParseError with the
    offending line number, EmptyDatasetError if no events are present.
    """
    if fmt not in (None, "tsv", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    delim = {"tsv": "\t", "csv": ","}.get(fmt)
    user_map: dict[str, int] = {}
    item_map: dict[str, int] = {}
    user_ids: list[str] = []
    item_ids: list[str] = []
    out: list[Interaction] = []
    for line_no, line in _data_lines(path, _read_bytes(path)):
        fields = line.split(delim or _sniff_delimiter(line))
        if len(fields) < 2:
            raise ParseError(path, line_no, "expected at least user and item fields")
        raw_u, raw_i = fields[0].strip(), fields[1].strip()
        if not raw_u or not raw_i:
            raise ParseError(path, line_no, "empty id token")
        weight = None
        if len(fields) >= 3 and fields[2].strip():
            try:
                weight = float(fields[2])
            except ValueError:
                raise ParseError(path, line_no, f"bad weight {fields[2]!r}") from None
        if raw_u not in user_map:
            user_map[raw_u] = len(user_ids)
            user_ids.append(raw_u)
        if raw_i not in item_map:
            item_map[raw_i] = len(item_ids)
            item_ids.append(raw_i)
        out.append(Interaction(user_map[raw_u], item_map[raw_i], weight))
    if not out:
        raise EmptyDatasetError(f"{path}: no interaction events")
    return LoadResult(out, user_ids, item_ids)


def load_social(path: str, user_map: dict[str, int], fmt: str | None = None) -> list[tuple[int, int]]:
    """Read a social edge file; endpoints are raw user tokens.

    Edges whose endpoints are absent from user_map are dropped (such users
    have no interactions). Returns directed (source, target) pairs in the
    map's id space.
    """
    delim = {"tsv": "\t", "csv": ","}.get(fmt)
    pairs: list[tuple[int, int]] = []
    for line_no, line in _data_lines(path, _read_bytes(path)):
        fields = line.split(delim or _sniff_delimiter(line))
        if len(fields) < 2:
            raise ParseError(path, line_no, "expected source and target fields")
        raw_s, raw_t = fields[0].strip(), fields[1].strip()
        if raw_s in user_map and raw_t in user_map:
            pairs.append((user_map[raw_s], user_map[raw_t]))
    return pairs


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique(keys) for a 1-D array, by sorting and dropping repeats.

    np.unique may take a hash-based path for integers (numpy 2.4 does for
    int64) that is far slower than a sort at these sizes; this returns the
    same sorted array on any numpy version.
    """
    keys = np.sort(keys)
    if keys.size:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def matrix_from_pairs(n: int, m: int, users, items) -> InteractionMatrix:
    """Build an InteractionMatrix from parallel user/item arrays (deduped)."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if users.size:
        if users.min() < 0 or users.max() >= n:
            raise ValueError("user id out of range")
        if items.min() < 0 or items.max() >= m:
            raise ValueError("item id out of range")
    keys = _sorted_unique(users * np.int64(m) + items)
    u = keys // m
    i = keys % m
    row_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=n), out=row_indptr[1:])
    order = np.argsort(i * np.int64(n) + u, kind="stable")
    col_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=m), out=col_indptr[1:])
    return InteractionMatrix(
        n=n, m=m,
        row_indptr=row_indptr, row_items=i,
        col_indptr=col_indptr, col_users=u[order],
    )


def social_edges(n: int, pairs, symmetrize: bool = False) -> SocialEdges:
    """Build deduped CSR social edges; isolated users get a self-loop.

    Explicit self-edges in the input are dropped first; a self-loop is then
    added for every user with no remaining out-edges so that transition rows
    are always well defined.
    """
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError("social endpoint out of range")
    if symmetrize and arr.size:
        arr = np.concatenate([arr, arr[:, ::-1]], axis=0)
    arr = arr[arr[:, 0] != arr[:, 1]]
    keys = _sorted_unique(arr[:, 0] * np.int64(n) + arr[:, 1])
    src = keys // n
    tgt = keys % n
    out_deg = np.bincount(src, minlength=n)
    lonely = np.flatnonzero(out_deg == 0)
    if lonely.size:
        src = np.concatenate([src, lonely])
        tgt = np.concatenate([tgt, lonely])
        order = np.argsort(src * np.int64(n) + tgt, kind="stable")
        src, tgt = src[order], tgt[order]
        out_deg = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_deg, out=indptr[1:])
    return SocialEdges(n=n, indptr=indptr, targets=tgt)


def reindex_pairs(pairs, old_to_new: np.ndarray) -> np.ndarray:
    """Map (src, tgt) pairs through old_to_new, dropping pairs with a -1
    end; returns the kept pairs, in order, as a (k, 2) int64 array."""
    mapped = np.asarray(old_to_new, dtype=np.int64)[
        np.asarray(pairs, dtype=np.int64).reshape(-1, 2)]
    return mapped[(mapped >= 0).all(axis=1)]


def inverse_index(index: np.ndarray, old_size: int) -> np.ndarray:
    """Invert a new->old index array into old->new with -1 for dropped ids."""
    inv = np.full(old_size, -1, dtype=np.int64)
    inv[index] = np.arange(index.shape[0], dtype=np.int64)
    return inv


def binarize_and_filter(interactions, min_item_count: int = 3,
                        max_item_count: int = 100) -> FilterResult:
    """Binarize events and drop out-of-band items, then empty users.

    Any event counts as a positive regardless of weight. Items whose distinct
    consumer count falls outside [min_item_count, max_item_count] are removed;
    users left with no positives are removed. One pass suffices: dropping an
    item's pairs changes no other item's count, and removing users cannot
    change the surviving items' counts (each user-item pair is counted once).
    Remaining ids are re-packed densely, preserving relative order.
    """
    if min_item_count < 1:
        raise ValueError("min_item_count must be at least 1")
    if max_item_count < min_item_count:
        raise ValueError("max_item_count must be >= min_item_count")
    users = np.asarray([ev[0] for ev in interactions], dtype=np.int64)
    items = np.asarray([ev[1] for ev in interactions], dtype=np.int64)
    if users.size == 0:
        raise EmptyDatasetError("no interactions to filter")
    n0 = int(users.max()) + 1
    m0 = int(items.max()) + 1
    keys = _sorted_unique(users * np.int64(m0) + items)
    u = keys // m0
    i = keys % m0
    item_counts = np.bincount(i, minlength=m0)
    bad = (item_counts < min_item_count) | (item_counts > max_item_count)
    keep = ~bad[i]
    u, i = u[keep], i[keep]
    if u.size == 0:
        raise EmptyDatasetError("all interactions removed by item-count filter")
    user_index = _sorted_unique(u)
    item_index = _sorted_unique(i)
    matrix = matrix_from_pairs(
        user_index.shape[0], item_index.shape[0],
        inverse_index(user_index, n0)[u], inverse_index(item_index, m0)[i])
    return FilterResult(matrix=matrix, user_index=user_index, item_index=item_index)


def _split_user(rng: np.random.Generator, row: np.ndarray, fraction: float):
    k = row.shape[0]
    n_test = int(k * fraction)
    if k - n_test < 1:
        n_test = k - 1
    if n_test <= 0:
        return row, row[:0]
    perm = rng.permutation(row)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def split_train_test(matrix: InteractionMatrix, spec: SplitSpec
                     ) -> tuple[InteractionMatrix, InteractionMatrix]:
    """Per-user holdout split; each user keeps at least one train positive.

    A single generator seeded with spec.seed is consumed in user-id order, so
    the split is a pure function of (matrix, spec). Per user, floor(k * f)
    positives go to test.
    """
    rng = np.random.default_rng(spec.seed)
    train_u, train_i, test_u, test_i = [], [], [], []
    for u in range(matrix.n):
        tr, te = _split_user(rng, matrix.row(u), spec.test_fraction)
        train_u.append(np.full(tr.shape[0], u, dtype=np.int64))
        train_i.append(tr)
        test_u.append(np.full(te.shape[0], u, dtype=np.int64))
        test_i.append(te)
    train = matrix_from_pairs(matrix.n, matrix.m,
                              np.concatenate(train_u), np.concatenate(train_i))
    test = matrix_from_pairs(matrix.n, matrix.m,
                             np.concatenate(test_u), np.concatenate(test_i))
    return train, test


def split_folds(matrix: InteractionMatrix, spec: SplitSpec
                ) -> list[tuple[InteractionMatrix, InteractionMatrix]]:
    """Deal each user's shuffled positives round-robin into spec.folds folds.

    Fold j's test set is chunk j; users with a single positive never appear in
    any test set so that every train fold keeps them.
    """
    if spec.folds is None:
        raise ValueError("spec.folds is not set")
    rng = np.random.default_rng(spec.seed)
    fold_keys: list[list[np.ndarray]] = [[] for _ in range(spec.folds)]
    m = np.int64(matrix.m)
    for u in range(matrix.n):
        row = matrix.row(u)
        perm = rng.permutation(row)
        if row.shape[0] < 2:
            continue
        for j in range(spec.folds):
            fold_keys[j].append(np.int64(u) * m + perm[j::spec.folds])
    all_keys = matrix._pair_keys
    out = []
    for j in range(spec.folds):
        te = (np.sort(np.concatenate(fold_keys[j]))
              if fold_keys[j] else np.zeros(0, np.int64))
        tr = np.setdiff1d(all_keys, te, assume_unique=True)
        out.append((matrix_from_pairs(matrix.n, matrix.m, tr // m, tr % m),
                    matrix_from_pairs(matrix.n, matrix.m, te // m, te % m)))
    return out


def write_pairs(path: str, matrix: InteractionMatrix) -> None:
    """Write a matrix as a dense-id TSV pair file (stable ordering)."""
    text = "".join(f"{u}\t{i}\t1\n" for u, i in
                   zip(matrix.row_users.tolist(), matrix.row_items.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


_MAX_DIGITS = 18  # every 18-digit id fits in int64


def _pairs_in_one_pass(blob: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(users, items) of the first two tokens of each line, or None.

    Only files on which the per-line reader cannot differ are recognized:
    non-empty, ending in a newline, every byte a digit, tab or newline, every
    token 1-18 digits and every line at least two tokens. On such a file
    the per-line reader's strip, comment and delimiter rules and int()
    change nothing, and pair k sits on line k + 1. Anything else is None.
    """
    if not blob.endswith(b"\n"):
        return None
    buf = np.frombuffer(blob, dtype=np.uint8)
    ends = np.flatnonzero(buf - np.uint8(ord("0")) > 9)  # non-digits
    seps = buf[ends]
    newline = seps == ord("\n")
    if not (newline | (seps == ord("\t"))).all():
        return None
    starts = np.empty_like(ends)  # token t is buf[starts[t]:ends[t]]
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    if lengths.min() < 1 or lengths.max() > _MAX_DIGITS:
        return None
    last = np.flatnonzero(newline)  # the last token of each line
    first = np.empty_like(last)
    first[0] = 0
    first[1:] = last[:-1] + 1
    if (first == last).any():
        return None
    return (_token_values(buf, starts[first], lengths[first]),
            _token_values(buf, starts[first + 1], lengths[first + 1]))


def _token_values(buf: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """The decimal value of each all-digit token, one Horner pass per digit
    position."""
    values = buf[starts].astype(np.int64) - ord("0")
    for j in range(1, int(lengths.max())):
        longer = np.flatnonzero(lengths > j)
        values[longer] = values[longer] * 10 + (buf[starts[longer] + j] - ord("0"))
    return values


def _pairs_by_line(path: str, blob: bytes):
    """(users, items, line numbers) of a pair file, read line by line."""
    us, its, line_nos = [], [], []
    for line_no, line in _data_lines(path, blob):
        fields = line.split(_sniff_delimiter(line))
        if len(fields) < 2:
            raise ParseError(path, line_no, "expected user and item fields")
        us.append(fields[0])
        its.append(fields[1])
        line_nos.append(line_no)
    if not us:
        raise EmptyDatasetError(f"{path}: no pairs")
    try:  # numpy parses the id tokens as int() does, but in one call
        users = np.array(us, dtype=np.int64)
        items = np.array(its, dtype=np.int64)
    except (ValueError, OverflowError):
        for k, (u, i) in enumerate(zip(us, its)):
            try:
                ids = int(u), int(i)
            except ValueError:
                raise ParseError(path, line_nos[k], "ids must be integers") from None
            if not all(-2 ** 63 <= v < 2 ** 63 for v in ids):
                raise ParseError(path, line_nos[k], "id does not fit in 64 bits")
        raise
    return users, items, line_nos


def read_pairs(path: str, n: int | None = None, m: int | None = None) -> InteractionMatrix:
    """Read a dense-id pair file written by write_pairs (no remapping).

    A file in write_pairs' own layout is parsed in one vectorized pass; any
    other (comments, commas, CRLF, signs, ...) is read line by line, with
    the same results and the same errors.
    """
    blob = _read_bytes(path)
    one_pass = _pairs_in_one_pass(blob)
    if one_pass is None:
        users, items, line_nos = _pairs_by_line(path, blob)
    else:
        users, items = one_pass
        line_nos = range(1, users.size + 1)
    n = n if n is not None else int(users.max()) + 1
    m = m if m is not None else int(items.max()) + 1
    bad = np.flatnonzero((users < 0) | (users >= n) | (items < 0) | (items >= m))
    if bad.size:
        raise ParseError(path, line_nos[bad[0]],
                         f"id out of range (users < {n}, items < {m})")
    return matrix_from_pairs(n, m, users, items)


def read_json_object(path: str) -> dict:
    """A JSON object from path (manifest.json, state.json); anything else is
    a ParseError or ConfigError naming the file."""
    try:
        with open(path, "rb") as fh:
            loaded = json.loads(fh.read())
    except json.JSONDecodeError as e:
        raise ParseError(path, e.lineno, f"not valid JSON ({e.msg})") from None
    except UnicodeDecodeError as e:
        raise ParseError(path, 0, f"not valid JSON ({e.reason})") from None
    except OSError as e:
        raise ParseError(path, 0, f"cannot read ({e.strerror})") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return loaded
