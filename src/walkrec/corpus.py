"""Interaction and social-edge data: loading, binarizing, filtering, splitting.

Interaction files are one event per line, ``user<delim>item[<delim>weight]``,
delimiter tab or comma, ``#`` starts a comment line. Raw id tokens are remapped
to dense 0-based integers in first-appearance order. A weight must be a
number, but it is not kept: every event is a positive.

This module owns the text layouts of walkrec's data files: ``_fields`` splits
every line of a raw or prepared file that is read line by line,
``write_columns`` writes every tab-separated file ``prepare`` writes, and
``read_json_object`` / ``write_json_object`` read and write ``manifest.json``
and ``state.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, EmptyDatasetError, GuardError, ParseError


@dataclass(frozen=True)
class LoadResult:
    """Remapped events plus the dense-id -> raw-token tables."""

    interactions: np.ndarray
    """(events, 2) int64 dense (user, item) ids, in file order."""
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


@dataclass(frozen=True)
class FilterResult:
    matrix: InteractionMatrix
    user_index: np.ndarray
    """user_index[new_id] = id the user had before filtering."""
    item_index: np.ndarray


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must lie in [0, 1), got {self.test_fraction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def read_bytes(path: str) -> bytes:
    """The whole file; a path that cannot be opened or read raises
    ParseError at line 0."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(path, 0, f"cannot read ({e.strerror})") from None


def _fields(path: str, blob: bytes, fmt: str | None, too_few: str):
    """(line number, fields) of each non-blank, non-comment line of blob,
    the bytes of path.

    fmt is "tsv", "csv", or None to split each line at a tab if it has one,
    else at commas. The file is decoded whole, which is faster than line by
    line. Bytes that are not UTF-8, and a line of fewer than two fields,
    raise ParseError at their line number; too_few is the latter's message.
    """
    if fmt not in (None, "tsv", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    delim = {"tsv": "\t", "csv": ","}.get(fmt)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(path, blob.count(b"\n", 0, e.start) + 1,
                         f"not UTF-8 text ({e.reason})") from None
    for line_no, line in enumerate(map(str.strip, text.split("\n")), start=1):
        if line and not line.startswith("#"):
            fields = line.split(delim or ("\t" if "\t" in line else ","))
            if len(fields) < 2:
                raise ParseError(path, line_no, too_few)
            yield line_no, fields


def load_interactions(path: str, fmt: str | None = None) -> LoadResult:
    """Read an interaction file, remapping raw id tokens to dense integers.

    fmt is "tsv", "csv", or None to sniff per line. Raises ParseError with the
    offending line number, EmptyDatasetError if no events are present.
    """
    user_map: dict[str, int] = {}
    item_map: dict[str, int] = {}
    users: list[int] = []
    items: list[int] = []
    for line_no, fields in _fields(path, read_bytes(path), fmt,
                                   "expected at least user and item fields"):
        raw_u, raw_i = fields[0].strip(), fields[1].strip()
        if not raw_u or not raw_i:
            raise ParseError(path, line_no, "empty id token")
        if len(fields) >= 3 and fields[2].strip():
            try:
                float(fields[2])
            except ValueError:
                raise ParseError(path, line_no, f"bad weight {fields[2]!r}") from None
        users.append(user_map.setdefault(raw_u, len(user_map)))
        items.append(item_map.setdefault(raw_i, len(item_map)))
    if not users:
        raise EmptyDatasetError(f"{path}: no interaction events")
    return LoadResult(np.column_stack((np.array(users, dtype=np.int64),
                                       np.array(items, dtype=np.int64))),
                      list(user_map), list(item_map))


def load_social(path: str, user_map: dict[str, int], fmt: str | None = None) -> np.ndarray:
    """Read a social edge file; endpoints are raw user tokens.

    Edges whose endpoints are absent from user_map are dropped (such users
    have no interactions). Returns the directed (source, target) pairs in
    the map's id space, in file order, as a (k, 2) int64 array.
    """
    sources: list[int] = []
    targets: list[int] = []
    for _, fields in _fields(path, read_bytes(path), fmt,
                             "expected source and target fields"):
        sources.append(user_map.get(fields[0].strip(), -1))
        targets.append(user_map.get(fields[1].strip(), -1))
    pairs = np.column_stack((np.array(sources, dtype=np.int64),
                             np.array(targets, dtype=np.int64)))
    return pairs[(pairs >= 0).all(axis=1)]


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
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
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
    """Binarize (user, item) id pairs and drop out-of-band items, then empty
    users.

    interactions is LoadResult.interactions or any sequence of id pairs;
    repeats of a pair count once. Items whose distinct consumer count falls
    outside [min_item_count, max_item_count] are removed; users left with no
    positives are removed. One pass suffices: dropping an
    item's pairs changes no other item's count, and removing users cannot
    change the surviving items' counts (each user-item pair is counted once).
    Remaining ids are re-packed densely, preserving relative order.
    """
    if min_item_count < 1:
        raise ConfigError(f"min_item_count must be at least 1, got {min_item_count}")
    if max_item_count < min_item_count:
        raise ConfigError(f"max_item_count must be >= min_item_count "
                          f"({min_item_count}), got {max_item_count}")
    events = np.asarray(interactions, dtype=np.int64).reshape(-1, 2)
    users, items = events[:, 0], events[:, 1]
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


def _shuffle_ranks(matrix: InteractionMatrix, seed: int,
                   draws: np.ndarray) -> np.ndarray:
    """Each pair's position in its user's shuffled row, flat like row_items.

    One generator seeded with seed shuffles the row of each user with
    draws[user] set, in user-id order; other rows keep their order.
    """
    rng = np.random.default_rng(seed)
    within = np.arange(matrix.nnz) - matrix.row_indptr[matrix.row_users]
    drawn = np.flatnonzero(draws[matrix.row_users])
    perms = [rng.permutation(k) for k in matrix.row_counts[draws].tolist()]
    ranks = within.copy()
    # the pair at shuffle position r of a row starting at s is s + perm[r]
    ranks[drawn - within[drawn] + np.concatenate([within[:0], *perms])] = within[drawn]
    return ranks


def _split(matrix: InteractionMatrix, test: np.ndarray
           ) -> tuple[InteractionMatrix, InteractionMatrix]:
    """(train, test): the pairs of matrix where the flat mask test is False,
    and where it is True."""
    users, items = matrix.row_users, matrix.row_items
    return (matrix_from_pairs(matrix.n, matrix.m, users[~test], items[~test]),
            matrix_from_pairs(matrix.n, matrix.m, users[test], items[test]))


def split_train_test(matrix: InteractionMatrix, spec: SplitSpec
                     ) -> tuple[InteractionMatrix, InteractionMatrix]:
    """Per-user holdout split; each user keeps at least one train positive.

    Per user with k positives, n_test = min(floor(k * f), k - 1) go to test:
    the first n_test of the user's row shuffled as split_folds shuffles it,
    from one generator seeded with spec.seed and consumed in user-id order
    by the users with n_test > 0. The split is a pure function of
    (matrix, spec).
    """
    k = matrix.row_counts
    n_test = np.minimum((k * spec.test_fraction).astype(np.int64), k - 1)
    ranks = _shuffle_ranks(matrix, spec.seed, n_test > 0)
    return _split(matrix, ranks < n_test[matrix.row_users])


def split_folds(matrix: InteractionMatrix, folds: int, seed: int):
    """A generator of the (train, test) pair of each fold, built one at a time.

    Every user's row is shuffled as split_train_test shuffles it, from one
    generator seeded with seed and consumed in user-id order by every user,
    and dealt round-robin: fold j's test set holds shuffle positions j,
    j + folds, ... Users with a single positive never appear in any test
    set, so that every train fold keeps them. Memory is O(nnz) whatever
    folds is. A fold count below 2, or above the longest row (that fold and
    every later one would test nothing), or a negative seed raises
    ConfigError at the call.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    longest = int(matrix.row_counts.max(initial=0))
    if not 2 <= folds <= longest:
        raise ConfigError(f"folds must be at least 2 and at most {longest}, "
                          f"the most positives of any user; got {folds}")
    ranks = _shuffle_ranks(matrix, seed, np.ones(matrix.n, dtype=bool))
    fold_of = np.where(matrix.row_counts[matrix.row_users] >= 2, ranks % folds, -1)
    return (_split(matrix, fold_of == j) for j in range(folds))


def write_columns(path: str, *columns) -> None:
    """Write one tab-separated line per row of the columns, in a single
    write."""
    line = "\t".join(["{}"] * len(columns)) + "\n"
    text = "".join(map(line.format, *columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_pairs(path: str, matrix: InteractionMatrix) -> None:
    """Write a matrix as a dense-id TSV pair file (stable ordering)."""
    write_columns(path, matrix.row_users.tolist(), matrix.row_items.tolist(),
                  [1] * matrix.nnz)


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
    for line_no, fields in _fields(path, blob, None, "expected user and item fields"):
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
    blob = read_bytes(path)
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
        loaded = json.loads(read_bytes(path))
    except json.JSONDecodeError as e:
        raise ParseError(path, e.lineno, f"not valid JSON ({e.msg})") from None
    except UnicodeDecodeError as e:
        raise ParseError(path, 0, f"not valid JSON ({e.reason})") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return loaded


def write_json_object(path: str, obj: dict) -> None:
    """Write obj as manifest.json and state.json are written: strict JSON
    (a NaN or infinity is a ValueError), sorted keys, one-space indent, a
    final newline. A refused object leaves the file untouched."""
    text = json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
