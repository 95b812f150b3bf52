"""Loading, filtering, splitting, and the interaction matrix container."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from walkrec import corpus
from walkrec.errors import ConfigError, EmptyDatasetError, GuardError, ParseError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestLoadInteractions:
    def test_tsv_with_comments_and_blanks(self, tmp_path):
        path = write(tmp_path, "a.tsv",
                     "# header comment\n"
                     "alice\tred\t3\n"
                     "\n"
                     "bob\tblue\n"
                     "alice\tblue\t1\n")
        loaded = corpus.load_interactions(path)
        assert loaded.user_ids == ["alice", "bob"]
        assert loaded.item_ids == ["red", "blue"]
        assert loaded.interactions.dtype == np.int64
        assert loaded.interactions.tolist() == [[0, 0], [1, 1], [0, 1]]

    def test_csv(self, tmp_path):
        path = write(tmp_path, "a.csv", "u1,i1\nu2,i2\n")
        loaded = corpus.load_interactions(path, fmt="csv")
        assert len(loaded.interactions) == 2
        social = corpus.load_social(path, {"u1": 0, "i2": 1}, fmt="csv")
        assert social.dtype == np.int64 and social.shape == (0, 2)
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            corpus.load_interactions(path, fmt="xml")
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            corpus.load_social(path, {"u1": 0}, fmt="xml")

    def test_sniffs_csv(self, tmp_path):
        path = write(tmp_path, "a.txt", "u1,i1,2\nu2,i2,1\n")
        loaded = corpus.load_interactions(path)
        assert loaded.user_ids == ["u1", "u2"]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "bad.tsv", "a\tb\n" "loner\n")
        with pytest.raises(ParseError) as err:
            corpus.load_interactions(path)
        assert "2" in str(err.value)

    def test_bad_weight_reports_line_number(self, tmp_path):
        path = write(tmp_path, "bad.tsv", "a\tb\t1.5\n" "a\tc\tnotanumber\n")
        with pytest.raises(ParseError, match="bad weight") as err:
            corpus.load_interactions(path)
        assert err.value.line_no == 2

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.tsv", "# nothing\n\n")
        with pytest.raises(EmptyDatasetError):
            corpus.load_interactions(path)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            corpus.load_interactions("/nonexistent/nowhere.tsv")


class TestMatrix:
    def test_dedupe_and_counts(self):
        us = np.array([1, 0, 1, 1])
        its = np.array([2, 0, 2, 0])
        mat = corpus.matrix_from_pairs(2, 3, us, its)
        assert mat.nnz == 3
        assert mat.row_counts.tolist() == [1, 2]
        assert mat.col_counts.tolist() == [2, 0, 1]

    def test_row_col_views_agree(self, tiny_matrix):
        mat = tiny_matrix
        from_rows = {(u, int(i)) for u in range(mat.n) for i in mat.row(u)}
        from_cols = {(int(u), i) for i in range(mat.m) for u in mat.col(i)}
        assert from_rows == from_cols
        assert len(from_rows) == mat.nnz

    def test_labels_and_contains(self, tiny_matrix):
        mat = tiny_matrix
        us = np.array([0, 0, 2, 3, 1])
        its = np.array([0, 1, 4, 2, 1])
        assert mat.labels(us, its).tolist() == [1.0, 0.0, 1.0, 1.0, 1.0]
        assert mat.contains(0, 2)
        assert not mat.contains(0, 3)

    def test_labels_empty_matrix(self):
        mat = corpus.matrix_from_pairs(3, 4, np.array([], dtype=np.int64),
                                       np.array([], dtype=np.int64))
        assert mat.labels(np.array([1]), np.array([2])).tolist() == [0.0]

    def test_to_dense(self, tiny_matrix):
        dense = tiny_matrix.to_dense()
        assert dense.shape == (4, 5)
        assert dense.sum() == tiny_matrix.nnz
        assert dense[2, 3] == 1.0 and dense[2, 1] == 0.0

    def test_to_dense_guard(self):
        mat = corpus.matrix_from_pairs(40000, 40000, np.array([0]), np.array([0]))
        with pytest.raises(GuardError):
            mat.to_dense()

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9)),
                    min_size=0, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_membership_matches_pair_set(self, pairs):
        us = np.array([p[0] for p in pairs], dtype=np.int64)
        its = np.array([p[1] for p in pairs], dtype=np.int64)
        mat = corpus.matrix_from_pairs(8, 10, us, its)
        truth = set(pairs)
        assert mat.nnz == len(truth)
        qu, qi = np.indices((8, 10))
        got = mat.labels(qu.ravel(), qi.ravel()).reshape(8, 10)
        for u in range(8):
            for i in range(10):
                assert got[u, i] == float((u, i) in truth)


class TestSortedUnique:
    @pytest.mark.parametrize("size,high", [(0, 5), (1, 5), (2, 1),
                                           (1000, 50), (20000, 10 ** 12)])
    def test_matches_np_unique(self, size, high):
        # high <= size / 2 draws repeats; 10**12 draws nearly none
        keys = np.random.default_rng(size).integers(-high, high, size=size)
        got = corpus._sorted_unique(keys)
        want = np.unique(keys)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_leaves_its_input_alone(self):
        keys = np.array([3, 1, 3, 2], dtype=np.int64)
        assert corpus._sorted_unique(keys).tolist() == [1, 2, 3]
        assert keys.tolist() == [3, 1, 3, 2]


class TestSocialEdges:
    def test_dedupe_symmetrize_and_isolated_self_loop(self):
        edges = corpus.social_edges(4, [(0, 1), (0, 1), (1, 2), (2, 2)],
                                    symmetrize=True)
        assert set(edges.neighbors(0)) == {1}
        assert set(edges.neighbors(1)) == {0, 2}
        assert set(edges.neighbors(2)) == {1}
        # user 3 has no edges: gets a self-loop so walks stay defined
        assert set(edges.neighbors(3)) == {3}

    def test_directed_keeps_orientation(self):
        edges = corpus.social_edges(3, [(0, 1)], symmetrize=False)
        assert set(edges.neighbors(0)) == {1}
        assert set(edges.neighbors(1)) == {1}

    def test_out_of_range_source_rejected(self):
        with pytest.raises(ValueError):
            corpus.social_edges(2, [(0, 5)])


class TestFilter:
    def test_item_count_window(self):
        # item 0 has 1 consumer (dropped), item 1 has 3 (kept), item 2 has 2 (dropped)
        us = [0, 0, 1, 2, 1, 2]
        its = [0, 1, 1, 1, 2, 2]
        inter = list(zip(us, its))
        result = corpus.binarize_and_filter(inter, min_item_count=3,
                                            max_item_count=100)
        assert result.matrix.m == 1
        assert result.matrix.n == 3
        assert result.item_index.tolist() == [1]

    def test_cascade_drops_emptied_users(self):
        # user 2 only consumed the unpopular item; after the item goes, so does the user
        inter = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]
        result = corpus.binarize_and_filter(inter, min_item_count=2,
                                            max_item_count=10)
        assert result.matrix.n == 2
        assert result.matrix.m == 2
        assert result.user_index.tolist() == [0, 1]

    def test_max_count_drops_blockbusters(self):
        inter = [(u, 0) for u in range(5)] + [(u, 1) for u in range(3)]
        result = corpus.binarize_and_filter(inter, min_item_count=2,
                                            max_item_count=4)
        assert result.item_index.tolist() == [1]

    def test_everything_filtered_raises(self):
        inter = [(0, 0)]
        with pytest.raises(EmptyDatasetError):
            corpus.binarize_and_filter(inter, min_item_count=5,
                                       max_item_count=10)

    def test_duplicates_collapse_before_counting(self):
        # item 0 has 2 *distinct* consumers despite 11 events, below floor 3
        inter = [(0, 0)] * 10 + [(1, 0)]
        with pytest.raises(EmptyDatasetError):
            corpus.binarize_and_filter(inter, min_item_count=3,
                                       max_item_count=10)


class TestSplits:
    def test_split_partition_and_floor(self):
        from tests.conftest import random_matrix
        mat = random_matrix(30, 40, 0.15, seed=2, min_row=2)
        spec = corpus.SplitSpec(test_fraction=0.3, seed=5)
        train, test = corpus.split_train_test(mat, spec)
        assert train.n == test.n == mat.n and train.m == test.m == mat.m
        assert train.nnz + test.nnz == mat.nnz
        for u in range(mat.n):
            k = mat.row_counts[u]
            want = min(int(np.floor(k * 0.3)), k - 1)
            assert len(test.row(u)) == want
            assert len(train.row(u)) >= 1
            merged = np.union1d(train.row(u), test.row(u))
            assert np.array_equal(merged, mat.row(u))
            assert np.intersect1d(train.row(u), test.row(u)).size == 0

    def test_split_deterministic(self):
        from tests.conftest import random_matrix
        mat = random_matrix(20, 30, 0.2, seed=0)
        spec = corpus.SplitSpec(test_fraction=0.2, seed=9)
        a = corpus.split_train_test(mat, spec)
        b = corpus.split_train_test(mat, spec)
        assert np.array_equal(a[1].row_items, b[1].row_items)
        c = corpus.split_train_test(mat, corpus.SplitSpec(test_fraction=0.2, seed=10))
        assert not np.array_equal(a[1].row_items, c[1].row_items)

    def test_single_positive_user_stays_in_train(self):
        mat = corpus.matrix_from_pairs(2, 3, np.array([0, 1, 1]),
                                       np.array([0, 1, 2]))
        train, test = corpus.split_train_test(
            mat, corpus.SplitSpec(test_fraction=0.9, seed=0))
        assert len(train.row(0)) == 1 and len(test.row(0)) == 0
        assert len(train.row(1)) == 1 and len(test.row(1)) == 1

    def test_folds_partition(self):
        from tests.conftest import random_matrix
        mat = random_matrix(15, 25, 0.25, seed=4, min_row=3)
        splits = list(corpus.split_folds(mat, 3, 1))
        assert len(splits) == 3
        all_test = []
        for train, test in splits:
            assert train.nnz + test.nnz == mat.nnz
            keys = train._pair_keys
            tkeys = test._pair_keys
            assert np.intersect1d(keys, tkeys).size == 0
            all_test.append(tkeys)
        stacked = np.concatenate(all_test)
        # each positive of a multi-positive user appears in exactly one test fold
        assert stacked.size == np.unique(stacked).size
        singles = np.flatnonzero(mat.row_counts == 1)
        for u in singles:
            key = u * mat.m + mat.row(u)[0]
            assert key not in stacked

    def test_splits_match_a_per_user_loop(self):
        # the reference shuffles each user's row by itself, in user-id order
        from tests.conftest import random_matrix
        for seed in range(6):
            mat = random_matrix(25, 30, 0.2, seed=seed, min_row=seed % 3)
            for f in (0.0, 0.25, 0.5, 0.9):
                rng = np.random.default_rng(seed)
                want = [np.zeros(0, np.int64)]
                for u in range(mat.n):
                    n_test = min(int(mat.row(u).size * f), mat.row(u).size - 1)
                    if n_test > 0:
                        want.append(u * mat.m + np.sort(rng.permutation(mat.row(u))[:n_test]))
                _, test = corpus.split_train_test(mat, corpus.SplitSpec(f, seed))
                assert np.array_equal(test._pair_keys, np.concatenate(want))
            for folds in (2, 3):
                rng = np.random.default_rng(seed)
                perms = [rng.permutation(mat.row(u)) for u in range(mat.n)]
                for j, (train, test) in enumerate(corpus.split_folds(mat, folds, seed)):
                    want = [u * mat.m + np.sort(p[j::folds])
                            for u, p in enumerate(perms) if p.size >= 2]
                    assert np.array_equal(test._pair_keys, np.concatenate(want))
                    assert train.nnz + test.nnz == mat.nnz

    def test_spec_validation(self):
        from tests.conftest import random_matrix
        mat = random_matrix(15, 25, 0.25, seed=4, min_row=3)
        with pytest.raises(ValueError, match="test_fraction"):
            corpus.SplitSpec(test_fraction=1.5)
        longest = int(mat.row_counts.max())
        for folds in (1, 0, longest + 1):  # refused at the call, unconsumed
            with pytest.raises(ConfigError, match="folds"):
                corpus.split_folds(mat, folds, 0)
        assert len(list(corpus.split_folds(mat, longest, 0))) == longest

    def test_fold_memory_follows_the_data(self):
        # the folds are built one at a time, so consuming the most folds a
        # matrix allows peaks near consuming two
        from tests.conftest import random_matrix
        mat = random_matrix(200, 300, 0.05, seed=6, min_row=2)
        assert mat.nnz > 2000

        def peak(folds):
            tracemalloc.start()
            for _ in corpus.split_folds(mat, folds, 0):
                pass
            peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak_bytes

        longest = int(mat.row_counts.max())
        assert longest >= 20
        assert peak(longest) <= 2 * peak(2)


class TestPairsIO:
    def test_round_trip_and_byte_stability(self, tmp_path, tiny_matrix):
        p1 = tmp_path / "a.tsv"
        p2 = tmp_path / "b.tsv"
        corpus.write_pairs(str(p1), tiny_matrix)
        corpus.write_pairs(str(p2), tiny_matrix)
        assert p1.read_bytes() == p2.read_bytes()
        back = corpus.read_pairs(str(p1), n=tiny_matrix.n, m=tiny_matrix.m)
        assert np.array_equal(back.row_indptr, tiny_matrix.row_indptr)
        assert np.array_equal(back.row_items, tiny_matrix.row_items)

    def test_read_infers_shape(self, tmp_path, tiny_matrix):
        p = tmp_path / "a.tsv"
        corpus.write_pairs(str(p), tiny_matrix)
        back = corpus.read_pairs(str(p))
        assert back.n == 4 and back.m == 5

    def test_write_pairs_bytes(self, tmp_path, tiny_matrix):
        p = tmp_path / "a.tsv"
        corpus.write_pairs(str(p), tiny_matrix)
        assert p.read_bytes() == (b"0\t0\t1\n0\t2\t1\n1\t1\t1\n2\t0\t1\n"
                                  b"2\t3\t1\n2\t4\t1\n3\t2\t1\n")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_json_object_is_strict_and_refusal_writes_nothing(self, tmp_path, value):
        path = str(tmp_path / "state.json")
        corpus.write_json_object(path, {"b": [1.5], "a": 1})
        before = open(path, "rb").read()
        assert before == b'{\n "a": 1,\n "b": [\n  1.5\n ]\n}\n'
        with pytest.raises(ValueError):
            corpus.write_json_object(path, {"a": 1, "b": [value]})
        assert open(path, "rb").read() == before

    @pytest.mark.parametrize("text,line_no", [
        ("0\t1\t1\n99999999999999999999\t2\t1\n", 2),
        ("# ids\n0\t1\n1\t-9223372036854775809\n", 3),
    ])
    def test_id_beyond_int64_reports_line(self, tmp_path, text, line_no):
        path = write(tmp_path, "a.tsv", text)
        with pytest.raises(ParseError, match="64 bits") as err:
            corpus.read_pairs(path, n=5, m=5)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("text", [
        "0\t1\t1\n2\t1\n",  # write_pairs' layout and social.tsv's
        "1\t0\n0\t1\t1\t7\n",
        "000000000000000003\t1\n",  # 18 digits
    ])
    def test_one_pass_layouts(self, text):
        users, items = corpus._pairs_in_one_pass(text.encode())
        rows = [line.split("\t") for line in text.splitlines()]
        assert users.tolist() == [int(r[0]) for r in rows]
        assert items.tolist() == [int(r[1]) for r in rows]

    @pytest.mark.parametrize("text", [
        "", "0\t1", "0\t1\r\n", "0,1\n", "# c\n0\t1\n", "0\t1\n\n",
        "0\n", "0\n1\t2\n", "\t0\t1\n", "0\t\t1\n", "+0\t1\n", "0 \t1\n",
        "1000000000000000000\t1\n",  # 19 digits
    ])
    def test_one_pass_declines_other_files(self, text):
        assert corpus._pairs_in_one_pass(text.encode()) is None


_IDS = st.sampled_from([b"0", b"3", b"12", b"007", b"39"] * 4
                       + [b"40", b"9" * 18, b"9" * 19, b"1" + b"0" * 18])
_JUNK = st.sampled_from([b"\r", b" ", b"#", b",", b"+", b"-", b"_", b"x",
                         b"\xff", b"\t", b"\n"])


@st.composite
def pair_files(draw):
    """Pair-file bytes: tab-separated id lines, some bytes spliced in and
    sometimes the final newline dropped."""
    line = st.sampled_from([1, 2, 2, 2, 2, 3]).flatmap(
        lambda k: st.lists(_IDS, min_size=k, max_size=k))
    lines = draw(st.lists(line, max_size=6))
    text = b"".join(b"\t".join(line) + b"\n" for line in lines)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_JUNK) + text[at:]
    if draw(st.integers(0, 5)) == 0:
        text = text.removesuffix(b"\n")
    return text


def _read_outcome(path):
    try:
        mat = corpus.read_pairs(path, n=40, m=40)
    except (ParseError, EmptyDatasetError) as e:
        return type(e).__name__, getattr(e, "line_no", None), str(e)
    return mat.row_indptr.tolist(), mat.row_items.tolist()


class TestOnePassAgreesWithLineReader:
    @given(pair_files())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_arrays_or_same_error(self, tmp_path, blob):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(blob)
        fast = _read_outcome(str(path))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "_pairs_in_one_pass", lambda blob: None)
            assert _read_outcome(str(path)) == fast


class TestReindex:
    def test_inverse_index_and_reindex(self):
        kept = np.array([2, 0, 5])
        inv = corpus.inverse_index(kept, 6)
        assert inv[2] == 0 and inv[0] == 1 and inv[5] == 2
        assert inv[1] == -1
        pairs = [(2, 0), (1, 5), (0, 2)]
        out = corpus.reindex_pairs(pairs, inv)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [[0, 1], [1, 0]])
        assert corpus.reindex_pairs([], inv).shape == (0, 2)
