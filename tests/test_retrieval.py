import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allocation import raises_small
from oracles import evaluate_run, oracle_rank, oracle_topk
from twotower import linalg
from twotower import model as model_module
from twotower import retrieval
from twotower.data import EmbeddingStore
from twotower.errors import (
    DataFormatError,
    DegenerateRowError,
    FingerprintMismatchError,
    ShapeError,
    TruncatedFileError,
)
from twotower.metrics import QueryJudgment, metrics_from_ranks
from twotower.model import (
    DualEncoderModel,
    ProjectionHead,
    checkpoint_bytes,
    init_model,
    model_fingerprint,
    project,
)
from twotower.retrieval import (
    RetrievalIndex,
    batch_query,
    build_index,
    evaluate,
    load_index,
    query,
    save_index,
)


def identity_model(dim=3):
    head = lambda: ProjectionHead(w=np.eye(dim), b=np.zeros(dim))
    return DualEncoderModel(image_head=head(), text_head=head(), shared_dim=dim)


def unit_rows(vectors):
    v = np.asarray(vectors, dtype=np.float64)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def image_store(vectors, prefix="img"):
    v = np.asarray(vectors, dtype=np.float64)
    return EmbeddingStore(
        ids=[f"{prefix}{i}" for i in range(v.shape[0])], vectors=v, kind="image_feature"
    )


class TestBuildIndex:
    def test_identity_head_unit_rows(self):
        rows = unit_rows([[1.0, 2.0, 2.0], [3.0, 0.0, 4.0]])
        idx = build_index(identity_model(), image_store(rows))
        np.testing.assert_allclose(idx.vectors, rows, atol=1e-15)
        assert idx.ids == ["img0", "img1"]

    def test_index_is_a_projected_store(self):
        idx = build_index(identity_model(), image_store(unit_rows([[1.0, 2.0, 2.0]])))
        assert isinstance(idx, EmbeddingStore) and idx.kind == "projected"
        assert "img0" in idx and idx.index(["img0"]).tolist() == [0]
        with pytest.raises(TypeError, match="kind"):
            RetrievalIndex(ids=idx.ids, vectors=idx.vectors, model_fingerprint="ab",
                           kind="image_feature")

    def test_empty_store(self):
        idx = build_index(identity_model(), image_store(np.zeros((0, 3))))
        assert len(idx) == 0
        res = query(idx, identity_model(), np.array([1.0, 0.0, 0.0]), k=5)
        assert res.hits == []

    def test_rebuild_same_fingerprint(self):
        model = init_model(4, 4, 3, seed=0)
        store = image_store(np.random.default_rng(0).standard_normal((5, 4)))
        a = build_index(model, store)
        b = build_index(model, store)
        assert a.model_fingerprint == b.model_fingerprint
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_wrong_kind_rejected(self):
        store = EmbeddingStore(ids=["t0"], vectors=np.ones((1, 3)), kind="text_feature")
        with pytest.raises(ValueError, match="image_feature"):
            build_index(identity_model(), store)

    def test_degenerate_projection_names_image(self):
        store = image_store([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateRowError, match="img1") as exc:
            build_index(identity_model(), store)
        assert exc.value.row_id == "img1"

    def test_overflowing_projection_names_image(self):
        store = image_store([[1.0, 0.0, 0.0], [0.0, 1e300, 0.0]])  # its square overflows
        with pytest.raises(DegenerateRowError, match="^image 'img1' projects to a vector whose norm overflows$") as exc:
            build_index(identity_model(), store)
        assert (exc.value.row, exc.value.row_id) == (1, "img1")


class TestQuery:
    def test_self_match_first_with_unit_score(self):
        rows = unit_rows(np.random.default_rng(1).standard_normal((6, 3)))
        model = identity_model()
        idx = build_index(model, image_store(rows))
        res = query(idx, model, rows[3] * 2.5, k=3, query_id="q")
        assert res.hits[0][0] == "img3"
        assert res.hits[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_k_clamped_to_index_size(self):
        model = identity_model()
        idx = build_index(model, image_store(unit_rows([[1, 0, 0], [0, 1, 0]])))
        res = query(idx, model, np.array([1.0, 1.0, 0.0]), k=10)
        assert len(res.hits) == 2
        assert res.k == 10

    def test_tie_scores_keep_index_order(self):
        model = identity_model()
        idx = build_index(model, image_store([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        res = query(idx, model, np.array([1.0, 1.0, 0.0]), k=2)
        assert [h[0] for h in res.hits] == ["img0", "img1"]
        for _, score in res.hits:
            assert score == pytest.approx(0.70711, abs=5e-6)

    def test_overflowing_query_names_it(self):
        model = identity_model()
        idx = build_index(model, image_store([[1.0, 0.0, 0.0]]))
        with pytest.raises(DegenerateRowError, match="^query 'q' projects to a vector whose norm overflows$"):
            query(idx, model, np.array([1e300, 0.0, 0.0]), k=1, query_id="q")

    def test_two_dimensional_query_is_a_shape_error(self):
        model = identity_model()
        idx = build_index(model, image_store([[1.0, 0.0, 0.0]]))
        with pytest.raises(ShapeError, match="1-D"):
            query(idx, model, np.ones((1, 3)), k=1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        model = init_model(5, 4, 3, seed=3)
        idx = build_index(model, image_store(rng.standard_normal((8, 5))))
        q = rng.standard_normal(4)
        a = query(idx, model, q, k=8)
        b = query(idx, model, q * 37.0, k=8)
        assert [h[0] for h in a.hits] == [h[0] for h in b.hits]
        for (_, sa), (_, sb) in zip(a.hits, b.hits):
            assert sa == pytest.approx(sb, abs=1e-9)

    def test_scores_non_increasing_and_bounded(self):
        rng = np.random.default_rng(3)
        model = init_model(5, 4, 3, seed=4)
        idx = build_index(model, image_store(rng.standard_normal((20, 5))))
        res = query(idx, model, rng.standard_normal(4), k=20)
        scores = [s for _, s in res.hits]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert all(-1.0 <= s <= 1.0 for s in scores)

    def test_scores_past_one_are_clipped(self):
        # rows within UNIT_NORM_TOL of unit norm score just past +/-1 before clipping
        model = identity_model()
        idx = index_of(model, np.array([[1.0 + 1e-7, 0.0, 0.0], [-1.0 - 1e-7, 0.0, 0.0]]))
        hits = query(idx, model, np.array([1.0, 0.0, 0.0]), k=2).hits
        assert hits == [("img0", 1.0), ("img1", -1.0)]
        assert all(type(score) is float for _, score in hits)

    def test_zero_query_rejected(self):
        model = identity_model()
        idx = build_index(model, image_store(unit_rows([[1, 0, 0]])))
        with pytest.raises(DegenerateRowError):
            query(idx, model, np.zeros(3), k=1)

    def test_bad_k(self):
        model = identity_model()
        idx = build_index(model, image_store(unit_rows([[1, 0, 0]])))
        with pytest.raises(ValueError):
            query(idx, model, np.ones(3), k=0)

    def test_fingerprint_mismatch(self):
        model = init_model(4, 4, 3, seed=5)
        other = init_model(4, 4, 3, seed=6)
        idx = build_index(model, image_store(np.random.default_rng(4).standard_normal((3, 4))))
        with pytest.raises(FingerprintMismatchError):
            query(idx, other, np.ones(4), k=1)

    def test_monotone_containment(self):
        rng = np.random.default_rng(5)
        model = init_model(5, 4, 3, seed=7)
        idx = build_index(model, image_store(rng.standard_normal((15, 5))))
        q = rng.standard_normal(4)
        previous = []
        for k in range(1, 16):
            hits = [h[0] for h in query(idx, model, q, k=k).hits]
            assert hits[: len(previous)] == previous
            previous = hits


class TestBatchQuery:
    def test_order_and_equivalence(self):
        rng = np.random.default_rng(6)
        model = init_model(5, 4, 3, seed=8)
        idx = build_index(model, image_store(rng.standard_normal((10, 5))))
        texts = EmbeddingStore(
            ids=["a", "b", "c"], vectors=rng.standard_normal((3, 4)), kind="text_feature"
        )
        batch = batch_query(idx, model, texts, k=10)
        assert [r.query_id for r in batch] == ["a", "b", "c"]
        for i, r in enumerate(batch):
            single = query(idx, model, texts.vectors[i], k=10, query_id=texts.ids[i])
            assert r.hits == single.hits  # bit-exact tuples

    def test_empty_text_store(self):
        model = identity_model()
        idx = build_index(model, image_store(unit_rows([[1, 0, 0]])))
        texts = EmbeddingStore(ids=[], vectors=np.zeros((0, 3)), kind="text_feature")
        assert batch_query(idx, model, texts, k=3) == []


class TestEvaluate:
    def test_tied_rows_rank_in_index_order(self):
        model = identity_model()
        idx = build_index(model, image_store([[1, 0, 0], [1, 0, 0], [0, 1, 0]]))
        texts = EmbeddingStore(ids=["q"], vectors=[[1.0, 0.0, 0.0]], kind="text_feature")
        second = evaluate(idx, model, texts, [QueryJudgment("q", frozenset({"img1"}), "img1")])
        assert (second.map, second.top1, second.top5) == (0.5, 0.0, 1.0)
        first = evaluate(idx, model, texts, [QueryJudgment("q", frozenset({"img0"}), "img0")])
        assert (first.map, first.top1) == (1.0, 1.0)

    def test_equals_evaluate_run_over_full_rankings(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            n = int(rng.integers(1, 25))
            d_img, d_txt, d_out = (int(x) for x in rng.integers(2, 8, size=3))
            model = init_model(d_img, d_txt, d_out, seed=int(rng.integers(0, 2**31)))
            idx = build_index(model, image_store(rng.standard_normal((n, d_img))))
            # bit-identical stored rows give exact score ties
            dups = list(rng.integers(0, n, size=3))
            idx = RetrievalIndex(
                ids=idx.ids + [f"dup{i}" for i in range(3)],
                vectors=np.vstack([idx.vectors, idx.vectors[dups]]),
                model_fingerprint=idx.model_fingerprint,
            )
            n_q = int(rng.integers(1, 12))
            texts = EmbeddingStore(
                ids=[f"q{i}" for i in range(n_q)],
                vectors=rng.standard_normal((n_q, d_txt)),
                kind="text_feature",
            )
            judged = [q for q in texts.ids if rng.random() < 0.7] or [texts.ids[-1]]
            pool = idx.ids + ["absent0", "absent1"]
            judgments = []
            for q in judged:
                size = int(rng.integers(1, 5))
                relevant = [str(d) for d in rng.choice(pool, size=size, replace=False)]
                judgments.append(QueryJudgment(q, frozenset(relevant), str(rng.choice(relevant))))
            judgments = [judgments[i] for i in rng.permutation(len(judgments))]
            sub = EmbeddingStore(ids=judged, vectors=texts.vectors[texts.index(judged)], kind="text_feature")
            want = evaluate_run(batch_query(idx, model, sub, k=len(idx)), judgments)
            assert evaluate(idx, model, texts, judgments) == want


class TestAgainstFullSortOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 20))
            d_in, d_out = int(rng.integers(2, 8)), int(rng.integers(2, 6))
            model = init_model(d_in, d_in, d_out, seed=int(rng.integers(0, 2**31)))
            vecs = rng.standard_normal((n, d_in))
            if n >= 3:  # force exact ties via duplicated rows
                vecs[n - 1] = vecs[0]
            store = image_store(vecs)
            idx = build_index(model, store)
            q = rng.standard_normal(d_in)
            k = int(rng.integers(1, n + 3))
            got = query(idx, model, q, k=k)
            want_ids, want_scores = oracle_topk(store.ids, idx.vectors, model, q, k)
            assert [h[0] for h in got.hits] == want_ids
            for (_, s), w in zip(got.hits, want_scores):
                assert s == pytest.approx(w, abs=1e-12)
            # hits are (str, float) pairs, each score float(np.clip(score, -1.0, 1.0))
            one = EmbeddingStore(ids=["q"], vectors=q[None, :], kind="text_feature")
            assert batch_query(idx, model, one, k)[0].hits == got.hits
            assert got.hits == list(zip(*per_row_topk(store.ids, idx.vectors, model, q, k)))
            for hit in got.hits:
                assert type(hit) is tuple and type(hit[0]) is str and type(hit[1]) is float


class TestFingerprintCache:
    """Each model state is hashed once, and any change to its checkpoint bytes is seen."""

    def _pair(self):
        model = init_model(4, 4, 3, seed=5, meta={"run": {"epochs": 1, "sigma": 0.0}, "note": "a"})
        idx = build_index(model, image_store(np.random.default_rng(4).standard_normal((3, 4))))
        return model, idx

    def _rejected_then_restored(self, model, idx, change, restore):
        query(idx, model, np.ones(4), k=1)
        change()
        with pytest.raises(FingerprintMismatchError):
            query(idx, model, np.ones(4), k=1)
        restore()
        assert query(idx, model, np.ones(4), k=1).hits

    def test_write_through_a_head(self):
        model, idx = self._pair()
        w = model.image_head.w
        before = w[0, 0]

        def change():
            w[0, 0] += 1.0

        def restore():
            w[0, 0] = before

        self._rejected_then_restored(model, idx, change, restore)

    def test_nested_meta_edited_in_place(self):
        # a read of meta is a copy: editing it leaves the model; assigning the edit does not
        model, idx = self._pair()
        meta = model.meta
        before = checkpoint_bytes(model)
        meta["run"]["epochs"] = 2
        assert query(idx, model, np.ones(4), k=1).hits and checkpoint_bytes(model) == before
        original = model.meta
        self._rejected_then_restored(
            model, idx, lambda: setattr(model, "meta", meta), lambda: setattr(model, "meta", original)
        )
        assert checkpoint_bytes(model) == before

    @pytest.mark.parametrize(
        "key,value", [("epochs", 1.0), ("epochs", True), ("sigma", -0.0)], ids=["1.0", "True", "-0.0"]
    )
    def test_equal_meta_value_with_other_bytes(self, key, value):
        model, idx = self._pair()
        original = model.meta
        changed = {**original, "run": {**original["run"], key: value}}
        assert changed == original  # equality cannot see this change; the bytes can
        self._rejected_then_restored(
            model, idx, lambda: setattr(model, "meta", changed), lambda: setattr(model, "meta", original)
        )

    def test_each_state_hashed_once(self, monkeypatch):
        calls = []
        sha256 = hashlib.sha256

        def counting(*args):
            calls.append(args)
            return sha256(*args)

        monkeypatch.setattr(model_module.hashlib, "sha256", counting)
        model, idx = self._pair()
        for _ in range(50):
            query(idx, model, np.ones(4), k=2)
        assert len(calls) == 1
        model.text_head.w[0, 0] += 1.0
        for _ in range(3):
            with pytest.raises(FingerprintMismatchError):
                query(idx, model, np.ones(4), k=2)
        assert len(calls) == 2


def index_of(model, vectors):
    """An index holding exactly ``vectors`` (unit rows), as if built by ``model``."""
    ids = [f"img{i}" for i in range(len(vectors))]
    return RetrievalIndex(ids=ids, vectors=vectors, model_fingerprint=model_fingerprint(model))


def per_row_topk(index_ids, index_vectors, model, text_feature, k):
    """``oracle_topk`` with every score taken by the per-row reduction: the unbanded scan."""
    raw = project(model.text_head, np.asarray(text_feature, dtype=np.float64)[None, :])
    q = linalg.unit_rows(linalg.as_matrix(raw), "query", None)[0]
    scores = (index_vectors * q).sum(axis=1)
    order = np.argsort(-scores, kind="stable")[:k]
    return [index_ids[i] for i in order], [float(np.clip(scores[i], -1.0, 1.0)) for i in order]


def check_band(monkeypatch, index, model, texts, ks, reference=oracle_topk, relevant=None):
    """``query`` and ``batch_query`` equal ``reference``; ``evaluate``'s ranks are places.

    Even queries judge every relevant row (every row unless ``relevant``
    names some), odd ones every other; every third also judges an id the
    index lacks. The ranks are checked by ``check_ranks``.
    """
    for k in ks:
        for qid, v, res in zip(texts.ids, texts.vectors, batch_query(index, model, texts, k)):
            assert query(index, model, v, k, query_id=qid).hits == res.hits
            want_ids, want_scores = reference(index.ids, index.vectors, model, v, k)
            assert [h[0] for h in res.hits] == want_ids
            for (_, s), w in zip(res.hits, want_scores):
                assert s == pytest.approx(w, abs=1e-12)
    relevant = sorted(relevant or index.ids)
    judgments = []
    for t, q in enumerate(texts.ids):
        rows = relevant[t % 2 :: 1 + t % 2] + ["unindexed"] * (t % 3 == 0)
        judgments.append(QueryJudgment(q, frozenset(rows), rows[0]))
    check_ranks(monkeypatch, index, model, texts, judgments)


def check_ranks(monkeypatch, index, model, texts, judgments):
    """Each rank ``evaluate`` gives is the row's place in ``batch_query(k=n)``.

    It must also equal ``oracle_rank``'s rank from the same block scores.
    Relevant ids the index lacks get no rank.
    """
    judged = []

    def keep_ranks(pairs):
        judged.extend(pairs)
        return metrics_from_ranks(pairs)

    monkeypatch.setattr(retrieval, "metrics_from_ranks", keep_ranks)
    evaluate(index, model, texts, judgments[::-1])
    full = batch_query(index, model, texts, len(index))
    by_id = {j.query_id: j for j in judgments}
    band = retrieval._score_band(index.vectors.shape[1])
    oracle = []
    for ids, q, g in retrieval._blocks(index, model, texts.vectors, texts.ids):
        for qid, qv, gv in zip(ids, q, g):
            found = [d for d in by_id[qid].relevant_ids if d in index]
            oracle.append({d: oracle_rank(index, qv, gv, index.ids.index(d), band) for d in found})
    assert len(judged) == len(full)
    for (j, ranks), res, want in zip(judged, full, oracle):
        places = {doc: place for place, (doc, _) in enumerate(res.hits, start=1)}
        assert ranks == {doc: places[doc] for doc in j.relevant_ids if doc in index}
        assert ranks == want


class TestScoreBand:
    """GEMM scores decide only outside the band; rows inside it are re-scored."""

    def test_duplicated_rows(self, monkeypatch):
        rng = np.random.default_rng(12)
        model = identity_model(4)
        rows = unit_rows(rng.standard_normal((20, 4)))
        index = index_of(model, np.vstack([rows, rows[[0, 3, 3, 7, 19]]]))
        # the queries include stored rows, so a group of copies comes first
        queries = np.vstack([rows[[3, 0, 19]], rng.standard_normal((4, 4))])
        texts = EmbeddingStore(
            ids=[f"q{i}" for i in range(len(queries))], vectors=queries, kind="text_feature"
        )
        n = len(index)
        check_band(monkeypatch, index, model, texts, ks=(1, 2, 3, n - 1, n, n + 3))

    def test_every_row_tied(self, monkeypatch):
        model = identity_model(3)
        index = index_of(model, unit_rows([[1.0, 2.0, 2.0]] * 12 + [[0.0, 0.0, 1.0]] * 3))
        texts = EmbeddingStore(
            ids=["a", "b"], vectors=[[1.0, 2.0, 2.1], [0.0, 0.1, 1.0]], kind="text_feature"
        )
        check_band(monkeypatch, index, model, texts, ks=(1, 5, 12, 13, 15, 16))

    def test_rows_one_ulp_apart(self, monkeypatch):
        # Rows that differ from a base row by one ulp in one coordinate score
        # within rounding of one another, where GEMM and the per-row reduction
        # disagree in the last bit. oracle_topk's np.dot rounds differently
        # again, so the reference is the per-row scan with a stable sort.
        rng = np.random.default_rng(13)
        d = 16
        model = identity_model(d)
        base = unit_rows(rng.standard_normal((1, d)))[0]
        cluster = [base]
        for j in range(d):
            for toward in (np.inf, -np.inf):
                row = base.copy()
                row[j] = np.nextafter(row[j], toward)
                cluster.append(row)
        vectors = np.vstack(cluster + list(unit_rows(rng.standard_normal((10, d)))))
        index = index_of(model, vectors)
        near_base = base + 1e-3 * rng.standard_normal((3, d))
        queries = np.vstack([near_base, rng.standard_normal((2, d))])
        texts = EmbeddingStore(
            ids=[f"q{i}" for i in range(len(queries))], vectors=queries, kind="text_feature"
        )
        q = linalg.unit_rows(linalg.as_matrix(queries), "query", None)
        assert ((q @ vectors.T) != (vectors[None] * q[:, None]).sum(axis=2)).any()
        n = len(index)
        check_band(monkeypatch, index, model, texts, ks=(1, 7, n, n + 1), reference=per_row_topk)

    @pytest.mark.parametrize("block", [1, 3, 4])
    def test_query_blocks_straddle_the_block_size(self, monkeypatch, block):
        rng = np.random.default_rng(14)
        model = init_model(6, 5, 4, seed=15)
        rows = unit_rows(rng.standard_normal((25, 4)))
        index = index_of(model, np.vstack([rows, rows[[2, 2, 11]]]))
        monkeypatch.setattr(retrieval, "_BLOCK_BYTES", 8 * len(index) * block)
        texts = EmbeddingStore(
            ids=[f"q{i}" for i in range(10)],
            vectors=rng.standard_normal((10, 5)),
            kind="text_feature",
        )
        n = len(index)
        check_band(monkeypatch, index, model, texts, ks=(1, 4, n, n + 2))

    def test_default_block_size_straddled(self, monkeypatch):
        # 2000 rows give blocks of 32 queries; 33 queries make a second block
        rng = np.random.default_rng(16)
        model = init_model(6, 5, 8, seed=17)
        index = index_of(model, unit_rows(rng.standard_normal((2000, 8))))
        texts = EmbeddingStore(
            ids=[f"q{i}" for i in range(33)],
            vectors=rng.standard_normal((33, 5)),
            kind="text_feature",
        )
        relevant = [index.ids[i] for i in rng.choice(2000, size=4, replace=False)]
        check_band(monkeypatch, index, model, texts, ks=(10,), relevant=relevant)

    def test_pairs_ranked_in_slices_of_the_block(self, monkeypatch):
        # blocks of 3 queries; q1 names all 14 rows, more than two blocks hold
        # queries, so its block's 16 pairs take six calls of at most 3 pairs
        rng = np.random.default_rng(18)
        model = init_model(6, 5, 4, seed=19)
        rows = unit_rows(rng.standard_normal((12, 4)))
        index = index_of(model, np.vstack([rows, rows[[1, 5]]]))
        monkeypatch.setattr(retrieval, "_BLOCK_BYTES", 8 * len(index) * 3)
        texts = EmbeddingStore(
            ids=[f"q{i}" for i in range(8)], vectors=rng.standard_normal((8, 5)), kind="text_feature"
        )
        judgments = [QueryJudgment(q, frozenset([index.ids[3 * t % 14]]), index.ids[3 * t % 14])
                     for t, q in enumerate(texts.ids)]
        judgments[1] = QueryJudgment("q1", frozenset(index.ids + ["unindexed"]), index.ids[0])
        calls = []
        ranks = retrieval._ranks

        def spy(index, q, g, who, rows, band):
            calls.append((len(q), len(who)))
            return ranks(index, q, g, who, rows, band)

        monkeypatch.setattr(retrieval, "_ranks", spy)
        check_ranks(monkeypatch, index, model, texts, judgments)
        assert calls == [(3, 3)] * 5 + [(3, 1), (3, 3), (2, 2)]


@settings(max_examples=80, deadline=None)
@given(
    d_in=st.integers(1, 40),
    d_out=st.integers(1, 12),
    n=st.integers(1, 12),
    block=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(d_in=3, d_out=1, n=1, block=1, seed=0)
@example(d_in=5, d_out=1, n=7, block=3, seed=1)
def test_blocks_project_each_row_as_project_does(d_in, d_out, n, block, seed):
    # the reference: each row through project on its own, then unit_rows over the rows
    rng = np.random.default_rng(seed)
    head = lambda: ProjectionHead(w=rng.standard_normal((d_in, d_out)), b=rng.standard_normal(d_out))
    model = DualEncoderModel(head(), head(), d_out)
    index = index_of(model, unit_rows(rng.standard_normal((int(rng.integers(1, 6)), d_out))))
    texts = rng.standard_normal((n, d_in)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    order = rng.permutation(n)
    features, ids = texts[order], [f"q{i}" for i in order]  # gathered out of order, as evaluate does
    raw = np.concatenate([project(model.text_head, features[i:i + 1]) for i in range(n)])
    want = linalg.unit_rows(raw, "query", ids)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retrieval, "_BLOCK_BYTES", 8 * len(index) * block)  # blocks of ``block`` rows
        blocks = list(retrieval._blocks(index, model, features, ids))
    assert [i for b, _, _ in blocks for i in b] == ids
    assert np.concatenate([q for _, q, _ in blocks]).tobytes() == want.tobytes()


class TestIndexFile:
    def _index(self, n=4, seed=0):
        rng = np.random.default_rng(seed)
        model = init_model(5, 4, 3, seed=seed)
        return build_index(model, image_store(rng.standard_normal((n, 5)))), model

    def test_roundtrip_and_second_save_identical(self, tmp_path):
        idx, _ = self._index()
        p1, p2 = tmp_path / "a.azi", tmp_path / "b.azi"
        save_index(idx, p1)
        back = load_index(p1)
        assert back.ids == idx.ids
        assert back.model_fingerprint == idx.model_fingerprint
        save_index(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_builds_one_store(self, tmp_path, monkeypatch):
        idx, _ = self._index()
        p = tmp_path / "i.azi"
        save_index(idx, p)
        built = []
        post_init = EmbeddingStore.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(EmbeddingStore, "__post_init__", counting)
        back = load_index(p)
        assert len(built) == 1 and built[0] is back  # the index is the store

    def test_loaded_rows_unit_norm_within_float32(self, tmp_path):
        idx, _ = self._index(n=10, seed=1)
        p = tmp_path / "i.azi"
        save_index(idx, p)
        back = load_index(p)
        norms = np.linalg.norm(back.vectors, axis=1)
        assert np.abs(norms - 1).max() <= 1e-6

    def test_truncated_footer(self, tmp_path):
        idx, _ = self._index()
        p = tmp_path / "i.azi"
        save_index(idx, p)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(TruncatedFileError):
            load_index(p)

    def test_hostile_footer_length_raises_without_allocating(self, tmp_path):
        import struct

        idx, _ = self._index()
        p = tmp_path / "i.azi"
        save_index(idx, p)
        data = p.read_bytes()
        p.write_bytes(data[:-68] + struct.pack("<I", 0xFFFFFFFF) + data[-64:])
        err = raises_small(TruncatedFileError, load_index, p, match="fingerprint footer")
        assert f"wanted {0xFFFFFFFF} bytes, got 64" in str(err)

    def test_footer_not_utf8(self, tmp_path):
        idx, _ = self._index()
        p = tmp_path / "i.azi"
        save_index(idx, p)
        p.write_bytes(p.read_bytes()[:-1] + b"\xff")
        with pytest.raises(DataFormatError, match="fingerprint footer is not valid UTF-8"):
            load_index(p)

    def test_wrong_kind_rejected(self, tmp_path):
        # a plain image_feature store with a footer bolted on is not an index
        import struct

        from twotower.data import save_embeddings

        store = image_store(unit_rows(np.random.default_rng(2).standard_normal((2, 3))))
        p = tmp_path / "i.azi"
        save_embeddings(store, p)
        with open(p, "ab") as fh:
            fh.write(struct.pack("<I", 2) + b"ab")
        with pytest.raises(DataFormatError, match="projected"):
            load_index(p)

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            RetrievalIndex(ids=["a"], vectors=[[2.0, 0.0]], model_fingerprint="f" * 64)

    def test_empty_fingerprint_rejected(self):
        with pytest.raises(ValueError, match="fingerprint"):
            RetrievalIndex(ids=["a"], vectors=[[1.0, 0.0]], model_fingerprint="")
