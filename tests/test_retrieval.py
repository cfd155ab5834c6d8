import numpy as np
import pytest

from oracles import oracle_topk
from twotower.data import EmbeddingStore
from twotower.errors import (
    DataFormatError,
    DegenerateRowError,
    FingerprintMismatchError,
    ShapeError,
    TruncatedFileError,
)
from twotower.metrics import QueryJudgment, evaluate_run
from twotower.model import DualEncoderModel, ProjectionHead, init_model
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
            sub = EmbeddingStore(ids=judged, vectors=texts.rows(judged), kind="text_feature")
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
