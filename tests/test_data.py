import json
import struct

import numpy as np
import pytest

from twotower.data import (
    CaptionRecord,
    EmbeddingStore,
    Pair,
    PairedDataset,
    SplitMix64,
    augment_dataset,
    build_pairs,
    jitter_augment,
    load_embeddings,
    load_manifest,
    make_batches,
    save_embeddings,
    save_manifest,
    shuffled,
    synth_dataset,
)
from twotower.errors import (
    BadMagicError,
    DataFormatError,
    FormatVersionError,
    IdCountMismatchError,
    ManifestError,
    TruncatedFileError,
)


class TestSplitMix64:
    def test_reference_sequence_for_seed_zero(self):
        # first three outputs of the published splitmix64 algorithm at seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_shuffle_deterministic(self):
        assert shuffled(range(20), seed=9) == shuffled(range(20), seed=9)
        assert shuffled(range(20), seed=9) != shuffled(range(20), seed=10)

    def test_shuffle_is_permutation(self):
        out = shuffled(range(100), seed=3)
        assert sorted(out) == list(range(100))

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).next_below(0)


AZ_LINE = (
    '{"image_id":"203564","caption":"Ön teker kimi saat olan velosiped nüsxesi.",'
    '"lang":"az","split":"train"}'
)


class TestManifest:
    def test_single_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(AZ_LINE + "\n", encoding="utf-8")
        recs = load_manifest(p)
        assert len(recs) == 1
        assert recs[0].image_id == "203564"
        assert recs[0].lang == "az"
        assert recs[0].caption.startswith("Ön teker")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("", encoding="utf-8")
        assert load_manifest(p) == []

    def test_missing_split_reports_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(
            AZ_LINE + "\n" + '{"image_id":"1","caption":"x","lang":"az"}\n', encoding="utf-8"
        )
        with pytest.raises(ManifestError, match="line 2") as exc:
            load_manifest(p)
        assert exc.value.line == 2

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="line 1"):
            load_manifest(p)

    def test_duplicate_pair_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(AZ_LINE + "\n" + AZ_LINE + "\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(p)

    def test_bad_split_value(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(
            '{"image_id":"1","caption":"x","lang":"az","split":"dev"}\n', encoding="utf-8"
        )
        with pytest.raises(ManifestError, match="split"):
            load_manifest(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("\n" + AZ_LINE + "\n\n", encoding="utf-8")
        assert len(load_manifest(p)) == 1

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(AZ_LINE + "\n", encoding="utf-8")
        recs = load_manifest(p)
        q = tmp_path / "copy.jsonl"
        save_manifest(recs, q)
        assert load_manifest(q) == recs


def small_store(n=2, dim=3, kind="image_feature", seed=0):
    rng = np.random.default_rng(seed)
    ids = [f"id{i}" for i in range(n)]
    return EmbeddingStore(ids=ids, vectors=rng.standard_normal((n, dim)), kind=kind)


class TestEmbeddingStore:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            EmbeddingStore(ids=["a", "a"], vectors=np.zeros((2, 2)), kind="image_feature")

    def test_id_row_count_mismatch(self):
        from twotower.errors import ShapeError

        with pytest.raises(ShapeError):
            EmbeddingStore(ids=["a"], vectors=np.zeros((2, 2)), kind="image_feature")

    def test_vectors_read_only(self):
        store = small_store()
        with pytest.raises(ValueError):
            store.vectors[0, 0] = 5.0

    def test_rows_gather_order(self):
        store = small_store(n=4)
        out = store.rows(["id2", "id0"])
        np.testing.assert_array_equal(out[0], store.row("id2"))
        np.testing.assert_array_equal(out[1], store.row("id0"))

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="nope"):
            small_store().row("nope")

    def test_zero_dim_rejected(self):
        from twotower.errors import ShapeError

        with pytest.raises(ShapeError, match="dim"):
            EmbeddingStore(ids=[], vectors=np.zeros((0, 0)), kind="projected")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            EmbeddingStore(ids=["a"], vectors=np.zeros((1, 2)), kind="mystery")


class TestPairedDatasetInvariants:
    def test_caption_in_two_pairs_rejected(self):
        ds = toy_dataset(3)
        pairs = list(ds.pairs) + [Pair("t0", "i1", "train")]
        with pytest.raises(ValueError, match="more than one pair"):
            PairedDataset(image_store=ds.image_store, text_store=ds.text_store, pairs=pairs)

    def test_unknown_image_rejected(self):
        ds = toy_dataset(3)
        pairs = [Pair("t0", "missing", "train")]
        with pytest.raises(ValueError, match="unknown image"):
            PairedDataset(image_store=ds.image_store, text_store=ds.text_store, pairs=pairs)

    def test_bad_split_rejected(self):
        ds = toy_dataset(3)
        pairs = [Pair("t0", "i0", "dev")]
        with pytest.raises(ValueError, match="split"):
            PairedDataset(image_store=ds.image_store, text_store=ds.text_store, pairs=pairs)

    def test_empty_image_id_rejected(self):
        with pytest.raises(ValueError, match="image_id"):
            CaptionRecord(image_id="", caption="x", lang="az", split="train")


class TestEmbeddingFile:
    def test_roundtrip_and_byte_count(self, tmp_path):
        store = small_store(n=2, dim=3)
        p = tmp_path / "s.emb"
        save_embeddings(store, p)
        data = p.read_bytes()
        # header(28) + payload(2*3*4) + ids (2 + len) each
        expected = 28 + 24 + sum(2 + len(i.encode()) for i in store.ids)
        assert len(data) == expected
        back = load_embeddings(p)
        assert back.ids == store.ids
        assert back.kind == store.kind
        assert back.dim == store.dim
        np.testing.assert_array_equal(
            back.vectors, store.vectors.astype(np.float32).astype(np.float64)
        )

    def test_second_save_is_byte_identical(self, tmp_path):
        store = small_store(n=5, dim=4, kind="text_feature")
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        save_embeddings(store, p1)
        save_embeddings(load_embeddings(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_store(self, tmp_path):
        store = EmbeddingStore(ids=[], vectors=np.zeros((0, 4)), kind="projected")
        p = tmp_path / "e.emb"
        save_embeddings(store, p)
        back = load_embeddings(p)
        assert len(back) == 0 and back.dim == 4 and back.kind == "projected"

    def test_bad_magic(self, tmp_path):
        store = small_store()
        p = tmp_path / "s.emb"
        save_embeddings(store, p)
        data = bytearray(p.read_bytes())
        data[:4] = b"XXXX"
        p.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            load_embeddings(p)

    def test_bad_version(self, tmp_path):
        store = small_store()
        p = tmp_path / "s.emb"
        save_embeddings(store, p)
        data = bytearray(p.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        p.write_bytes(bytes(data))
        with pytest.raises(FormatVersionError):
            load_embeddings(p)

    def test_truncated_payload(self, tmp_path):
        store = small_store()
        p = tmp_path / "s.emb"
        save_embeddings(store, p)
        p.write_bytes(p.read_bytes()[: 28 + 10])
        with pytest.raises(TruncatedFileError):
            load_embeddings(p)

    def test_id_count_mismatch(self, tmp_path):
        store = small_store(n=2, dim=3)
        p = tmp_path / "s.emb"
        save_embeddings(store, p)
        data = p.read_bytes()
        # drop the final id record entirely: clean EOF at an id boundary
        cut = 28 + 24 + 2 + len(store.ids[0].encode())
        p.write_bytes(data[:cut])
        with pytest.raises(IdCountMismatchError):
            load_embeddings(p)

    def test_truncated_mid_id(self, tmp_path):
        store = small_store(n=2, dim=3)
        p = tmp_path / "s.emb"
        save_embeddings(store, p)
        cut = 28 + 24 + 2 + len(store.ids[0].encode()) + 1  # inside id 1's length prefix
        p.write_bytes(p.read_bytes()[:cut])
        with pytest.raises(TruncatedFileError):
            load_embeddings(p)

    def test_id_not_utf8_names_the_id(self, tmp_path):
        store = small_store(n=2, dim=3)
        p = tmp_path / "s.emb"
        save_embeddings(store, p)
        data = bytearray(p.read_bytes())
        data[-1] = 0xFF  # last byte of id 1
        p.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="id 1 is not valid UTF-8"):
            load_embeddings(p)

    def test_trailing_data_rejected(self, tmp_path):
        store = small_store()
        p = tmp_path / "s.emb"
        save_embeddings(store, p)
        p.write_bytes(p.read_bytes() + b"!")
        with pytest.raises(DataFormatError, match="trailing"):
            load_embeddings(p)


def toy_dataset(n_pairs=10):
    n = n_pairs
    rng = np.random.default_rng(0)
    images = EmbeddingStore(
        ids=[f"i{k}" for k in range(n)], vectors=rng.standard_normal((n, 3)), kind="image_feature"
    )
    texts = EmbeddingStore(
        ids=[f"t{k}" for k in range(n)], vectors=rng.standard_normal((n, 2)), kind="text_feature"
    )
    pairs = [Pair(f"t{k}", f"i{k}", "train") for k in range(n)]
    return PairedDataset(image_store=images, text_store=texts, pairs=pairs)


class TestMakeBatches:
    def test_drop_last(self):
        batches = make_batches(toy_dataset(10), "train", 3, seed=1, drop_last=True)
        assert len(batches) == 3
        assert all(len(b.text_ids) == 3 for b in batches)

    def test_keep_last(self):
        batches = make_batches(toy_dataset(10), "train", 3, seed=1, drop_last=False)
        assert [len(b.text_ids) for b in batches] == [3, 3, 3, 1]

    def test_same_seed_same_batches(self):
        ds = toy_dataset(12)
        a = make_batches(ds, "train", 4, seed=5)
        b = make_batches(ds, "train", 4, seed=5)
        assert a == b

    def test_partition_exactly_once(self):
        ds = toy_dataset(11)
        batches = make_batches(ds, "train", 4, seed=2, drop_last=False)
        seen = [t for b in batches for t in b.text_ids]
        assert sorted(seen) == sorted(p.text_id for p in ds.pairs)

    def test_batch_aligns_pairs(self):
        ds = toy_dataset(8)
        for b in make_batches(ds, "train", 4, seed=7):
            for t, i in zip(b.text_ids, b.image_ids):
                assert t[1:] == i[1:]  # t3 pairs i3

    def test_unknown_split(self):
        with pytest.raises(ValueError, match="unknown split"):
            make_batches(toy_dataset(), "dev", 2, seed=0)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            make_batches(toy_dataset(), "train", 0, seed=0)


class TestSynthDataset:
    def test_counts(self):
        ds = synth_dataset(100, 5, latent_dim=4, img_dim=8, txt_dim=6, noise_sigma=0.1, seed=0)
        assert len(ds.image_store) == 100
        assert len(ds.text_store) == 500
        assert len(ds.pairs) == 500

    def test_deterministic(self):
        kw = dict(captions_per_image=2, latent_dim=3, img_dim=5, txt_dim=4, noise_sigma=0.2)
        a = synth_dataset(20, seed=9, **kw)
        b = synth_dataset(20, seed=9, **kw)
        np.testing.assert_array_equal(a.image_store.vectors, b.image_store.vectors)
        np.testing.assert_array_equal(a.text_store.vectors, b.text_store.vectors)
        assert a.pairs == b.pairs

    def test_noiseless_pairing_recoverable_by_regression(self):
        # with zero noise, text features are an exact linear image of the
        # latents, so least squares maps text -> image features perfectly
        ds = synth_dataset(
            80, 1, latent_dim=8, img_dim=16, txt_dim=12, noise_sigma=0.0, seed=4
        )
        txt = ds.text_store.vectors
        img_of_pair = np.array([ds.image_store.row(p.image_id) for p in ds.pairs])
        w, *_ = np.linalg.lstsq(txt, img_of_pair, rcond=None)
        pred = txt @ w
        d2 = ((pred[:, None, :] - ds.image_store.vectors[None, :, :]) ** 2).sum(axis=2)
        nearest = d2.argmin(axis=1)
        truth = np.array([ds.image_store.ids.index(p.image_id) for p in ds.pairs])
        assert (nearest == truth).all()

    def test_splits_by_image(self):
        ds = synth_dataset(50, 3, latent_dim=2, img_dim=4, txt_dim=4, noise_sigma=0.0, seed=1)
        split_of_image = {}
        for p in ds.pairs:
            split_of_image.setdefault(p.image_id, set()).add(p.split)
        assert all(len(s) == 1 for s in split_of_image.values())
        sizes = ds.split_sizes()
        assert sizes == {"train": 40 * 3, "val": 5 * 3, "test": 5 * 3}

    def test_latent_dim_bound(self):
        with pytest.raises(ValueError, match="latent_dim"):
            synth_dataset(10, 1, latent_dim=9, img_dim=8, txt_dim=12, noise_sigma=0.0, seed=0)

    def test_nonpositive_dims(self):
        with pytest.raises(ValueError):
            synth_dataset(10, 1, latent_dim=0, img_dim=8, txt_dim=8, noise_sigma=0.0, seed=0)


class TestJitterAugment:
    def test_sigma_zero_copies_equal_originals(self):
        store = small_store(n=4, dim=3)
        out = jitter_augment(store, sigma=0.0, copies=1, seed=0)
        np.testing.assert_array_equal(out.vectors[4:], store.vectors)

    def test_copies_zero_identity(self):
        store = small_store(n=4, dim=3)
        out = jitter_augment(store, sigma=0.5, copies=0, seed=0)
        assert out.ids == store.ids
        np.testing.assert_array_equal(out.vectors, store.vectors)

    def test_row_count(self):
        store = small_store(n=10, dim=3)
        out = jitter_augment(store, sigma=0.1, copies=2, seed=0)
        assert len(out) == 30
        assert out.dim == store.dim

    def test_ids_suffixed(self):
        store = small_store(n=2, dim=3)
        out = jitter_augment(store, sigma=0.1, copies=2, seed=0)
        assert out.ids == ["id0", "id1", "id0#aug0", "id0#aug1", "id1#aug0", "id1#aug1"]

    def test_deterministic(self):
        store = small_store(n=3, dim=4)
        a = jitter_augment(store, 0.3, 2, seed=11)
        b = jitter_augment(store, 0.3, 2, seed=11)
        np.testing.assert_array_equal(a.vectors, b.vectors)


class TestBuildPairs:
    def _records(self, tmp_path, lines):
        p = tmp_path / "m.jsonl"
        p.write_text("".join(json.dumps(o) + "\n" for o in lines), encoding="utf-8")
        return load_manifest(p)

    def _stores(self, image_ids, text_ids):
        rng = np.random.default_rng(0)
        images = EmbeddingStore(
            ids=image_ids, vectors=rng.standard_normal((len(image_ids), 3)), kind="image_feature"
        )
        texts = EmbeddingStore(
            ids=text_ids, vectors=rng.standard_normal((len(text_ids), 2)), kind="text_feature"
        )
        return images, texts

    def test_positional_text_ids(self, tmp_path):
        recs = self._records(
            tmp_path,
            [
                {"image_id": "a", "caption": "one", "lang": "az", "split": "train"},
                {"image_id": "a", "caption": "two", "lang": "az", "split": "train"},
            ],
        )
        images, texts = self._stores(["a"], ["a#c0", "a#c1"])
        ds = build_pairs(recs, images, texts, captions_per_image=2)
        assert [p.text_id for p in ds.pairs] == ["a#c0", "a#c1"]

    def test_ragged_rejected(self, tmp_path):
        recs = self._records(
            tmp_path,
            [
                {"image_id": "a", "caption": "one", "lang": "az", "split": "train"},
                {"image_id": "a", "caption": "two", "lang": "az", "split": "train"},
                {"image_id": "b", "caption": "solo", "lang": "az", "split": "train"},
            ],
        )
        images, texts = self._stores(["a", "b"], ["a#c0", "a#c1", "b#c0"])
        with pytest.raises(DataFormatError, match="'b'"):
            build_pairs(recs, images, texts, captions_per_image=2)
        ds = build_pairs(recs, images, texts, captions_per_image=2, allow_ragged=True)
        assert len(ds.pairs) == 3

    def test_missing_embedding_detected(self, tmp_path):
        recs = self._records(
            tmp_path, [{"image_id": "a", "caption": "one", "lang": "az", "split": "train"}]
        )
        images, texts = self._stores(["a"], ["other"])
        with pytest.raises(DataFormatError, match="a#c0"):
            build_pairs(recs, images, texts, captions_per_image=1)


class TestAugmentDataset:
    def test_counts_and_invariants(self):
        ds = synth_dataset(10, 2, latent_dim=2, img_dim=4, txt_dim=4, noise_sigma=0.0, seed=0)
        out = augment_dataset(ds, sigma=0.1, copies=2, seed=5)
        n_train = len(ds.pairs_for_split("train"))
        assert len(out.pairs) == len(ds.pairs) + 2 * n_train
        assert len(out.pairs_for_split("val")) == len(ds.pairs_for_split("val"))
        # each augmented caption is a verbatim copy of its source caption
        for p in out.pairs_for_split("train"):
            if "#aug" in p.text_id:
                src = p.text_id.rsplit("#aug", 1)[0]
                np.testing.assert_array_equal(out.text_store.row(p.text_id), ds.text_store.row(src))

    def test_copies_zero_is_identity(self):
        ds = synth_dataset(6, 1, latent_dim=2, img_dim=4, txt_dim=4, noise_sigma=0.0, seed=0)
        assert augment_dataset(ds, sigma=0.1, copies=0, seed=5) is ds
