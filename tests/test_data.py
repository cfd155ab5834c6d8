import json
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocation import raises_small
from oracles import SplitMix64, reference_load_manifest
from twotower import data
from twotower.data import (
    EmbeddingStore,
    PairedDataset,
    augment_dataset,
    build_pairs,
    load_embeddings,
    load_manifest,
    make_batches,
    save_embeddings,
    save_manifest,
    shuffled,
    split_judgments,
    splitmix64_below,
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
from twotower.metrics import QueryJudgment


def paired(image_store, text_store, triples):
    """A dataset of ``(text_id, image_id, split)`` triples, passed as the three pair columns."""
    return PairedDataset(image_store, text_store, *zip(*triples))


def pairs_of(ds):
    """A dataset's pairs as ``(text_id, image_id, split)`` triples, in pair order."""
    return list(zip(ds.text_ids, ds.image_ids, ds.splits))


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(-(2**64), 2**64 - 1),
    bounds=st.lists(st.integers(1, 2**64 - 1) | st.integers(1, 50), max_size=40),
)
def test_array_draws_equal_next_below(seed, bounds):
    rng = SplitMix64(seed)
    assert splitmix64_below(seed, bounds).tolist() == [rng.next_below(n) for n in bounds]


AZ_LINE = (
    '{"image_id":"203564","caption":"Ön teker kimi saat olan velosiped nüsxesi.",'
    '"lang":"az","split":"train"}'
)


class TestManifest:
    def test_single_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(AZ_LINE + "\n", encoding="utf-8")
        cols = load_manifest(p)
        assert len(cols["image_id"]) == 1
        assert cols["image_id"][0] == "203564"
        assert cols["lang"][0] == "az"
        assert cols["caption"][0].startswith("Ön teker")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("", encoding="utf-8")
        assert load_manifest(p) == {
            "image_id": [], "caption": [], "lang": [], "split": [], "text_id": []
        }

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
        assert len(load_manifest(p)["image_id"]) == 1

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(AZ_LINE + "\n", encoding="utf-8")
        recs = load_manifest(p)
        q = tmp_path / "copy.jsonl"
        save_manifest(recs, q)
        assert load_manifest(q) == recs

    def test_invalid_utf8_reports_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        bad = b'{"image_id":"1","caption":"\xff","lang":"az","split":"train"}\n'
        p.write_bytes(AZ_LINE.encode("utf-8") + b"\n\n" + bad)
        with pytest.raises(ManifestError, match="line 3: not valid UTF-8") as exc:
            load_manifest(p)
        assert exc.value.line == 3

    def test_lines_are_never_joined(self, tmp_path):
        # joined into one JSON array, these three lines would hold three records
        p = tmp_path / "m.jsonl"
        row = '"caption":"x","lang":"az","split":"train"'
        p.write_text(
            f'{{"image_id":"i0",{row},"x":[{{}}\n'
            "{}]}\n"
            f'{{"image_id":"i1",{row}}},{{"image_id":"i2",{row}}}\n'
        )
        with pytest.raises(ManifestError, match=r"line 1: invalid JSON \(Expecting ',' delimiter\)$") as exc:
            load_manifest(p)
        assert exc.value.line == 1

    def test_json_fault_before_utf8_fault_is_the_one_named(self, tmp_path):
        p = tmp_path / "m.jsonl"
        bad = b'{"image_id":"1","caption":"\xff","lang":"az","split":"train"}\n'
        p.write_bytes(AZ_LINE.encode() + b"\n{oops\n\n\n" + bad)
        with pytest.raises(ManifestError, match="line 2: invalid JSON") as exc:
            load_manifest(p)
        assert exc.value.line == 2

    def test_valid_manifest_is_read_without_the_per_line_path(self, tmp_path):
        p = tmp_path / "m.jsonl"
        rows = [
            {"image_id": f"i{k // 3}", "caption": f"c{k}", "lang": "az", "split": "train"}
            for k in range(3000)
        ]
        rows[7]["text_id"] = "explicit"
        p.write_text(" \r\n".join(json.dumps(r) for r in rows) + "\n\n\t\n")
        with mock.patch.object(data, "_by_line", side_effect=AssertionError("per-line path")):
            cols = load_manifest(p)
        assert cols == reference_load_manifest(p)
        assert cols["text_id"][6:9] == ["i2#c0", "explicit", "i2#c2"]


@st.composite
def manifests(draw):
    """Manifest bytes: rows, at most one with a bad field, odd lines, then a few byte edits."""
    rows = [
        {
            "image_id": draw(st.sampled_from(["i0", "i1", "i2"])),
            "caption": draw(st.text("ab\u00f6", max_size=3)) + str(k),
            "lang": "az",
            "split": draw(st.sampled_from(["train", "val", "test"])),
            **({"text_id": draw(st.sampled_from(["t0", "t1", None]))} if draw(st.booleans()) else {}),
        }
        for k in range(draw(st.integers(0, 8)))
    ]
    if rows and draw(st.booleans()):  # one field missing, emptied, or not a string
        row = draw(st.sampled_from(rows))
        key = draw(st.sampled_from(["image_id", "caption", "lang", "split", "text_id"]))
        fault = draw(st.sampled_from(["missing", "", "dev", 7, None, ["x"]]))
        row.pop(key, None) if fault == "missing" else row.update({key: fault})
    lines = [json.dumps(row, ensure_ascii=draw(st.booleans())) for row in rows]
    odd = ["", " ", "\t\r", "\x0c", "\x0c{}", "\ufeff{}", "\r", "[1]", "{} {}", "1, 2", "\u2028"]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        line = draw(st.sampled_from(odd + lines[:1] * 4))  # the first row again: a duplicate
        lines.insert(draw(st.integers(0, len(lines))), line)
    raw = bytearray(draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode())
    if draw(st.booleans()):
        raw += b"\n"
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if raw else 0):
        at = draw(st.integers(0, len(raw) - 1))
        edit = draw(st.sampled_from(["flip", "truncate", "newline", "join", "lead", "xff"]))
        if edit == "flip":
            raw[at] ^= draw(st.integers(1, 255))
        elif edit == "truncate":
            del raw[at:]
        elif edit == "newline":  # splits a value over two lines
            raw.insert(at, 10)
        elif edit == "join" and 10 in raw:  # two values on one line
            del raw[raw.index(10, at) if 10 in raw[at:] else raw.index(10)]
        elif edit == "lead":  # a character before a line's value
            at = raw.rfind(b"\n", 0, at) + 1
            raw[at:at] = draw(st.sampled_from([b" ", b"\t", b"\x0c", b"\x1c", b"\xef\xbb\xbf"]))
        elif edit == "xff":
            raw.insert(at, 0xFF)
        if not raw:
            break
    return bytes(raw)


def _outcome(load, path):
    try:
        return load(path)
    except ManifestError as e:
        return type(e), str(e), e.line


ROW = b'{"image_id":"i0","caption":"x","lang":"az","split":"train"}'
ROW2 = b'{"image_id":"i0","caption":"y","lang":"az","split":"val"}'


@pytest.mark.parametrize(
    "raw",
    [
        b"\x0c" + ROW,  # json.loads skips only space, tab, CR and LF
        b"\x1c" + ROW + b"\n",
        b"\xef\xbb\xbf" + ROW,  # a byte order mark
        b" \t" + ROW + b" \r\n\x0c\n" + ROW2,  # a form feed alone is a blank line
        ROW + b"\r" + ROW2,  # a lone CR ends no line
        ROW + b"\xe2\x80\xa8" + ROW2,  # nor does U+2028
        ROW + ROW2,
        ROW[:-1] + b',"text_id":7}',
        ROW[:-1] + b',"text_id":null}\n' + ROW2[:-1] + b',"text_id":"i0#c0"}',
        b'"' + ROW,  # an unterminated string, with and without a newline after
        b'"' + ROW + b"\n",
    ],
)
def test_edge_lines_match_the_per_line_reference(tmp_path, raw):
    path = tmp_path / "m.jsonl"
    path.write_bytes(raw)
    assert _outcome(load_manifest, path) == _outcome(reference_load_manifest, path)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=manifests(), chunk=st.sampled_from([1, 2, 3, 1024]))
def test_manifest_columns_match_the_per_line_reference(tmp_path_factory, raw, chunk):
    path = tmp_path_factory.getbasetemp() / "property.jsonl"
    path.write_bytes(raw)
    with mock.patch.object(data, "_CHUNK", chunk):
        assert _outcome(load_manifest, path) == _outcome(reference_load_manifest, path)


def small_store(n=2, dim=3, kind="image_feature", seed=0):
    rng = np.random.default_rng(seed)
    ids = [f"id{i}" for i in range(n)]
    return EmbeddingStore(ids=ids, vectors=rng.standard_normal((n, dim)), kind=kind)


class TestEmbeddingStore:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            EmbeddingStore(ids=["a", "a"], vectors=np.zeros((2, 2)), kind="image_feature")

    @pytest.mark.parametrize(
        "ids, vectors, message",
        [
            (["a", "b", "a"], [[0.0], [1.0], [2.0]], "ids must be unique; id 'a' repeats at row 2"),
            # the first repeat in row order, not the first id that has one
            (["a", "b", "b", "a"], [[0.0]] * 4, "ids must be unique; id 'b' repeats at row 2"),
            ([7, 7], [[0.0], [1.0]], "ids must be unique; id 7 repeats at row 1"),
            # uniqueness is checked first
            (["", ""], [[0.0], [1.0]], "ids must be unique; id '' repeats at row 1"),
            (["a", ""], [[0.0], [1.0]], "ids must be non-empty strings; row 1 holds ''"),
            (["a", 7], [[0.0], [1.0]], "ids must be non-empty strings; row 1 holds 7"),
            (["a", b"b"], [[0.0], [1.0]], "ids must be non-empty strings; row 1 holds b'b'"),
            (["a", None], [[0.0], [1.0]], "ids must be non-empty strings; row 1 holds None"),
            ([None, ""], [[0.0], [1.0]], "ids must be non-empty strings; row 0 holds None"),
            (["a", "b"], [[0.0], [np.nan]],
             "vectors contain non-finite entries; first at row 1, id 'b'"),
            (["a", "b"], [[np.inf], [1.0]],
             "vectors contain non-finite entries; first at row 0, id 'a'"),
            (["a", "b"], [[-np.inf], [np.inf]],
             "vectors contain non-finite entries; first at row 0, id 'a'"),
            (["a", "b", "c"], [[0.0, 1.0], [2.0, np.nan], [np.inf, 0.0]],
             "vectors contain non-finite entries; first at row 1, id 'b'"),
        ],
    )
    def test_rejections_name_the_fault(self, ids, vectors, message):
        with pytest.raises(ValueError) as fault:
            EmbeddingStore(ids=ids, vectors=np.array(vectors), kind="text_feature")
        assert str(fault.value) == message

    class Tag(str):
        pass

    @pytest.mark.parametrize(
        "ids",
        [[Tag("a"), "b"], ["é", "a\x00"], ["a b", "€" * 3]],
        ids=["str-subclass", "non-ascii-and-nul", "space-and-three-byte"],
    )
    def test_string_ids_accepted_and_saved(self, tmp_path, ids):
        store = EmbeddingStore(ids=ids, vectors=np.array([[0.0], [1.0]]), kind="text_feature")
        save_embeddings(store, tmp_path / "s.emb")
        assert load_embeddings(tmp_path / "s.emb").ids == ids

    def test_str_subclass_ids_and_huge_finite_vectors_accepted(self):
        class Tag(str):
            pass

        store = EmbeddingStore(
            ids=[Tag("a"), "b"], vectors=np.array([[1e308, 1e308], [-1e308, 1e308]]),
            kind="projected",
        )
        assert store.index(["a", "b"]).tolist() == [0, 1]

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
        out = store.vectors[store.index(["id2", "id0"])]
        np.testing.assert_array_equal(out[0], store.row("id2"))
        np.testing.assert_array_equal(out[1], store.row("id0"))

    def test_rows_are_writable_copies(self):
        store = small_store(n=3)
        out = store.vectors[store.index(["id1"])]
        out[0, 0] += 1.0
        assert out[0, 0] != store.vectors[1, 0]

    def test_index_resolves_rows_in_order(self):
        store = small_store(n=4)
        idx = store.index(["id3", "id0", "id3"])
        assert idx.dtype == np.intp
        assert idx.tolist() == [3, 0, 3]
        assert store.index([]).shape == (0,)

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="nope"):
            small_store().row("nope")
        with pytest.raises(KeyError, match="id 'nope' not in store"):
            small_store().index(["id0", "nope"])

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
        pairs = pairs_of(ds) + [("t0", "i1", "train")]
        with pytest.raises(ValueError, match="more than one pair"):
            paired(ds.image_store, ds.text_store, pairs)

    def test_unknown_image_rejected(self):
        ds = toy_dataset(3)
        pairs = [("t0", "missing", "train")]
        with pytest.raises(ValueError, match="unknown image"):
            paired(ds.image_store, ds.text_store, pairs)

    def test_bad_split_rejected(self):
        ds = toy_dataset(3)
        pairs = [("t0", "i0", "dev")]
        with pytest.raises(ValueError, match="split"):
            paired(ds.image_store, ds.text_store, pairs)

    @pytest.mark.parametrize("short", ["text_ids", "image_ids", "splits"])
    def test_columns_of_unequal_length_rejected(self, short):
        ds = toy_dataset(3)
        columns = {"text_ids": ds.text_ids, "image_ids": ds.image_ids, "splits": ds.splits}
        columns[short] = columns[short][:2]
        with pytest.raises(ValueError, match="pair columns differ in length"):
            PairedDataset(ds.image_store, ds.text_store, **columns)

    def test_empty_image_id_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"image_id":"","caption":"x","lang":"az","split":"train"}\n')
        with pytest.raises(ManifestError, match="line 1: image_id must be non-empty"):
            load_manifest(p)


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

    def test_hostile_payload_size_raises_without_allocating(self, tmp_path):
        # a 64-byte file whose header declares 2**24 rows of 1024 floats (64 GiB)
        p = tmp_path / "s.emb"
        p.write_bytes(struct.pack("<4sIQIB7x", b"AZEB", 1, 2**24, 1024, 0).ljust(64, b"\0"))
        err = raises_small(TruncatedFileError, load_embeddings, p, match="vector payload")
        assert f"wanted {2**24 * 1024 * 4} bytes, got 36" in str(err)


def toy_dataset(n_pairs=10):
    n = n_pairs
    rng = np.random.default_rng(0)
    images = EmbeddingStore(
        ids=[f"i{k}" for k in range(n)], vectors=rng.standard_normal((n, 3)), kind="image_feature"
    )
    texts = EmbeddingStore(
        ids=[f"t{k}" for k in range(n)], vectors=rng.standard_normal((n, 2)), kind="text_feature"
    )
    pairs = [(f"t{k}", f"i{k}", "train") for k in range(n)]
    return paired(images, texts, pairs)


class TestMakeBatches:
    def test_drop_last(self):
        batches = make_batches(toy_dataset(10), "train", 3, seed=1)
        assert batches.shape == (3, 3)
        assert batches.dtype == np.intp

    def test_keep_last(self):
        # a final batch is kept when it is full: no pair is dropped
        batches = make_batches(toy_dataset(12), "train", 3, seed=1)
        assert sorted(batches.ravel().tolist()) == list(range(12))

    def test_same_seed_same_batches(self):
        ds = toy_dataset(12)
        a = make_batches(ds, "train", 4, seed=5)
        b = make_batches(ds, "train", 4, seed=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, make_batches(ds, "train", 4, seed=6))

    def test_partition_exactly_once(self):
        ds = toy_dataset(11)
        batches = make_batches(ds, "train", 4, seed=2)
        seen = batches.ravel().tolist()
        assert len(set(seen)) == len(seen) == 8
        assert set(seen) <= set(range(11))

    def test_order_is_the_seeded_shuffle_of_positions(self):
        batches = make_batches(toy_dataset(11), "train", 4, seed=2)
        assert batches.ravel().tolist() == shuffled(range(11), 2)[:8]

    def test_batch_aligns_pairs(self):
        ds = toy_dataset(8)
        image_rows, text_rows = ds.split_rows("train")
        for b in make_batches(ds, "train", 4, seed=7):
            for t, i in zip(text_rows[b], image_rows[b]):
                assert ds.text_store.ids[t][1:] == ds.image_store.ids[i][1:]  # t3 pairs i3

    def test_positions_follow_the_split(self):
        ds = toy_dataset(6)
        pairs = [(f"t{k}", f"i{k}", "val" if k % 2 else "train") for k in range(6)]
        ds = paired(ds.image_store, ds.text_store, pairs)
        batches = make_batches(ds, "val", 3, seed=0)
        image_rows, _ = ds.split_rows("val")
        assert sorted(image_rows[batches[0]].tolist()) == [1, 3, 5]

    def test_unknown_split(self):
        with pytest.raises(ValueError, match="unknown split"):
            make_batches(toy_dataset(), "dev", 2, seed=0)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            make_batches(toy_dataset(), "train", 0, seed=0)


class TestSplitRows:
    def test_rows_in_pair_order_against_permuted_stores(self):
        ds = toy_dataset(5)
        images = EmbeddingStore(
            ids=ds.image_store.ids[::-1], vectors=ds.image_store.vectors[::-1], kind="image_feature"
        )
        pairs = [("t3", "i0", "train"), ("t1", "i4", "test"), ("t0", "i2", "train")]
        ds = paired(images, ds.text_store, pairs)
        image_rows, text_rows = ds.split_rows("train")
        assert image_rows.tolist() == [4, 2]
        assert text_rows.tolist() == [3, 0]

    def test_empty_split(self):
        image_rows, text_rows = toy_dataset(3).split_rows("val")
        assert image_rows.shape == text_rows.shape == (0,)

    def test_resolved_once_and_read_only(self):
        ds = toy_dataset(5)
        first = ds.split_rows("train")
        again = ds.split_rows("train")
        assert all(a is b for a, b in zip(first, again))
        for rows in first:
            with pytest.raises(ValueError):
                rows[0] = 0
        with pytest.raises(ValueError, match="unknown split"):
            ds.split_rows("dev")


class TestResolvedAtConstruction:
    """Building a dataset checks and resolves every pair; later reads look up no ids."""

    def test_reads_make_no_id_lookups(self, monkeypatch):
        ds = toy_dataset(6)

        def no_lookups(self, ids):
            raise AssertionError("id lookup after construction")

        monkeypatch.setattr(EmbeddingStore, "index", no_lookups)
        assert ds.split_rows("train")[0].tolist() == list(range(6))
        assert ds.split_sizes() == {"train": 6, "val": 0, "test": 0}
        assert make_batches(ds, "train", 3, seed=0).shape == (2, 3)

    def test_pair_missing_both_ids_reports_the_text_id(self):
        ds = toy_dataset(3)
        pairs = [("nope", "missing", "train")]
        with pytest.raises(ValueError, match="unknown text id 'nope'"):
            paired(ds.image_store, ds.text_store, pairs)


class TestJudgments:
    @pytest.mark.parametrize("split", ["train", "val", "test"])
    @pytest.mark.parametrize("copies", [0, 2], ids=["synth", "augmented"])
    def test_one_singleton_judgment_per_pair_in_pair_order(self, copies, split):
        ds = synth_dataset(20, 3, latent_dim=2, img_dim=4, txt_dim=4, noise_sigma=0.1, seed=2)
        ds = augment_dataset(ds, sigma=0.1, copies=copies, seed=5)
        expected = [QueryJudgment(t, frozenset({i}), i) for t, i, s in pairs_of(ds) if s == split]
        assert expected and ds.judgments(split) == expected
        assert split_judgments(ds.text_ids, ds.image_ids, ds.splits, split) == expected

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_a_loaded_dataset_judges_as_the_one_saved(self, tmp_path, split):
        # build_pairs passes the manifest's columns through in file order
        ds = synth_dataset(20, 3, latent_dim=2, img_dim=4, txt_dim=4, noise_sigma=0.1, seed=2)
        path = tmp_path / "manifest.jsonl"
        save_manifest({"image_id": ds.image_ids, "caption": ds.text_ids, "lang": ["x"] * len(ds.text_ids),
                       "split": ds.splits, "text_id": ds.text_ids}, path)
        loaded = build_pairs(load_manifest(path), ds.image_store, ds.text_store, captions_per_image=3)
        assert loaded.judgments(split) == ds.judgments(split)

    def test_unknown_split_raises_as_split_rows_does(self):
        ds = toy_dataset(3)
        with pytest.raises(ValueError) as rows_fault:
            ds.split_rows("dev")
        with pytest.raises(ValueError) as judgments_fault:
            ds.judgments("dev")
        assert str(judgments_fault.value) == str(rows_fault.value)


class TestSynthDataset:
    def test_counts(self):
        ds = synth_dataset(100, 5, latent_dim=4, img_dim=8, txt_dim=6, noise_sigma=0.1, seed=0)
        assert len(ds.image_store) == 100
        assert len(ds.text_store) == 500
        assert len(ds.text_ids) == len(ds.image_ids) == len(ds.splits) == 500

    def test_deterministic(self):
        kw = dict(captions_per_image=2, latent_dim=3, img_dim=5, txt_dim=4, noise_sigma=0.2)
        a = synth_dataset(20, seed=9, **kw)
        b = synth_dataset(20, seed=9, **kw)
        np.testing.assert_array_equal(a.image_store.vectors, b.image_store.vectors)
        np.testing.assert_array_equal(a.text_store.vectors, b.text_store.vectors)
        assert pairs_of(a) == pairs_of(b)

    def test_noiseless_pairing_recoverable_by_regression(self):
        # with zero noise, text features are an exact linear image of the
        # latents, so least squares maps text -> image features perfectly
        ds = synth_dataset(
            80, 1, latent_dim=8, img_dim=16, txt_dim=12, noise_sigma=0.0, seed=4
        )
        txt = ds.text_store.vectors
        img_of_pair = ds.image_store.vectors[ds.image_store.index(ds.image_ids)]
        w, *_ = np.linalg.lstsq(txt, img_of_pair, rcond=None)
        pred = txt @ w
        d2 = ((pred[:, None, :] - ds.image_store.vectors[None, :, :]) ** 2).sum(axis=2)
        nearest = d2.argmin(axis=1)
        truth = np.array([ds.image_store.ids.index(i) for i in ds.image_ids])
        assert (nearest == truth).all()

    def test_splits_by_image(self):
        ds = synth_dataset(50, 3, latent_dim=2, img_dim=4, txt_dim=4, noise_sigma=0.0, seed=1)
        split_of_image = {}
        for image_id, split in zip(ds.image_ids, ds.splits):
            split_of_image.setdefault(image_id, set()).add(split)
        assert all(len(s) == 1 for s in split_of_image.values())
        sizes = ds.split_sizes()
        assert sizes == {"train": 40 * 3, "val": 5 * 3, "test": 5 * 3}

    # at n=7 the rounded counts, 4 and 4, exceed the images: val takes what is left
    @pytest.mark.parametrize("n, train_frac, val_frac", [(50, 0.8, 0.1), (7, 0.5, 0.5), (3, 0.0, 0.0)])
    def test_split_is_the_rank_in_the_seeded_shuffle(self, n, train_frac, val_frac):
        ds = synth_dataset(n, 2, latent_dim=1, img_dim=2, txt_dim=2, noise_sigma=0.0, seed=3,
                           train_frac=train_frac, val_frac=val_frac)
        n_train, n_val = round(train_frac * n), round(val_frac * n)
        rank = {i: r for r, i in enumerate(shuffled(range(n), 3))}
        expected = ["train" if rank[i] < n_train else "val" if rank[i] < n_train + n_val else "test"
                    for i in range(n) for _ in range(2)]
        assert ds.splits == expected

    def test_latent_dim_bound(self):
        with pytest.raises(ValueError, match="latent_dim"):
            synth_dataset(10, 1, latent_dim=9, img_dim=8, txt_dim=12, noise_sigma=0.0, seed=0)

    def test_nonpositive_dims(self):
        with pytest.raises(ValueError):
            synth_dataset(10, 1, latent_dim=0, img_dim=8, txt_dim=8, noise_sigma=0.0, seed=0)


def augment_toy(n_pairs, sigma, copies, seed):
    return augment_dataset(toy_dataset(n_pairs), sigma=sigma, copies=copies, seed=seed)


class TestJitterAugment:
    def test_sigma_zero_copies_equal_originals(self):
        ds = toy_dataset(4)
        out = augment_toy(4, sigma=0.0, copies=1, seed=0)
        np.testing.assert_array_equal(out.image_store.vectors[4:], ds.image_store.vectors)
        np.testing.assert_array_equal(out.text_store.vectors[4:], ds.text_store.vectors)

    def test_copies_zero_identity(self):
        ds = toy_dataset(4)
        assert augment_dataset(ds, sigma=0.5, copies=0, seed=0) is ds

    def test_row_count(self):
        out = augment_toy(10, sigma=0.1, copies=2, seed=0)
        assert len(out.image_store) == len(out.text_store) == 30
        assert out.image_store.dim == 3 and out.text_store.dim == 2

    def test_ids_suffixed(self):
        out = augment_toy(2, sigma=0.1, copies=2, seed=0)
        assert out.image_store.ids == ["i0", "i1", "i0#aug0", "i0#aug1", "i1#aug0", "i1#aug1"]
        assert out.text_store.ids == ["t0", "t1", "t0#aug0", "t0#aug1", "t1#aug0", "t1#aug1"]
        assert pairs_of(out)[2:] == [
            ("t0#aug0", "i0#aug0", "train"),
            ("t0#aug1", "i0#aug1", "train"),
            ("t1#aug0", "i1#aug0", "train"),
            ("t1#aug1", "i1#aug1", "train"),
        ]

    def test_deterministic(self):
        a = augment_toy(3, 0.3, 2, seed=11)
        b = augment_toy(3, 0.3, 2, seed=11)
        np.testing.assert_array_equal(a.image_store.vectors, b.image_store.vectors)
        assert pairs_of(a) == pairs_of(b)
        c = augment_toy(3, 0.3, 2, seed=12)
        assert not np.array_equal(a.image_store.vectors, c.image_store.vectors)

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="sigma"):
            augment_toy(3, -0.1, 1, seed=0)
        with pytest.raises(ValueError, match="copies"):
            augment_toy(3, 0.1, -1, seed=0)

    def test_replica_is_row_plus_scaled_draw(self):
        # replica k of train image r is vectors[r] + sigma * draws[pos(r) * copies + k],
        # pos(r) being r's place among the train images in store order; the stores
        # are permuted against pair order and one image has two train captions
        rng = np.random.default_rng(3)
        images = EmbeddingStore(
            ids=["i3", "i0", "i2", "i1"], vectors=rng.standard_normal((4, 3)), kind="image_feature"
        )
        texts = EmbeddingStore(
            ids=["t2", "t0", "t3", "t1"], vectors=rng.standard_normal((4, 2)), kind="text_feature"
        )
        pairs = [
            ("t0", "i1", "train"),
            ("t1", "i2", "val"),
            ("t2", "i3", "train"),
            ("t3", "i1", "train"),
        ]
        ds = paired(images, texts, pairs)
        sigma, copies, seed = 0.25, 3, 8
        out = augment_dataset(ds, sigma=sigma, copies=copies, seed=seed)
        draws = np.random.default_rng(seed).standard_normal((2 * copies, 3))
        train_images = ["i3", "i1"]  # store order
        for pos, image_id in enumerate(train_images):
            for k in range(copies):
                np.testing.assert_array_equal(
                    out.image_store.row(f"{image_id}#aug{k}"),
                    images.row(image_id) + sigma * draws[pos * copies + k],
                )
        assert out.image_store.ids[4:] == [f"{i}#aug{k}" for i in train_images for k in range(3)]
        for text_id, image_id, _ in pairs_of(out)[4:]:
            src = text_id.rsplit("#aug", 1)[0]
            np.testing.assert_array_equal(out.text_store.row(text_id), texts.row(src))
            assert image_id.rsplit("#aug", 1)[0] == ds.image_ids[int(src[1:])]


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
        assert ds.text_ids == ["a#c0", "a#c1"]

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
        assert len(ds.text_ids) == 3

    def test_missing_embedding_detected(self, tmp_path):
        recs = self._records(
            tmp_path, [{"image_id": "a", "caption": "one", "lang": "az", "split": "train"}]
        )
        images, texts = self._stores(["a"], ["other"])
        with pytest.raises(DataFormatError, match="a#c0"):
            build_pairs(recs, images, texts, captions_per_image=1)

    def test_unknown_image_is_a_format_error(self, tmp_path):
        recs = self._records(
            tmp_path, [{"image_id": "x", "caption": "one", "lang": "az", "split": "train"}]
        )
        images, texts = self._stores(["a"], ["x#c0"])
        with pytest.raises(DataFormatError, match="pair references unknown image id 'x'"):
            build_pairs(recs, images, texts, captions_per_image=1)

    def test_repeated_text_id_is_a_format_error(self, tmp_path):
        line = {"image_id": "a", "lang": "az", "split": "train", "text_id": "t"}
        recs = self._records(
            tmp_path, [dict(line, caption="one"), dict(line, caption="two")]
        )
        images, texts = self._stores(["a"], ["t"])
        with pytest.raises(DataFormatError, match="'t' appears in more than one pair"):
            build_pairs(recs, images, texts, captions_per_image=2)


class TestAugmentDataset:
    def test_counts_and_invariants(self):
        ds = synth_dataset(10, 2, latent_dim=2, img_dim=4, txt_dim=4, noise_sigma=0.0, seed=0)
        out = augment_dataset(ds, sigma=0.1, copies=2, seed=5)
        n_train = ds.split_sizes()["train"]
        assert len(out.text_ids) == len(ds.text_ids) + 2 * n_train
        assert out.split_sizes()["val"] == ds.split_sizes()["val"]
        assert [t for t, s in zip(out.text_ids, out.splits) if s == "val"] == \
            [t for t, s in zip(ds.text_ids, ds.splits) if s == "val"]
        # each augmented caption is a verbatim copy of its source caption
        for text_id, split in zip(out.text_ids, out.splits):
            if "#aug" in text_id:
                assert split == "train"
                src = text_id.rsplit("#aug", 1)[0]
                np.testing.assert_array_equal(out.text_store.row(text_id), ds.text_store.row(src))

    def test_copies_zero_is_identity(self):
        ds = synth_dataset(6, 1, latent_dim=2, img_dim=4, txt_dim=4, noise_sigma=0.0, seed=0)
        assert augment_dataset(ds, sigma=0.1, copies=0, seed=5) is ds
