"""Properties of the three binary formats: store, checkpoint and index.

Each format round-trips, every proper prefix of a valid file raises a
DataFormatError, and every single-byte change either loads or raises one
of the package's own errors. Every DataFormatError names the file, and a
parse fault the byte offset where its structure starts. A store's id
block, of one width or mixed, reads as the per-id reference reader reads
it, faults included, and is written as the per-id reference writer
writes it; an id the block cannot hold fails the save. Writes are
atomic: a failed save leaves the previous file and no temporary file
behind, and so does a failed manifest save.
"""

import os
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import reference_read_ids, reference_write_ids
from twotower import data, model
from twotower.data import EmbeddingStore, load_embeddings, save_embeddings
from twotower.errors import BadMagicError, DataFormatError, TruncatedFileError, TwoTowerError
from twotower.model import (
    DualEncoderModel,
    ProjectionHead,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from twotower.retrieval import RetrievalIndex, load_index, save_index

# Derandomized and without an example database, so the suite is the same
# on every run; each example loads a few hundred variants of one file.
FEW = settings(max_examples=10, deadline=None, derandomize=True, database=None)

FORMATS = {
    "store": (save_embeddings, load_embeddings),
    "checkpoint": (save_checkpoint, load_checkpoint),
    "index": (save_index, load_index),
}


def ids(n):
    return st.lists(st.text(min_size=1, max_size=6), min_size=n, max_size=n, unique=True)


def finite(width):
    return st.floats(allow_nan=False, allow_infinity=False, width=width)


@st.composite
def stores(draw):
    n, dim = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    vectors = draw(hnp.arrays(np.float32, (n, dim), elements=finite(32)))
    kind = draw(st.sampled_from(["image_feature", "text_feature", "projected"]))
    return EmbeddingStore(ids=draw(ids(n)), vectors=vectors.astype(np.float64), kind=kind)


@st.composite
def models(draw):
    d_img, d_txt, d = (draw(st.integers(1, 4)) for _ in range(3))

    def head(d_in):
        return ProjectionHead(
            w=draw(hnp.arrays(np.float64, (d_in, d), elements=finite(64))),
            b=draw(hnp.arrays(np.float64, (d,), elements=finite(64))),
        )

    meta = draw(st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4), max_size=3))
    return DualEncoderModel(image_head=head(d_img), text_head=head(d_txt), shared_dim=d, meta=meta)


@st.composite
def indexes(draw):
    n, dim = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    rows = draw(hnp.arrays(np.float64, (n, dim), elements=st.floats(-1e3, 1e3)))
    rows[:, 0] += np.where(rows[:, 0] < 0, -1.0, 1.0)  # no row near zero
    unit = rows / np.sqrt((rows * rows).sum(axis=1))[:, None]
    fingerprint = draw(st.text(min_size=1, max_size=70))
    return RetrievalIndex(ids=draw(ids(n)), vectors=unit, model_fingerprint=fingerprint)


ARTIFACTS = {"store": stores(), "checkpoint": models(), "index": indexes()}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("formats") / "artifact"


def file_bytes(kind, path, obj):
    FORMATS[kind][0](obj, path)
    return path.read_bytes()


def load_bytes(kind, path, raw):
    path.write_bytes(raw)
    return FORMATS[kind][1](path)


def read_back(kind, a, b):
    """Whether ``b`` is ``a`` read back; stores and indexes hold float32 vectors."""
    if kind == "checkpoint":
        return checkpoint_bytes(b) == checkpoint_bytes(a)
    tag = "model_fingerprint" if kind == "index" else "kind"
    return (
        getattr(a, tag) == getattr(b, tag)
        and a.ids == b.ids
        and np.array_equal(a.vectors.astype(np.float32), b.vectors)
    )


@pytest.mark.parametrize("kind", FORMATS)
@FEW
@given(data=st.data())
def test_round_trip(path, kind, data):
    obj = data.draw(ARTIFACTS[kind])
    assert read_back(kind, obj, load_bytes(kind, path, file_bytes(kind, path, obj)))


@pytest.mark.parametrize("kind", FORMATS)
@FEW
@given(data=st.data())
def test_every_proper_prefix_raises_data_format_error(path, kind, data):
    raw = file_bytes(kind, path, data.draw(ARTIFACTS[kind]))
    for end in range(len(raw)):
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: byte \\d+: "):
            load_bytes(kind, path, raw[:end])


@pytest.mark.parametrize("kind", FORMATS)
@FEW
@given(data=st.data(), mask=st.integers(1, 255))
def test_every_byte_flip_loads_or_raises_a_package_error(path, kind, data, mask):
    raw = file_bytes(kind, path, data.draw(ARTIFACTS[kind]))
    for at in range(len(raw)):
        flipped = bytearray(raw)
        flipped[at] ^= mask
        try:
            load_bytes(kind, path, bytes(flipped))
        except DataFormatError as e:
            assert str(e).startswith(f"{path}: ")
        except TwoTowerError:
            pass


STORE = EmbeddingStore(ids=["b", "a"], vectors=[[1.0, 0.0], [0.0, 1.0]], kind="image_feature")
MODEL = DualEncoderModel(
    ProjectionHead(np.eye(2), np.zeros(2)), ProjectionHead(np.eye(2), np.zeros(2)), 2
)
INDEX = RetrievalIndex(ids=["a", "bc"], vectors=[[1.0, 0.0], [0.0, 1.0]], model_fingerprint="f" * 64)
INDEX_FOOTER = 28 + 2 * 2 * 4 + (2 + 1) + (2 + 2)  # header, payload, ids "a" and "bc"


@pytest.mark.parametrize(
    "kind, obj, corrupt, error, message",
    [
        ("store", STORE, lambda raw: b"X" + raw[1:], BadMagicError,
         "byte 0: expected magic b'AZEB', found b'XZEB'"),
        ("store", STORE, lambda raw: raw[:28 + 5], TruncatedFileError,
         "byte 28: file ends inside vector payload (wanted 16 bytes, got 5)"),
        ("store", STORE, lambda raw: raw[:-1], TruncatedFileError,
         "byte 47: file ends inside id 1 (wanted 1 bytes, got 0)"),
        ("checkpoint", MODEL, lambda raw: raw[:20 + 3], TruncatedFileError,
         "byte 20: file ends inside checkpoint image weights (wanted 32 bytes, got 3)"),
        ("index", INDEX, lambda raw: raw[:-3], TruncatedFileError,
         f"byte {INDEX_FOOTER}: file ends inside index fingerprint footer (wanted 64 bytes, got 61)"),
        ("index", INDEX, lambda raw: raw[:INDEX_FOOTER + 2], TruncatedFileError,
         f"byte {INDEX_FOOTER}: file ends inside index fingerprint footer length (wanted 4 bytes, got 2)"),
    ],
    ids=["store-magic", "store-payload", "store-id", "checkpoint-weights", "index-footer",
         "index-footer-length"],
)
def test_fault_names_file_and_offset(tmp_path, kind, obj, corrupt, error, message):
    path = tmp_path / "artifact"
    with pytest.raises(error) as info:
        load_bytes(kind, path, corrupt(file_bytes(kind, path, obj)))
    assert str(info.value) == f"{path}: {message}"


LONG_ID = "x" * 0x10000  # one byte past the u16 id length prefix


@pytest.mark.parametrize(
    "kind, good, bad, error",
    [
        ("store",
         EmbeddingStore(ids=["a"], vectors=[[1.0, 0.0]], kind="text_feature"),
         EmbeddingStore(ids=["a", LONG_ID], vectors=[[1.0, 0.0], [0.0, 1.0]], kind="text_feature"),
         ValueError),
        ("checkpoint", MODEL, MODEL, OSError),  # its bytes fail to form: see below
        ("index",
         RetrievalIndex(ids=["a"], vectors=[[1.0, 0.0]], model_fingerprint="f"),
         RetrievalIndex(ids=["a", LONG_ID], vectors=[[1.0, 0.0], [0.0, 1.0]], model_fingerprint="f"),
         ValueError),
        ("manifest",  # a partial write shows: row 1 differs, row 2 is not JSON
         dict(image_id=["a"], caption=["y"], lang=["en"], split=["train"], text_id=["a#c0"]),
         dict(image_id=["a", "b"], caption=["x", object()], lang=["en", "en"],
              split=["train", "train"], text_id=["a#c0", "b#c0"]),
         TypeError),
    ],
    ids=["store", "checkpoint", "index", "manifest"],
)
def test_failed_save_keeps_previous_file(tmp_path, monkeypatch, kind, good, bad, error):
    save = data.save_manifest if kind == "manifest" else FORMATS[kind][0]
    path = tmp_path / "artifact"
    save(good, path)
    before = path.read_bytes()
    if kind == "checkpoint":  # a built model always serialises (its meta is checked when set)

        def fail(m):
            raise OSError("no space left on device")

        monkeypatch.setattr(model, "checkpoint_bytes", fail)
    with pytest.raises(error):
        save(bad, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]


# Id text: ASCII (NUL and DEL included) and characters of two and three UTF-8 bytes.
ID_CHARS = st.sampled_from(["a", "Z", "0", "#", "\x00", "\x7f", "\u00e9", "\u20ac"])


@st.composite
def id_blocks(draw):
    """Ids as UTF-8 bytes: of mixed widths, or padded to one width (an id may end in NUL)."""
    ids = [t.encode() for t in draw(st.lists(st.text(ID_CHARS, max_size=3), max_size=5))]
    if draw(st.booleans()):
        pad = draw(st.sampled_from([b"\x00", b"b"]))
        width = max(map(len, ids), default=0)
        ids = [i + pad * (width - len(i)) for i in ids]
    return ids


ID_FAULTS = ["truncated-prefix", "truncated-id", "byte-ff", "prefix-up", "prefix-down"]


def store_file(ids, fault, k):
    """(store bytes, index bytes) holding ``ids``, with ``fault`` at id ``k % len(ids)``."""
    head = data._EMBED_HEADER.pack(data.EMBED_MAGIC, data.EMBED_VERSION, len(ids), 1, 2)
    raw = bytearray(head + np.ones(len(ids), "<f4").tobytes())
    starts = []
    for i in ids:
        starts.append(len(raw))
        raw += struct.pack("<H", len(i)) + i
    footer = struct.pack("<I", 4) + b"ffff"
    if fault is None or not ids:
        return bytes(raw), bytes(raw + footer)
    k %= len(ids)
    at, width = starts[k], len(ids[k])
    if fault == "truncated-prefix":
        return bytes(raw[: at + 1]), bytes(raw[: at + 1])
    if fault == "truncated-id":
        return bytes(raw[: at + 2 + width // 2]), bytes(raw[: at + 2 + width // 2])
    if fault == "byte-ff":
        raw[at + 2 + width // 2 if width else at] = 0xFF
    else:
        struct.pack_into("<H", raw, at, (width + (1 if fault == "prefix-up" else -1)) % 0x10000)
    return bytes(raw), bytes(raw + footer)


def outcome(read):
    """What ``read()`` returns, or the type and message of the package error it raises."""
    try:
        return read()
    except DataFormatError as e:
        return type(e), str(e)


def id_outcomes(path, store, index):
    """``read_store``'s ids and end position, and the ids ``load_embeddings`` and ``load_index`` give."""

    def read_store():
        r = data._Reader(store, str(path))
        return data.read_store(r)[0], r.pos

    path.write_bytes(store)
    outcomes = [outcome(read_store), outcome(lambda: load_embeddings(path).ids)]
    path.write_bytes(index)
    return outcomes + [outcome(lambda: load_index(path).ids)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ids=id_blocks(), fault=st.none() | st.sampled_from(ID_FAULTS), k=st.integers(0, 4))
@example(ids=[b"a\x00", b"bc"], fault=None, k=0)  # an id that ends in NUL
@example(ids=["\u00e9".encode(), b"ab"], fault=None, k=0)  # one width, not ASCII
@example(ids=[b"", b""], fault=None, k=0)  # width 0
@example(ids=[b"ab", b"cd", b"ef"], fault="byte-ff", k=1)
@example(ids=[b"ab", b"cd", b"ef"], fault="prefix-up", k=1)
@example(ids=[b"ab", b"cd", b"ef"], fault="truncated-id", k=2)
def test_id_block_reads_as_one_id_at_a_time(path, ids, fault, k):
    """Every id block gives the ids, end position or fault of the per-id reference reader."""
    store, index = store_file(ids, fault, k)
    got = id_outcomes(path, store, index)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(data, "_fixed_width_ids", lambda r, count: None)
        m.setattr(data, "_ids_one_by_one", reference_read_ids)
        assert got == id_outcomes(path, store, index)


MAX_ID = "\u20ac" * 21845  # 65,535 UTF-8 bytes: the longest id a u16 length prefix holds


@st.composite
def store_ids(draw):
    """Ids a store takes: of mixed widths, or padded to one byte width (an id may end in NUL)."""
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=3), max_size=6, unique=True))
    if draw(st.booleans()):
        pad = draw(st.sampled_from(["\x00", "b"]))
        width = max((len(i.encode()) for i in ids), default=0)
        ids = list(dict.fromkeys(i + pad * (width - len(i.encode())) for i in ids))
    return ids


def header(kind_code, count, dim):
    """A store header as the format defines it."""
    return b"AZEB" + struct.pack("<IQIB7x", 1, count, dim, kind_code)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ids=store_ids())
@example(ids=[])
@example(ids=["img0", "img1", "img2"])  # one width, ASCII
@example(ids=["\u00e9", "ab"])  # one width, not ASCII
@example(ids=["a\x00", "bc"])  # an id that ends in NUL
@example(ids=["a", MAX_ID, "\u20ac"])
def test_id_block_writes_as_one_id_at_a_time(path, ids):
    """Stores and indexes hold the header, the float32 payload and the reference id block."""
    vectors = np.tile([0.0, 1.0], (len(ids), 1))
    payload, block = vectors.astype("<f4").tobytes(), reference_write_ids(ids)
    save_embeddings(EmbeddingStore(ids=ids, vectors=vectors, kind="text_feature"), path)
    assert path.read_bytes() == header(1, len(ids), 2) + payload + block
    assert load_embeddings(path).ids == ids
    save_index(RetrievalIndex(ids=ids, vectors=vectors, model_fingerprint="f"), path)
    assert path.read_bytes() == header(2, len(ids), 2) + payload + block + struct.pack("<I", 1) + b"f"
    assert load_index(path).ids == ids


UNWRITABLE_IDS = {
    "too-long": ("x" * 0x10000, ValueError,
                 "id too long for u16 length prefix: 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'..."),
    "too-long-utf8": ("\u00e9" * 0x8000, ValueError,  # 32,768 characters, 65,536 bytes
                      f"id too long for u16 length prefix: {chr(0xE9) * 32!r}..."),
    "lone-surrogate": ("a\ud800", UnicodeEncodeError,
                       "'utf-8' codec can't encode character '\\ud800' in position 1: "
                       "surrogates not allowed"),
}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(ids=store_ids(), bad=st.sampled_from(sorted(UNWRITABLE_IDS)), at=st.integers(0, 6))
def test_unwritable_id_fails_the_save_and_keeps_the_target(tmp_path_factory, ids, bad, at):
    """An id the block cannot hold raises the writer's error and leaves the target as it was."""
    bad_id, error, message = UNWRITABLE_IDS[bad]
    ids = [*ids[:at], bad_id, *ids[at:]]
    vectors = np.tile([0.0, 1.0], (len(ids), 1))
    folder = tmp_path_factory.mktemp("unwritable")
    target = folder / "artifact"
    target.write_bytes(b"old")
    for save, obj in [
        (save_embeddings, EmbeddingStore(ids=ids, vectors=vectors, kind="text_feature")),
        (save_index, RetrievalIndex(ids=ids, vectors=vectors, model_fingerprint="f")),
    ]:
        with pytest.raises(error) as info:
            save(obj, target)
        assert str(info.value) == message
        assert target.read_bytes() == b"old"
        assert os.listdir(folder) == ["artifact"]
