"""Exact cosine top-k retrieval over projected, normalized image embeddings.

Building an index is a one-time projection of the image store through the
image head; queries project a text feature through the text head and scan
all index rows. The scan is exact (no approximation) and tie scores keep
index order. An index remembers the fingerprint of the checkpoint that
built it and refuses queries from any other model.

Index file format: an embedding store (kind=projected) as written by
``twotower.data``, followed by a footer of u32 byte length plus the
model fingerprint as UTF-8 hex.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .data import EmbeddingStore, read_store, write_store
from .errors import DataFormatError, FingerprintMismatchError, ShapeError, TruncatedFileError
from .linalg import unit_rows
from .model import DualEncoderModel, model_fingerprint, project

UNIT_NORM_TOL = 1e-6


@dataclass
class RetrievalIndex:
    """Immutable unit-norm image embeddings with their ids and provenance."""

    ids: list[str]
    vectors: np.ndarray
    model_fingerprint: str

    def __post_init__(self):
        store = EmbeddingStore(ids=self.ids, vectors=self.vectors, kind="projected")
        self.ids = store.ids
        self.vectors = store.vectors  # copied, read-only, float64
        if not self.model_fingerprint:
            raise ValueError("model_fingerprint must be non-empty")
        norms = np.sqrt((self.vectors * self.vectors).sum(axis=1))
        off = np.abs(norms - 1.0)
        if off.size and off.max() > UNIT_NORM_TOL:
            i = int(off.argmax())
            raise ValueError(
                f"index row {i} ({self.ids[i]!r}) has norm {norms[i]:.8f}, expected 1"
            )

    def __len__(self):
        return len(self.ids)


@dataclass
class RankedResult:
    """Top-k hits for one query: (image_id, cosine score), best first."""

    query_id: str
    hits: list
    k: int


def build_index(model: DualEncoderModel, images: EmbeddingStore) -> RetrievalIndex:
    """Project an image-feature store through the image head and normalize.

    Row order follows the store. Any image whose projection is the zero
    vector cannot be ranked by cosine and raises, naming the image id.
    """
    if images.kind != "image_feature":
        raise ValueError(
            f"index must be built from an image_feature store, got kind {images.kind!r}"
        )
    normed = unit_rows(project(model.image_head, images.vectors), "image", images.ids)
    return RetrievalIndex(
        ids=list(images.ids), vectors=normed, model_fingerprint=model_fingerprint(model)
    )


def _check_fingerprint(index: RetrievalIndex, model: DualEncoderModel):
    fp = model_fingerprint(model)
    if fp != index.model_fingerprint:
        raise FingerprintMismatchError(
            f"index was built with checkpoint {index.model_fingerprint[:12]}... "
            f"but the query model has {fp[:12]}..."
        )


def _ranked_hits(index: RetrievalIndex, model: DualEncoderModel, text_feature, k, query_id):
    v = np.asarray(text_feature, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"query must be a 1-D vector, got shape {v.shape}")
    normed = unit_rows(project(model.text_head, v[None, :]), "query", [query_id])
    # per-row reduction rather than gemv: BLAS gemv kernels can differ in the
    # last ulp across row positions, which would break exact-tie ordering for
    # bit-identical index rows
    scores = (index.vectors * normed[0]).sum(axis=1)
    order = np.argsort(-scores, kind="stable")[: min(k, len(index))]
    hits = [(index.ids[i], float(np.clip(scores[i], -1.0, 1.0))) for i in order]
    return RankedResult(query_id=query_id, hits=hits, k=k)


def query(index, model, text_feature, k, query_id="query") -> RankedResult:
    """Rank all indexed images against one text feature vector.

    Returns the min(k, index size) best hits, scores non-increasing, ties
    in index order. The model must match the index fingerprint.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_fingerprint(index, model)
    return _ranked_hits(index, model, text_feature, k, query_id)


def batch_query(index, model, texts: EmbeddingStore, k) -> list:
    """Per-row queries for a whole text store, in store order.

    Runs the same scoring path as ``query`` row by row, so results are
    bit-identical to sequential calls.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_fingerprint(index, model)
    return [
        _ranked_hits(index, model, texts.vectors[i], k, texts.ids[i])
        for i in range(len(texts))
    ]


def save_index(index: RetrievalIndex, path):
    store = EmbeddingStore(ids=index.ids, vectors=index.vectors, kind="projected")
    raw = index.model_fingerprint.encode("utf-8")
    with open(path, "wb") as fh:
        write_store(fh, store)
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)


def load_index(path) -> RetrievalIndex:
    with open(path, "rb") as fh:
        store = read_store(fh)
        prefix = fh.read(4)
        if len(prefix) != 4:
            raise TruncatedFileError("index file ends before the fingerprint footer")
        (length,) = struct.unpack("<I", prefix)
        raw = fh.read(length)
        if len(raw) != length:
            raise TruncatedFileError("index file ends inside the fingerprint footer")
        if fh.read(1):
            raise DataFormatError("trailing data after index footer")
    if store.kind != "projected":
        raise DataFormatError(f"index store must have kind 'projected', got {store.kind!r}")
    return RetrievalIndex(
        ids=store.ids, vectors=store.vectors, model_fingerprint=raw.decode("utf-8")
    )
