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

from .data import EmbeddingStore, _read_exact, _write_atomic, read_store, write_store
from .errors import DataFormatError, FingerprintMismatchError, ShapeError, value_errors_as
from .linalg import l2_normalize_rows
from .metrics import MetricsReport, judgments_by_id, metrics_from_ranks
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
    normed = l2_normalize_rows(project(model.image_head, images.vectors), "image", images.ids)
    return RetrievalIndex(
        ids=list(images.ids), vectors=normed.matrix, model_fingerprint=model_fingerprint(model)
    )


def _check_fingerprint(index: RetrievalIndex, model: DualEncoderModel):
    fp = model_fingerprint(model)
    if fp != index.model_fingerprint:
        raise FingerprintMismatchError(
            f"index was built with checkpoint {index.model_fingerprint[:12]}... "
            f"but the query model has {fp[:12]}..."
        )


def _scored(index, model, texts: EmbeddingStore, ids):
    """Yield (query id, cosine against every index row) for the given text rows.

    The one place query text is projected. Each row is projected on its own
    and scored by a per-row reduction, not by a block (Q, d) @ W product or
    gemv: BLAS kernels can differ in the last ulp across row positions, which
    would change scores and break exact-tie order for bit-identical rows.
    """
    _check_fingerprint(index, model)
    for qid in ids:
        normed = l2_normalize_rows(project(model.text_head, texts.row(qid)[None, :]), "query", [qid])
        yield qid, (index.vectors * normed.matrix[0]).sum(axis=1)


def query(index, model, text_feature, k, query_id="query") -> RankedResult:
    """Rank all indexed images against one text feature vector.

    Returns the min(k, index size) best hits, scores non-increasing, ties
    in index order. The model must match the index fingerprint.
    """
    v = np.asarray(text_feature, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"query must be a 1-D vector, got shape {v.shape}")
    one = EmbeddingStore(ids=[query_id], vectors=v[None, :], kind="text_feature")
    return batch_query(index, model, one, k)[0]


def batch_query(index, model, texts: EmbeddingStore, k) -> list:
    """``query`` for every row of a text store, in store order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    results = []
    for qid, scores in _scored(index, model, texts, texts.ids):
        order = np.argsort(-scores, kind="stable")[:k]
        hits = [(index.ids[i], float(np.clip(scores[i], -1.0, 1.0))) for i in order]
        results.append(RankedResult(query_id=qid, hits=hits, k=k))
    return results


def evaluate(index, model, texts: EmbeddingStore, judgments) -> MetricsReport:
    """``evaluate_run`` of the judged store rows ranked against the whole index.

    No ranking is built: relevant image row r gets rank 1 + #(scores > s_r)
    + #(scores[:r] == s_r), its place in ``batch_query``'s order. Unjudged
    rows are skipped; per-query rows follow store order.
    """
    by_id = judgments_by_id(judgments)
    missing = sorted(set(by_id) - set(texts.ids))
    if missing:
        raise DataFormatError(f"text store is missing query id {missing[0]!r}")
    row_of = {id_: r for r, id_ in enumerate(index.ids)}
    judged = []
    for qid, s in _scored(index, model, texts, [i for i in texts.ids if i in by_id]):
        j = by_id[qid]
        rows = {d: row_of[d] for d in j.relevant_ids if d in row_of}
        ranks = {d: 1 + int((s > s[r]).sum() + (s[:r] == s[r]).sum()) for d, r in rows.items()}
        judged.append((j, ranks))
    return metrics_from_ranks(judged)


def save_index(index: RetrievalIndex, path):
    store = EmbeddingStore(ids=index.ids, vectors=index.vectors, kind="projected")
    raw = index.model_fingerprint.encode("utf-8")
    with _write_atomic(path) as fh:
        write_store(fh, store)
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)


def load_index(path) -> RetrievalIndex:
    with open(path, "rb") as fh:
        store = read_store(fh)
        (length,) = struct.unpack("<I", _read_exact(fh, 4, "index fingerprint footer length"))
        raw = _read_exact(fh, length, "index fingerprint footer")
        if fh.read(1):
            raise DataFormatError("trailing data after index footer")
    if store.kind != "projected":
        raise DataFormatError(f"index store must have kind 'projected', got {store.kind!r}")
    try:
        fingerprint = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataFormatError(f"index fingerprint footer is not valid UTF-8 ({e.reason})") from e
    with value_errors_as(DataFormatError):
        return RetrievalIndex(ids=store.ids, vectors=store.vectors, model_fingerprint=fingerprint)
