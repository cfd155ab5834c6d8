"""Exact cosine top-k retrieval over projected, normalized image embeddings.

Building an index is a one-time projection of the image store through the
image head; queries project a text feature through the text head and scan
all index rows. The scan is exact (no approximation) and tie scores keep
index order: a block of queries is scored with one GEMM, and the rows
whose GEMM score lies within a proven rounding band of a decision point
are re-scored by the per-row reduction that defines every reported score,
so results are bit-identical to scoring every row that way. An index
remembers the fingerprint of the checkpoint that built it and refuses
queries from any other model.

An index is itself an embedding store, of kind projected, that adds the
fingerprint; its file is that store as written by ``twotower.data``,
followed by a footer of u32 byte length plus the fingerprint as UTF-8 hex.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .data import EmbeddingStore, _read, _write_atomic, read_store, write_store
from .errors import DataFormatError, FingerprintMismatchError, ShapeError, value_errors_as
from .linalg import row_norms, unit_rows
from .metrics import MetricsReport, judgments_by_id, metrics_from_ranks
from .model import DualEncoderModel, model_fingerprint, project

UNIT_NORM_TOL = 1e-6


@dataclass
class RetrievalIndex(EmbeddingStore):
    """A projected store of unit-norm image embeddings and the fingerprint of its model."""

    kind: str = field(default="projected", init=False)
    model_fingerprint: str

    def __post_init__(self):
        super().__post_init__()
        if not self.model_fingerprint:
            raise ValueError("model_fingerprint must be non-empty")
        norms = row_norms(self.vectors)
        off = np.abs(norms - 1.0)
        if off.size and off.max() > UNIT_NORM_TOL:
            i = int(off.argmax())
            raise ValueError(
                f"index row {i} ({self.ids[i]!r}) has norm {norms[i]:.8f}, expected 1"
            )


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
    unit = unit_rows(project(model.image_head, images.vectors), "image", images.ids)
    return RetrievalIndex(ids=images.ids, vectors=unit, model_fingerprint=model_fingerprint(model))


def _check_fingerprint(index: RetrievalIndex, model: DualEncoderModel):
    fp = model_fingerprint(model)
    if fp != index.model_fingerprint:
        raise FingerprintMismatchError(
            f"index was built with checkpoint {index.model_fingerprint[:12]}... "
            f"but the query model has {fp[:12]}..."
        )


# Query rows per GEMM block: one block's (rows x index size) float64
# scores take at most this many bytes, so the block stays cache-sized.
_BLOCK_BYTES = 512 * 1024


def _score_band(d) -> float:
    """Bound on |GEMM score - per-row score| for one query and one index row.

    Both are d-term dot products in some evaluation order, so each lies
    within gamma_d * |x| |y| of the exact product, gamma_d = d u / (1 - d u)
    with u the unit roundoff (Higham, *Accuracy and Stability of Numerical
    Algorithms*, section 3.1). Index rows have norm at most
    1 + UNIT_NORM_TOL and normalised queries are unit to a few ulps, so
    |x| |y| <= 1 + 2 UNIT_NORM_TOL. The 4u covers the rounding of the
    comparisons made against the band, and any underflow.
    """
    u = np.finfo(np.float64).eps / 2
    gamma = d * u / (1.0 - d * u)
    return 2.0 * gamma * (1.0 + 2.0 * UNIT_NORM_TOL) + 4.0 * u


def _exact(index, q, rows):
    """The per-row scores of ``rows`` against unit query ``q``: the reported values.

    ``q`` is one query, or one per row. A per-row reduction rather than a
    BLAS product, whose rounding can vary with a row's position and would
    break exact-tie order for bit-identical rows. Each row's sum is the same
    whichever rows are gathered with it.
    """
    return (index.vectors[rows] * q).sum(axis=1)


def _blocks(index, model, features, ids):
    """Yield (query ids, unit query rows, GEMM scores against the index) per block.

    The one place query text is projected. ``features`` holds one checked
    row per id, finite float64 as a store holds them. Each row is projected
    on its own, a one-row product as for a single query, since a block
    product can differ from it in the last ulp; the block is then normalised
    at once and scored with one GEMM. GEMM scores are within ``_score_band``
    of ``_exact``'s, so callers decide with them and re-score only the rows
    near their decision point.
    """
    _check_fingerprint(index, model)
    head = model.text_head  # each read builds views of params: read once
    if features.shape[1] != head.w.shape[0]:
        raise ShapeError(f"features have width {features.shape[1]} but head expects {head.w.shape[0]}")
    size = max(1, _BLOCK_BYTES // (8 * max(len(index), 1)))
    scores = np.empty((min(size, len(ids)), len(index)))  # reused: valid until the next block
    for start in range(0, len(ids), size):
        block = ids[start:start + size]
        raw = np.matmul(features[start:start + size, None, :], head.w)[:, 0] + head.b
        q = unit_rows(raw, "query", block)
        yield block, q, np.matmul(q, index.vectors.T, out=scores[:len(block)])


def _ranks(index, q, g, who, rows, band) -> np.ndarray:
    """1-based places of index ``rows[i]`` in the exact order of block query ``who[i]``.

    ``q`` and ``g`` are a block's unit queries and GEMM scores; ``who`` may
    repeat a query. With e the exact score of a pair's row, the gathered
    GEMM row of its query decides: index rows scoring above e + band score
    above e, those below e - band score below it, and only the rest are
    re-scored; a tie counts when it falls before the row.
    """
    e = _exact(index, q[who], rows)
    g = g[who]
    above = g > (e + band)[:, None]
    # divmod of flat positions: np.nonzero over two axes is ten times slower
    p, near = np.divmod(np.flatnonzero((g >= (e - band)[:, None]) & ~above), g.shape[1])
    s = _exact(index, q[who[p]], near)
    before = (s > e[p]) | ((s == e[p]) & (near < rows[p]))
    return 1 + np.count_nonzero(above, axis=1) + np.bincount(p[before], minlength=len(who))


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
    """``query`` for every row of a text store, in store order.

    With t the k-th largest GEMM score, the top k by exact score lie among
    the rows whose GEMM score is at least t - 2 band; only those are
    re-scored and sorted by (-score, row).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(index)
    reach = 2.0 * _score_band(index.vectors.shape[1])
    results = []
    for ids, q, g in _blocks(index, model, texts.vectors, texts.ids):
        if k < n:
            kth = np.partition(g, n - k, axis=1)[:, n - k]
        else:  # every row is a candidate
            kth = np.full(len(ids), -np.inf)
        for qid, qv, gv, t in zip(ids, q, g, kth):
            rows = np.flatnonzero(gv >= t - reach)
            s = _exact(index, qv, rows)
            order = np.argsort(-s, kind="stable")[:k]
            hit_ids = [index.ids[i] for i in rows[order].tolist()]
            hits = list(zip(hit_ids, np.clip(s[order], -1.0, 1.0).tolist()))
            results.append(RankedResult(query_id=qid, hits=hits, k=k))
    return results


def evaluate(index, model, texts: EmbeddingStore, judgments) -> MetricsReport:
    """``metrics_from_ranks`` of the judged store rows, each ranked against the whole index.

    No ranking is built: relevant image row r, with exact score e, gets rank
    1 + #(scores > e) + #(scores[:r] == e), its place in ``batch_query``'s
    order (see ``_ranks``). A block's (query, relevant row) pairs are ranked
    at most the block's query count at a time, so their gathered GEMM rows
    fit in ``_BLOCK_BYTES``. Relevant ids not in the index count as never
    retrieved. Unjudged rows are skipped; per-query rows follow store order.
    """
    by_id = judgments_by_id(judgments)
    try:
        rows = np.sort(texts.index(by_id))
    except KeyError:
        missing = sorted(set(by_id).difference(texts.ids))
        raise DataFormatError(f"text store is missing query id {missing[0]!r}") from None
    band = _score_band(index.vectors.shape[1])
    judged = []
    for ids, q, g in _blocks(index, model, texts.vectors[rows], [texts.ids[r] for r in rows.tolist()]):
        js = [by_id[i] for i in ids]
        pairs = [(i, d) for i, j in enumerate(js) for d in j.relevant_ids if d in index]
        ranks = [{} for _ in js]
        for start in range(0, len(pairs), len(js)):
            who, docs = zip(*pairs[start:start + len(js)])
            places = _ranks(index, q, g, np.array(who), index.index(docs), band)
            for i, d, place in zip(who, docs, places.tolist()):
                ranks[i][d] = place
        judged += zip(js, ranks)
    return metrics_from_ranks(judged)


def save_index(index: RetrievalIndex, path):
    raw = index.model_fingerprint.encode("utf-8")
    with _write_atomic(path) as fh:
        write_store(fh, index)
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)


def load_index(path) -> RetrievalIndex:
    r = _read(path)
    ids, vectors, kind = read_store(r)
    if kind != "projected":
        raise r.fail(DataFormatError, 0, f"index store must have kind 'projected', got {kind!r}")
    at = r.pos
    (length,) = r.unpack(struct.Struct("<I"), "index fingerprint footer length")
    try:
        fingerprint = str(r.take(length, "index fingerprint footer", at), "utf-8")
    except UnicodeDecodeError as e:
        reason = f"index fingerprint footer is not valid UTF-8 ({e.reason})"
        raise r.fail(DataFormatError, at, reason) from e
    r.end("trailing data after index footer")
    with value_errors_as(DataFormatError, f"{r.name}: "):
        return RetrievalIndex(ids=ids, vectors=vectors, model_fingerprint=fingerprint)
