"""Output checks that share no code with the package under test.

Files are read with this module's own parsers of the documented formats,
and rankings are recomputed by a full stable sort of the per-row cosine,
ties in index order. Every check returns None when the output is right and
a one-line reason when it is not.
"""

import json
import math
import struct

import numpy as np

from inputs import EMBED_HEADER

_CKPT_HEADER = struct.Struct("<4sIIII")

SCORE_TOL = 1e-9   # program scores against oracle scores
TIE_TOL = 1e-12    # oracle scores this close may swap rank positions


def _read_store(fh):
    magic, version, count, dim, kind = EMBED_HEADER.unpack(fh.read(EMBED_HEADER.size))
    if magic != b"AZEB" or version != 1:
        raise ValueError(f"not an embedding store: magic {magic!r}, version {version}")
    vectors = np.frombuffer(fh.read(count * dim * 4), dtype="<f4").astype(np.float64)
    ids = []
    for _ in range(count):
        (length,) = struct.unpack("<H", fh.read(2))
        ids.append(fh.read(length).decode("utf-8"))
    return ids, vectors.reshape(count, dim), kind


def read_store(path):
    with open(path, "rb") as fh:
        return _read_store(fh)


def read_index(path):
    """(ids, unit-norm rows) of an index file; the fingerprint footer is not needed."""
    with open(path, "rb") as fh:
        ids, vectors, kind = _read_store(fh)
    if kind != 2:
        raise ValueError(f"index store has kind code {kind}, expected 2 (projected)")
    return ids, vectors


def read_checkpoint(path):
    """The four parameter blocks of a checkpoint, keyed image_w, image_b, text_w, text_b."""
    with open(path, "rb") as fh:
        magic, version, d_img, d_txt, d_out = _CKPT_HEADER.unpack(fh.read(_CKPT_HEADER.size))
        if magic != b"AZCK" or version != 1:
            raise ValueError(f"not a checkpoint: magic {magic!r}, version {version}")
        blocks = {}
        for key, shape in (("image_w", (d_img, d_out)), ("image_b", (d_out,)),
                           ("text_w", (d_txt, d_out)), ("text_b", (d_out,))):
            n = int(np.prod(shape))
            blocks[key] = np.frombuffer(fh.read(8 * n), dtype="<f8").reshape(shape)
        (meta_len,) = struct.unpack("<I", fh.read(4))
        json.loads(fh.read(meta_len).decode("utf-8"))
    return blocks


class Oracle:
    """Full-sort reference rankings for one index and checkpoint."""

    def __init__(self, index_path, checkpoint_path):
        self.ids, self.vectors = read_index(index_path)
        self.params = read_checkpoint(checkpoint_path)
        self.row_of = {id_: i for i, id_ in enumerate(self.ids)}

    def scores(self, text_feature):
        p = np.asarray(text_feature, dtype=np.float64)[None, :] @ self.params["text_w"]
        p = p[0] + self.params["text_b"]
        u = p / math.sqrt(float((p * p).sum()))
        return (self.vectors * u).sum(axis=1)

    def check_index(self, image_vectors):
        """The index rows are the normalised image projections, in store order."""
        p = image_vectors @ self.params["image_w"] + self.params["image_b"]
        u = p / np.sqrt((p * p).sum(axis=1))[:, None]
        err = float(np.abs(u - self.vectors).max()) if len(u) == len(self.vectors) else math.inf
        if not err <= 1e-6:  # the index file holds float32 rows
            return f"index rows differ from the normalised projections by {err:.3g}"
        return None

    def check_hits(self, text_feature, k, hits):
        """``hits`` is the program's [(id, score), ...] for a top-k query."""
        s = self.scores(text_feature)
        want = np.argsort(-s, kind="stable")[: min(k, len(s))]
        if len(hits) != len(want):
            return f"{len(hits)} hits, expected {len(want)}"
        if len({h[0] for h in hits}) != len(hits):
            return "duplicate ids in hits"
        for pos, ((id_, score), w) in enumerate(zip(hits, want)):
            row = self.row_of.get(id_)
            if row is None:
                return f"hit {pos} id {id_!r} is not in the index"
            if abs(score - s[row]) > SCORE_TOL:
                return f"hit {pos} score {score!r} differs from the oracle's {s[row]!r}"
            if row != w and abs(s[row] - s[w]) > TIE_TOL:
                return f"hit {pos} is {id_!r}, expected {self.ids[w]!r}"
        return None

    def quality(self, features, judged):
        """MAP, Top-1 and Top-10 of full rankings for the judged queries.

        Scores come from one product per block of queries, so ranks can
        differ from a per-row reduction only between scores equal to the
        last few bits.
        """
        ids = list(judged)
        p = np.array([features[q] for q in ids]) @ self.params["text_w"] + self.params["text_b"]
        u = p / np.sqrt((p * p).sum(axis=1))[:, None]
        correct = np.array([self.row_of[judged[q]] for q in ids])
        ranks = []
        block = 250  # queries per product, to bound the score matrix
        for i in range(0, len(ids), block):
            s = u[i:i + block] @ self.vectors.T
            c = s[np.arange(len(s)), correct[i:i + block]]
            ranks.append((s > c[:, None]).sum(axis=1) + 1)
        ranks = np.concatenate(ranks)
        return {"map": float((1.0 / ranks).mean()), "top1": float((ranks <= 1).mean()),
                "top10": float((ranks <= 10).mean())}

    def rank_bounds(self, text_feature, correct_id):
        """Lowest and highest 1-based rank the correct image may take, up to ties."""
        s = self.scores(text_feature)
        c = s[self.row_of[correct_id]]
        return int((s > c + TIE_TOL).sum()) + 1, int((s >= c - TIE_TOL).sum())


def check_eval(oracle, reports, features, judged, sample):
    """Eval reports against the oracle.

    ``reports`` are the metrics blocks of eval reports that together cover
    the queries in ``judged`` (query id -> correct image); ``features`` maps
    query id to its text feature. Each report's means must match its
    per-query rows; the rows whose query id is in ``sample`` must match the
    oracle's rank of the correct image, and so must their mean AP.
    """
    rows = []
    for metrics in reports:
        part = metrics["per_query"]
        for key, col in (("map", "ap"), ("top1", "top1"), ("top5", "top5"), ("top10", "top10")):
            mean = sum(r[col] for r in part) / len(part)
            if abs(metrics[key] - mean) > 1e-9:
                return f"{key} {metrics[key]!r} is not the mean of per-query {col} ({mean!r})"
        rows.extend(part)
    if sorted(r["query_id"] for r in rows) != sorted(judged):
        return "per-query rows do not cover the judged queries once each"
    got_ap, want_ap = [], []
    for row in rows:
        qid = row["query_id"]
        if qid not in sample:
            continue
        lo, hi = oracle.rank_bounds(features[qid], judged[qid])
        ap = row["ap"]
        rank = round(1.0 / ap) if ap > 0 else None
        if rank is None or not lo <= rank <= hi or abs(ap - 1.0 / rank) > 1e-12:
            return f"query {qid!r}: AP {ap!r}, oracle rank {lo}..{hi}"
        for k in (1, 5, 10):
            if row[f"top{k}"] != int(rank <= k):
                return f"query {qid!r}: top{k} {row[f'top{k}']!r} at rank {rank}"
        got_ap.append(ap)
        want_ap.append(1.0 / lo)
    if abs(sum(got_ap) - sum(want_ap)) > 1e-6 * max(1, len(got_ap)):
        return f"sampled MAP {sum(got_ap) / len(got_ap)!r} differs from the oracle's"
    return None
