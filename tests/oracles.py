"""Independent brute-force evaluators used to check the library.

Everything here is written directly from the defining formulas with plain
loops, deliberately sharing no code with the package internals, except
``evaluate_run``: the metrics of ranked result lists, scored by the
package's own per-query formulas, which tests compare the pipeline's
ranking against.
"""

import json
import math
import struct

import numpy as np

from twotower.errors import DataFormatError, IdCountMismatchError, ManifestError, TruncatedFileError
from twotower.loss import loss_backward
from twotower.metrics import MetricsReport, _ranks, judgments_by_id, metrics_from_ranks


class SplitMix64:
    """The scalar SplitMix64 generator, one draw at a time, as its update rule defines it.

    The equations are in ``twotower.data.splitmix64_below``'s docstring;
    all arithmetic is modulo 2**64.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self._MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_below(self, n):
        """Integer in [0, n) by modulo reduction."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n


def oracle_contrastive(s_rows, lam, margin, symmetric=False):
    """Term-by-term loss on a square logit matrix given as list-of-lists.

    Returns (ce, margin_term, total).
    """
    n = len(s_rows)

    def ce_direction(mat):
        total = 0.0
        for i in range(n):
            row = list(mat[i])
            mx = max(row)
            denom = sum(math.exp(x - mx) for x in row)
            total += -(row[i] - mx - math.log(denom))
        return total

    ce = ce_direction(s_rows)
    if symmetric:
        transposed = [[s_rows[j][i] for j in range(n)] for i in range(n)]
        ce = 0.5 * (ce + ce_direction(transposed))

    margin_total = 0.0
    for i in range(n):
        off = [s_rows[i][j] for j in range(n) if j != i]
        if off:
            gap = margin - min(off)
            if gap > 0:
                margin_total += lam * gap * gap
    return ce, margin_total, ce + margin_total


def similarity_logits(img_proj, txt_proj, temperature):
    """All-pairs cosine of projected image rows with text rows, over the temperature."""
    a = np.asarray(img_proj, dtype=np.float64)
    b = np.asarray(txt_proj, dtype=np.float64)
    a = a / np.sqrt((a * a).sum(axis=1, keepdims=True))
    b = b / np.sqrt((b * b).sum(axis=1, keepdims=True))
    return (a @ b.T) / temperature


def fd_param_grads(img_feat, txt_feat, model, cfg, h=1e-5):
    """Central finite differences of the total loss over every entry of ``model.params``."""

    def value():
        out, _ = loss_backward(img_feat, txt_feat, model, cfg)
        return out.total

    flat = model.params
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = value()
        flat[i] = orig - h
        down = value()
        flat[i] = orig
        grads[i] = (up - down) / (2 * h)
    return grads


def reference_loss_backward(img_feat, txt_feat, model, cfg):
    """The training step's loss and gradient, one helper per stage.

    A plain reference for the fused step: each stage is written as its own
    function with fresh arrays, a finiteness scan at every stage boundary
    and a masked copy of the logits, in the same numpy operations and
    evaluation order as the fused code. Returns (terms, grads): ``terms``
    maps the LossOutput field names to values; ``grads`` is a vector in
    the layout of ``model.params``.
    """

    def checked(x):
        m = np.asarray(x, dtype=np.float64)
        assert m.ndim == 2 and np.isfinite(m).all()
        return m

    def project(w, b, x):
        return checked(x) @ w + b

    def normalize(m):
        m = checked(m)
        with np.errstate(over="ignore"):
            norms = np.sqrt((m * m).sum(axis=1))
        assert np.isfinite(norms).all() and (norms >= 1e-12).all()
        return m / norms[:, None], norms

    def log_softmax_rows(m):
        m = checked(m)
        shifted = m - m.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def contrastive(s):
        s = checked(s)
        n = s.shape[0]
        eye = np.eye(n)
        row_ls = log_softmax_rows(s)
        ce = -float(np.trace(row_ls))
        grad = np.exp(row_ls) - eye
        if cfg.symmetric:
            col_ls = log_softmax_rows(s.T).T
            ce = 0.5 * (ce - float(np.trace(col_ls)))
            grad = 0.5 * (grad + (np.exp(col_ls) - eye))
        masked_min = s.copy()
        np.fill_diagonal(masked_min, np.inf)
        min_off = masked_min.min(axis=1)
        margin = 0.0
        if n > 1 and cfg.lam > 0:
            if cfg.margin_mode == "literal":
                hinge = cfg.margin - min_off
                active = hinge > 0
                if active.any():
                    margin = float(cfg.lam * (hinge[active] ** 2).sum())
                    argmin = masked_min.argmin(axis=1)
                    rows = np.flatnonzero(active)
                    grad[rows, argmin[rows]] -= 2.0 * cfg.lam * hinge[rows]
            else:
                masked_max = s.copy()
                np.fill_diagonal(masked_max, -np.inf)
                max_off = masked_max.max(axis=1)
                hinge = max_off - (np.diag(s) * cfg.temperature - cfg.margin)
                active = hinge > 0
                if active.any():
                    margin = float(cfg.lam * (hinge[active] ** 2).sum())
                    argmax = masked_max.argmax(axis=1)
                    rows = np.flatnonzero(active)
                    step = 2.0 * cfg.lam * hinge[rows]
                    grad[rows, argmax[rows]] += step
                    grad[rows, rows] -= step * cfg.temperature
        return {
            "total": ce + margin,
            "ce_term": ce,
            "margin_term": margin,
            "grad_sim": grad,
            "per_row_min_offdiag": min_off,
        }

    def rownorm_backward(unit, norms, du):
        proj = (du * unit).sum(axis=1, keepdims=True)
        return (du - proj * unit) / norms[:, None]

    img_feat, txt_feat = checked(img_feat), checked(txt_feat)
    iw, ib = model.image_head.w, model.image_head.b
    tw, tb = model.text_head.w, model.text_head.b
    u_img, n_img = normalize(project(iw, ib, img_feat))
    u_txt, n_txt = normalize(project(tw, tb, txt_feat))
    terms = contrastive((u_img @ u_txt.T) / cfg.temperature)
    g = terms["grad_sim"] / cfg.temperature
    d_p_img = rownorm_backward(u_img, n_img, g @ u_txt)
    d_p_txt = rownorm_backward(u_txt, n_txt, g.T @ u_img)
    grads = np.empty(iw.size + ib.size + tw.size + tb.size)
    ends = np.cumsum([iw.size, ib.size, tw.size, tb.size])
    gw_img, gb_img, gw_txt, gb_txt = np.split(grads, ends[:-1])
    np.matmul(img_feat.T, d_p_img, out=gw_img.reshape(iw.shape))
    d_p_img.sum(axis=0, out=gb_img)
    np.matmul(txt_feat.T, d_p_txt, out=gw_txt.reshape(tw.shape))
    d_p_txt.sum(axis=0, out=gb_txt)
    return terms, grads


def first_bad_block(model, bad):
    """Name of the block of ``model.params`` that holds the first True of ``bad``."""
    return next(name for name, block in model.blocks(bad).items() if block.any())


def oracle_adamw(params, grads, m, v, t, lr, cfg):
    """One AdamW step over dicts of named blocks, block by block, in place.

    ``t`` is the step number after the update (1 for the first step).
    """
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for k, p in params.items():
        g = grads[k]
        m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
        v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * (g * g)
        m_hat = m[k] / bc1
        v_hat = v[k] / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + cfg.eps) + lr * cfg.weight_decay * p


def oracle_topk(index_ids, index_vectors, model, text_feature, k):
    """Full sort of all cosine scores; ties broken by index position.

    Returns (ids, clipped scores) for the top min(k, n) hits.
    """
    q = np.asarray(text_feature, dtype=np.float64) @ model.text_head.w + model.text_head.b
    q = q / math.sqrt(float((q * q).sum()))
    scores = [float(np.dot(row, q)) for row in index_vectors]
    n = len(index_ids)
    order = sorted(range(n), key=lambda i: (-scores[i], i))[: min(k, n)]
    return (
        [index_ids[i] for i in order],
        [min(1.0, max(-1.0, scores[i])) for i in order],
    )


def oracle_rank(index, q, g, r, band):
    """1-based place of index row ``r`` in the exact order of unit query ``q``, one query at a time.

    ``g`` holds the query's GEMM scores, each within ``band`` of its exact
    per-row score ``(index.vectors[row] * q).sum()``. With e the exact score
    of ``r``, rows whose GEMM score is above e + band score above e, rows
    below e - band score below it, and only the rest are re-scored; a tie
    counts when it falls before ``r``.
    """

    def exact(rows):
        return (index.vectors[rows] * q).sum(axis=1)

    e = exact([r])[0]
    near = np.flatnonzero(g >= e - band)
    above = g[near] > e + band
    near = near[~above]
    s = exact(near)
    return 1 + int(above.sum() + (s > e).sum() + ((s == e) & (near < r)).sum())


def reference_write_ids(ids):
    """A store's id block for ``ids``, one id at a time, as the format defines it.

    Each id is a u16 byte length, then its UTF-8 bytes. Callers keep each
    id to at most 65,535 bytes and free of lone surrogates.
    """
    block = b""
    for id_ in ids:
        raw = id_.encode("utf-8")
        block += struct.pack("<H", len(raw)) + raw
    return block


def reference_read_ids(r, count):
    """A store's id block at reader ``r``'s position, one id at a time, as the format defines it.

    Each id is a u16 byte length, then that many bytes of UTF-8. Leaves
    ``r.pos`` past the block. A fault raises the package's error for it,
    ``<name>: byte <offset>: <reason>`` with the offset of the id's length
    prefix, or of the end of the file when ids are missing.
    """
    data, pos, ids = r.data, r.pos, []
    for i in range(count):
        if pos == len(data):
            raise IdCountMismatchError(
                f"{r.name}: byte {pos}: header declares {count} ids but file ends after {i}"
            )
        if pos + 2 > len(data):
            raise TruncatedFileError(f"{r.name}: byte {pos}: file ends inside an id length prefix")
        (length,) = struct.unpack_from("<H", data, pos)
        raw = data[pos + 2 : pos + 2 + length]
        if len(raw) < length:
            raise TruncatedFileError(
                f"{r.name}: byte {pos}: file ends inside id {i} "
                f"(wanted {length} bytes, got {len(raw)})"
            )
        try:
            ids.append(raw.decode("utf-8"))
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{r.name}: byte {pos}: id {i} is not valid UTF-8 ({e.reason})") from e
        pos += 2 + length
    r.pos = pos
    return ids


def evaluate_run(results, judgments) -> MetricsReport:
    """Score a batch of ranked results against their judgments.

    Results and judgments are matched by query_id (order-independent);
    every result needs exactly one judgment and vice versa. Per-query rows
    follow result order. Rankings should cover the whole index so every
    retrieved-relevant item has a cutoff; relevant items missing from a
    ranking simply contribute zero.
    """
    if not results:
        raise ValueError("no results to evaluate")
    by_id = judgments_by_id(judgments)
    seen = set()
    judged = []
    for r in results:
        if r.query_id in seen:
            raise ValueError(f"duplicate result for query {r.query_id!r}")
        seen.add(r.query_id)
        if r.query_id not in by_id:
            raise ValueError(f"result {r.query_id!r} has no judgment")
        j = by_id[r.query_id]
        judged.append((j, _ranks([doc for doc, _ in r.hits], j.relevant_ids)))
    missing = set(by_id) - seen
    if missing:
        raise ValueError(f"judgment {sorted(missing)[0]!r} has no result")
    return metrics_from_ranks(judged)


def oracle_evaluate(results, judgments):
    """Metrics recomputed from scratch with prefix recounting.

    Returns (aggregates dict, per-query list) in result order.
    """
    by_id = {j.query_id: j for j in judgments}
    per = []
    for r in results:
        j = by_id[r.query_id]
        ranked = [doc for doc, _ in r.hits]
        rel = set(j.relevant_ids)
        m = len(rel)
        ap_acc = 0.0
        ar_acc = 0.0
        for cutoff in range(1, len(ranked) + 1):
            if ranked[cutoff - 1] in rel:
                prefix = ranked[:cutoff]
                hits_here = sum(1 for d in prefix if d in rel)
                ap_acc += hits_here / cutoff
                ar_acc += hits_here / m
        ap = ap_acc / m
        ar = ar_acc / m
        f1 = 0.0 if ap + ar == 0 else 2.0 * (ap * ar) / (ap + ar)
        row = {"query_id": r.query_id, "ap": ap, "ar": ar, "f1": f1}
        for k in (1, 5, 10):
            row[f"top{k}"] = 1 if j.correct_id in ranked[:k] else 0
        per.append(row)
    q = len(per)
    agg = {
        key: sum(p[key] for p in per) / q
        for key in ("ap", "ar", "f1", "top1", "top5", "top10")
    }
    return agg, per


def reference_load_manifest(path):
    """A manifest's columns, read one line at a time as the format defines it.

    Each line ending at a newline byte is decoded as UTF-8 and, unless it
    is blank, parsed with ``json.loads`` and checked field by field. The
    first bad line raises ManifestError ``<path>: line <n>: <reason>``.
    """
    columns = {k: [] for k in ("image_id", "caption", "lang", "split", "text_id")}
    seen, captions = set(), {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError("expected a JSON object")
                fields = ("image_id", "caption", "lang", "split")
                missing = [k for k in fields if k not in obj]
                if missing:
                    raise ValueError(f"missing field(s): {', '.join(missing)}")
                for k in fields:
                    if not isinstance(obj[k], str):
                        raise TypeError(f"field {k!r} must be a string")
                text_id = obj.get("text_id")
                if text_id is not None and not isinstance(text_id, str):
                    raise TypeError("field 'text_id' must be a string")
                if (obj["image_id"], obj["caption"]) in seen:
                    raise ValueError("duplicate (image_id, caption) pair")
                seen.add((obj["image_id"], obj["caption"]))
                if not obj["image_id"]:
                    raise ValueError("image_id must be non-empty")
                if obj["split"] not in ("train", "val", "test"):
                    raise ValueError(
                        f"split must be one of ('train', 'val', 'test'), got {obj['split']!r}"
                    )
            except (KeyError, TypeError, ValueError) as e:
                reason = e
                if isinstance(e, UnicodeDecodeError):
                    reason = f"not valid UTF-8 ({e.reason})"
                elif isinstance(e, json.JSONDecodeError):
                    reason = f"invalid JSON ({e.msg})"
                raise ManifestError(f"{path}: line {lineno}: {reason}", line=lineno) from e
            j = captions[obj["image_id"]] = captions.get(obj["image_id"], -1) + 1
            for k in fields:
                columns[k].append(obj[k])
            columns["text_id"].append(f"{obj['image_id']}#c{j}" if text_id is None else text_id)
    return columns
