"""Independent brute-force evaluators used to check the library.

Everything here is written directly from the defining formulas with plain
loops, deliberately sharing no code with the package internals.
"""

import math

import numpy as np

from twotower.loss import loss_backward


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
