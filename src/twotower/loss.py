"""Margin-augmented contrastive objective and its analytic gradients.

For a batch of N matched pairs, let s be the N x N matrix of cosine
similarities between projected image rows and projected text rows, divided
by the temperature; batch construction guarantees the i-th image matches
the i-th text, so the diagonal holds the true pairs.

The objective minimized here is

    total = ce_term + margin_term
    ce_term     = sum_i -log( exp(s_ii) / sum_j exp(s_ij) )
    margin_term = sum_i lam * max(0, margin - M_i)^2,   M_i = min_{j != i} s_ij

i.e. row-wise cross-entropy against the diagonal plus a squared hinge on
each row's smallest off-diagonal similarity. With ``symmetric`` on, the
cross-entropy also runs column-wise and the two directions are averaged.
``margin_mode="hard_negative"`` swaps the hinge for a conventional
hardest-negative penalty (see ``contrastive_loss``); it is off by default.

Deterministic subgradient conventions: the hinge contributes zero gradient
exactly at its kink, and min/max ties over off-diagonal entries resolve to
the lowest column index.

Training and validation share one forward pass, ``loss_forward``;
``loss_backward`` continues from it to the parameter gradients. Both check
their features once on entry and then run as straight-line array code,
writing logits and gradients in place where that keeps numpy's rounding
order, so results are bit-identical to the step written helper by helper.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import NormalizedRows, as_matrix, check_norms, log_softmax_rows, row_norms
from .model import DualEncoderModel

MARGIN_MODES = ("literal", "hard_negative")


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters of the contrastive objective.

    ``lam`` weights the margin penalty, ``margin`` is its threshold,
    ``temperature`` divides the cosine similarities before the softmax.
    """

    lam: float = 1.0
    margin: float = 0.2
    temperature: float = 1.0
    margin_mode: str = "literal"
    symmetric: bool = False

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.margin_mode not in MARGIN_MODES:
            raise ValueError(
                f"margin_mode must be one of {MARGIN_MODES}, got {self.margin_mode!r}"
            )


@dataclass
class LossOutput:
    """Loss value with per-term breakdown and the gradient w.r.t. the logits.

    ``per_row_min_offdiag`` holds each row's smallest off-diagonal logit
    (+inf for a 1-row batch, where no off-diagonal exists).
    """

    total: float
    ce_term: float
    margin_term: float
    grad_sim: np.ndarray
    per_row_min_offdiag: np.ndarray


def contrastive_loss(s, cfg: LossConfig) -> LossOutput:
    """Evaluate the objective on a square logit matrix and differentiate it.

    Cross-entropy runs over rows (image to text); with ``cfg.symmetric``
    the column direction is added and the two are averaged. The margin
    penalty depends on ``cfg.margin_mode``:

    * ``literal`` (default): lam * max(0, margin - M_i)^2 per row, with
      M_i the row's smallest off-diagonal logit. This penalizes rows whose
      *least* similar negative falls below the margin, i.e. it bounds how
      dispersed the negatives may get.
    * ``hard_negative``: lam * max(0, M'_i - (s_ii * temperature - margin))^2
      with M'_i the row's largest off-diagonal logit: the usual "hardest
      negative must trail the positive by a margin" penalty.

    A 1-row batch has no off-diagonal entries, so its margin term is zero.
    ``grad_sim`` is the exact derivative of ``total`` w.r.t. each logit
    under the subgradient conventions in the module docstring.
    """
    s = as_matrix(s, "similarity logits")
    if s.shape[1] != s.shape[0]:
        raise ShapeError(f"similarity matrix must be square, got {s.shape}")
    return _contrastive(np.array(s, order="C"), cfg)


def _contrastive(s, cfg: LossConfig) -> LossOutput:
    # contrastive_loss on finite, square, C-contiguous logits, which it overwrites
    n = s.shape[0]
    diag = s.reshape(-1)[:: n + 1]  # a view: s is C-contiguous

    grad = log_softmax_rows(s)
    ce = -float(grad.trace())
    np.exp(grad, out=grad)
    grad.reshape(-1)[:: n + 1] -= 1.0  # softmax minus the identity
    if cfg.symmetric:
        col = log_softmax_rows(s.T).T
        ce = 0.5 * (ce - float(col.trace()))
        np.exp(col, out=col)
        col.reshape(-1)[:: n + 1] -= 1.0
        grad += col
        grad *= 0.5

    hard = n > 1 and cfg.lam > 0 and cfg.margin_mode == "hard_negative"
    if hard:
        positive = diag.copy()
    # Off-diagonal extremes: mask the diagonal in place, take the first
    # (lowest-column) extreme of each row and read its value back.
    every = np.arange(n)
    diag[:] = np.inf
    argmin = s.argmin(axis=1)
    min_off = s[every, argmin]

    margin = 0.0
    if n > 1 and cfg.lam > 0:
        if not hard:
            hinge = cfg.margin - min_off
            rows = np.flatnonzero(hinge > 0)
            if rows.size:
                active = hinge[rows]
                margin = float(cfg.lam * (active**2).sum())
                grad[rows, argmin[rows]] -= 2.0 * cfg.lam * active
        else:
            diag[:] = -np.inf
            argmax = s.argmax(axis=1)
            hinge = s[every, argmax] - (positive * cfg.temperature - cfg.margin)
            rows = np.flatnonzero(hinge > 0)
            if rows.size:
                active = hinge[rows]
                margin = float(cfg.lam * (active**2).sum())
                step = 2.0 * cfg.lam * active
                grad[rows, argmax[rows]] += step
                grad[rows, rows] -= step * cfg.temperature

    return LossOutput(
        total=ce + margin,
        ce_term=ce,
        margin_term=margin,
        grad_sim=grad,
        per_row_min_offdiag=min_off,
    )


def _features(img_feat, txt_feat, model: DualEncoderModel):
    """Both feature batches as checked float64 matrices that fit their heads, and the heads."""
    img_feat = as_matrix(img_feat, "image features")
    txt_feat = as_matrix(txt_feat, "text features")
    if img_feat.shape[0] != txt_feat.shape[0]:
        raise ShapeError(
            f"batch sizes differ: {img_feat.shape[0]} images vs {txt_feat.shape[0]} texts"
        )
    heads = model.image_head, model.text_head  # each read builds views of params: read once
    for x, head in zip((img_feat, txt_feat), heads):
        if x.shape[1] != head.w.shape[0]:
            raise ShapeError(f"features have width {x.shape[1]} but head expects {head.w.shape[0]}")
    return img_feat, txt_feat, heads


def _unit_rows(img_feat, txt_feat, heads) -> NormalizedRows:
    # Both projections, image rows over text rows in one buffer, scaled to
    # unit rows: each row's arithmetic is that of project and unit_rows,
    # and the row-wise steps run once for both towers.
    n = img_feat.shape[0]
    p = np.empty((2 * n, heads[0].b.size))
    with np.errstate(over="ignore"):  # an overflowing projection fails check_norms
        for x, head, part in zip((img_feat, txt_feat), heads, (p[:n], p[n:])):
            np.matmul(x, head.w, out=part)
            part += head.b
        norms = row_norms(p)
    check_norms(norms[:n], "image", None)
    check_norms(norms[n:], "text", None)
    p /= norms[:, None]
    return NormalizedRows(p, norms)


def _forward(img_feat, txt_feat, heads, cfg: LossConfig):
    # loss_forward on what _features returns; also returns the unit rows
    n = img_feat.shape[0]
    rows = _unit_rows(img_feat, txt_feat, heads)
    s = rows.matrix[:n] @ rows.matrix[n:].T
    if cfg.temperature != 1:  # dividing by 1 is exact: skip it
        s /= cfg.temperature
    return _contrastive(s, cfg), rows


def loss_forward(img_feat, txt_feat, model: DualEncoderModel, cfg: LossConfig) -> LossOutput:
    """The objective on one batch, with no parameter gradients.

    Chains project -> row L2-normalization -> cosine / temperature ->
    ``contrastive_loss``, the forward half of ``loss_backward``.
    """
    return _forward(*_features(img_feat, txt_feat, model), cfg)[0]


def _rownorm_backward(rows, du):
    # d/dp of p/|p| applied to upstream du: (du - (du . u) u) / |p|, written into du
    proj = (du * rows.matrix).sum(axis=1, keepdims=True)
    du -= proj * rows.matrix
    du /= rows.norms[:, None]
    return du


def loss_backward(img_feat, txt_feat, model: DualEncoderModel, cfg: LossConfig):
    """Forward and backward pass through both heads for one batch.

    Runs ``loss_forward``, then its closed-form Jacobians in reverse.
    Returns the LossOutput and the gradient as a new vector in the layout
    of ``model.params``.
    """
    img_feat, txt_feat, heads = _features(img_feat, txt_feat, model)
    out, rows = _forward(img_feat, txt_feat, heads, cfg)
    n = img_feat.shape[0]
    g = out.grad_sim / cfg.temperature if cfg.temperature != 1 else out.grad_sim
    d_p = np.empty_like(rows.matrix)  # image rows over text rows, as in rows
    np.matmul(g, rows.matrix[n:], out=d_p[:n])
    np.matmul(g.T, rows.matrix[:n], out=d_p[n:])
    _rownorm_backward(rows, d_p)
    grads = np.empty_like(model.params)
    image_w, image_b, text_w, text_b = model.blocks(grads).values()
    np.matmul(img_feat.T, d_p[:n], out=image_w)
    d_p[:n].sum(axis=0, out=image_b)
    np.matmul(txt_feat.T, d_p[n:], out=text_w)
    d_p[n:].sum(axis=0, out=text_b)
    return out, grads
