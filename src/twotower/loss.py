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
``loss_backward`` continues from it to the parameter gradients.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import as_matrix, l2_normalize_rows, log_softmax_rows
from .model import DualEncoderModel, project

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
    n = s.shape[0]
    if s.shape[1] != n:
        raise ShapeError(f"similarity matrix must be square, got {s.shape}")
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
                argmin = masked_min.argmin(axis=1)  # first occurrence = lowest column
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

    return LossOutput(
        total=ce + margin,
        ce_term=ce,
        margin_term=margin,
        grad_sim=grad,
        per_row_min_offdiag=min_off,
    )


def loss_forward(img_feat, txt_feat, model: DualEncoderModel, cfg: LossConfig):
    """The objective on one batch, with no parameter gradients.

    Chains project -> row L2-normalization -> cosine / temperature ->
    ``contrastive_loss``. Returns the LossOutput and the image and text
    NormalizedRows, which ``loss_backward`` reuses.
    """
    img_feat = as_matrix(img_feat, "image features")
    txt_feat = as_matrix(txt_feat, "text features")
    if img_feat.shape[0] != txt_feat.shape[0]:
        raise ShapeError(
            f"batch sizes differ: {img_feat.shape[0]} images vs {txt_feat.shape[0]} texts"
        )
    img = l2_normalize_rows(project(model.image_head, img_feat), "image", None)
    txt = l2_normalize_rows(project(model.text_head, txt_feat), "text", None)
    return contrastive_loss((img.matrix @ txt.matrix.T) / cfg.temperature, cfg), img, txt


def _rownorm_backward(rows, du):
    # d/dp of p/|p| applied to upstream du: (du - (du . u) u) / |p|
    proj = (du * rows.matrix).sum(axis=1, keepdims=True)
    return (du - proj * rows.matrix) / rows.norms[:, None]


def loss_backward(img_feat, txt_feat, model: DualEncoderModel, cfg: LossConfig):
    """Forward and backward pass through both heads for one batch.

    Runs ``loss_forward``, then its closed-form Jacobians in reverse.
    Returns the LossOutput and the gradient as one vector in the layout of
    ``model.params``.
    """
    out, img, txt = loss_forward(img_feat, txt_feat, model, cfg)
    g = out.grad_sim / cfg.temperature
    d_p_img = _rownorm_backward(img, g @ txt.matrix)
    d_p_txt = _rownorm_backward(txt, g.T @ img.matrix)
    grads = np.empty_like(model.params)
    blocks = model.blocks(grads)
    # loss_forward has checked the features
    np.matmul(np.asarray(img_feat, dtype=np.float64).T, d_p_img, out=blocks["image_w"])
    d_p_img.sum(axis=0, out=blocks["image_b"])
    np.matmul(np.asarray(txt_feat, dtype=np.float64).T, d_p_txt, out=blocks["text_w"])
    d_p_txt.sum(axis=0, out=blocks["text_b"])
    return out, grads
