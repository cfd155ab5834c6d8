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

Training and validation share one forward pass, ``_forward``;
``_backward`` continues from it to the parameter gradients. Both run as
straight-line array code into a ``_Workspace``, the buffers of one batch
size, allocated once: ``train`` checks its features when it starts and
keeps one workspace per batch length for the run, while ``loss_backward``
and ``contrastive_loss``, the entry points the demos and tests call,
check their arguments and build a fresh one per call. Every operation
keeps numpy's rounding order and each array's layout, so results are
bit-identical to the step written helper by helper with fresh arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import ZERO_NORM_EPS, as_matrix, check_norms, log_softmax_rows, row_norms
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
    ws = _Workspace(None, s.shape[0])
    np.copyto(ws.s, s)
    return _contrastive(ws, cfg)


class _Workspace:
    """Every array one batch of ``n`` pairs needs, allocated once and rewritten by each batch.

    ``_forward`` and ``_backward`` write into it; ``train`` keeps one per
    batch length for its whole run, and each public entry point builds its
    own, so what a call returns shares no memory with another call's. It
    holds views of the model's heads, which stay bound while ``params`` is
    updated in place. Built without a model (``contrastive_loss``), it
    holds only the logit buffers.
    """

    def __init__(self, model, n):
        self.n = n
        self.s, self.grad, self.col, self.exp = (np.empty((n, n)) for _ in range(4))
        self.starts = np.arange(n) * n  # flat position of each row's first logit
        self.s_flat, self.grad_flat = self.s.reshape(-1), self.grad.reshape(-1)
        self.s_diag, self.grad_diag = self.s_flat[:: n + 1], self.grad_flat[:: n + 1]
        self.col_diag = self.col.reshape(-1)[:: n + 1]
        if model is None:
            return
        d_img, d_txt, d = model.dims
        self.img, self.txt = np.empty((n, d_img)), np.empty((n, d_txt))  # gathered features
        self.image_w, self.image_b, self.text_w, self.text_b = model.blocks(model.params).values()
        self.grads = np.empty_like(model.params)
        self.grad_blocks = tuple(model.blocks(self.grads).values())
        # projections, then unit rows, of image rows over text rows; their gradient; products
        self.p, self.d_p, self.sq = (np.empty((2 * n, d)) for _ in range(3))
        self.p_img, self.p_txt = self.p[:n], self.p[n:]
        self.d_p_img, self.d_p_txt = self.d_p[:n], self.d_p[n:]
        self.norms = np.empty(2 * n)
        self.norms_col = self.norms[:, None]

    def gather(self, images, texts, image_rows, text_rows):
        """The features of ``n`` pairs, copied into the workspace's two feature buffers.

        The rows were resolved when the dataset was built, so they are in
        range and ``take`` may skip its bounds check (``mode="clip"``).
        """
        return (images.take(image_rows, axis=0, out=self.img, mode="clip"),
                texts.take(text_rows, axis=0, out=self.txt, mode="clip"))


def _contrastive(ws: _Workspace, cfg: LossConfig) -> LossOutput:
    # contrastive_loss on the workspace's finite logits ws.s, which it overwrites
    n, s, grad = ws.n, ws.s, ws.grad
    diag = ws.s_diag

    log_softmax_rows(s, grad, ws.exp)
    ce = -float(grad.trace())
    np.exp(grad, out=grad)
    ws.grad_diag -= 1.0  # softmax minus the identity
    if cfg.symmetric:
        # written through transposed views, so each array is laid out as
        # log_softmax_rows(s.T) lays out its own: the row sums run in that order
        col = log_softmax_rows(s.T, ws.col.T, ws.exp.T).T
        ce = 0.5 * (ce - float(col.trace()))
        np.exp(col, out=col)
        ws.col_diag -= 1.0
        grad += col
        grad *= 0.5

    hard = n > 1 and cfg.lam > 0 and cfg.margin_mode == "hard_negative"
    if hard:
        positive = diag.copy()
    # Off-diagonal extremes: mask the diagonal in place, take the first
    # (lowest-column) extreme of each row and read its value back at its
    # flat position.
    diag[:] = np.inf
    at = ws.starts + s.argmin(axis=1)
    min_off = ws.s_flat[at]

    margin = 0.0
    if n > 1 and cfg.lam > 0:
        if hard:
            diag[:] = -np.inf
            at = ws.starts + s.argmax(axis=1)
            hinge = ws.s_flat[at] - (positive * cfg.temperature - cfg.margin)
        else:
            hinge = cfg.margin - min_off
        rows = (hinge > 0).nonzero()[0]
        if rows.size:
            active = hinge[rows]
            margin = float(cfg.lam * (active**2).sum())
            step = 2.0 * cfg.lam * active
            if hard:
                ws.grad_flat[at[rows]] += step
                ws.grad_diag[rows] -= step * cfg.temperature
            else:
                ws.grad_flat[at[rows]] -= step

    return LossOutput(
        total=ce + margin,
        ce_term=ce,
        margin_term=margin,
        grad_sim=grad,
        per_row_min_offdiag=min_off,
    )


def _features(img_feat, txt_feat, model: DualEncoderModel):
    """Both feature batches as checked float64 matrices that fit the model's heads."""
    img_feat = as_matrix(img_feat, "image features")
    txt_feat = as_matrix(txt_feat, "text features")
    if img_feat.shape[0] != txt_feat.shape[0]:
        raise ShapeError(
            f"batch sizes differ: {img_feat.shape[0]} images vs {txt_feat.shape[0]} texts"
        )
    for x, width in zip((img_feat, txt_feat), model.dims[:2]):
        if x.shape[1] != width:
            raise ShapeError(f"features have width {x.shape[1]} but head expects {width}")
    return img_feat, txt_feat


def _forward(ws: _Workspace, img, txt, cfg: LossConfig) -> LossOutput:
    # the objective on what _features returns, into ws, under np.errstate(over="ignore"):
    # an overflowing projection has a norm that is not finite, and the check reports it
    p, norms = ws.p, ws.norms
    np.matmul(img, ws.image_w, out=ws.p_img)
    ws.p_img += ws.image_b
    np.matmul(txt, ws.text_w, out=ws.p_txt)
    ws.p_txt += ws.text_b
    row_norms(p, norms, ws.sq)  # both towers' rows at once, as unit_rows takes them
    if not (ZERO_NORM_EPS <= norms.min(initial=np.inf) and norms.max(initial=0.0) < np.inf):
        check_norms(norms[: ws.n], "image", None)  # names the first bad row, image rows first
        check_norms(norms[ws.n :], "text", None)
    p /= ws.norms_col
    s = np.matmul(ws.p_img, ws.p_txt.T, out=ws.s)
    if cfg.temperature != 1:  # dividing by 1 is exact: skip it
        s /= cfg.temperature
    return _contrastive(ws, cfg)


def _rownorm_backward(ws: _Workspace):
    # d/dp of p/|p| applied to upstream du = ws.d_p, with u = ws.p the unit
    # rows: (du - (du . u) u) / |p|, written into du
    du, u = ws.d_p, ws.p
    proj = np.multiply(du, u, out=ws.sq).sum(axis=1, keepdims=True)
    du -= np.multiply(proj, u, out=ws.sq)
    du /= ws.norms_col


def _backward(ws: _Workspace, img, txt, cfg: LossConfig) -> LossOutput:
    # loss_backward on what _features returns, under np.errstate(over="ignore");
    # the gradient is left in ws.grads
    out = _forward(ws, img, txt, cfg)
    g = out.grad_sim
    if cfg.temperature != 1:
        g = np.divide(g, cfg.temperature, out=ws.exp)  # the softmax scratch is free again
    np.matmul(g, ws.p_txt, out=ws.d_p_img)
    np.matmul(g.T, ws.p_img, out=ws.d_p_txt)
    _rownorm_backward(ws)
    image_w, image_b, text_w, text_b = ws.grad_blocks
    np.matmul(img.T, ws.d_p_img, out=image_w)
    ws.d_p_img.sum(axis=0, out=image_b)
    np.matmul(txt.T, ws.d_p_txt, out=text_w)
    ws.d_p_txt.sum(axis=0, out=text_b)
    return out


def loss_backward(img_feat, txt_feat, model: DualEncoderModel, cfg: LossConfig):
    """Forward and backward pass through both heads for one batch.

    Chains project -> row L2-normalization -> cosine / temperature ->
    ``contrastive_loss``, then runs the closed-form Jacobians in reverse.
    Returns the LossOutput and the gradient as a new vector in the layout
    of ``model.params``.
    """
    img_feat, txt_feat = _features(img_feat, txt_feat, model)
    ws = _Workspace(model, len(img_feat))
    with np.errstate(over="ignore"):
        out = _backward(ws, img_feat, txt_feat, cfg)
    return out, ws.grads
