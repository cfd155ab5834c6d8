"""Dense float64 helpers shared by every other module.

Matrices are plain 2-D ``numpy.ndarray`` objects; there is no wrapper type.
Every public function accepts array-likes, computes in float64, and
guarantees finite output. Reductions run through numpy's fixed evaluation
order, so repeated calls on identical inputs are bit-reproducible within a
process.

``l2_normalize_rows`` is the one row normaliser: training and retrieval
both take their unit rows from it, and a zero row raises
``DegenerateRowError`` there and nowhere else.
"""

from typing import NamedTuple

import numpy as np

from .errors import DegenerateRowError, ShapeError

# Rows with Euclidean norm below this are treated as zero vectors.
ZERO_NORM_EPS = 1e-12


def as_matrix(x, name="matrix") -> np.ndarray:
    """Coerce ``x`` to a finite float64 2-D array or raise."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


class NormalizedRows(NamedTuple):
    matrix: np.ndarray  # the rows scaled to unit norm
    norms: np.ndarray   # each input row's Euclidean norm, all >= ZERO_NORM_EPS


def l2_normalize_rows(m, what, ids) -> NormalizedRows:
    """Scale each row to unit Euclidean norm, raising on the first zero row.

    A row with norm below ``ZERO_NORM_EPS`` has no direction, so no cosine
    can be taken with it: it raises DegenerateRowError naming the row as
    ``"<what> row <i>"``, or as ``"<what> <id>"`` when ``ids`` (one per
    row) is given, with ``row`` and ``row_id`` set. The norms come back
    with the unit rows, for the backward pass through the normalization.
    """
    m = as_matrix(m)
    with np.errstate(over="ignore"):
        norms = np.sqrt((m * m).sum(axis=1))
    if not np.isfinite(norms).all():
        raise ValueError("row norms overflowed to non-finite values")
    zero = norms < ZERO_NORM_EPS
    if zero.any():
        i = int(zero.argmax())
        row_id = None if ids is None else ids[i]
        name = f"row {i}" if ids is None else repr(row_id)
        raise DegenerateRowError(f"{what} {name} projects to a zero vector", row=i, row_id=row_id)
    return NormalizedRows(m / norms[:, None], norms)


def log_softmax_rows(m) -> np.ndarray:
    """Row-wise log-softmax with per-row max subtraction.

    The shift makes arbitrarily large logits safe: exp never overflows.
    """
    m = as_matrix(m)
    shifted = m - m.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
