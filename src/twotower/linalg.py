"""Dense float64 helpers shared by every other module.

Matrices are plain 2-D ``numpy.ndarray`` objects; there is no wrapper type.
Reductions run through numpy's fixed evaluation order, so repeated calls on
identical inputs are bit-reproducible within a process.

Finiteness is checked where data enters: ``as_matrix`` at each public entry
point. ``row_norms`` and ``log_softmax_rows`` are unchecked helpers behind
those entry points; their callers pass finite float64 matrices.

Rows are normalised over rows already checked where they entered:
retrieval through ``unit_rows``, which returns the unit rows alone, and
the training step in its own buffers. Both take their norms from
``row_norms``, and a row whose norm is zero or overflows raises
``DegenerateRowError`` in ``check_norms`` and nowhere else.
"""

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


def row_norms(m, out=None, scratch=None) -> np.ndarray:
    """Each row's Euclidean norm; the one formula training and retrieval share.

    A row whose squares overflow gets an infinite norm, which
    ``check_norms`` reports; the caller silences numpy's overflow warning.
    ``out`` (one entry per row) and ``scratch`` (shaped like ``m``) take
    the results and the squares when given, as preallocated buffers.
    """
    return np.sqrt(np.multiply(m, m, out=scratch).sum(axis=1, out=out), out=out)


def check_norms(norms, what, ids):
    """Raise DegenerateRowError unless every row norm is finite and at least ``ZERO_NORM_EPS``.

    A row whose norm is not finite overflowed, and one whose norm is below
    ``ZERO_NORM_EPS`` has no direction: no cosine can be taken with either.
    The first overflowing row is named, else the first zero row, as
    ``"<what> row <i>"``, or as ``"<what> <id>"`` when ``ids`` (one per row)
    is given, with ``row`` and ``row_id`` set.
    """
    finite = np.isfinite(norms)
    bad = norms < ZERO_NORM_EPS if finite.all() else ~finite
    if bad.any():
        i = int(bad.argmax())
        row_id = None if ids is None else ids[i]
        name = f"row {i}" if ids is None else repr(row_id)
        fault = "to a zero vector" if finite.all() else "to a vector whose norm overflows"
        raise DegenerateRowError(f"{what} {name} projects {fault}", row=i, row_id=row_id)


def unit_rows(m, what, ids) -> np.ndarray:
    """Each row of a float64 matrix scaled to unit Euclidean norm; ``check_norms`` gives the errors.

    ``m`` is not scanned: a row holding an infinity or NaN, such as a
    projection that overflowed, has no finite norm and raises as one.
    Retrieval normalises through it; training's step divides by the norms
    it keeps in ``loss._Workspace``.
    """
    with np.errstate(over="ignore"):
        norms = row_norms(m)
    check_norms(norms, what, ids)
    return m / norms[:, None]


def log_softmax_rows(m, out=None, scratch=None) -> np.ndarray:
    """Row-wise log-softmax of a finite matrix, with per-row max subtraction.

    The shift makes arbitrarily large logits safe: exp never overflows.
    Returns a new array laid out like ``m``, or ``out`` when given, with the
    exponentials written to ``scratch`` when given. The row sums run in the
    order of the buffers' layout, so buffers laid out like ``m`` give the
    bits a call without them gives.
    """
    m = np.asarray(m, dtype=np.float64)
    shifted = np.subtract(m, m.max(axis=1, keepdims=True), out=out)
    shifted -= np.log(np.exp(shifted, out=scratch).sum(axis=1, keepdims=True))
    return shifted
