"""The trainable artifact: two linear projection heads over precomputed features.

A model is its parameters: one contiguous float64 vector,
``DualEncoderModel.params``, holding four row-major blocks in checkpoint
order: image weights (image input x shared), image bias (shared), text
weights (text input x shared), text bias (shared). The heads, the gradient
and the optimizer moments are views in that layout, which
``DualEncoderModel.blocks`` works out from the model's dims; no other code
knows it.

Checkpoint format (binary, little-endian): magic "AZCK", version u32=1,
dims u32 x 3 (image input, text input, shared output), then ``params`` as
float64, then a u32 byte length followed by a canonical UTF-8 JSON echo of
the model's config metadata.
"""

import hashlib
import json
import math
import struct
from typing import NamedTuple

import numpy as np

from .data import _JSON_FAULTS, _read, _write_atomic
from .errors import BadMagicError, DataFormatError, FormatVersionError, ShapeError, value_errors_as
from .linalg import as_matrix

CKPT_MAGIC = b"AZCK"
CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIIII")


class ProjectionHead(NamedTuple):
    """One linear map from a native feature space into the shared space.

    Immutable: a model's heads are views of its ``params``, so a write
    through ``w`` or ``b`` is a write to the model. Checked by the model
    that holds it, not on its own.
    """

    w: np.ndarray  # (d_in, d_out)
    b: np.ndarray  # (d_out,)


def canonical_meta(value) -> bytes:
    """``value`` as a checkpoint holds it: sorted, compact UTF-8 JSON; a bad value raises here."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


class DualEncoderModel:
    """Image-side and text-side heads sharing one output dimension.

    The model holds ``params``, its ``dims`` (image input, text input,
    shared output) and ``meta`` as canonical JSON bytes. Construction checks
    both heads and copies their arrays into ``params``, never aliasing the
    caller's. Each read of a head builds views of ``params`` (read it once
    in a loop), so writes to ``params``, a same-shape rebind of it, copies
    and pickles never detach a head. ``meta`` is a JSON config echo saved
    with checkpoints (encoder names, effective run config): a read decodes
    a new dict, and only assigning one changes the model.
    """

    def __init__(self, image_head: ProjectionHead, text_head: ProjectionHead, shared_dim: int,
                 meta=None):
        arrays = []
        for head in (image_head, text_head):
            w, b = (np.asarray(a, dtype=np.float64) for a in head)
            if w.ndim != 2:
                raise ShapeError(f"weights must be 2-D, got shape {w.shape}")
            if b.shape != (w.shape[1],):
                raise ShapeError(f"bias shape {b.shape} does not match weight columns {w.shape[1]}")
            arrays += [w, b]
        image_w, _, text_w, _ = arrays
        d = shared_dim
        if image_w.shape[1] != d or text_w.shape[1] != d:
            raise ShapeError(
                f"head outputs ({image_w.shape[1]}, {text_w.shape[1]}) must equal shared_dim {d}"
            )
        self.dims = (len(image_w), len(text_w), d)
        self.params = np.concatenate([a.ravel() for a in arrays])
        if not np.isfinite(self.params).all():
            raise ValueError("head parameters contain non-finite entries")
        self.meta = {} if meta is None else meta
        self._fingerprint = None  # (checkpoint parts, their SHA-256 hex digest) from the last call

    @property
    def shared_dim(self) -> int:
        return self.dims[2]

    @property
    def meta(self) -> dict:
        return json.loads(self._meta)

    @meta.setter
    def meta(self, value):  # the canonical checkpoint form, so a bad value fails here
        self._meta = canonical_meta(value)

    @property
    def image_head(self) -> ProjectionHead:
        image_w, image_b, _, _ = self.blocks(self.params).values()
        return ProjectionHead(image_w, image_b)

    @property
    def text_head(self) -> ProjectionHead:
        _, _, text_w, text_b = self.blocks(self.params).values()
        return ProjectionHead(text_w, text_b)

    def blocks(self, flat) -> dict:
        """Views of ``flat``, a vector in the ``params`` layout, keyed by block name."""
        d_img, d_txt, d = self.dims
        i, t = d_img * d, (d_img + 1) * d
        end = t + d_txt * d
        return {"image_w": flat[:i].reshape(d_img, d), "image_b": flat[i:t],
                "text_w": flat[t:end].reshape(d_txt, d), "text_b": flat[end:end + d]}


def check_dims(**dims):
    """Raise ValueError unless each named dimension is at least 1, checked in the order given."""
    for name, d in dims.items():
        if d < 1:
            raise ValueError(f"{name} must be positive, got {d}")


def init_model(img_dim, txt_dim, shared_dim, seed, meta=None) -> DualEncoderModel:
    """Build a fresh model with Glorot-uniform weights and zero biases.

    Weights are uniform in +/- sqrt(6 / (d_in + d_out)), which keeps the
    cosine logits well-scaled at step 0. Deterministic per seed: the image
    head is drawn first, then the text head, from one PCG64 stream.
    """
    check_dims(img_dim=img_dim, txt_dim=txt_dim, shared_dim=shared_dim)
    rng = np.random.default_rng(seed)

    def glorot(d_in, d_out):
        limit = math.sqrt(6.0 / (d_in + d_out))
        return rng.uniform(-limit, limit, size=(d_in, d_out))

    image_head = ProjectionHead(w=glorot(img_dim, shared_dim), b=np.zeros(shared_dim))
    text_head = ProjectionHead(w=glorot(txt_dim, shared_dim), b=np.zeros(shared_dim))
    return DualEncoderModel(image_head, text_head, shared_dim, meta)


def project(head: ProjectionHead, x) -> np.ndarray:
    """Apply ``x @ w + b`` row-wise. Output is raw; normalization is the caller's."""
    x = as_matrix(x, "features")
    if x.shape[1] != head.w.shape[0]:
        raise ShapeError(f"features have width {x.shape[1]} but head expects {head.w.shape[0]}")
    return x @ head.w + head.b


def _checkpoint_parts(model: DualEncoderModel) -> tuple:
    """(header, params as <f8, meta length, canonical meta): the checkpoint, in order."""
    header = _CKPT_HEADER.pack(CKPT_MAGIC, CKPT_VERSION, *model.dims)
    meta = model._meta
    return header, model.params.astype("<f8", copy=False).tobytes(), struct.pack("<I", len(meta)), meta


def checkpoint_bytes(model: DualEncoderModel) -> bytes:
    """Serialize a model to its canonical checkpoint byte string."""
    return b"".join(_checkpoint_parts(model))


def save_checkpoint(model: DualEncoderModel, path):
    with _write_atomic(path) as fh:
        fh.write(checkpoint_bytes(model))


def load_checkpoint(path) -> DualEncoderModel:
    r = _read(path)
    magic, version, img_dim, txt_dim, shared_dim = r.unpack(_CKPT_HEADER, "checkpoint header")
    if magic != CKPT_MAGIC:
        raise r.fail(BadMagicError, 0, f"expected magic {CKPT_MAGIC!r}, found {magic!r}")
    if version != CKPT_VERSION:
        raise r.fail(FormatVersionError, 0, f"unsupported checkpoint version {version}")
    if min(img_dim, txt_dim, shared_dim) < 1:
        raise r.fail(DataFormatError, 0, "checkpoint header declares non-positive dims")

    def block(shape, what):
        n = math.prod(shape)  # Python ints: huge dims cannot wrap negative
        raw = r.take(n * 8, f"checkpoint {what}", r.pos)
        return np.frombuffer(raw, dtype="<f8").reshape(shape)

    image_w = block((img_dim, shared_dim), "image weights")
    image_b = block((shared_dim,), "image bias")
    text_w = block((txt_dim, shared_dim), "text weights")
    text_b = block((shared_dim,), "text bias")
    at = r.pos
    (meta_len,) = r.unpack(struct.Struct("<I"), "checkpoint meta length")
    try:
        meta = json.loads(str(r.take(meta_len, "checkpoint meta block", at), "utf-8"))
    except _JSON_FAULTS as e:
        raise r.fail(DataFormatError, at, f"checkpoint meta block is not UTF-8 JSON: {e}") from e
    r.end("checkpoint has trailing data beyond the declared blocks")
    with value_errors_as(DataFormatError, f"{r.name}: "):
        return DualEncoderModel(ProjectionHead(image_w, image_b), ProjectionHead(text_w, text_b),
                                shared_dim, meta)


def model_fingerprint(model: DualEncoderModel) -> str:
    """SHA-256 hex digest of the canonical checkpoint bytes.

    Binds retrieval indexes to the exact parameters (and config echo) that
    produced them. The checkpoint bytes are rebuilt from ``params`` and the
    held ``meta`` bytes on every call and hashed only when they differ from
    the last call's, so each model state is hashed once, and any write to
    ``params`` (through a head or not) or assignment to ``meta`` is seen
    byte for byte.
    """
    parts = _checkpoint_parts(model)
    if model._fingerprint is None or model._fingerprint[0] != parts:
        model._fingerprint = (parts, hashlib.sha256(b"".join(parts)).hexdigest())
    return model._fingerprint[1]
