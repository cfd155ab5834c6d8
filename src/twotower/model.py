"""The trainable artifact: two linear projection heads over precomputed features.

Checkpoint format (binary, little-endian): magic "AZCK", version u32=1,
dims u32 x 3 (image input, text input, shared output), then float64
parameter blocks row-major in declared order (image weights, image bias,
text weights, text bias), then a u32 byte length followed by a canonical
UTF-8 JSON echo of the model's config metadata.
"""

import hashlib
import io
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import _read_exact, _write_atomic
from .errors import BadMagicError, DataFormatError, FormatVersionError, ShapeError, value_errors_as
from .linalg import as_matrix

CKPT_MAGIC = b"AZCK"
CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIIII")


@dataclass
class ProjectionHead:
    """One linear map from a native feature space into the shared space."""

    w: np.ndarray  # (d_in, d_out)
    b: np.ndarray  # (d_out,)

    def __post_init__(self):
        self.w = np.array(self.w, dtype=np.float64, order="C", copy=True)
        self.b = np.array(self.b, dtype=np.float64, copy=True)
        if self.w.ndim != 2:
            raise ShapeError(f"weights must be 2-D, got shape {self.w.shape}")
        if self.b.shape != (self.w.shape[1],):
            raise ShapeError(
                f"bias shape {self.b.shape} does not match weight columns {self.w.shape[1]}"
            )
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise ValueError("head parameters contain non-finite entries")

    @property
    def d_in(self) -> int:
        return self.w.shape[0]

    @property
    def d_out(self) -> int:
        return self.w.shape[1]


@dataclass
class DualEncoderModel:
    """Image-side and text-side heads sharing one output dimension.

    ``meta`` is a free-form JSON-serializable config echo persisted with
    checkpoints (upstream encoder names, effective run config, and so on).
    """

    image_head: ProjectionHead
    text_head: ProjectionHead
    shared_dim: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.image_head.d_out != self.shared_dim or self.text_head.d_out != self.shared_dim:
            raise ShapeError(
                f"head outputs ({self.image_head.d_out}, {self.text_head.d_out}) "
                f"must equal shared_dim {self.shared_dim}"
            )


def init_model(img_dim, txt_dim, shared_dim, seed, meta=None) -> DualEncoderModel:
    """Build a fresh model with Glorot-uniform weights and zero biases.

    Weights are uniform in +/- sqrt(6 / (d_in + d_out)), which keeps the
    cosine logits well-scaled at step 0. Deterministic per seed: the image
    head is drawn first, then the text head, from one PCG64 stream.
    """
    for name, d in (("img_dim", img_dim), ("txt_dim", txt_dim), ("shared_dim", shared_dim)):
        if d < 1:
            raise ValueError(f"{name} must be positive, got {d}")
    rng = np.random.default_rng(seed)

    def glorot(d_in, d_out):
        limit = math.sqrt(6.0 / (d_in + d_out))
        return rng.uniform(-limit, limit, size=(d_in, d_out))

    image_head = ProjectionHead(w=glorot(img_dim, shared_dim), b=np.zeros(shared_dim))
    text_head = ProjectionHead(w=glorot(txt_dim, shared_dim), b=np.zeros(shared_dim))
    return DualEncoderModel(
        image_head=image_head,
        text_head=text_head,
        shared_dim=shared_dim,
        meta=dict(meta or {}),
    )


def project(head: ProjectionHead, x) -> np.ndarray:
    """Apply ``x @ w + b`` row-wise. Output is raw; normalization is the caller's."""
    x = as_matrix(x, "features")
    if x.shape[1] != head.d_in:
        raise ShapeError(
            f"features have width {x.shape[1]} but head expects {head.d_in}"
        )
    return x @ head.w + head.b


def _meta_bytes(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )


def checkpoint_bytes(model: DualEncoderModel) -> bytes:
    """Serialize a model to its canonical checkpoint byte string."""
    buf = io.BytesIO()
    buf.write(
        _CKPT_HEADER.pack(
            CKPT_MAGIC,
            CKPT_VERSION,
            model.image_head.d_in,
            model.text_head.d_in,
            model.shared_dim,
        )
    )
    for block in (model.image_head.w, model.image_head.b, model.text_head.w, model.text_head.b):
        buf.write(block.astype("<f8").tobytes(order="C"))
    meta = _meta_bytes(model.meta)
    buf.write(struct.pack("<I", len(meta)))
    buf.write(meta)
    return buf.getvalue()


def save_checkpoint(model: DualEncoderModel, path):
    with _write_atomic(path) as fh:
        fh.write(checkpoint_bytes(model))


def checkpoint_from_bytes(data: bytes) -> DualEncoderModel:
    fh = io.BytesIO(data)
    header = _read_exact(fh, _CKPT_HEADER.size, "checkpoint header")
    magic, version, img_dim, txt_dim, shared_dim = _CKPT_HEADER.unpack(header)
    if magic != CKPT_MAGIC:
        raise BadMagicError(f"expected magic {CKPT_MAGIC!r}, found {magic!r}")
    if version != CKPT_VERSION:
        raise FormatVersionError(f"unsupported checkpoint version {version}")
    if min(img_dim, txt_dim, shared_dim) < 1:
        raise DataFormatError("checkpoint header declares non-positive dims")

    def block(shape, what):
        n = math.prod(shape)  # Python ints: huge dims cannot wrap negative
        raw = _read_exact(fh, n * 8, f"checkpoint {what}")
        return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()

    image_w = block((img_dim, shared_dim), "image weights")
    image_b = block((shared_dim,), "image bias")
    text_w = block((txt_dim, shared_dim), "text weights")
    text_b = block((shared_dim,), "text bias")
    (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "checkpoint meta length"))
    try:
        meta = json.loads(_read_exact(fh, meta_len, "checkpoint meta block").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataFormatError(f"checkpoint meta block is not UTF-8 JSON: {e}") from e
    if fh.read(1):
        raise DataFormatError("checkpoint has trailing data beyond the declared blocks")
    with value_errors_as(DataFormatError):
        return DualEncoderModel(
            image_head=ProjectionHead(w=image_w, b=image_b),
            text_head=ProjectionHead(w=text_w, b=text_b),
            shared_dim=shared_dim,
            meta=meta,
        )


def load_checkpoint(path) -> DualEncoderModel:
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())


def model_fingerprint(model: DualEncoderModel) -> str:
    """SHA-256 hex digest of the canonical checkpoint bytes.

    Binds retrieval indexes to the exact parameters (and config echo) that
    produced them.
    """
    return hashlib.sha256(checkpoint_bytes(model)).hexdigest()
