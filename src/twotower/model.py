"""The trainable artifact: two linear projection heads over precomputed features.

All trainable parameters live in one contiguous float64 vector,
``DualEncoderModel.params``. It holds four row-major blocks in checkpoint
order: image weights (image input x shared), image bias (shared), text
weights (text input x shared), text bias (shared). ``image_head.w/.b`` and
``text_head.w/.b`` are views into it. The gradient and the optimizer moments use
the same layout, and ``DualEncoderModel.blocks`` gives the named views of
any vector in it; no other module knows the layout.

Checkpoint format (binary, little-endian): magic "AZCK", version u32=1,
dims u32 x 3 (image input, text input, shared output), then ``params`` as
float64, then a u32 byte length followed by a canonical UTF-8 JSON echo of
the model's config metadata.
"""

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import _JSON_FAULTS, _read, _Reader, _write_atomic
from .errors import BadMagicError, DataFormatError, FormatVersionError, ShapeError
from .linalg import as_matrix

CKPT_MAGIC = b"AZCK"
CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIIII")


@dataclass
class ProjectionHead:
    """One linear map from a native feature space into the shared space.

    Float64 arrays are kept as given, not copied; a model copies its heads
    into its own buffer.
    """

    w: np.ndarray  # (d_in, d_out)
    b: np.ndarray  # (d_out,)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64, order="C")
        self.b = np.asarray(self.b, dtype=np.float64)
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

    Construction copies both heads' arrays into ``params`` and replaces the
    heads with new ones viewing it, so the model never aliases its caller's
    arrays. ``meta`` is a free-form JSON-serializable config echo persisted
    with checkpoints (upstream encoder names, effective run config, and so on).
    """

    image_head: ProjectionHead
    text_head: ProjectionHead
    shared_dim: int
    meta: dict = field(default_factory=dict)
    params: np.ndarray = field(init=False, repr=False)
    _layout: tuple = field(init=False, repr=False)  # (name, slice of params, shape) per block
    # (checkpoint parts, their SHA-256 hex digest) from the last model_fingerprint call
    _fingerprint: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.image_head.d_out != self.shared_dim or self.text_head.d_out != self.shared_dim:
            raise ShapeError(
                f"head outputs ({self.image_head.d_out}, {self.text_head.d_out}) "
                f"must equal shared_dim {self.shared_dim}"
            )
        d = self.shared_dim
        shapes = {
            "image_w": (self.image_head.d_in, d),
            "image_b": (d,),
            "text_w": (self.text_head.d_in, d),
            "text_b": (d,),
        }
        layout, start = [], 0
        for name, shape in shapes.items():
            end = start + math.prod(shape)
            layout.append((name, slice(start, end), shape))
            start = end
        self._layout = tuple(layout)
        heads = (self.image_head, self.text_head)
        self.params = np.concatenate([a.ravel() for h in heads for a in (h.w, h.b)])
        views = self.blocks(self.params)
        self.image_head = ProjectionHead(views["image_w"], views["image_b"])
        self.text_head = ProjectionHead(views["text_w"], views["text_b"])

    def blocks(self, flat) -> dict:
        """Views of ``flat``, a vector in the ``params`` layout, keyed by block name."""
        return {name: flat[span].reshape(shape) for name, span, shape in self._layout}


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


def _checkpoint_parts(model: DualEncoderModel) -> tuple:
    """(header, params as <f8, meta length, canonical meta): the checkpoint, in order."""
    header = _CKPT_HEADER.pack(
        CKPT_MAGIC, CKPT_VERSION, model.image_head.d_in, model.text_head.d_in, model.shared_dim
    )
    meta = _meta_bytes(model.meta)
    return header, model.params.astype("<f8").tobytes(), struct.pack("<I", len(meta)), meta


def checkpoint_bytes(model: DualEncoderModel) -> bytes:
    """Serialize a model to its canonical checkpoint byte string."""
    return b"".join(_checkpoint_parts(model))


def save_checkpoint(model: DualEncoderModel, path):
    with _write_atomic(path) as fh:
        fh.write(checkpoint_bytes(model))


def _read_checkpoint(r: _Reader) -> DualEncoderModel:
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
    with r.contents():
        return DualEncoderModel(
            image_head=ProjectionHead(w=image_w, b=image_b),
            text_head=ProjectionHead(w=text_w, b=text_b),
            shared_dim=shared_dim,
            meta=meta,
        )


def checkpoint_from_bytes(data: bytes) -> DualEncoderModel:
    return _read_checkpoint(_Reader(data, "<checkpoint bytes>"))


def load_checkpoint(path) -> DualEncoderModel:
    return _read_checkpoint(_read(path))


def model_fingerprint(model: DualEncoderModel) -> str:
    """SHA-256 hex digest of the canonical checkpoint bytes.

    Binds retrieval indexes to the exact parameters (and config echo) that
    produced them. The checkpoint bytes are rebuilt on every call and hashed
    only when they differ from the last call's, so each model state is hashed
    once, and any write to ``params`` (through a head or not) or to ``meta``
    (in place or not) is seen byte for byte.
    """
    parts = _checkpoint_parts(model)
    if model._fingerprint is None or model._fingerprint[0] != parts:
        model._fingerprint = (parts, hashlib.sha256(b"".join(parts)).hexdigest())
    return model._fingerprint[1]
