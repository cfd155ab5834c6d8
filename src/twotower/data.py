"""Datasets: caption manifests, embedding stores, batching, synthesis.

Pair ids are resolved to store rows in one place, ``EmbeddingStore.index``;
``PairedDataset.split_rows`` gives a split's rows in pair order, and
training, validation and augmentation gather vectors by those rows.

On-disk formats
---------------
Embedding store (binary, little-endian):
    magic "AZEB" (4 bytes), format version u32=1, count u64, dim u32,
    kind u8 (0=image_feature, 1=text_feature, 2=projected), 7 reserved
    zero bytes, then count*dim float32 row-major, then count ids, each a
    u16 byte length followed by UTF-8 bytes. Vectors are float64 in
    memory; only the file payload is float32.

Caption manifest: JSON-lines, one object per line with required string
fields ``image_id``, ``caption``, ``lang``, ``split`` and an optional
``text_id``. When ``text_id`` is absent, the j-th caption of an image (in
file order, 0-based) is addressed as ``"<image_id>#c<j>"``; text embedding
stores must use the same ids.
"""

import io
import json
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadMagicError,
    DataFormatError,
    FormatVersionError,
    IdCountMismatchError,
    ManifestError,
    ShapeError,
    TruncatedFileError,
)

VALID_SPLITS = ("train", "val", "test")

KIND_TO_CODE = {"image_feature": 0, "text_feature": 1, "projected": 2}
CODE_TO_KIND = {v: k for k, v in KIND_TO_CODE.items()}

EMBED_MAGIC = b"AZEB"
EMBED_VERSION = 1
_EMBED_HEADER = struct.Struct("<4sIQIB7x")


class SplitMix64:
    """Deterministic 64-bit generator with a published update rule.

    All arithmetic is modulo 2**64:

        state  = state + 0x9E3779B97F4A7C15
        z      = state
        z      = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z      = (z ^ (z >> 27)) * 0x94D049BB133111EB
        output = z ^ (z >> 31)

    Every shuffle in this package runs on this generator so that batch
    order is a stable, documented function of the seed, reproducible from
    the equations above in any language.
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
        """Integer in [0, n) by modulo reduction.

        The modulo bias is below n / 2**64, negligible at any feasible n.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n


def shuffled(items, seed):
    """Return a list with ``items`` in Fisher-Yates order driven by SplitMix64."""
    out = list(items)
    rng = SplitMix64(seed)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next_below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


@dataclass(frozen=True)
class CaptionRecord:
    """One caption of one image, carried as metadata alongside features."""

    image_id: str
    caption: str
    lang: str
    split: str
    text_id: str | None = None

    def __post_init__(self):
        if not self.image_id:
            raise ValueError("image_id must be non-empty")
        if self.split not in VALID_SPLITS:
            raise ValueError(f"split must be one of {VALID_SPLITS}, got {self.split!r}")


_MANIFEST_FIELDS = ("image_id", "caption", "lang", "split")


def load_manifest(path) -> list[CaptionRecord]:
    """Parse a JSON-lines caption manifest in file order.

    Blank lines are skipped. Any malformed line raises ManifestError with
    its 1-based line number; duplicate (image_id, caption) pairs are
    rejected.
    """
    records = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ManifestError(f"line {lineno}: invalid JSON ({e.msg})", line=lineno) from e
            if not isinstance(obj, dict):
                raise ManifestError(f"line {lineno}: expected a JSON object", line=lineno)
            missing = [k for k in _MANIFEST_FIELDS if k not in obj]
            if missing:
                raise ManifestError(
                    f"line {lineno}: missing field(s): {', '.join(missing)}", line=lineno
                )
            for k in _MANIFEST_FIELDS:
                if not isinstance(obj[k], str):
                    raise ManifestError(f"line {lineno}: field {k!r} must be a string", line=lineno)
            text_id = obj.get("text_id")
            if text_id is not None and not isinstance(text_id, str):
                raise ManifestError(f"line {lineno}: field 'text_id' must be a string", line=lineno)
            key = (obj["image_id"], obj["caption"])
            if key in seen:
                raise ManifestError(
                    f"line {lineno}: duplicate (image_id, caption) pair", line=lineno
                )
            seen.add(key)
            try:
                rec = CaptionRecord(
                    image_id=obj["image_id"],
                    caption=obj["caption"],
                    lang=obj["lang"],
                    split=obj["split"],
                    text_id=text_id,
                )
            except ValueError as e:
                raise ManifestError(f"line {lineno}: {e}", line=lineno) from e
            records.append(rec)
    return records


def save_manifest(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "image_id": rec.image_id,
                "caption": rec.caption,
                "lang": rec.lang,
                "split": rec.split,
            }
            if rec.text_id is not None:
                obj["text_id"] = rec.text_id
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


@dataclass
class EmbeddingStore:
    """An id-indexed matrix of fixed-dimension feature vectors.

    Vectors are copied to a read-only float64 array at construction; stores
    are safe to share across threads after that.
    """

    ids: list[str]
    vectors: np.ndarray
    kind: str

    def __post_init__(self):
        vec = np.array(self.vectors, dtype=np.float64, order="C", copy=True)
        if vec.ndim != 2:
            raise ShapeError(f"vectors must be 2-D, got shape {vec.shape}")
        if self.kind not in KIND_TO_CODE:
            raise ValueError(f"kind must be one of {sorted(KIND_TO_CODE)}, got {self.kind!r}")
        self.ids = list(self.ids)
        if len(self.ids) != vec.shape[0]:
            raise ShapeError(f"{len(self.ids)} ids for {vec.shape[0]} vector rows")
        if vec.shape[1] < 1:
            raise ShapeError("embedding dim must be positive")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("ids must be unique")
        if not all(isinstance(i, str) and i for i in self.ids):
            raise ValueError("ids must be non-empty strings")
        if not np.isfinite(vec).all():
            raise ValueError("vectors contain non-finite entries")
        vec.setflags(write=False)
        self.vectors = vec
        self._row_of = {id_: i for i, id_ in enumerate(self.ids)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self):
        return len(self.ids)

    def __contains__(self, id_):
        return id_ in self._row_of

    def index(self, ids) -> np.ndarray:
        """Row numbers of ``ids``, in order; the one id -> row lookup."""
        try:
            return np.array([self._row_of[i] for i in ids], dtype=np.intp)
        except KeyError as e:
            raise KeyError(f"id {e.args[0]!r} not in store") from None

    def row(self, id_) -> np.ndarray:
        return self.vectors[self.index([id_])[0]]

    def rows(self, ids) -> np.ndarray:
        """Gather rows for ``ids`` in order, as a fresh writable matrix."""
        return self.vectors[self.index(ids)]


_UNBOUNDED_READ = 1 << 16  # bytes; every id (u16 length) fits, so ids skip the bound


def _read_exact(fh, n, what):
    """Read exactly ``n`` bytes from a seekable binary file.

    A request larger than ``_UNBOUNDED_READ`` is first checked against the
    bytes left in the file, so a header that declares more data than the
    file holds raises TruncatedFileError without a large allocation.
    Smaller requests skip the check, because seeking to the end drops the
    read buffer and ids are read one at a time.
    """
    if n > _UNBOUNDED_READ:
        here = fh.tell()
        left = fh.seek(0, io.SEEK_END) - here
        fh.seek(here)
        if n > left:
            raise TruncatedFileError(f"file ends inside {what} (wanted {n} bytes, got {left})")
    data = fh.read(n)
    if len(data) != n:
        raise TruncatedFileError(f"file ends inside {what} (wanted {n} bytes, got {len(data)})")
    return data


def write_store(fh, store: EmbeddingStore):
    """Write a store to a binary file object (see module docstring)."""
    fh.write(
        _EMBED_HEADER.pack(
            EMBED_MAGIC, EMBED_VERSION, len(store), store.dim, KIND_TO_CODE[store.kind]
        )
    )
    fh.write(store.vectors.astype("<f4").tobytes(order="C"))
    for id_ in store.ids:
        raw = id_.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"id too long for u16 length prefix: {id_[:32]!r}...")
        fh.write(struct.pack("<H", len(raw)))
        fh.write(raw)


def read_store(fh) -> EmbeddingStore:
    """Read a store from a binary file object, leaving it positioned after the id block."""
    header = _read_exact(fh, _EMBED_HEADER.size, "header")
    magic, version, count, dim, kind_code = _EMBED_HEADER.unpack(header)
    if magic != EMBED_MAGIC:
        raise BadMagicError(f"expected magic {EMBED_MAGIC!r}, found {magic!r}")
    if version != EMBED_VERSION:
        raise FormatVersionError(f"unsupported embedding format version {version}")
    if dim < 1:
        raise DataFormatError("header declares non-positive dim")
    if kind_code not in CODE_TO_KIND:
        raise DataFormatError(f"unknown kind code {kind_code}")
    payload = _read_exact(fh, count * dim * 4, "vector payload")
    vectors = (
        np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(count, dim)
    )
    ids = []
    for i in range(count):
        prefix = fh.read(2)
        if len(prefix) == 0:
            raise IdCountMismatchError(
                f"header declares {count} ids but file ends after {i}"
            )
        if len(prefix) == 1:
            raise TruncatedFileError("file ends inside an id length prefix")
        (length,) = struct.unpack("<H", prefix)
        try:
            ids.append(_read_exact(fh, length, f"id {i}").decode("utf-8"))
        except UnicodeDecodeError as e:
            raise DataFormatError(f"id {i} is not valid UTF-8 ({e.reason})") from e
    return EmbeddingStore(ids=ids, vectors=vectors, kind=CODE_TO_KIND[kind_code])


def save_embeddings(store: EmbeddingStore, path):
    with open(path, "wb") as fh:
        write_store(fh, store)


def load_embeddings(path) -> EmbeddingStore:
    with open(path, "rb") as fh:
        store = read_store(fh)
        if fh.read(1):
            raise DataFormatError("trailing data after id block")
    return store


class Pair(NamedTuple):
    text_id: str
    image_id: str
    split: str


@dataclass
class PairedDataset:
    """Aligned image/text stores plus the caption-to-image ground truth.

    Each text id appears in exactly one pair (a caption has one true
    image); an image id may appear in many pairs.
    """

    image_store: EmbeddingStore
    text_store: EmbeddingStore
    pairs: list[Pair]

    def __post_init__(self):
        self.pairs = [Pair(*p) for p in self.pairs]
        seen_text = set()
        for p in self.pairs:
            if p.split not in VALID_SPLITS:
                raise ValueError(f"pair {p.text_id!r}: bad split {p.split!r}")
            if p.text_id in seen_text:
                raise ValueError(f"text id {p.text_id!r} appears in more than one pair")
            seen_text.add(p.text_id)
            if p.text_id not in self.text_store:
                raise ValueError(f"pair references unknown text id {p.text_id!r}")
            if p.image_id not in self.image_store:
                raise ValueError(f"pair references unknown image id {p.image_id!r}")

    def pairs_for_split(self, split) -> list[Pair]:
        if split not in VALID_SPLITS:
            raise ValueError(f"unknown split {split!r}; expected one of {VALID_SPLITS}")
        return [p for p in self.pairs if p.split == split]

    def split_rows(self, split) -> tuple[np.ndarray, np.ndarray]:
        """Image-store rows and text-store rows of a split's pairs, in pair order."""
        pairs = self.pairs_for_split(split)
        return (
            self.image_store.index([p.image_id for p in pairs]),
            self.text_store.index([p.text_id for p in pairs]),
        )

    def split_sizes(self) -> dict:
        return {s: len(self.pairs_for_split(s)) for s in VALID_SPLITS}


def pairs_from_manifest(records) -> list[Pair]:
    """Derive (text_id, image_id, split) pairs from manifest records.

    Records without an explicit text_id get the positional id
    ``"<image_id>#c<j>"`` where j counts that image's captions in record
    order.
    """
    counter = {}
    pairs = []
    for rec in records:
        j = counter.get(rec.image_id, 0)
        counter[rec.image_id] = j + 1
        text_id = rec.text_id if rec.text_id is not None else f"{rec.image_id}#c{j}"
        pairs.append(Pair(text_id=text_id, image_id=rec.image_id, split=rec.split))
    return pairs


def build_pairs(
    records,
    image_store: EmbeddingStore,
    text_store: EmbeddingStore,
    captions_per_image=5,
    allow_ragged=False,
) -> PairedDataset:
    """Pair a manifest with its stores, validating the caption-count rule.

    Images whose caption count differs from ``captions_per_image`` skew
    whole-dataset statistics, so they are rejected unless ``allow_ragged``.
    """
    pairs = pairs_from_manifest(records)
    if not allow_ragged:
        counts = {}
        for p in pairs:
            counts[p.image_id] = counts.get(p.image_id, 0) + 1
        ragged = sorted(i for i, c in counts.items() if c != captions_per_image)
        if ragged:
            shown = ", ".join(repr(i) for i in ragged[:5])
            more = "" if len(ragged) <= 5 else f" (+{len(ragged) - 5} more)"
            raise DataFormatError(
                f"{len(ragged)} image(s) do not have exactly {captions_per_image} "
                f"captions: {shown}{more}; pass allow_ragged to accept"
            )
    for p in pairs:
        if p.image_id not in image_store:
            raise DataFormatError(f"manifest references unknown image id {p.image_id!r}")
        if p.text_id not in text_store:
            raise DataFormatError(f"manifest implies text id {p.text_id!r} missing from text store")
    return PairedDataset(image_store=image_store, text_store=text_store, pairs=pairs)


def make_batches(ds: PairedDataset, split, batch_size, seed) -> np.ndarray:
    """One epoch of a split as seeded-shuffled batches of pair positions.

    Row b of the result holds the positions, in ``ds.split_rows(split)``
    order, of batch b's pairs. The shuffle is a SplitMix64 Fisher-Yates
    pass over the positions, so the same seed always yields the same batch
    sequence. A final short batch is dropped.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.array(shuffled(range(len(ds.pairs_for_split(split))), seed), dtype=np.intp)
    return order[: len(order) - len(order) % batch_size].reshape(-1, batch_size)


def synth_dataset(
    n_images,
    captions_per_image,
    latent_dim,
    img_dim,
    txt_dim,
    noise_sigma,
    seed,
    train_frac=0.8,
    val_frac=0.1,
) -> PairedDataset:
    """Generate a correlated image/text dataset standing in for encoder outputs.

    Per image a latent z ~ N(0, I) is drawn; the image feature is z @ A
    plus isotropic noise and each caption feature is z @ B plus its own
    noise, with A and B fixed seeded random maps scaled by 1/sqrt(latent).
    Splits are assigned per image (all captions of an image share a split)
    by a SplitMix64 shuffle of the image indices: the first
    round(train_frac * n) go to train, the next round(val_frac * n) to
    val, the rest to test. Everything is deterministic in ``seed``.
    """
    if n_images < 1 or captions_per_image < 1:
        raise ValueError("n_images and captions_per_image must be positive")
    if min(latent_dim, img_dim, txt_dim) < 1:
        raise ValueError("dims must be positive")
    if latent_dim > min(img_dim, txt_dim):
        raise ValueError(
            f"latent_dim {latent_dim} must not exceed min(img_dim, txt_dim) "
            f"= {min(img_dim, txt_dim)}"
        )
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if train_frac < 0 or val_frac < 0 or train_frac + val_frac > 1:
        raise ValueError("split fractions must be nonnegative and sum to at most 1")

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((latent_dim, img_dim)) / np.sqrt(latent_dim)
    b = rng.standard_normal((latent_dim, txt_dim)) / np.sqrt(latent_dim)
    z = rng.standard_normal((n_images, latent_dim))
    img = z @ a + noise_sigma * rng.standard_normal((n_images, img_dim))
    txt = np.repeat(z, captions_per_image, axis=0) @ b + noise_sigma * rng.standard_normal(
        (n_images * captions_per_image, txt_dim)
    )

    width = max(1, len(str(n_images - 1)))
    image_ids = [f"img{i:0{width}d}" for i in range(n_images)]

    n_train = round(train_frac * n_images)
    n_val = round(val_frac * n_images)
    order = shuffled(range(n_images), seed)
    split_of = {}
    for rank, i in enumerate(order):
        if rank < n_train:
            split_of[i] = "train"
        elif rank < n_train + n_val:
            split_of[i] = "val"
        else:
            split_of[i] = "test"

    text_ids = []
    pairs = []
    for i, img_id in enumerate(image_ids):
        for j in range(captions_per_image):
            text_id = f"{img_id}#c{j}"
            text_ids.append(text_id)
            pairs.append(Pair(text_id=text_id, image_id=img_id, split=split_of[i]))

    return PairedDataset(
        image_store=EmbeddingStore(ids=image_ids, vectors=img, kind="image_feature"),
        text_store=EmbeddingStore(ids=text_ids, vectors=txt, kind="text_feature"),
        pairs=pairs,
    )


def augment_dataset(ds: PairedDataset, sigma, copies, seed) -> PairedDataset:
    """Expand the train split with jittered image replicas.

    Every train image gains ``copies`` jittered rows; each train pair
    gains ``copies`` companion pairs whose captions are verbatim copies
    (ids suffixed ``"#aug<k>"``) bound one-to-one to the jittered images,
    keeping the one-pair-per-caption invariant. Val and test are untouched.

    Replicas are appended after the originals, grouped per source row in
    store order (row 0 copy 0, row 0 copy 1, row 1 copy 0, ...). With
    ``draws = default_rng(seed).standard_normal((n * copies, dim))`` over
    the n train images, copy k of the train image at store row r is
    ``vectors[r] + sigma * draws[j * copies + k]``, j being r's place among
    the train images. A feature-space stand-in for input-level
    augmentation; no claim of equivalence.
    """
    if copies == 0:
        return ds
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if copies < 0:
        raise ValueError("copies must be >= 0")
    images, texts = ds.image_store, ds.text_store
    train_pairs = ds.pairs_for_split("train")
    image_rows, text_rows = ds.split_rows("train")
    train_images = np.unique(image_rows)  # store order
    draws = np.random.default_rng(seed).standard_normal((len(train_images) * copies, images.dim))
    image_replicas = np.repeat(images.vectors[train_images], copies, axis=0) + sigma * draws
    text_replicas = np.repeat(texts.vectors[text_rows], copies, axis=0)
    image_store = EmbeddingStore(
        ids=images.ids + [f"{images.ids[r]}#aug{k}" for r in train_images for k in range(copies)],
        vectors=np.vstack([images.vectors, image_replicas]),
        kind=images.kind,
    )
    text_store = EmbeddingStore(
        ids=texts.ids + [f"{p.text_id}#aug{k}" for p in train_pairs for k in range(copies)],
        vectors=np.vstack([texts.vectors, text_replicas]),
        kind=texts.kind,
    )
    new_pairs = [
        Pair(text_id=f"{p.text_id}#aug{k}", image_id=f"{p.image_id}#aug{k}", split="train")
        for p in train_pairs
        for k in range(copies)
    ]
    return PairedDataset(
        image_store=image_store,
        text_store=text_store,
        pairs=list(ds.pairs) + new_pairs,
    )
