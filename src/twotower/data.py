"""Datasets: caption manifests, embedding stores, batching, synthesis.

Each input is checked where it enters: manifests by ``load_manifest``, a
column at a time, stores by ``EmbeddingStore``, pairs by ``PairedDataset``,
which resolves them to the store rows that ``split_rows`` gives training and
augmentation.

Each binary file is read once and parsed by ``_Reader``: a fault reads
``<file>: byte <offset>: <reason>``, the offset where the structure at fault
starts. A fault in a JSON-lines file reads ``<file>: line <n>: <reason>``.

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

import contextlib
import io
import json
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
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
    value_errors_as,
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
    the equations above in any language. ``splitmix64_below`` computes a
    run of draws with the same equations on arrays.
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


def splitmix64_below(seed, bounds) -> np.ndarray:
    """``[SplitMix64(seed).next_below(n) for n in bounds]``, as uint64 array arithmetic.

    Draw k (from 1) mixes state seed + k * 0x9E3779B97F4A7C15; numpy's
    uint64 ufuncs wrap modulo 2**64, as the equations ask.
    """
    u = np.uint64
    z = np.arange(1, len(bounds) + 1, dtype=u) * u(0x9E3779B97F4A7C15) + u(seed & SplitMix64._MASK)
    z = (z ^ (z >> u(30))) * u(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u(27))) * u(0x94D049BB133111EB)
    return (z ^ (z >> u(31))) % np.asarray(bounds, dtype=u)


def shuffled(items, seed):
    """Return a list with ``items`` in Fisher-Yates order driven by SplitMix64."""
    out = list(items)
    draws = splitmix64_below(seed, np.arange(len(out), 1, -1)).tolist()
    for i, j in zip(range(len(out) - 1, 0, -1), draws):
        out[i], out[j] = out[j], out[i]
    return out


_MANIFEST_FIELDS = ("image_id", "caption", "lang", "split")
_MANIFEST_COLUMNS = (*_MANIFEST_FIELDS, "text_id")
_CHUNK = 1024  # lines per scan; one chunk of text and values is alive at a time
_scan = json.JSONDecoder().scan_once  # json.loads' C scanner, without its whitespace skip
# json.loads' faults: not UTF-8 or JSON, an integer too long (ValueError), deep nesting
_JSON_FAULTS = (ValueError, RecursionError)


def _json_lines(path, parse, error):
    """``parse(chunks)`` of a JSON-lines file, each chunk a list of non-blank lines' values.

    ``parse`` takes the chunks in file order and returns what the file
    holds. The file is read and decoded once, and each line is scanned on
    its own, a chunk of lines at a time. On any fault, the same bytes are
    read line by line and ``parse`` starts afresh on one-value chunks, so
    the first fault in file order is the one raised: a line that is not
    UTF-8 JSON, nests too deep or holds an integer too long to convert, or
    whose value ``parse`` rejects with a KeyError, TypeError or ValueError,
    raises ``error`` as ``<path>: line <n>: <reason>`` with ``line`` n.
    Lines end at newline bytes.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return parse(_scanned(raw))
    except (KeyError, TypeError, *_JSON_FAULTS):
        return _by_line(raw, path, parse, error)


def _scanned(raw):
    """Chunks of the values of ``raw``'s non-blank lines; ValueError unless each holds one."""
    ends = (np.flatnonzero(np.frombuffer(raw, np.uint8) == 10)[_CHUNK - 1 :: _CHUNK] + 1).tolist()
    for start, end in zip([0, *ends], [*ends, len(raw)]):
        lines = raw[start:end].decode("utf-8").split("\n")
        # json.loads skips the same three around a value, and the newline
        text = [t for t in map(str.strip, lines, repeat(" \t\r")) if t]
        found = list(map(_scan, text, repeat(0)))  # a StopIteration from _scan ends it early
        if [stop for _, stop in found] != list(map(len, text)):
            raise ValueError("not one JSON value per line")
        yield [value for value, _ in found]


def _by_line(raw, path, parse, error):
    """``parse`` over one-value chunks, a line at a time, so a fault names its line."""
    lineno = 0

    def values():
        nonlocal lineno
        for lineno, line in enumerate(io.BytesIO(raw), start=1):
            line = line.decode("utf-8")
            if line.strip():
                yield [json.loads(line)]

    try:
        return parse(values())
    except (KeyError, TypeError, *_JSON_FAULTS) as e:
        reason = e
        if isinstance(e, UnicodeDecodeError):
            reason = f"not valid UTF-8 ({e.reason})"
        elif isinstance(e, json.JSONDecodeError):
            reason = f"invalid JSON ({e.msg})"
        raise error(f"{path}: line {lineno}: {reason}", line=lineno) from e


def _manifest_columns(chunks) -> dict:
    """Check manifest values a chunk at a time, each check over a whole chunk.

    On a one-value chunk each check raises the message of that line's
    fault, and the checks run in the order a single line is read.
    """
    columns = {k: [] for k in _MANIFEST_COLUMNS}
    seen = set()
    for values in chunks:
        if not all(map(isinstance, values, repeat(dict))):
            raise TypeError("expected a JSON object")
        try:
            chunk = [list(map(dict.__getitem__, values, repeat(k))) for k in _MANIFEST_FIELDS]
        except KeyError:
            has = dict.__contains__
            missing = [k for k in _MANIFEST_FIELDS if not all(map(has, values, repeat(k)))]
            raise ValueError(f"missing field(s): {', '.join(missing)}") from None
        chunk.append(list(map(dict.get, values, repeat("text_id"))))
        for k, col in zip(_MANIFEST_FIELDS, chunk):
            if not all(map(isinstance, col, repeat(str))):
                raise TypeError(f"field {k!r} must be a string")
        image_ids, captions, _, splits, text_ids = chunk
        if not all(map(isinstance, text_ids, repeat((str, type(None))))):
            raise TypeError("field 'text_id' must be a string")
        seen.update(zip(image_ids, captions))
        if len(seen) < len(columns["image_id"]) + len(values):
            raise ValueError("duplicate (image_id, caption) pair")
        if not all(image_ids):
            raise ValueError("image_id must be non-empty")
        bad = set(splits).difference(VALID_SPLITS)
        if bad:
            raise ValueError(f"split must be one of {VALID_SPLITS}, got {bad.pop()!r}")
        for col, part in zip(columns.values(), chunk):
            col += part
    return columns


def load_manifest(path) -> dict:
    """Parse a JSON-lines caption manifest into columns, in file order.

    Returns a list per column, keyed ``image_id``, ``caption``, ``lang``,
    ``split`` and ``text_id``; a line without a ``text_id`` gets the
    positional id ``"<image_id>#c<j>"``. Blank lines are skipped. Any
    malformed line, invalid UTF-8 included, raises ManifestError naming the
    file and the 1-based line; duplicate (image_id, caption) pairs are
    rejected.
    """
    columns = _json_lines(path, _manifest_columns, ManifestError)
    if None in columns["text_id"]:
        captions = {}
        for k, (image_id, text_id) in enumerate(zip(columns["image_id"], columns["text_id"])):
            j = captions[image_id] = captions.get(image_id, -1) + 1
            if text_id is None:
                columns["text_id"][k] = f"{image_id}#c{j}"
    return columns


def save_manifest(columns, path):
    """Write manifest ``columns``, as ``load_manifest`` returns them, one line per row."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in zip(*(columns[k] for k in _MANIFEST_COLUMNS)):
            fh.write(json.dumps(dict(zip(_MANIFEST_COLUMNS, row)), ensure_ascii=False) + "\n")


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
        self._row_of = dict(zip(self.ids, range(len(self.ids))))
        if len(self._row_of) != len(self.ids):
            raise ValueError("ids must be unique")
        # every id a str, and none empty: two passes that run in C
        if not (all(map(isinstance, self.ids, repeat(str))) and all(self.ids)):
            raise ValueError("ids must be non-empty strings")
        if not np.isfinite(vec).all():
            raise ValueError("vectors contain non-finite entries")
        vec.setflags(write=False)
        self.vectors = vec

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


class _Reader:
    """A whole binary file's bytes, its name and a position; sizes are bounded by the bytes left."""

    def __init__(self, data, name):
        self.data, self.name, self.pos = data, name, 0

    def fail(self, kind, at, reason):
        """``kind`` for a fault in the structure that starts at byte ``at``."""
        return kind(f"{self.name}: byte {at}: {reason}")

    def take(self, n, what, at):
        """The next ``n`` bytes, without a copy; ``at`` is where ``what`` starts."""
        left = len(self.data) - self.pos
        if n > left:
            reason = f"file ends inside {what} (wanted {n} bytes, got {left})"
            raise self.fail(TruncatedFileError, at, reason)
        self.pos += n
        return memoryview(self.data)[self.pos - n : self.pos]

    def unpack(self, fmt, what):
        """The fields of the ``struct.Struct`` ``fmt`` at the read position."""
        return fmt.unpack(self.take(fmt.size, what, self.pos))

    def end(self, reason):
        """Raise unless every byte has been read."""
        if self.pos != len(self.data):
            raise self.fail(DataFormatError, self.pos, reason)

    @contextlib.contextmanager
    def contents(self):
        """Re-raise a ValueError from building the parsed contents, naming the file."""
        try:
            yield
        except ValueError as e:
            raise DataFormatError(f"{self.name}: {e}") from e


def _read(path) -> _Reader:
    with open(path, "rb") as fh:
        return _Reader(fh.read(), path)


@contextlib.contextmanager
def _write_atomic(path):
    """Open ``path`` for binary writing; it holds the new bytes or its old ones.

    Writes go to a temporary file beside ``path`` that replaces it on a
    clean exit and is removed on error. No fsync: this survives a crash of
    the process, not of the machine.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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


def read_store(r: _Reader):
    """A store's (ids, float32 vectors, kind) from the start of ``r``, leaving it past the ids."""
    magic, version, count, dim, kind_code = r.unpack(_EMBED_HEADER, "header")
    if magic != EMBED_MAGIC:
        raise r.fail(BadMagicError, 0, f"expected magic {EMBED_MAGIC!r}, found {magic!r}")
    if version != EMBED_VERSION:
        raise r.fail(FormatVersionError, 0, f"unsupported embedding format version {version}")
    if dim < 1:
        raise r.fail(DataFormatError, 0, "header declares non-positive dim")
    if kind_code not in CODE_TO_KIND:
        raise r.fail(DataFormatError, 0, f"unknown kind code {kind_code}")
    payload = r.take(count * dim * 4, "vector payload", r.pos)
    # float32 view of the file bytes; the store makes the one float64 copy
    vectors = np.frombuffer(payload, dtype="<f4").reshape(count, dim)
    data, end, pos = r.data, len(r.data), r.pos  # inline: a take per id is 2x slower
    ids = []
    for i in range(count):
        if pos + 2 > end:
            if pos == end:
                reason = f"header declares {count} ids but file ends after {i}"
                raise r.fail(IdCountMismatchError, pos, reason)
            raise r.fail(TruncatedFileError, pos, "file ends inside an id length prefix")
        length = data[pos] | data[pos + 1] << 8
        pos += 2
        stop = pos + length
        if stop > end:
            reason = f"file ends inside id {i} (wanted {length} bytes, got {end - pos})"
            raise r.fail(TruncatedFileError, pos - 2, reason)
        try:
            ids.append(data[pos:stop].decode("utf-8"))
        except UnicodeDecodeError as e:
            raise r.fail(DataFormatError, pos - 2, f"id {i} is not valid UTF-8 ({e.reason})") from e
        pos = stop
    r.pos = pos
    return ids, vectors, CODE_TO_KIND[kind_code]


def save_embeddings(store: EmbeddingStore, path):
    with _write_atomic(path) as fh:
        write_store(fh, store)


def load_embeddings(path) -> EmbeddingStore:
    r = _read(path)
    ids, vectors, kind = read_store(r)
    r.end("trailing data after id block")
    with r.contents():
        return EmbeddingStore(ids=ids, vectors=vectors, kind=kind)


class Pair(NamedTuple):
    text_id: str
    image_id: str
    split: str


@dataclass
class PairedDataset:
    """Aligned image/text stores plus the caption-to-image ground truth.

    Each text id appears in exactly one pair (a caption has one true
    image); an image id may appear in many pairs. Building the dataset
    checks every pair and resolves it to its store rows; pairs and stores
    are fixed from then on.
    """

    image_store: EmbeddingStore
    text_store: EmbeddingStore
    pairs: list[Pair]
    _rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.pairs = list(self.pairs)
        text_ids, image_ids, splits = tuple(zip(*self.pairs)) or ((), (), ())
        images = list(map(self.image_store._row_of.get, image_ids))
        texts = list(map(self.text_store._row_of.get, text_ids))
        if (None in images or None in texts or len(set(text_ids)) < len(text_ids)
                or not set(splits).issubset(VALID_SPLITS)):
            self._first_bad_pair()
        rows = np.array([images, texts], dtype=np.intp)
        of_split = np.array(list(map(VALID_SPLITS.index, splits)), dtype=np.intp)
        self._rows = {}
        for k, s in enumerate(VALID_SPLITS):
            both = rows.compress(of_split == k, axis=1)
            both.setflags(write=False)
            self._rows[s] = tuple(both)

    def _first_bad_pair(self):
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
        """Image-store rows and text-store rows of a split's pairs, in pair order.

        Resolved when the dataset is built; every call returns the same
        read-only arrays.
        """
        if split not in VALID_SPLITS:
            raise ValueError(f"unknown split {split!r}; expected one of {VALID_SPLITS}")
        return self._rows[split]

    def split_sizes(self) -> dict:
        return {s: len(rows) for s, (rows, _) in self._rows.items()}


def build_pairs(
    manifest,
    image_store: EmbeddingStore,
    text_store: EmbeddingStore,
    captions_per_image=5,
    allow_ragged=False,
) -> PairedDataset:
    """Pair manifest columns with their stores, validating the caption-count rule.

    Images whose caption count differs from ``captions_per_image`` skew
    whole-dataset statistics, so they are rejected unless ``allow_ragged``.
    """
    image_ids = manifest["image_id"]
    if not allow_ragged:
        ragged = sorted(i for i, c in Counter(image_ids).items() if c != captions_per_image)
        if ragged:
            shown = ", ".join(repr(i) for i in ragged[:5])
            more = "" if len(ragged) <= 5 else f" (+{len(ragged) - 5} more)"
            raise DataFormatError(
                f"{len(ragged)} image(s) do not have exactly {captions_per_image} "
                f"captions: {shown}{more}; pass allow_ragged to accept"
            )
    pairs = list(map(Pair, manifest["text_id"], image_ids, manifest["split"]))
    with value_errors_as(DataFormatError):
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
    order = np.array(shuffled(range(len(ds.split_rows(split)[0])), seed), dtype=np.intp)
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
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if copies < 0:
        raise ValueError("copies must be >= 0")
    if copies == 0:
        return ds
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
