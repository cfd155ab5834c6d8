"""Datasets: caption manifests, embedding stores, batching, synthesis.

Each input is checked where it enters: manifests by ``load_manifest``, a
column at a time, stores by ``EmbeddingStore``, pairs by ``PairedDataset``.
A dataset's pairs are the manifest's three pair columns (text id, image id,
split); it resolves them to the store rows that ``split_rows`` gives
training and augmentation, and ``judgments`` gives a split's ground truth
for evaluation.

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
import errno
import io
import json
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

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
from .metrics import QueryJudgment

VALID_SPLITS = ("train", "val", "test")

KIND_TO_CODE = {"image_feature": 0, "text_feature": 1, "projected": 2}
CODE_TO_KIND = {v: k for k, v in KIND_TO_CODE.items()}

EMBED_MAGIC = b"AZEB"
EMBED_VERSION = 1
_EMBED_HEADER = struct.Struct("<4sIQIB7x")


def splitmix64_below(seed, bounds) -> np.ndarray:
    """Draws of SplitMix64, a 64-bit generator with a published update rule, one per bound.

    All arithmetic is modulo 2**64, from ``state = seed``:

        state  = state + 0x9E3779B97F4A7C15
        z      = state
        z      = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z      = (z ^ (z >> 27)) * 0x94D049BB133111EB
        output = z ^ (z >> 31)

    and draw k is ``output % bounds[k]``; the modulo bias is below
    n / 2**64, negligible at any feasible bound n. Every shuffle in this
    package runs on this generator so that batch order is a stable,
    documented function of the seed, reproducible from the equations
    above in any language. Draw k (from 1) mixes state seed + k *
    0x9E3779B97F4A7C15, so all draws run at once as uint64 array
    arithmetic; numpy's uint64 ufuncs wrap modulo 2**64, as the equations
    ask.
    """
    u = np.uint64
    z = np.arange(1, len(bounds) + 1, dtype=u) * u(0x9E3779B97F4A7C15) + u(seed & (2**64 - 1))
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
    with _write_atomic(path) as fh:
        for row in zip(*(columns[k] for k in _MANIFEST_COLUMNS)):
            line = json.dumps(dict(zip(_MANIFEST_COLUMNS, row)), ensure_ascii=False)
            fh.write(f"{line}\n".encode("utf-8"))


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
            seen = set()
            r = next(r for r, i in enumerate(self.ids) if i in seen or seen.add(i))
            raise ValueError(f"ids must be unique; id {self.ids[r]!r} repeats at row {r}")
        # every id a str (join raises TypeError for exactly the others), and
        # none empty: two passes that run in C
        try:
            "".join(self.ids)
            bad = not all(self.ids)
        except TypeError:
            bad = True
        if bad:
            r = next(r for r, i in enumerate(self.ids) if not (isinstance(i, str) and i))
            raise ValueError(f"ids must be non-empty strings; row {r} holds {self.ids[r]!r}")
        if not np.isfinite(vec).all():
            r = int(np.flatnonzero(~np.isfinite(vec).all(axis=1))[0])
            raise ValueError(f"vectors contain non-finite entries; first at row {r}, id {self.ids[r]!r}")
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


def _read(path) -> _Reader:
    with open(path, "rb") as fh:
        return _Reader(fh.read(), path)


def _open_beside(path):
    """(name, handle) of a new temporary file beside ``path``; a fault names ``path``."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        return tmp, open(tmp, "xb")
    except OSError as e:
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None


@contextlib.contextmanager
def _write_atomic(path):
    """Open ``path`` for binary writing; it holds the new bytes or its old ones.

    Writes go to a temporary file beside ``path`` that replaces it on a
    clean exit and is removed on error; a fault in making or placing it
    names ``path``. No fsync: this survives a crash of the process, not of
    the machine.
    """
    tmp, fh = _open_beside(path)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        os.unlink(tmp)
        if isinstance(e, OSError) and e.filename == tmp:
            raise OSError(e.errno, e.strerror, os.fspath(path)) from None
        raise


def _check_writable(path):
    """Raise now the fault that ``_write_atomic(path)`` would meet, and write nothing.

    The temporary file is made and removed; its replace onto ``path``
    fails for an empty path or a directory, which are checked directly.
    """
    p = os.fspath(path)
    if not p or os.path.isdir(p):
        code = errno.EISDIR if p else errno.ENOENT
        raise OSError(code, os.strerror(code), p)
    tmp, fh = _open_beside(p)
    fh.close()
    os.unlink(tmp)


def write_store(fh, store: EmbeddingStore):
    """Write a store to a binary file object (see module docstring).

    The id block is built in one array pass, and checked before any byte
    is written: a lone surrogate raises UnicodeEncodeError, and an id of
    over 65,535 UTF-8 bytes a ValueError naming the first such id.
    """
    # Each id's bytes behind two 0xFF bytes, which hold its length prefix
    # once the lengths are known: UTF-8 never holds a 0xFF byte, so the
    # 0xFF bytes are exactly the prefixes' bytes, in pairs.
    joined = b"\xff\xff".join([b"", *map(str.encode, store.ids)])
    block = np.frombuffer(bytearray(joined), np.uint8)
    starts = np.flatnonzero(block == 0xFF)[::2]
    lengths = np.diff(starts, append=block.size) - 2
    too_long = np.flatnonzero(lengths > 0xFFFF)
    if too_long.size:
        id_ = store.ids[too_long[0]]
        raise ValueError(f"id too long for u16 length prefix: {id_[:32]!r}...")
    block[starts] = lengths & 0xFF
    block[starts + 1] = lengths >> 8
    fh.write(
        _EMBED_HEADER.pack(
            EMBED_MAGIC, EMBED_VERSION, len(store), store.dim, KIND_TO_CODE[store.kind]
        )
    )
    fh.write(store.vectors.astype("<f4"))  # C order, as the store keeps it
    fh.write(block)


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
    ids = _fixed_width_ids(r, count)
    if ids is None:
        ids = _ids_one_by_one(r, count)
    return ids, vectors, CODE_TO_KIND[kind_code]


def _fixed_width_ids(r: _Reader, count):
    """The id block at the read position in one array pass, or None to read it id by id.

    With L the first length prefix, the block is taken as ``count`` ids of L
    bytes when its ``count * (L + 2)`` bytes are there, every prefix on that
    grid is L and every id byte is ASCII; each id then decodes as one byte
    per character. Any other block, faults included, returns None.
    """
    data, pos = r.data, r.pos
    if pos + 2 > len(data):
        return None
    width = data[pos] | data[pos + 1] << 8
    stride = width + 2
    if pos + count * stride > len(data):
        return None
    prefixes = np.ndarray((count,), "<u2", data, pos, (stride,))
    cells = np.ndarray((count, width), np.uint8, data, pos + 2, (stride, 1))
    if not ((prefixes == width).all() and (cells < 0x80).all()):
        return None
    # each id, then 0x80, which no ASCII id holds, to split on; numpy's "S"
    # dtype would drop an id's trailing NUL bytes
    delimited = np.full((count, width + 1), 0x80, np.uint8)
    delimited[:, :width] = cells
    r.pos = pos + count * stride
    return delimited.tobytes().decode("latin-1").split("\x80")[:-1]


def _ids_one_by_one(r: _Reader, count):
    """The id block at the read position, id by id; each fault names its id and offset."""
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
    return ids


def save_embeddings(store: EmbeddingStore, path):
    with _write_atomic(path) as fh:
        write_store(fh, store)


def load_embeddings(path) -> EmbeddingStore:
    r = _read(path)
    ids, vectors, kind = read_store(r)
    r.end("trailing data after id block")
    with value_errors_as(DataFormatError, f"{r.name}: "):
        return EmbeddingStore(ids=ids, vectors=vectors, kind=kind)


def split_judgments(text_ids, image_ids, splits, split) -> list[QueryJudgment]:
    """A judgment per pair of ``split``, in pair order: its image is the one relevant and correct."""
    if split not in VALID_SPLITS:
        raise ValueError(f"unknown split {split!r}; expected one of {VALID_SPLITS}")
    return [QueryJudgment(t, frozenset({i}), i) for t, i, s in zip(text_ids, image_ids, splits)
            if s == split]


@dataclass
class PairedDataset:
    """Aligned image/text stores plus the caption-to-image ground truth.

    The ground truth is the manifest's three pair columns, of equal length:
    pair k binds caption ``text_ids[k]`` to image ``image_ids[k]`` in split
    ``splits[k]``. Each text id appears in exactly one pair (a caption has
    one true image); an image id may appear in many pairs. Building the
    dataset checks every pair and resolves it to its store rows; pairs and
    stores are fixed from then on.
    """

    image_store: EmbeddingStore
    text_store: EmbeddingStore
    text_ids: list[str]
    image_ids: list[str]
    splits: list[str]
    _rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.text_ids, self.image_ids, self.splits = map(list, (self.text_ids, self.image_ids, self.splits))
        if not len(self.text_ids) == len(self.image_ids) == len(self.splits):
            raise ValueError(f"pair columns differ in length: {len(self.text_ids)} text ids, "
                             f"{len(self.image_ids)} image ids, {len(self.splits)} splits")
        images = list(map(self.image_store._row_of.get, self.image_ids))
        texts = list(map(self.text_store._row_of.get, self.text_ids))
        if (None in images or None in texts or len(set(self.text_ids)) < len(self.text_ids)
                or not set(self.splits).issubset(VALID_SPLITS)):
            self._first_bad_pair()
        rows = np.array([images, texts], dtype=np.intp)
        of_split = np.array(list(map(VALID_SPLITS.index, self.splits)), dtype=np.intp)
        self._rows = {}
        for k, s in enumerate(VALID_SPLITS):
            both = rows.compress(of_split == k, axis=1)
            both.setflags(write=False)
            self._rows[s] = tuple(both)

    def _first_bad_pair(self):
        seen_text = set()
        for text_id, image_id, split in zip(self.text_ids, self.image_ids, self.splits):
            if split not in VALID_SPLITS:
                raise ValueError(f"pair {text_id!r}: bad split {split!r}")
            if text_id in seen_text:
                raise ValueError(f"text id {text_id!r} appears in more than one pair")
            seen_text.add(text_id)
            if text_id not in self.text_store:
                raise ValueError(f"pair references unknown text id {text_id!r}")
            if image_id not in self.image_store:
                raise ValueError(f"pair references unknown image id {image_id!r}")

    def judgments(self, split) -> list[QueryJudgment]:
        """One singleton judgment per pair of ``split``, in pair order (see ``split_judgments``)."""
        return split_judgments(self.text_ids, self.image_ids, self.splits, split)

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
    """The dataset of the manifest's pair columns over their stores, checking the caption-count rule.

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
    with value_errors_as(DataFormatError):
        return PairedDataset(image_store, text_store, manifest["text_id"], image_ids, manifest["split"])


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


def check_synth(n_images, captions_per_image, latent_dim, img_dim, txt_dim, noise_sigma,
                train_frac=0.8, val_frac=0.1):
    """Raise ValueError unless ``synth_dataset`` takes these sizes, noise and split fractions."""
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
    check_synth(n_images, captions_per_image, latent_dim, img_dim, txt_dim, noise_sigma,
                train_frac, val_frac)
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
    # the image at shuffle rank r takes the r-th split of this list (zip stops at n_images)
    by_rank = ["train"] * n_train + ["val"] * n_val + ["test"] * n_images
    split_of = dict(zip(shuffled(range(n_images), seed), by_rank))

    text_ids = [f"{img_id}#c{j}" for img_id in image_ids for j in range(captions_per_image)]
    return PairedDataset(
        image_store=EmbeddingStore(ids=image_ids, vectors=img, kind="image_feature"),
        text_store=EmbeddingStore(ids=text_ids, vectors=txt, kind="text_feature"),
        text_ids=text_ids,
        image_ids=[img_id for img_id in image_ids for _ in range(captions_per_image)],
        splits=[split_of[i] for i in range(n_images) for _ in range(captions_per_image)],
    )


def check_augment(sigma, copies):
    """Raise ValueError unless ``augment_dataset`` takes this ``sigma`` and ``copies``."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if copies < 0:
        raise ValueError("copies must be >= 0")


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
    check_augment(sigma, copies)
    if copies == 0:
        return ds
    images, texts = ds.image_store, ds.text_store
    image_rows, text_rows = ds.split_rows("train")
    train_images = np.unique(image_rows)  # store order
    draws = np.random.default_rng(seed).standard_normal((len(train_images) * copies, images.dim))
    image_replicas = np.repeat(images.vectors[train_images], copies, axis=0) + sigma * draws
    text_replicas = np.repeat(texts.vectors[text_rows], copies, axis=0)
    new_text_ids = [f"{texts.ids[r]}#aug{k}" for r in text_rows.tolist() for k in range(copies)]
    new_image_ids = [f"{images.ids[r]}#aug{k}" for r in image_rows.tolist() for k in range(copies)]
    image_store = EmbeddingStore(
        ids=images.ids + [f"{images.ids[r]}#aug{k}" for r in train_images for k in range(copies)],
        vectors=np.vstack([images.vectors, image_replicas]),
        kind=images.kind,
    )
    text_store = EmbeddingStore(
        ids=texts.ids + new_text_ids,
        vectors=np.vstack([texts.vectors, text_replicas]),
        kind=texts.kind,
    )
    return PairedDataset(
        image_store=image_store,
        text_store=text_store,
        text_ids=ds.text_ids + new_text_ids,
        image_ids=ds.image_ids + new_image_ids,
        splits=ds.splits + ["train"] * len(new_text_ids),
    )
