"""Seeded synthetic inputs, written in the package's documented file formats.

The benchmark writes its own stores and manifests rather than calling the
package's generator or writers, so the program under test sees only files
and the inputs stay fixed when the package changes. The feature model
matches the package's synthetic data: per image a latent z ~ N(0, I), image
feature z @ A + noise, caption features z @ B + noise.
"""

import json
import struct
from pathlib import Path

import numpy as np

LATENT_DIM = 16
IMG_DIM = 64
TXT_DIM = 48
CAPTIONS = 5
ENCODER_SEED = 0

EMBED_HEADER = struct.Struct("<4sIQIB7x")  # magic, version, count, dim, kind, 7 zero bytes
KIND_CODES = {"image_feature": 0, "text_feature": 1, "projected": 2}


def write_store(path, ids, vectors, kind):
    """Write an embedding store: AZEB header, float32 rows, u16-prefixed UTF-8 ids."""
    vectors = np.ascontiguousarray(vectors, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(EMBED_HEADER.pack(b"AZEB", 1, len(ids), vectors.shape[1], KIND_CODES[kind]))
        fh.write(vectors.tobytes())
        for id_ in ids:
            raw = id_.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)


def write_manifest(path, rows):
    """``rows`` are (image_id, text_id, split) triples, one caption each."""
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, text_id, split in rows:
            fh.write(json.dumps({"image_id": image_id, "caption": f"caption {text_id}",
                                 "lang": "x-bench", "split": split, "text_id": text_id}) + "\n")


def write_judgments(path, rows):
    """``rows`` are (query_id, image_id) pairs with a singleton relevant set."""
    with open(path, "w", encoding="utf-8") as fh:
        for query_id, image_id in rows:
            fh.write(json.dumps({"query_id": query_id, "relevant_ids": [image_id],
                                 "correct_id": image_id}) + "\n")


class Features:
    """Latent-factor image and caption features for ``n_images`` images.

    The maps A and B stand for the two encoders and are the same for every
    seed, so seeds vary the items, not how hard the encoders make them to
    match; quality then moves little from seed to seed.
    """

    def __init__(self, n_images, noise_sigma, seed):
        encoders = np.random.default_rng(ENCODER_SEED)
        self.a = encoders.standard_normal((LATENT_DIM, IMG_DIM)) / np.sqrt(LATENT_DIM)
        self.b = encoders.standard_normal((LATENT_DIM, TXT_DIM)) / np.sqrt(LATENT_DIM)
        self.rng = np.random.default_rng(seed)
        self.noise = noise_sigma
        self.z = self.rng.standard_normal((n_images, LATENT_DIM))
        width = len(str(n_images - 1))
        self.image_ids = [f"img{i:0{width}d}" for i in range(n_images)]
        self.images = self.z @ self.a + noise_sigma * self.rng.standard_normal((n_images, IMG_DIM))

    def captions(self, rows, per_image):
        """Caption features for image ``rows``, ``per_image`` each, image-major."""
        z = np.repeat(self.z[rows], per_image, axis=0)
        return z @ self.b + self.noise * self.rng.standard_normal((len(z), TXT_DIM))

    def split_order(self):
        return self.rng.permutation(len(self.image_ids))


def paired_dataset(out, n_images, noise_sigma, seed, n_queries):
    """Images, captions and manifest with an 80/10/10 image split.

    Also writes ``queries.emb``: caption 0 of up to ``n_queries`` test
    images, the query store for single-query calls. Returns a summary dict.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    f = Features(n_images, noise_sigma, seed)
    order = f.split_order()
    n_train, n_val = round(0.8 * n_images), round(0.1 * n_images)
    split = np.empty(n_images, dtype=object)
    split[order[:n_train]] = "train"
    split[order[n_train:n_train + n_val]] = "val"
    split[order[n_train + n_val:]] = "test"

    rows = np.arange(n_images)
    texts = f.captions(rows, CAPTIONS)
    text_ids = [f"{f.image_ids[i]}#c{j}" for i in rows for j in range(CAPTIONS)]
    write_store(out / "images.emb", f.image_ids, f.images, "image_feature")
    write_store(out / "texts.emb", text_ids, texts, "text_feature")
    write_manifest(out / "manifest.jsonl",
                   [(f.image_ids[i], text_ids[i * CAPTIONS + j], split[i])
                    for i in rows for j in range(CAPTIONS)])

    test_rows = [int(i) for i in rows if split[i] == "test"][:n_queries]
    query_rows = [i * CAPTIONS for i in test_rows]
    query_ids = [text_ids[r] for r in query_rows]
    write_store(out / "queries.emb", query_ids, texts[query_rows], "text_feature")
    return {
        "images": n_images,
        "captions": len(text_ids),
        "test_queries": sum(1 for s in split if s == "test") * CAPTIONS,
        "single_queries": len(query_ids),
        "noise_sigma": noise_sigma,
        "dims": {"latent": LATENT_DIM, "image": IMG_DIM, "text": TXT_DIM},
    }
