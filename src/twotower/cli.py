"""Command-line pipelines: synth, ingest, train, index, query, eval.

Configuration is a JSON document with sections ``data``, ``model``,
``loss``, ``train``, ``eval`` and a top-level ``seed``; every field is
optional and falls back to the documented defaults below. Unknown keys are
rejected. Flags override the config file (flags win). The effective config
is echoed into every artifact that has room for it, and each JSON artifact
isolates its non-deterministic fields (timestamps, timings) under a
``meta`` key so reruns are byte-comparable.

Derived seeds, from the top-level seed s: data synthesis uses s, model
init s+1, batch shuffling s+2, feature jitter s+3.

Exit codes: 0 success, 1 usage or config error, 2 file or format error,
3 numeric divergence, 4 index/model fingerprint mismatch. Failures print
one JSON line to stderr: {"error": <kind>, "message": <text>}.

Queries take embeddings, not raw text: this package operates downstream of
the encoders, so a query is an inline JSON vector or a row of a text
embedding store. There is no tokenizer here.
"""

import argparse
import copy
import json
import math
import sys
import time
from itertools import chain
from pathlib import Path

import numpy as np

from .data import (
    _JSON_FAULTS,
    _json_lines,
    augment_dataset,
    build_pairs,
    load_embeddings,
    load_manifest,
    save_embeddings,
    save_manifest,
    synth_dataset,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DivergenceError,
    FingerprintMismatchError,
    TwoTowerError,
    value_errors_as,
)
from .loss import LossConfig
from .metrics import QueryJudgment, format_table, judgments_by_id
from .model import init_model, load_checkpoint
from .retrieval import build_index, evaluate, load_index, query, save_index
from .train import TrainConfig, train

DEFAULT_CONFIG = {
    "seed": 42,
    "data": {
        "synth": {
            "n_images": 200,
            "captions_per_image": 5,
            "latent_dim": 16,
            "img_dim": 64,
            "txt_dim": 48,
            "noise_sigma": 0.05,
            "train_frac": 0.8,
            "val_frac": 0.1,
        },
        "augment": {"sigma": 0.0, "copies": 0},
        "captions_per_image": 5,
        "allow_ragged": False,
    },
    # encoder names are provenance only: features arrive precomputed
    "model": {"shared_dim": 32, "image_encoder": "precomputed", "text_encoder": "precomputed"},
    # the loss and train sections are the dataclass defaults; the config says lambda for lam
    "loss": {"lambda" if k == "lam" else k: v for k, v in vars(LossConfig()).items()},
    "train": {
        k: v for k, v in vars(TrainConfig()).items()
        if k not in ("seed", "loss", "checkpoint_path", "log_path")  # set per run by cmd_train
    },
    "eval": {"split": "test", "dataset_name": "dataset"},
}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3
EXIT_FINGERPRINT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _same_kind(default, value):
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, str):
        return isinstance(value, str)
    return True


def _merge_config(base, override, path=""):
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            out[key] = _merge_config(base[key], value, where)
        else:
            if not _same_kind(base[key], value):
                raise ConfigError(
                    f"config key {where!r} has the wrong type "
                    f"(expected {type(base[key]).__name__})"
                )
            out[key] = value
    return out


def _parse_set(expr):
    if "=" not in expr:
        raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {expr!r}")
    dotted, raw = expr.split("=", 1)
    keys = dotted.strip().split(".")
    try:
        value = json.loads(raw)
    except _JSON_FAULTS:
        value = raw  # bare strings are convenient: --set loss.margin_mode=literal
    node = value
    for key in reversed(keys):
        node = {key.strip(): node}
    return node


def effective_config(args) -> dict:
    """DEFAULT_CONFIG, overlaid with the config file, then --set/--seed flags."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "rb") as fh:
            raw = fh.read()
        try:
            user = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as e:
            reason = f"config file is not valid UTF-8 ({e.reason})"
            raise DataFormatError(f"{config_path}: {reason}") from e
        except _JSON_FAULTS as e:
            reason = f"config file is not valid JSON: {getattr(e, 'msg', e)}"
            raise DataFormatError(f"{config_path}: {reason}") from e
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg = _merge_config(cfg, user)
    for expr in getattr(args, "set", None) or []:
        cfg = _merge_config(cfg, _parse_set(expr))
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return cfg


def _meta_block() -> dict:
    return {"created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_store(path, kind):
    store = load_embeddings(path)
    if store.kind != kind:
        raise DataFormatError(f"{path}: expected a store of kind {kind!r}, got {store.kind!r}")
    return store


def _load_dataset(args, cfg):
    return build_pairs(
        load_manifest(args.manifest),
        _load_store(args.images, "image_feature"),
        _load_store(args.texts, "text_feature"),
        captions_per_image=cfg["data"]["captions_per_image"],
        allow_ragged=cfg["data"]["allow_ragged"] or args.allow_ragged,
    )


def cmd_synth(args) -> int:
    cfg = effective_config(args)
    s = cfg["data"]["synth"]
    with value_errors_as(ConfigError):
        ds = synth_dataset(
            n_images=s["n_images"],
            captions_per_image=s["captions_per_image"],
            latent_dim=s["latent_dim"],
            img_dim=s["img_dim"],
            txt_dim=s["txt_dim"],
            noise_sigma=s["noise_sigma"],
            seed=cfg["seed"],
            train_frac=s["train_frac"],
            val_frac=s["val_frac"],
        )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_embeddings(ds.image_store, out / "images.emb")
    save_embeddings(ds.text_store, out / "texts.emb")
    text_ids, image_ids, splits = zip(*ds.pairs)
    captions = [f"synthetic caption {t.split('#c')[-1]} of {i}" for t, i, _ in ds.pairs]
    manifest = {"image_id": image_ids, "caption": captions, "lang": ["x-syn"] * len(captions),
                "split": splits, "text_id": text_ids}
    save_manifest(manifest, out / "manifest.jsonl")
    _write_json(
        out / "dataset.json",
        {
            "meta": _meta_block(),
            "config": cfg,
            "counts": {"images": len(ds.image_store), "captions": len(ds.text_store)},
            "splits": ds.split_sizes(),
            "files": {"images": "images.emb", "texts": "texts.emb", "manifest": "manifest.jsonl"},
        },
    )
    print(json.dumps({"out_dir": str(out), "images": len(ds.image_store), "captions": len(ds.text_store)}))
    return EXIT_OK


def cmd_ingest(args) -> int:
    cfg = effective_config(args)
    ds = _load_dataset(args, cfg)
    report = {
        "meta": _meta_block(),
        "config": cfg,
        "counts": {
            "images": len(ds.image_store),
            "captions": len(ds.text_store),
            "pairs": len(ds.pairs),
        },
        "splits": ds.split_sizes(),
        "dims": {"image": ds.image_store.dim, "text": ds.text_store.dim},
    }
    if args.out:
        _write_json(args.out, report)
    print(json.dumps({k: report[k] for k in ("counts", "splits", "dims")}))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = effective_config(args)
    ds = _load_dataset(args, cfg)
    if not ds.split_sizes()["train"]:
        raise DataFormatError(f"{args.manifest}: no pairs in split 'train'")
    aug, loss = cfg["data"]["augment"], dict(cfg["loss"])
    with value_errors_as(ConfigError):
        ds = augment_dataset(ds, sigma=aug["sigma"], copies=aug["copies"], seed=cfg["seed"] + 3)
        model = init_model(
            img_dim=ds.image_store.dim,
            txt_dim=ds.text_store.dim,
            shared_dim=cfg["model"]["shared_dim"],
            seed=cfg["seed"] + 1,
            meta={"config": cfg},
        )
        train_cfg = TrainConfig(
            **cfg["train"],
            seed=cfg["seed"] + 2,
            loss=LossConfig(lam=loss.pop("lambda"), **loss),
            checkpoint_path=str(args.checkpoint),
            log_path=str(args.log) if args.log else None,
        )
    best, report = train(model, ds, train_cfg)
    payload = report.as_dict()
    wall = payload.pop("wall_seconds")
    if args.report:
        _write_json(
            args.report,
            {"meta": {**_meta_block(), "wall_seconds": wall}, "config": cfg, "report": payload},
        )
    print(
        json.dumps(
            {
                "checkpoint": str(args.checkpoint),
                "best_val_loss": report.best_val_loss,
                "best_epoch": report.best_epoch,
            }
        )
    )
    return EXIT_OK


def cmd_index(args) -> int:
    model = load_checkpoint(args.checkpoint)
    index = build_index(model, _load_store(args.images, "image_feature"))
    save_index(index, args.out)
    print(json.dumps({"index": str(args.out), "size": len(index), "fingerprint": index.model_fingerprint}))
    return EXIT_OK


def _query_vector(args):
    if (args.embedding is None) == (args.text_id is None):
        raise _UsageError("provide exactly one of --embedding or --texts with --text-id")
    if args.embedding is not None:
        try:
            vec = json.loads(args.embedding, parse_int=float)  # a huge int reads as inf
        except _JSON_FAULTS as e:
            raise _UsageError(f"--embedding is not valid JSON: {getattr(e, 'msg', e)}") from e
        if not isinstance(vec, list) or not all(
            isinstance(x, float) and math.isfinite(x) for x in vec
        ):
            raise _UsageError("--embedding must be a JSON array of finite numbers")
        return np.asarray(vec, dtype=np.float64), "inline"
    if args.texts is None:
        raise _UsageError("--text-id requires --texts")
    store = _load_store(args.texts, "text_feature")
    if args.text_id not in store:
        raise DataFormatError(f"text id {args.text_id!r} not found in {args.texts}")
    return store.row(args.text_id), args.text_id


def cmd_query(args) -> int:
    if args.k < 1:
        raise _UsageError(f"--k must be >= 1, got {args.k}")
    index = load_index(args.index)
    model = load_checkpoint(args.checkpoint)
    vec, qid = _query_vector(args)
    result = query(index, model, vec, args.k, query_id=qid)
    print(
        json.dumps(
            {
                "query": result.query_id,
                "k": result.k,
                "hits": [{"id": i, "score": s} for i, s in result.hits],
            }
        )
    )
    return EXIT_OK


def _judgments(chunks) -> list:
    judgments = (
        QueryJudgment(query_id=o["query_id"], relevant_ids=o["relevant_ids"], correct_id=o["correct_id"])
        for o in chain.from_iterable(chunks)
    )
    return list(judgments_by_id(judgments).values())  # consumed lazily: a duplicate names its line


def _load_judgments(path) -> list:
    judgments = _json_lines(path, _judgments, DataFormatError)
    if not judgments:
        raise DataFormatError(f"{path}: no judgments")
    return judgments


def cmd_eval(args) -> int:
    cfg = effective_config(args)
    index = load_index(args.index)
    model = load_checkpoint(args.checkpoint)
    texts = _load_store(args.texts, "text_feature")
    split = args.split or cfg["eval"]["split"]

    if args.judgments:
        judgments = _load_judgments(args.judgments)
    elif args.manifest:
        manifest = load_manifest(args.manifest)
        text_ids = set()
        for t in manifest["text_id"]:
            if t in text_ids:
                raise DataFormatError(f"{args.manifest}: text id {t!r} appears in more than one pair")
            text_ids.add(t)
        judgments = [
            QueryJudgment(query_id=t, relevant_ids=frozenset({i}), correct_id=i)
            for t, i, s in zip(manifest["text_id"], manifest["image_id"], manifest["split"])
            if s == split
        ]
        if not judgments:
            raise DataFormatError(f"manifest has no pairs in split {split!r}")
    else:
        raise _UsageError("provide --judgments or --manifest to define ground truth")

    report = evaluate(index, model, texts, judgments)

    dataset_name = args.dataset_name or cfg["eval"]["dataset_name"]
    model_name = args.model_name or Path(args.checkpoint).stem
    metrics = report.as_dict()
    row = {"model": model_name, "dataset": dataset_name, **metrics}
    if args.report:
        _write_json(
            args.report,
            {
                "meta": _meta_block(),
                "config": cfg,
                "model": model_name,
                "dataset": dataset_name,
                "split": split,
                "metrics": metrics,
            },
        )
    print(format_table([row]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twotower", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON run config (default: built-in defaults)")
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override one config value, e.g. --set train.epochs=5 (default: no overrides)",
        )
        p.add_argument("--seed", type=int, default=None, help="override the top-level seed (default: 42)")

    p = sub.add_parser("synth", help="generate a synthetic paired dataset")
    add_common(p)
    p.add_argument("--out-dir", required=True, help="output directory for images.emb, texts.emb, manifest.jsonl")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate a manifest + embedding files as a paired dataset")
    add_common(p)
    p.add_argument("--manifest", required=True, help="caption manifest (JSON-lines)")
    p.add_argument("--images", required=True, help="image embedding store")
    p.add_argument("--texts", required=True, help="text embedding store")
    p.add_argument("--allow-ragged", action="store_true", help="accept images with a caption count other than data.captions_per_image (default: reject)")
    p.add_argument("--out", default=None, help="write a JSON ingest report here (default: stdout summary only)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train projection heads on a paired dataset")
    add_common(p)
    p.add_argument("--manifest", required=True, help="caption manifest (JSON-lines)")
    p.add_argument("--images", required=True, help="image embedding store")
    p.add_argument("--texts", required=True, help="text embedding store")
    p.add_argument("--allow-ragged", action="store_true", help="accept ragged caption counts (default: reject)")
    p.add_argument("--checkpoint", required=True, help="path for the best-validation checkpoint")
    p.add_argument("--log", default=None, help="JSON-lines training log path (default: no log)")
    p.add_argument("--report", default=None, help="JSON training report path (default: no report)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", help="project an image store and build a retrieval index")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--images", required=True, help="image embedding store (kind=image_feature)")
    p.add_argument("--out", required=True, help="index file path")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="rank indexed images against one text embedding")
    p.add_argument("--index", required=True, help="index file from the index command")
    p.add_argument("--checkpoint", required=True, help="the checkpoint that built the index")
    p.add_argument("--embedding", default=None, help="inline JSON array query vector (default: use --texts/--text-id)")
    p.add_argument("--texts", default=None, help="text embedding store to take the query row from (default: none)")
    p.add_argument("--text-id", default=None, help="id of the query row inside --texts (default: none)")
    p.add_argument("--k", type=int, default=10, help="number of hits to return (default: 10)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="evaluate retrieval quality for one dataset")
    add_common(p)
    p.add_argument("--index", required=True, help="index file from the index command")
    p.add_argument("--checkpoint", required=True, help="the checkpoint that built the index")
    p.add_argument("--texts", required=True, help="text embedding store holding the query rows")
    p.add_argument("--manifest", default=None, help="manifest to derive singleton judgments from (default: use --judgments)")
    p.add_argument("--judgments", default=None, help="JSON-lines judgments {query_id, relevant_ids, correct_id} (default: derive from --manifest)")
    p.add_argument("--split", default=None, help="manifest split to evaluate (default: eval.split config, 'test')")
    p.add_argument("--dataset-name", default=None, help="dataset label for the report table (default: eval.dataset_name config)")
    p.add_argument("--model-name", default=None, help="model label for the report table (default: checkpoint stem)")
    p.add_argument("--report", default=None, help="JSON metrics report path (default: no report)")
    p.set_defaults(func=cmd_eval)

    return parser


_ERROR_EXITS = (
    (FingerprintMismatchError, EXIT_FINGERPRINT),
    (DivergenceError, EXIT_DIVERGENCE),
    (ConfigError, EXIT_USAGE),
    (TwoTowerError, EXIT_DATA),
    (FileNotFoundError, EXIT_DATA),
    (IsADirectoryError, EXIT_DATA),
    (PermissionError, EXIT_DATA),
)


def _fail(kind, message, code) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a value that overflows is named by check_norms or the divergence guard,
        # in the one JSON line on stderr, not by a numpy warning before it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except _UsageError as e:
        return _fail("usage", str(e), EXIT_USAGE)
    except tuple(t for t, _ in _ERROR_EXITS) as e:
        for err_type, code in _ERROR_EXITS:
            if isinstance(e, err_type):
                kind = type(e).__name__
                return _fail(kind, str(e), code)
        raise AssertionError("unreachable")


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
