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
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np

from .data import (
    _JSON_FAULTS,
    VALID_SPLITS,
    _check_writable,
    _json_lines,
    _write_atomic,
    augment_dataset,
    build_pairs,
    check_augment,
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
from .model import check_dims, init_model, load_checkpoint
from .retrieval import build_index, evaluate, load_index, query, save_index
from .train import TrainConfig, _json_number, train

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
    "train": {k: v for k, v in vars(TrainConfig()).items() if k not in ("seed", "loss")},
    "eval": {"split": "test", "dataset_name": "dataset"},
}
# a judgments file names its own queries: eval then uses no split, and none may be given
_JUDGMENTS_CONFIG = {**DEFAULT_CONFIG, "eval": {**DEFAULT_CONFIG["eval"], "split": None}}

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


def _merge_config(cfg, override, base=DEFAULT_CONFIG, path=""):
    """Write ``override`` into ``cfg`` in place; ``base``, the defaults, names each key and type."""
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            _merge_config(cfg[key], value, base[key], where)
        elif not _same_kind(base[key], value):
            raise ConfigError(
                f"config key {where!r} has the wrong type (expected {type(base[key]).__name__})"
            )
        else:
            cfg[key] = value


def _nest(dotted, value):
    """``{"a": {"b": value}}`` for the dotted key ``"a.b"``."""
    for key in reversed(dotted.split(".")):
        value = {key.strip(): value}
    return value


def _parse_set(expr):
    if "=" not in expr:
        raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {expr!r}")
    dotted, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except _JSON_FAULTS:
        value = raw  # bare strings are convenient: --set loss.margin_mode=literal
    return _nest(dotted.strip(), value)


# The config key each flag writes; a flag is given when its value is not None.
_FLAG_KEYS = ("seed", "data.allow_ragged", "eval.split", "eval.dataset_name")


def effective_config(args, defaults=DEFAULT_CONFIG) -> dict:
    """``defaults``, overlaid with the config file, then each --set, then the flags named for keys.

    Each is one merge, checked against the keys and types of ``DEFAULT_CONFIG``.
    --seed, --allow-ragged, --split and --dataset-name write their keys, so
    commands read only the config and its echo matches the run.
    """
    cfg = copy.deepcopy(defaults)
    if (config_path := getattr(args, "config", None)) is not None:
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
        _merge_config(cfg, user)
    for expr in getattr(args, "set", None) or []:
        _merge_config(cfg, _parse_set(expr))
    for dotted in _FLAG_KEYS:
        if (value := getattr(args, dotted.split(".")[-1], None)) is not None:
            _merge_config(cfg, _nest(dotted, value))
    # the ranges of the keys no command's own config checks, before any input is read
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    if cfg["data"]["captions_per_image"] < 1:
        raise ConfigError(f"data.captions_per_image must be >= 1, got {cfg['data']['captions_per_image']}")
    return cfg


def _meta_block() -> dict:
    return {"created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _write_text(path, text):
    with _write_atomic(path) as fh:
        fh.write(f"{text}\n".encode("utf-8"))


def _write_json(path, payload):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def _query_row(row) -> str:
    """One ``metrics.per_query`` row as ``json.dumps(indent=2, sort_keys=True)`` lays it out."""
    return (
        '      {\n'
        f'        "ap": {_json_number(row["ap"])},\n'
        f'        "ar": {_json_number(row["ar"])},\n'
        f'        "f1": {_json_number(row["f1"])},\n'
        f'        "query_id": {json.dumps(row["query_id"])},\n'
        f'        "top1": {_json_number(row["top1"])},\n'
        f'        "top10": {_json_number(row["top10"])},\n'
        f'        "top5": {_json_number(row["top5"])}\n'
        '      }'
    )


def _eval_report_text(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` of an eval report.

    With ``indent`` set, ``json`` encodes in pure Python, and the per-query
    rows are nearly all of the report, so they are formatted directly.
    """
    metrics = payload["metrics"]
    rows = metrics["per_query"]
    text = json.dumps({**payload, "metrics": {**metrics, "per_query": []}}, indent=2, sort_keys=True)
    if not rows:
        return text
    # JSON strings escape their newlines, so only the metrics block's own line can match
    body = ",\n".join(map(_query_row, rows))
    return text.replace('\n    "per_query": []', f'\n    "per_query": [\n{body}\n    ]', 1)


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
        allow_ragged=cfg["data"]["allow_ragged"],
    )


def cmd_synth(args) -> int:
    cfg = effective_config(args)
    s = cfg["data"]["synth"]
    with value_errors_as(ConfigError):
        ds = synth_dataset(**s, seed=cfg["seed"])
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
    if args.out is not None:
        _write_json(args.out, report)
    print(json.dumps({k: report[k] for k in ("counts", "splits", "dims")}))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = effective_config(args)
    loss = dict(cfg["loss"])
    aug = cfg["data"]["augment"]
    with value_errors_as(ConfigError):  # a config fault is reported before any input is read
        train_cfg = TrainConfig(
            **cfg["train"],
            seed=cfg["seed"] + 2,
            loss=LossConfig(lam=loss.pop("lambda"), **loss),
        )
        check_augment(aug["sigma"], aug["copies"])
        check_dims(shared_dim=cfg["model"]["shared_dim"])
    if args.report is not None:  # a bad path fails here, not after the last epoch
        _check_writable(args.report)
    ds = _load_dataset(args, cfg)
    if not ds.split_sizes()["train"]:
        raise DataFormatError(f"{args.manifest}: no pairs in split 'train'")
    with value_errors_as(ConfigError):
        ds = augment_dataset(ds, sigma=aug["sigma"], copies=aug["copies"], seed=cfg["seed"] + 3)
        model = init_model(
            img_dim=ds.image_store.dim,
            txt_dim=ds.text_store.dim,
            shared_dim=cfg["model"]["shared_dim"],
            seed=cfg["seed"] + 1,
            meta={"config": cfg},
        )
    best, report = train(model, ds, train_cfg, checkpoint_path=args.checkpoint, log_path=args.log)
    payload = asdict(report)
    wall = payload.pop("wall_seconds")
    if args.report is not None:
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


def _inline_embedding(args):
    """The ``--embedding`` vector, or None for ``--text-id``; raises every query usage fault.

    Reads no file, so a usage fault is reported before the index, the
    checkpoint or the text store is opened.
    """
    if (args.embedding is None) == (args.text_id is None):
        raise _UsageError("provide exactly one of --embedding or --texts with --text-id")
    if args.embedding is None:
        if args.texts is None:
            raise _UsageError("--text-id requires --texts")
        return None
    if args.texts is not None:
        raise _UsageError("--embedding and --texts are two query sources; give one")
    try:
        vec = json.loads(args.embedding, parse_int=float)  # a huge int reads as inf
    except _JSON_FAULTS as e:
        raise _UsageError(f"--embedding is not valid JSON: {getattr(e, 'msg', e)}") from e
    if not isinstance(vec, list) or not vec or not all(
        isinstance(x, float) and math.isfinite(x) for x in vec
    ):
        raise _UsageError("--embedding must be a non-empty JSON array of finite numbers")
    return np.asarray(vec, dtype=np.float64)


def cmd_query(args) -> int:
    if args.k < 1:
        raise _UsageError(f"--k must be >= 1, got {args.k}")
    vec, qid = _inline_embedding(args), "inline"
    index = load_index(args.index)
    model = load_checkpoint(args.checkpoint)
    if vec is None:
        store = _load_store(args.texts, "text_feature")
        if args.text_id not in store:
            raise DataFormatError(f"text id {args.text_id!r} not found in {args.texts}")
        vec, qid = store.row(args.text_id), args.text_id
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
    judged = args.judgments is not None  # else --manifest: the parser requires exactly one
    cfg = effective_config(args, _JUDGMENTS_CONFIG if judged else DEFAULT_CONFIG)
    split = cfg["eval"]["split"]
    given = "--split" if args.split is not None else "eval.split"  # else --set or the config file
    if judged and split is not None:
        raise _UsageError(f"{given} selects manifest pairs; a --judgments file names its own queries")
    if not judged and split not in VALID_SPLITS:
        raise _UsageError(f"{given} must be one of {VALID_SPLITS}, got {split!r}")
    index = load_index(args.index)
    model = load_checkpoint(args.checkpoint)
    texts = _load_store(args.texts, "text_feature")

    if judged:
        judgments = _load_judgments(args.judgments)
    else:
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
            raise DataFormatError(f"{args.manifest}: manifest has no pairs in split {split!r}")
    # the library scores an unindexed image as a miss; here it is a fault in the inputs
    truth = args.judgments if judged else args.manifest
    for j in judgments:
        for i in sorted(j.relevant_ids):
            if i not in index:
                raise DataFormatError(
                    f"{truth}: query {j.query_id!r} names image id {i!r}, which is not in index {args.index}"
                )

    report = evaluate(index, model, texts, judgments)

    dataset_name = cfg["eval"]["dataset_name"]
    model_name = Path(args.checkpoint).stem if args.model_name is None else args.model_name
    metrics = report.as_dict()
    row = {"model": model_name, "dataset": dataset_name, **metrics}
    if args.report is not None:
        _write_text(
            args.report,
            _eval_report_text({
                "meta": _meta_block(),
                "config": cfg,
                "model": model_name,
                "dataset": dataset_name,
                "split": split,
                "metrics": metrics,
            }),
        )
    print(format_table([row]))
    return EXIT_OK


def _common_args(p):
    p.add_argument("--config", default=None, help="JSON run config (default: built-in defaults)")
    p.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override one config value, e.g. --set train.epochs=5 (default: no overrides)",
    )
    p.add_argument("--seed", type=int, default=None, help="override the top-level seed (default: 42)")


def _synth_args(p):
    _common_args(p)
    p.add_argument("--out-dir", required=True, help="output directory for images.emb, texts.emb, manifest.jsonl")


def _ingest_args(p):
    _common_args(p)
    p.add_argument("--manifest", required=True, help="caption manifest (JSON-lines)")
    p.add_argument("--images", required=True, help="image embedding store")
    p.add_argument("--texts", required=True, help="text embedding store")
    p.add_argument("--allow-ragged", action="store_true", default=None, help="accept images with a caption count other than data.captions_per_image; sets data.allow_ragged (default: the config's data.allow_ragged, false)")
    p.add_argument("--out", default=None, help="write a JSON ingest report here (default: stdout summary only)")


def _train_args(p):
    _common_args(p)
    p.add_argument("--manifest", required=True, help="caption manifest (JSON-lines)")
    p.add_argument("--images", required=True, help="image embedding store")
    p.add_argument("--texts", required=True, help="text embedding store")
    p.add_argument("--allow-ragged", action="store_true", default=None, help="accept ragged caption counts; sets data.allow_ragged (default: the config's data.allow_ragged, false)")
    p.add_argument("--checkpoint", required=True, help="path for the best-validation checkpoint")
    p.add_argument("--log", default=None, help="JSON-lines training log path (default: no log)")
    p.add_argument("--report", default=None, help="JSON training report path (default: no report)")


def _index_args(p):
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--images", required=True, help="image embedding store (kind=image_feature)")
    p.add_argument("--out", required=True, help="index file path")


def _query_args(p):
    p.add_argument("--index", required=True, help="index file from the index command")
    p.add_argument("--checkpoint", required=True, help="the checkpoint that built the index")
    p.add_argument("--embedding", default=None, help="inline JSON array query vector (default: use --texts/--text-id)")
    p.add_argument("--texts", default=None, help="text embedding store to take the query row from (default: none)")
    p.add_argument("--text-id", default=None, help="id of the query row inside --texts (default: none)")
    p.add_argument("--k", type=int, default=10, help="number of hits to return (default: 10)")


def _eval_args(p):
    _common_args(p)
    p.add_argument("--index", required=True, help="index file from the index command")
    p.add_argument("--checkpoint", required=True, help="the checkpoint that built the index")
    p.add_argument("--texts", required=True, help="text embedding store holding the query rows")
    truth = p.add_mutually_exclusive_group(required=True)
    truth.add_argument("--manifest", default=None, help="manifest to derive singleton judgments from")
    truth.add_argument("--judgments", default=None, help="JSON-lines judgments {query_id, relevant_ids, correct_id}")
    p.add_argument("--split", default=None, help="manifest split to evaluate, not used with --judgments; sets eval.split (default: 'test')")
    p.add_argument("--dataset-name", default=None, help="dataset label for the report table; sets eval.dataset_name (default: 'dataset')")
    p.add_argument("--model-name", default=None, help="model label for the report table (default: checkpoint stem)")
    p.add_argument("--report", default=None, help="JSON metrics report path (default: no report)")


# command -> (help line, handler, the function that adds its arguments), in help order
_COMMANDS = {
    "synth": ("generate a synthetic paired dataset", cmd_synth, _synth_args),
    "ingest": ("validate a manifest + embedding files as a paired dataset", cmd_ingest, _ingest_args),
    "train": ("train projection heads on a paired dataset", cmd_train, _train_args),
    "index": ("project an image store and build a retrieval index", cmd_index, _index_args),
    "query": ("rank indexed images against one text embedding", cmd_query, _query_args),
    "eval": ("evaluate retrieval quality for one dataset", cmd_eval, _eval_args),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI parser, holding only ``command``'s subparser when that names a command.

    Any other ``command`` (None, ``--help``, an unknown word) gets every
    subparser, so top-level help and the invalid-choice error list them all.
    Each ``add_argument`` builds a help formatter, so a call that builds
    one command's parser starts its work sooner, in a fresh process too.
    """
    parser = _Parser(prog="twotower", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, func, add_args) in _COMMANDS.items():
        if command in _COMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=help_line)
        add_args(p)
        p.set_defaults(func=func)
    return parser


_ERROR_EXITS = (
    (FingerprintMismatchError, EXIT_FINGERPRINT),
    (DivergenceError, EXIT_DIVERGENCE),
    (ConfigError, EXIT_USAGE),
    (TwoTowerError, EXIT_DATA),
    (OSError, EXIT_DATA),
)


def _fail(kind, message, code) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        # a value that overflows is named by check_norms or the divergence guard,
        # in the one JSON line on stderr, not by a numpy warning before it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except _UsageError as e:
        return _fail("usage", str(e), EXIT_USAGE)
    except tuple(t for t, _ in _ERROR_EXITS) as e:
        code = next(code for err_type, code in _ERROR_EXITS if isinstance(e, err_type))
        return _fail(type(e).__name__, str(e), code)


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
