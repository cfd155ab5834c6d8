import argparse
import contextlib
import importlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotower import cli, errors
from twotower.data import EmbeddingStore, save_embeddings
from twotower.model import init_model, load_checkpoint, save_checkpoint


SMALL = [
    "--set", "data.synth.n_images=30",
    "--set", "data.synth.captions_per_image=2",
    "--set", "data.synth.latent_dim=4",
    "--set", "data.synth.img_dim=10",
    "--set", "data.synth.txt_dim=8",
    "--set", "data.captions_per_image=2",
]
FAST_TRAIN = [
    "--set", "train.epochs=3",
    "--set", "train.batch_size=8",
    "--set", "train.warmup_steps=4",
]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ADDRESS_SPACE_CAP = 2 << 30  # bytes

# The child caps its own address space before importing the package; a
# preexec_fn would run between fork and exec in this threaded process.
_CAPPED_CLI = (
    "import resource, sys; "
    f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_CAP}, {ADDRESS_SPACE_CAP})); "
    "from twotower.cli import main; sys.exit(main(sys.argv[1:]))"
)


def run_quiet(argv):
    """``cli.main`` of ``argv``, as strings, for tests without ``capsys``: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def run_capped(argv):
    """Run the command line in a child whose address space is capped.

    For hostile headers: a reader that trusted the declared size would fail
    inside the child on the cap rather than allocate gigabytes.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI] + [str(a) for a in argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> train -> index run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    assert cli.main(["synth", "--out-dir", str(ds)] + SMALL) == 0
    assert (
        cli.main(
            [
                "train",
                "--manifest", str(ds / "manifest.jsonl"),
                "--images", str(ds / "images.emb"),
                "--texts", str(ds / "texts.emb"),
                "--checkpoint", str(root / "model.ckpt"),
                "--report", str(root / "train.json"),
                "--log", str(root / "train.log"),
            ]
            + SMALL
            + FAST_TRAIN
        )
        == 0
    )
    assert (
        cli.main(
            [
                "index",
                "--checkpoint", str(root / "model.ckpt"),
                "--images", str(ds / "images.emb"),
                "--out", str(root / "idx.azi"),
            ]
        )
        == 0
    )
    return root


class TestSynth:
    def test_writes_dataset_files(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code, stdout, _ = run(["synth", "--out-dir", str(out)] + SMALL, capsys)
        assert code == 0
        for name in ("images.emb", "texts.emb", "manifest.jsonl", "dataset.json"):
            assert (out / name).exists()
        summary = json.loads(stdout)
        assert summary["images"] == 30 and summary["captions"] == 60
        doc = json.loads((out / "dataset.json").read_text())
        assert doc["config"]["data"]["synth"]["n_images"] == 30  # effective config echoed

    def test_replayable_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["synth", "--out-dir", str(a)] + SMALL, capsys)
        run(["synth", "--out-dir", str(b)] + SMALL, capsys)
        for name in ("images.emb", "texts.emb", "manifest.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        da = json.loads((a / "dataset.json").read_text())
        db = json.loads((b / "dataset.json").read_text())
        da.pop("meta"), db.pop("meta")
        assert da == db

    def test_seed_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["synth", "--out-dir", str(a)] + SMALL, capsys)
        run(["synth", "--out-dir", str(b), "--seed", "7"] + SMALL, capsys)
        assert (a / "images.emb").read_bytes() != (b / "images.emb").read_bytes()


class TestIngest:
    def test_valid_dataset(self, pipeline, capsys):
        ds = pipeline / "ds"
        code, stdout, _ = run(
            [
                "ingest",
                "--manifest", str(ds / "manifest.jsonl"),
                "--images", str(ds / "images.emb"),
                "--texts", str(ds / "texts.emb"),
                "--out", str(pipeline / "ingest.json"),
                "--set", "data.captions_per_image=2",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(stdout)["counts"]["pairs"] == 60

    def test_ragged_rejected_then_allowed(self, pipeline, tmp_path, capsys):
        ds = pipeline / "ds"
        lines = (ds / "manifest.jsonl").read_text().splitlines()
        ragged = tmp_path / "ragged.jsonl"
        ragged.write_text("\n".join(lines[:-1]) + "\n")  # drop one caption
        base = [
            "ingest",
            "--manifest", str(ragged),
            "--images", str(ds / "images.emb"),
            "--texts", str(ds / "texts.emb"),
            "--set", "data.captions_per_image=2",
        ]
        code, _, err = run(base, capsys)
        assert code == 2
        assert json.loads(err)["error"] == "DataFormatError"
        code, _, _ = run(base + ["--allow-ragged"], capsys)
        assert code == 0

    def dataset_args(self, pipeline, manifest):
        ds = pipeline / "ds"
        return ["--manifest", str(manifest), "--images", str(ds / "images.emb"),
                "--texts", str(ds / "texts.emb"), "--set", "data.captions_per_image=2"]

    def edited_manifest(self, pipeline, tmp_path, edit):
        """A copy of the pipeline's manifest whose rows ``edit`` has changed in place."""
        rows = [json.loads(l) for l in (pipeline / "ds" / "manifest.jsonl").read_text().splitlines()]
        edit(rows)
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return manifest, rows

    def test_repeated_text_id_exit_2(self, pipeline, tmp_path, capsys):
        def repeat_text_id(rows):
            rows[1]["text_id"] = rows[0]["text_id"]

        manifest, rows = self.edited_manifest(pipeline, tmp_path, repeat_text_id)
        expected = {"error": "DataFormatError",
                    "message": f"text id {rows[0]['text_id']!r} appears in more than one pair"}
        code, _, err = run(["ingest"] + self.dataset_args(pipeline, manifest), capsys)
        assert (code, json.loads(err)) == (2, expected)
        train = ["train", "--checkpoint", str(tmp_path / "m.ckpt")] + FAST_TRAIN
        code, _, err = run(train + self.dataset_args(pipeline, manifest), capsys)
        assert (code, json.loads(err)) == (2, expected)
        assert not (tmp_path / "m.ckpt").exists()

    def test_unknown_image_id_exit_2(self, pipeline, tmp_path, capsys):
        def unknown_image(rows):
            rows[0]["image_id"] = "x"

        manifest, _ = self.edited_manifest(pipeline, tmp_path, unknown_image)
        args = ["ingest", "--allow-ragged"] + self.dataset_args(pipeline, manifest)
        code, _, err = run(args, capsys)
        assert code == 2
        failure = json.loads(err)
        assert failure["error"] == "DataFormatError"
        assert "unknown image id 'x'" in failure["message"]

    def test_manifest_not_utf8_exit_2(self, pipeline, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_bytes((pipeline / "ds" / "manifest.jsonl").read_bytes() + b"\xff\n")
        code, _, err = run(["ingest"] + self.dataset_args(pipeline, manifest), capsys)
        assert code == 2
        assert json.loads(err) == {
            "error": "ManifestError",
            "message": f"{manifest}: line 61: not valid UTF-8 (invalid start byte)",
        }


class TestTrainCommand:
    def test_zero_lr_checkpoint_equals_init(self, pipeline, tmp_path, capsys):
        ds = pipeline / "ds"
        ckpt = tmp_path / "flat.ckpt"
        report_path = tmp_path / "r.json"
        code, _, _ = run(
            [
                "train",
                "--manifest", str(ds / "manifest.jsonl"),
                "--images", str(ds / "images.emb"),
                "--texts", str(ds / "texts.emb"),
                "--checkpoint", str(ckpt),
                "--report", str(report_path),
                "--set", "train.lr_max=0.0",
                "--set", "train.lr_min=0.0",
                "--set", "train.weight_decay=0.0",
            ]
            + SMALL
            + FAST_TRAIN[2:],  # epochs stays 3 via explicit set below
            capsys,
        )
        assert code == 0
        trained = load_checkpoint(ckpt)
        fresh = init_model(10, 8, 32, seed=cli.DEFAULT_CONFIG["seed"] + 1)
        np.testing.assert_array_equal(trained.image_head.w, fresh.image_head.w)
        np.testing.assert_array_equal(trained.text_head.w, fresh.text_head.w)
        report = json.loads(report_path.read_text())["report"]
        losses = report["train_loss"]
        assert max(losses) - min(losses) == 0.0

    def test_no_train_pairs_exit_2(self, pipeline, tmp_path, capsys):
        ds = pipeline / "ds"
        rows = [json.loads(l) for l in (ds / "manifest.jsonl").read_text().splitlines()]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(
            json.dumps({**r, "split": "val" if r["split"] == "train" else r["split"]}) + "\n"
            for r in rows
        ))
        ckpt = tmp_path / "m.ckpt"
        code, _, err = run(
            ["train", "--manifest", str(manifest), "--images", str(ds / "images.emb"),
             "--texts", str(ds / "texts.emb"), "--checkpoint", str(ckpt)] + SMALL + FAST_TRAIN,
            capsys,
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "DataFormatError", "message": f"{manifest}: no pairs in split 'train'"
        }
        assert not ckpt.exists()

    def test_allow_ragged_flag_is_echoed(self, pipeline, tmp_path, capsys):
        ds = pipeline / "ds"
        ragged = tmp_path / "ragged.jsonl"
        ragged.write_text("".join((ds / "manifest.jsonl").read_text().splitlines(True)[1:]))
        ckpt, report_path = tmp_path / "m.ckpt", tmp_path / "r.json"
        code, _, _ = run(
            ["train", "--manifest", str(ragged), "--images", str(ds / "images.emb"),
             "--texts", str(ds / "texts.emb"), "--checkpoint", str(ckpt), "--allow-ragged",
             "--report", str(report_path)] + SMALL + FAST_TRAIN,
            capsys,
        )
        assert code == 0
        assert load_checkpoint(ckpt).meta["config"]["data"]["allow_ragged"] is True
        assert json.loads(report_path.read_text())["config"]["data"]["allow_ragged"] is True

    def test_divergence_exit_code(self, pipeline, tmp_path, capsys):
        ds = pipeline / "ds"
        code, _, err = run(
            [
                "train",
                "--manifest", str(ds / "manifest.jsonl"),
                "--images", str(ds / "images.emb"),
                "--texts", str(ds / "texts.emb"),
                "--checkpoint", str(tmp_path / "x.ckpt"),
                "--set", "train.lr_max=1e200",
                "--set", "train.lr_min=1e200",
                "--set", "train.warmup_steps=0",
                "--set", "train.weight_decay=0.0",
            ]
            + SMALL
            + ["--set", "train.epochs=2", "--set", "train.batch_size=8"],
            capsys,
        )
        assert code == 3
        assert json.loads(err)["error"] == "DivergenceError"

    def test_divergence_in_the_update_prints_one_json_line(self, pipeline, tmp_path):
        # in a child process, so that a numpy warning would reach its stderr
        ds = pipeline / "ds"
        code, _, err = run_capped(
            [
                "train",
                "--manifest", ds / "manifest.jsonl",
                "--images", ds / "images.emb",
                "--texts", ds / "texts.emb",
                "--checkpoint", tmp_path / "x.ckpt",
                "--set", "train.lr_max=1e200",
                "--set", "train.lr_min=1e200",
                "--set", "train.warmup_steps=0",
                "--set", "train.weight_decay=1e200",
            ]
            + SMALL
            + ["--set", "train.epochs=2", "--set", "train.batch_size=8"]
        )
        assert code == 3
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert json.loads(lines[0])["error"] == "DivergenceError"


class TestQueryCommand:
    def test_k_clamped_on_small_index(self, tmp_path, capsys):
        # 2-image index, k=3 -> exactly 2 hits, exit 0
        two = tmp_path / "two"
        args = [s if s != "data.synth.n_images=30" else "data.synth.n_images=2" for s in SMALL]
        args = [s if s != "data.synth.captions_per_image=2" else "data.synth.captions_per_image=1" for s in args]
        args = [s if s != "data.captions_per_image=2" else "data.captions_per_image=1" for s in args]
        run(["synth", "--out-dir", str(two)] + args + [
            "--set", "data.synth.train_frac=1.0", "--set", "data.synth.val_frac=0.0",
        ], capsys)
        ckpt = tmp_path / "m.ckpt"
        run(
            ["train", "--manifest", str(two / "manifest.jsonl"), "--images", str(two / "images.emb"),
             "--texts", str(two / "texts.emb"), "--checkpoint", str(ckpt),
             "--set", "train.epochs=1", "--set", "train.batch_size=2",
             "--set", "train.warmup_steps=1"] + args,
            capsys,
        )
        idx = tmp_path / "i.azi"
        run(["index", "--checkpoint", str(ckpt), "--images", str(two / "images.emb"), "--out", str(idx)], capsys)
        code, stdout, _ = run(
            ["query", "--index", str(idx), "--checkpoint", str(ckpt),
             "--texts", str(two / "texts.emb"), "--text-id", "img0#c0", "--k", "3"],
            capsys,
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["k"] == 3 and len(doc["hits"]) == 2
        assert {"id", "score"} == set(doc["hits"][0])

    def test_inline_embedding(self, pipeline, capsys):
        vec = json.dumps([0.1] * 8)
        code, stdout, _ = run(
            ["query", "--index", str(pipeline / "idx.azi"), "--checkpoint",
             str(pipeline / "model.ckpt"), "--embedding", vec, "--k", "5"],
            capsys,
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["query"] == "inline" and len(doc["hits"]) == 5

    def test_fingerprint_mismatch_exit_4(self, pipeline, tmp_path, capsys):
        ds = pipeline / "ds"
        other = tmp_path / "other.ckpt"
        run(
            ["train", "--manifest", str(ds / "manifest.jsonl"), "--images", str(ds / "images.emb"),
             "--texts", str(ds / "texts.emb"), "--checkpoint", str(other), "--seed", "99"]
            + SMALL + FAST_TRAIN,
            capsys,
        )
        code, _, err = run(
            ["query", "--index", str(pipeline / "idx.azi"), "--checkpoint", str(other),
             "--texts", str(ds / "texts.emb"), "--text-id", "img00#c0", "--k", "2"],
            capsys,
        )
        assert code == 4
        assert json.loads(err)["error"] == "FingerprintMismatchError"

    @pytest.mark.parametrize("value", ["NaN", "1e400", "true"], ids=["nan", "overflow", "bool"])
    def test_embedding_of_non_finite_numbers_is_usage_error(self, pipeline, capsys, value):
        code, stdout, err = run(
            ["query", "--index", str(pipeline / "idx.azi"), "--checkpoint",
             str(pipeline / "model.ckpt"), "--embedding", f"[{', '.join(['0.1'] * 7 + [value])}]"],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert json.loads(err) == {
            "error": "usage", "message": "--embedding must be a non-empty JSON array of finite numbers"
        }

    def test_wrong_embedding_width_exit_2(self, pipeline, capsys):
        code, _, err = run(
            ["query", "--index", str(pipeline / "idx.azi"), "--checkpoint",
             str(pipeline / "model.ckpt"), "--embedding", json.dumps([0.1] * 7)],
            capsys,
        )
        assert code == 2
        assert json.loads(err)["error"] == "ShapeError"

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_one_is_usage_error(self, pipeline, capsys, k):
        code, stdout, err = run(
            ["query", "--index", str(pipeline / "idx.azi"), "--checkpoint",
             str(pipeline / "model.ckpt"), "--embedding", json.dumps([0.1] * 8), "--k", k],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert json.loads(err) == {"error": "usage", "message": f"--k must be >= 1, got {k}"}

    def test_embedding_with_texts_is_usage_error(self, pipeline, capsys):
        code, stdout, err = run(
            ["query", "--index", str(pipeline / "idx.azi"), "--checkpoint",
             str(pipeline / "model.ckpt"), "--embedding", json.dumps([0.1] * 8),
             "--texts", str(pipeline / "missing.emb"), "--k", "2"],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert json.loads(err) == {
            "error": "usage", "message": "--embedding and --texts are two query sources; give one"
        }

    @pytest.mark.parametrize(
        "flags, message",
        [
            ([], "provide exactly one of --embedding or --texts with --text-id"),
            (["--embedding", "[0.1]", "--text-id", "q", "--texts", "t.emb"],
             "provide exactly one of --embedding or --texts with --text-id"),
            (["--embedding", "[0.1]", "--texts", "t.emb"],
             "--embedding and --texts are two query sources; give one"),
            (["--text-id", "q"], "--text-id requires --texts"),
            (["--embedding", "[0.1,"], "--embedding is not valid JSON: Expecting value"),
            (["--embedding", '{"a": 1}'], "--embedding must be a non-empty JSON array of finite numbers"),
            (["--embedding", "[1e400]"], "--embedding must be a non-empty JSON array of finite numbers"),
            (["--embedding", "[]"], "--embedding must be a non-empty JSON array of finite numbers"),
            (["--embedding", "[0.1]", "--k", "0"], "--k must be >= 1, got 0"),
        ],
        ids=["no-source", "two-sources", "embedding-with-texts", "text-id-without-texts",
             "bad-json", "not-an-array", "non-finite", "empty-array", "k-zero"],
    )
    def test_usage_fault_comes_before_any_file_is_read(self, tmp_path, capsys, flags, message):
        code, stdout, err = run(
            ["query", "--index", str(tmp_path / "nope.azi"),
             "--checkpoint", str(tmp_path / "nope.ckpt"), *flags],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "usage", "message": message}

    def test_requires_exactly_one_query_source(self, pipeline, capsys):
        code, _, err = run(
            ["query", "--index", str(pipeline / "idx.azi"), "--checkpoint",
             str(pipeline / "model.ckpt")],
            capsys,
        )
        assert code == 1
        assert json.loads(err)["error"] == "usage"


# metric values as evaluate makes them (numpy float64 included), edge spellings first
_METRIC_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-05, 5e-324, 0.5, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)


@st.composite
def eval_payloads(draw):
    """An eval report as ``cmd_eval`` builds it, with any query ids and finite metric values."""
    rows = draw(st.lists(st.fixed_dictionaries({
        "query_id": st.text(),  # non-ASCII, quotes, backslashes and control characters included
        "ap": _METRIC_VALUES, "ar": _METRIC_VALUES, "f1": _METRIC_VALUES,
        "top1": st.integers(), "top5": st.integers(), "top10": st.integers(),
    }), max_size=draw(st.sampled_from([0, 1, 40]))))
    metrics = {k: draw(_METRIC_VALUES) for k in ("map", "mar", "maf1", "top1", "top5", "top10")}
    return {
        "meta": {"created_utc": "2024-01-01T00:00:00Z"},
        "config": cli.DEFAULT_CONFIG,
        "model": draw(st.text()),
        "dataset": draw(st.text()),
        "split": draw(st.one_of(st.none(), st.text())),
        "metrics": {**metrics, "per_query": rows},
    }


class TestEvalCommand:
    def test_table_and_report(self, pipeline, capsys):
        ds = pipeline / "ds"
        report_path = pipeline / "eval.json"
        code, stdout, _ = run(
            ["eval", "--index", str(pipeline / "idx.azi"), "--checkpoint", str(pipeline / "model.ckpt"),
             "--texts", str(ds / "texts.emb"), "--manifest", str(ds / "manifest.jsonl"),
             "--split", "test", "--report", str(report_path), "--dataset-name", "synth-small"],
            capsys,
        )
        assert code == 0
        assert "MAP" in stdout and "synth-small" in stdout
        doc = json.loads(report_path.read_text())
        metrics = doc["metrics"]
        assert 0.0 <= metrics["map"] <= 1.0
        assert metrics["top1"] <= metrics["top5"] <= metrics["top10"]
        assert len(metrics["per_query"]) == len(
            [1 for line in (ds / "manifest.jsonl").read_text().splitlines()
             if json.loads(line)["split"] == "test"]
        )
        assert report_path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(payload=eval_payloads())
    def test_report_text_is_json_dumps(self, payload):
        assert cli._eval_report_text(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_split_and_dataset_name_flags_are_echoed(self, pipeline, tmp_path, capsys):
        ds = pipeline / "ds"
        report_path = tmp_path / "eval.json"
        code, _, _ = run(
            ["eval", "--index", str(pipeline / "idx.azi"), "--checkpoint", str(pipeline / "model.ckpt"),
             "--texts", str(ds / "texts.emb"), "--manifest", str(ds / "manifest.jsonl"),
             "--split", "val", "--dataset-name", "synth-val", "--report", str(report_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["config"]["eval"] == {"split": "val", "dataset_name": "synth-val"}
        assert (doc["split"], doc["dataset"]) == ("val", "synth-val")

    def test_judgments_file(self, pipeline, tmp_path, capsys):
        ds = pipeline / "ds"
        manifest = [json.loads(l) for l in (ds / "manifest.jsonl").read_text().splitlines()]
        test_rows = [r for r in manifest if r["split"] == "test"][:2]
        jpath = tmp_path / "j.jsonl"
        jpath.write_text(
            "".join(
                json.dumps(
                    {"query_id": r["text_id"], "relevant_ids": [r["image_id"]],
                     "correct_id": r["image_id"]}
                ) + "\n"
                for r in test_rows
            )
        )
        report_path = tmp_path / "eval.json"
        code, stdout, _ = run(
            ["eval", "--index", str(pipeline / "idx.azi"), "--checkpoint", str(pipeline / "model.ckpt"),
             "--texts", str(ds / "texts.emb"), "--judgments", str(jpath), "--report", str(report_path)],
            capsys,
        )
        assert code == 0
        assert "MAP" in stdout
        # the judgments name their own queries: no split was evaluated or echoed
        doc = json.loads(report_path.read_text())
        assert doc["split"] is None and doc["config"]["eval"]["split"] is None

    def test_split_with_judgments_exit_1(self, pipeline, tmp_path, capsys):
        jpath = tmp_path / "j.jsonl"
        jpath.write_text(json.dumps({"query_id": "img00#c0", "relevant_ids": ["img00"],
                                     "correct_id": "img00"}) + "\n")
        code, _, err = run(self.eval_args(pipeline, pipeline / "model.ckpt", jpath) + ["--split", "val"],
                           capsys)
        assert code == 1
        assert json.loads(err) == {
            "error": "usage",
            "message": "--split selects manifest pairs; a --judgments file names its own queries",
        }

    @pytest.mark.parametrize("source", ["set", "config"])
    def test_config_split_with_judgments_exit_1(self, pipeline, tmp_path, capsys, source):
        # a split from --set or a config file is refused as the flag is, not echoed unused
        jpath, report = tmp_path / "j.jsonl", tmp_path / "eval.json"
        jpath.write_text(json.dumps({"query_id": "img00#c0", "relevant_ids": ["img00"],
                                     "correct_id": "img00"}) + "\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"eval": {"split": "val"}}))
        given = {"set": ["--set", "eval.split=val"], "config": ["--config", str(config)]}[source]
        code, _, err = run(self.eval_args(pipeline, pipeline / "model.ckpt", jpath) + given
                           + ["--report", str(report)], capsys)
        assert code == 1
        assert json.loads(err) == {
            "error": "usage",
            "message": "eval.split selects manifest pairs; a --judgments file names its own queries",
        }
        assert not report.exists()

    def eval_args(self, pipeline, checkpoint, judgments, texts=None):
        return ["eval", "--index", str(pipeline / "idx.azi"), "--checkpoint", str(checkpoint),
                "--texts", str(texts or pipeline / "ds" / "texts.emb"), "--judgments", str(judgments)]

    def test_missing_query_id_exit_2(self, pipeline, tmp_path, capsys):
        jpath = tmp_path / "j.jsonl"
        jpath.write_text(json.dumps({"query_id": "nope", "relevant_ids": ["img00"],
                                     "correct_id": "img00"}) + "\n")
        code, _, err = run(self.eval_args(pipeline, pipeline / "model.ckpt", jpath), capsys)
        assert code == 2
        assert json.loads(err) == {"error": "DataFormatError",
                                   "message": "text store is missing query id 'nope'"}

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([b'{"query_id": "img00#c0", "relevant_ids": "img00", "correct_id": "0"}'],
             "line 1: query 'img00#c0': relevant_ids must be a set, not a str"),
            ([b'{"query_id": "img00#c0", "relevant_ids": ["img00"], "correct_id": "img00"}'] * 2,
             "line 2: duplicate judgment for query 'img00#c0'"),
            ([b'{"query_id": "img00#c0", "relevant_ids": ["img00"], "correct_id": "img00"}'] * 2
             + [b'{"query_id": "img00#c1", "relevant_ids": ["img00"], "correct_id": "img00"}'],
             "line 2: duplicate judgment for query 'img00#c0'"),
            ([b"", b'{"query_id": "img00#c0", "relevant_ids": ["img00\xff"]}'],
             "line 2: not valid UTF-8 (invalid start byte)"),
            ([b'{"query_id": ["q"], "relevant_ids": ["img00"], "correct_id": "img00"}'],
             "line 1: query_id must be a str, got list"),
            ([b'{"query_id": "img00#c0", "relevant_ids": [1], "correct_id": 1}'],
             "line 1: query 'img00#c0': relevant_ids and correct_id must be strings"),
        ],
        ids=["str-relevant-ids", "duplicate-query", "duplicate-query-mid-file", "not-utf8",
             "list-query-id", "int-ids"],
    )
    def test_bad_judgments_exit_2(self, pipeline, tmp_path, capsys, lines, message):
        jpath = tmp_path / "j.jsonl"
        jpath.write_bytes(b"".join(line + b"\n" for line in lines))
        code, _, err = run(self.eval_args(pipeline, pipeline / "model.ckpt", jpath), capsys)
        assert code == 2
        assert json.loads(err) == {"error": "DataFormatError", "message": f"{jpath}: {message}"}

    @pytest.mark.parametrize("source", ["judgments", "manifest"])
    def test_unindexed_relevant_image_exit_2(self, pipeline, tmp_path, capsys, source):
        rows = [json.loads(l) for l in (pipeline / "ds" / "manifest.jsonl").read_text().splitlines()]
        first, second = [r for r in rows if r["split"] == "test"][:2]
        second["image_id"] = "ghost"
        truth = tmp_path / "truth.jsonl"
        if source == "judgments":
            truth.write_text("".join(
                json.dumps({"query_id": r["text_id"], "relevant_ids": [r["image_id"], first["image_id"]],
                            "correct_id": r["image_id"]}) + "\n"
                for r in (first, second)
            ))
        else:
            truth.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, _, err = run(
            ["eval", "--index", str(pipeline / "idx.azi"), "--checkpoint", str(pipeline / "model.ckpt"),
             "--texts", str(pipeline / "ds" / "texts.emb"), f"--{source}", str(truth)],
            capsys,
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "DataFormatError",
            "message": f"{truth}: query {second['text_id']!r} names image id 'ghost', "
                       f"which is not in index {pipeline / 'idx.azi'}",
        }

    def test_manifest_without_the_split_exit_2(self, pipeline, tmp_path, capsys):
        # a valid split that the manifest holds no pair of is a fault in the data
        manifest = tmp_path / "manifest.jsonl"
        lines = (pipeline / "ds" / "manifest.jsonl").read_text().splitlines(True)
        manifest.write_text("".join(l for l in lines if json.loads(l)["split"] != "val"))
        code, _, err = run(
            ["eval", "--index", str(pipeline / "idx.azi"), "--checkpoint", str(pipeline / "model.ckpt"),
             "--texts", str(pipeline / "ds" / "texts.emb"), "--manifest", str(manifest),
             "--split", "val"],
            capsys,
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "DataFormatError",
            "message": f"{manifest}: manifest has no pairs in split 'val'",
        }

    @pytest.mark.parametrize("given", [["--split", ""], ["--set", "eval.split="]])
    def test_empty_split_exit_1(self, pipeline, capsys, given):
        # an empty flag is given, as an empty --set is, and names no split
        code, _, err = run(eval_on_manifest(pipeline, *given), capsys)
        assert code == 1
        name = given[0] if given[0] == "--split" else "eval.split"
        assert json.loads(err) == {
            "error": "usage",
            "message": f"{name} must be one of ('train', 'val', 'test'), got ''",
        }

    @pytest.mark.parametrize("truth", [["--manifest", "m.jsonl", "--judgments", "j.jsonl"], []],
                             ids=["both", "neither"])
    def test_ground_truth_is_exactly_one_source_exit_1(self, pipeline, capsys, truth):
        code, _, err = run(
            ["eval", "--index", str(pipeline / "idx.azi"), "--checkpoint", str(pipeline / "model.ckpt"),
             "--texts", str(pipeline / "ds" / "texts.emb")] + truth,
            capsys,
        )
        assert code == 1
        assert json.loads(err)["error"] == "usage"
        assert "--manifest" in json.loads(err)["message"]

    def test_manifest_repeated_text_id_exit_2(self, pipeline, tmp_path, capsys):
        rows = [json.loads(l) for l in (pipeline / "ds" / "manifest.jsonl").read_text().splitlines()]
        first, second = [r for r in rows if r["split"] == "test"][:2]
        second["text_id"] = first["text_id"]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, _, err = run(
            ["eval", "--index", str(pipeline / "idx.azi"), "--checkpoint", str(pipeline / "model.ckpt"),
             "--texts", str(pipeline / "ds" / "texts.emb"), "--manifest", str(manifest)],
            capsys,
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "DataFormatError",
            "message": f"{manifest}: text id {first['text_id']!r} appears in more than one pair",
        }

    def test_no_judgments_exit_2(self, pipeline, tmp_path, capsys):
        jpath = tmp_path / "j.jsonl"
        jpath.write_text("\n\n")
        code, _, err = run(self.eval_args(pipeline, pipeline / "model.ckpt", jpath), capsys)
        assert code == 2
        assert json.loads(err) == {"error": "DataFormatError", "message": f"{jpath}: no judgments"}

    def test_wrong_checkpoint_exit_4(self, pipeline, tmp_path, capsys):
        other = tmp_path / "other.ckpt"
        save_checkpoint(init_model(10, 8, 32, seed=5), other)
        jpath = tmp_path / "j.jsonl"
        jpath.write_text(json.dumps({"query_id": "img00#c0", "relevant_ids": ["img00"],
                                     "correct_id": "img00"}) + "\n")
        code, _, err = run(self.eval_args(pipeline, other, jpath), capsys)
        assert code == 4
        assert json.loads(err)["error"] == "FingerprintMismatchError"

    def test_zero_projecting_query_exit_2(self, tmp_path, capsys):
        # a fresh model has zero biases, so an all-zero feature row projects to zero
        ckpt, images, texts = tmp_path / "m.ckpt", tmp_path / "images.emb", tmp_path / "texts.emb"
        save_checkpoint(init_model(3, 3, 2, seed=0), ckpt)
        save_embeddings(EmbeddingStore(ids=["a"], vectors=[[1.0, 0.0, 0.0]], kind="image_feature"),
                        images)
        save_embeddings(EmbeddingStore(ids=["q0", "q1"], vectors=[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                                       kind="text_feature"), texts)
        assert run(["index", "--checkpoint", str(ckpt), "--images", str(images),
                    "--out", str(tmp_path / "idx.azi")], capsys)[0] == 0
        jpath = tmp_path / "j.jsonl"
        jpath.write_text("".join(
            json.dumps({"query_id": q, "relevant_ids": ["a"], "correct_id": "a"}) + "\n"
            for q in ("q0", "q1")
        ))
        code, _, err = run(self.eval_args(tmp_path, ckpt, jpath, texts), capsys)
        assert code == 2
        assert json.loads(err)["error"] == "DegenerateRowError"
        assert "'q1'" in json.loads(err)["message"]


class TestErrorsAndHelp:
    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(["index", "--checkpoint", "/nope.ckpt", "--images", "/nope.emb",
                            "--out", "/tmp/x.azi"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("command", ["synth", "index"])
    def test_os_error_on_an_output_path_exit_2(self, pipeline, tmp_path, capsys, command):
        # a regular file where a directory is needed: NotADirectoryError, one JSON line
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = {
            "synth": ["synth", "--out-dir", str(blocker / "sub")] + SMALL,
            "index": ["index", "--checkpoint", str(pipeline / "model.ckpt"),
                      "--images", str(pipeline / "ds" / "images.emb"), "--out", str(blocker / "x.idx")],
        }[command]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "NotADirectoryError"

    def test_bad_magic_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.emb"
        bad.write_bytes(b"XXXXgarbage")
        code, _, err = run(
            ["index", "--checkpoint", str(bad), "--images", str(bad), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2

    def test_zero_projecting_image_exit_2(self, tmp_path, capsys):
        # a fresh model has zero biases, so an all-zero feature row projects to zero
        ckpt, images = tmp_path / "m.ckpt", tmp_path / "images.emb"
        save_checkpoint(init_model(3, 3, 2, seed=0), ckpt)
        save_embeddings(
            EmbeddingStore(ids=["a", "b"], vectors=[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                           kind="image_feature"),
            images,
        )
        code, _, err = run(
            ["index", "--checkpoint", str(ckpt), "--images", str(images), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        assert json.loads(err)["error"] == "DegenerateRowError"

    def test_index_from_text_store_exit_2(self, pipeline, tmp_path, capsys):
        texts = pipeline / "ds" / "texts.emb"
        code, _, err = run(
            ["index", "--checkpoint", str(pipeline / "model.ckpt"), "--images", str(texts),
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "DataFormatError",
            "message": f"{texts}: expected a store of kind 'image_feature', got 'text_feature'",
        }
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_texts_from_image_store_exit_2(self, pipeline, capsys, command):
        images = pipeline / "ds" / "images.emb"
        source = (["--text-id", "img00"] if command == "query"
                  else ["--manifest", str(pipeline / "ds" / "manifest.jsonl")])
        code, _, err = run(
            [command, "--index", str(pipeline / "idx.azi"), "--checkpoint",
             str(pipeline / "model.ckpt"), "--texts", str(images)] + source,
            capsys,
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "DataFormatError",
            "message": f"{images}: expected a store of kind 'text_feature', got 'image_feature'",
        }

    def test_overflowing_image_projection_exit_2(self, pipeline, tmp_path, capsys):
        model = load_checkpoint(pipeline / "model.ckpt")
        model.image_head.w[0, 0] = 1e300  # finite, but its projections' squares overflow
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)
        code, _, err = run(
            ["index", "--checkpoint", str(ckpt), "--images", str(pipeline / "ds" / "images.emb"),
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "DegenerateRowError",
            "message": "image 'img00' projects to a vector whose norm overflows",
        }
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    def test_query_projecting_to_infinity_exit_2(self, pipeline, tmp_path, capsys):
        model = load_checkpoint(pipeline / "model.ckpt")
        model.text_head.w[:] = 1e308  # any query of ones projects to +inf in every column
        ckpt, idx = tmp_path / "m.ckpt", tmp_path / "i.azi"
        save_checkpoint(model, ckpt)
        run(["index", "--checkpoint", str(ckpt), "--images", str(pipeline / "ds" / "images.emb"),
             "--out", str(idx)], capsys)
        code, stdout, err = run(
            ["query", "--index", str(idx), "--checkpoint", str(ckpt), "--embedding", json.dumps([1.0] * 8)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert json.loads(err) == {
            "error": "DegenerateRowError",
            "message": "query 'inline' projects to a vector whose norm overflows",
        }

    def test_store_id_not_utf8_exit_2(self, tmp_path, capsys):
        ckpt, images = tmp_path / "m.ckpt", tmp_path / "images.emb"
        save_checkpoint(init_model(3, 3, 2, seed=0), ckpt)
        save_embeddings(
            EmbeddingStore(ids=["a", "b"], vectors=np.eye(3)[:2], kind="image_feature"), images
        )
        data = bytearray(images.read_bytes())
        data[-1] = 0xFF  # id "b"
        images.write_bytes(bytes(data))
        code, _, err = run(
            ["index", "--checkpoint", str(ckpt), "--images", str(images), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "DataFormatError" and "id 1" in doc["message"]

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda raw: raw + b"xx", "trailing data"),
            (lambda raw: raw[:-1] + b"\xff", "checkpoint meta block"),
            (lambda raw: raw[:-1] + b",", "checkpoint meta block"),
        ],
        ids=["trailing", "meta-utf8", "meta-json"],
    )
    def test_corrupt_checkpoint_exit_2(self, tmp_path, capsys, corrupt, match):
        ckpt, images = tmp_path / "m.ckpt", tmp_path / "images.emb"
        save_checkpoint(init_model(3, 3, 2, seed=0, meta={"k": 1}), ckpt)
        ckpt.write_bytes(corrupt(ckpt.read_bytes()))
        save_embeddings(EmbeddingStore(ids=["a"], vectors=[[1.0, 0.0, 0.0]], kind="image_feature"),
                        images)
        code, _, err = run(
            ["index", "--checkpoint", str(ckpt), "--images", str(images), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "DataFormatError" and match in doc["message"]

    def test_hostile_store_header_exit_2(self, pipeline, tmp_path):
        images = tmp_path / "images.emb"
        images.write_bytes(struct.pack("<4sIQIB7x", b"AZEB", 1, 2**24, 1024, 0).ljust(64, b"\0"))
        code, _, err = run_capped(
            ["index", "--checkpoint", pipeline / "model.ckpt", "--images", images,
             "--out", tmp_path / "o.azi"]
        )
        assert code == 2, err
        doc = json.loads(err)
        assert doc["error"] == "TruncatedFileError" and "vector payload" in doc["message"]

    def test_hostile_checkpoint_dims_exit_2(self, pipeline, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        data = bytearray((pipeline / "model.ckpt").read_bytes())
        data[8:20] = struct.pack("<III", 2**32 - 1, 2**32 - 1, 2**32 - 1)
        ckpt.write_bytes(bytes(data))
        code, _, err = run_capped(
            ["index", "--checkpoint", ckpt, "--images", pipeline / "ds" / "images.emb",
             "--out", tmp_path / "o.azi"]
        )
        assert code == 2, err
        doc = json.loads(err)
        assert doc["error"] == "TruncatedFileError"
        assert f"wanted {(2**32 - 1) ** 2 * 8} bytes" in doc["message"]

    @pytest.mark.parametrize(
        "corrupt, kind, match",
        [
            (lambda raw: raw[:-68] + struct.pack("<I", 0xFFFFFFFF) + raw[-64:],
             "TruncatedFileError", "fingerprint footer"),
            (lambda raw: raw[:-1] + b"\xff", "DataFormatError", "fingerprint footer"),
        ],
        ids=["footer-length", "footer-utf8"],
    )
    def test_corrupt_index_footer_exit_2(self, pipeline, tmp_path, corrupt, kind, match):
        idx = tmp_path / "i.azi"
        idx.write_bytes(corrupt((pipeline / "idx.azi").read_bytes()))
        code, _, err = run_capped(
            ["query", "--index", idx, "--checkpoint", pipeline / "model.ckpt",
             "--embedding", json.dumps([0.1] * 8)]
        )
        assert code == 2, err
        doc = json.loads(err)
        assert doc["error"] == kind and match in doc["message"]

    @pytest.mark.parametrize(
        "setting",
        [
            "train.epochs=0",
            "train.batch_size=1",
            "loss.temperature=0",
            "model.shared_dim=0",
            "data.augment.copies=-1",
            "data.augment.sigma=-1",
            "train.batch_size=100000",  # larger than the train split
        ],
    )
    def test_out_of_range_train_config_exit_1(self, pipeline, tmp_path, capsys, setting):
        ckpt = tmp_path / "m.ckpt"
        code, _, err = run(
            ["train", "--manifest", str(pipeline / "ds" / "manifest.jsonl"),
             "--images", str(pipeline / "ds" / "images.emb"),
             "--texts", str(pipeline / "ds" / "texts.emb"),
             "--checkpoint", str(ckpt)] + SMALL + FAST_TRAIN + ["--set", setting],
            capsys,
        )
        assert code == 1, err
        assert json.loads(err)["error"] == "ConfigError"
        assert not ckpt.exists()

    @pytest.mark.parametrize("source", ["set", "config"])
    def test_config_text_utf8_cannot_encode_exit_1(self, pipeline, tmp_path, capsys, source):
        # argv decodes a 0xFF byte to a lone surrogate and a config file can escape one; the
        # checkpoint's UTF-8 config echo cannot hold either, so train stops before its first step
        config = tmp_path / "run.json"
        config.write_text('{"eval": {"dataset_name": "\\ud800"}}')
        given = {"set": ["--set", "eval.dataset_name=a\udcff"], "config": ["--config", str(config)]}
        ckpt, log = tmp_path / "m.ckpt", tmp_path / "train.log"
        code, _, err = run(
            ["train", "--manifest", str(pipeline / "ds" / "manifest.jsonl"),
             "--images", str(pipeline / "ds" / "images.emb"),
             "--texts", str(pipeline / "ds" / "texts.emb"),
             "--checkpoint", str(ckpt), "--log", str(log)] + SMALL + FAST_TRAIN + given[source],
            capsys,
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "ConfigError" and "can't encode" in doc["message"]
        assert not ckpt.exists() and not log.exists()

    def test_out_of_range_synth_config_exit_1(self, tmp_path, capsys):
        code, _, err = run(
            ["synth", "--out-dir", str(tmp_path / "d"), "--set", "data.synth.noise_sigma=-1"], capsys
        )
        assert code == 1
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "target, offset, raw, match",
        [
            ("images.emb", 28, struct.pack("<f", np.nan), "non-finite"),
            ("images.emb", -1, b"0", "unique"),  # last id 'img29' becomes 'img20'
            ("model.ckpt", 20, struct.pack("<d", np.inf), "non-finite"),
            ("idx.azi", 28, struct.pack("<f", 5.0), "norm"),
        ],
        ids=["store-nan", "store-duplicate-id", "checkpoint-inf", "index-row-norm"],
    )
    def test_corrupt_contents_exit_2(self, pipeline, tmp_path, capsys, target, offset, raw, match):
        files = {
            "images.emb": pipeline / "ds" / "images.emb",
            "model.ckpt": pipeline / "model.ckpt",
            "idx.azi": pipeline / "idx.azi",
        }
        data = bytearray(files[target].read_bytes())
        at = offset % len(data)
        data[at : at + len(raw)] = raw
        files[target] = tmp_path / target
        files[target].write_bytes(bytes(data))
        argv = (
            ["query", "--index", files["idx.azi"], "--checkpoint", files["model.ckpt"],
             "--embedding", json.dumps([0.1] * 8)]
            if target == "idx.azi"
            else ["index", "--checkpoint", files["model.ckpt"], "--images", files["images.emb"],
                  "--out", tmp_path / "o.azi"]
        )
        code, _, err = run([str(a) for a in argv], capsys)
        assert code == 2, err
        doc = json.loads(err)
        assert doc["error"] == "DataFormatError" and match in doc["message"]
        assert doc["message"].startswith(f"{files[target]}: ")

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        code, _, err = run(["synth", "--out-dir", str(tmp_path / "d"), "--set", "train.bogus=1"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "ConfigError"

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run(["synth", "--nope"], capsys)
        assert code == 1

    def test_bad_config_file_json_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{broken")
        code, _, err = run(["synth", "--out-dir", str(tmp_path / "d"), "--config", str(cfg)], capsys)
        assert code == 2

    def test_config_file_not_utf8_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"seed": "\xff"}')
        code, _, err = run(["synth", "--out-dir", str(tmp_path / "d"), "--config", str(cfg)], capsys)
        assert code == 2
        assert json.loads(err) == {
            "error": "DataFormatError",
            "message": f"{cfg}: config file is not valid UTF-8 (invalid start byte)",
        }

    def test_error_lines_are_single_json(self, capsys):
        code, _, err = run(["query", "--index", "/nope", "--checkpoint", "/nope",
                            "--embedding", "[1,2]"], capsys)
        assert code == 2
        lines = [l for l in err.splitlines() if l]
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert set(parsed) == {"error", "message"}

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["query", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--k" in out and "default: 10" in out

    def test_train_help_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["train", "--help"])
        out = capsys.readouterr().out
        for flag in ("--manifest", "--images", "--texts", "--checkpoint", "--log",
                     "--report", "--config", "--set", "--seed", "--allow-ragged"):
            assert flag in out


def train_args(p, *flags):
    """A short ``train`` of the pipeline's dataset with ``flags``."""
    ds = p / "ds"
    return ["train", "--manifest", str(ds / "manifest.jsonl"), "--images", str(ds / "images.emb"),
            "--texts", str(ds / "texts.emb"), *flags] + SMALL + FAST_TRAIN


def eval_on_manifest(p, *flags):
    """``eval`` of the pipeline's index on its manifest's test split, with ``flags``."""
    return ["eval", "--index", str(p / "idx.azi"), "--checkpoint", str(p / "model.ckpt"),
            "--texts", str(p / "ds" / "texts.emb"), "--manifest", str(p / "ds" / "manifest.jsonl"), *flags]


# An empty output path is given, as `--config ""` is: the write fails, exit 2.
EMPTY_OUTPUTS = {
    "ingest --out": lambda p, t: [str(a) for a in ingest(p, "--out", "", *SMALL)],
    "train --report": lambda p, t: train_args(p, "--checkpoint", str(t / "m.ckpt"), "--report", ""),
    "train --log": lambda p, t: train_args(p, "--checkpoint", str(t / "m.ckpt"), "--log", ""),
    "train --checkpoint": lambda p, t: train_args(p, "--checkpoint", ""),
    "eval --report": lambda p, t: eval_on_manifest(p, "--report", ""),
}


class TestEmptyOutputPaths:
    @pytest.mark.parametrize("case", EMPTY_OUTPUTS)
    def test_empty_output_path_exit_2(self, pipeline, tmp_path, capsys, monkeypatch, case):
        # the atomic writer puts its temporary file beside the path: here, in the working directory
        monkeypatch.chdir(tmp_path)
        code, _, err = run(EMPTY_OUTPUTS[case](pipeline, tmp_path), capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "FileNotFoundError"
        assert not list(tmp_path.glob("*.tmp"))

    def test_empty_model_name_labels_the_row(self, pipeline, tmp_path, capsys):
        report = tmp_path / "eval.json"
        code, stdout, _ = run(eval_on_manifest(pipeline, "--model-name", "", "--report", str(report)),
                              capsys)
        assert code == 0
        assert json.loads(report.read_text())["model"] == ""
        assert stdout.splitlines()[2].startswith(" " * len("Model"))


# Output paths no write can reach: `train` must fail on them before its first step.
BAD_TRAIN_OUTPUTS = {
    "--report in a missing dir": ("--checkpoint", "m.ckpt", "--report", "nodir/r.json"),
    "--report empty": ("--checkpoint", "m.ckpt", "--report", ""),
    "--checkpoint in a missing dir": ("--checkpoint", "nodir/m.ckpt"),
    "--checkpoint empty": ("--checkpoint", ""),
    "--checkpoint a directory": ("--checkpoint", "."),
}


# Each config fault train reports before it reads an input, as a train --set.
TRAIN_CONFIG_FAULTS = {
    "train.epochs=0": "epochs must be >= 1, got 0",
    "train.batch_size=1": "batch_size must be >= 2 for contrastive training, got 1",
    "train.lr_max=-1.0": "need 0 <= lr_min <= lr_max, got lr_min=1e-05, lr_max=-1.0",
    "train.lr_min=-1.0": "need 0 <= lr_min <= lr_max, got lr_min=-1.0, lr_max=0.001",
    "train.lr_min=0.5": "need 0 <= lr_min <= lr_max, got lr_min=0.5, lr_max=0.001",
    "train.warmup_steps=-1": "warmup_steps must be >= 0",
    "train.weight_decay=-0.5": "weight_decay must be >= 0",
    "train.beta1=1.0": "betas must lie in [0, 1)",
    "train.beta2=-0.5": "betas must lie in [0, 1)",
    "train.eps=0.0": "eps must be positive",
    "loss.lambda=-1.0": "lam must be >= 0, got -1.0",
    "loss.temperature=0.0": "temperature must be positive, got 0.0",
    "loss.margin_mode=bogus": "margin_mode must be one of ('literal', 'hard_negative'), got 'bogus'",
    "model.shared_dim=0": "shared_dim must be positive, got 0",
    "data.augment.copies=-1": "copies must be >= 0",
    "data.augment.sigma=-1": "sigma must be >= 0",
    "data.captions_per_image=0": "data.captions_per_image must be >= 1, got 0",
    "seed=-2": "seed must be >= 0, got -2",
}


class TestTrainConfigFaultsFirst:
    @pytest.mark.parametrize("setting", TRAIN_CONFIG_FAULTS)
    def test_config_fault_before_any_input_is_read(self, tmp_path, capsys, monkeypatch, setting):
        # no input exists: a config fault must be reported before train opens one
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            ["train", "--manifest", "nope.jsonl", "--images", "nope.emb", "--texts", "nope.emb",
             "--checkpoint", "m.ckpt", "--log", "train.log", "--report", "r.json",
             "--set", setting],
            capsys,
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "ConfigError", "message": TRAIN_CONFIG_FAULTS[setting]}
        assert list(tmp_path.iterdir()) == []


# Config and usage faults of synth, ingest and eval, each with input paths that do not exist.
OTHER_CONFIG_FAULTS = {
    "synth --seed -1": (["synth", "--out-dir", "d", "--seed", "-1"],
                        "ConfigError", "seed must be >= 0, got -1"),
    "ingest data.captions_per_image=0": (
        ["ingest", "--manifest", "nope.jsonl", "--images", "nope.emb", "--texts", "nope.emb",
         "--out", "i.json", "--set", "data.captions_per_image=0"],
        "ConfigError", "data.captions_per_image must be >= 1, got 0"),
    "eval --split bogus": (
        ["eval", "--index", "nope.azi", "--checkpoint", "nope.ckpt", "--texts", "nope.emb",
         "--manifest", "nope.jsonl", "--report", "r.json", "--split", "bogus"],
        "usage", "--split must be one of ('train', 'val', 'test'), got 'bogus'"),
    "eval eval.split=bogus": (
        ["eval", "--index", "nope.azi", "--checkpoint", "nope.ckpt", "--texts", "nope.emb",
         "--manifest", "nope.jsonl", "--report", "r.json", "--set", "eval.split=bogus"],
        "usage", "eval.split must be one of ('train', 'val', 'test'), got 'bogus'"),
}


class TestOtherFaultsFirst:
    @pytest.mark.parametrize("case", OTHER_CONFIG_FAULTS)
    def test_fault_before_any_input_is_read(self, tmp_path, capsys, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        argv, kind, message = OTHER_CONFIG_FAULTS[case]
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": kind, "message": message}
        assert list(tmp_path.iterdir()) == []


class TestBadOutputPaths:
    @pytest.mark.parametrize("case", BAD_TRAIN_OUTPUTS)
    def test_train_fails_before_the_first_step(self, pipeline, tmp_path, capsys, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        train_module = importlib.import_module("twotower.train")  # not the train function
        steps = []
        real_backward = train_module._backward  # the step's forward and backward pass
        monkeypatch.setattr(train_module, "_backward",
                            lambda *a: steps.append(1) or real_backward(*a))
        flags = BAD_TRAIN_OUTPUTS[case]
        code, out, err = run(train_args(pipeline, *flags, "--log", "train.log"), capsys)
        assert (code, out, len(steps)) == (2, "", 0)
        path = flags[-1]
        fault = json.loads(err)
        assert fault["error"] == ("IsADirectoryError" if path == "." else "FileNotFoundError")
        assert fault["message"].endswith(f": {path!r}")
        assert list(tmp_path.iterdir()) == []  # no checkpoint, log or temporary file

    @pytest.mark.parametrize("out", ["nodir/x.azi", "", "d"])
    def test_atomic_write_fault_names_the_given_path(self, pipeline, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        argv = ["index", "--checkpoint", str(pipeline / "model.ckpt"),
                "--images", str(pipeline / "ds" / "images.emb"), "--out", out]
        first = run(argv, capsys)
        assert run(argv, capsys) == first  # no random temporary name in the message
        code, _, err = first
        assert code == 2
        assert json.loads(err)["message"].endswith(f": {out!r}")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []


# Each command's valid argv lists: every flag, defaults, repeats and abbreviations.
VALID_ARGV = [
    ["synth", "--out-dir", "d"],
    ["synth", "--out-dir", "d", "--seed", "3", "--set", "a.b=1", "--set", "c=2", "--config", "c.json"],
    ["ingest", "--manifest", "m", "--images", "i", "--texts", "t"],
    ["ingest", "--manifest", "m", "--images", "i", "--texts", "t", "--allow-ragged", "--out", ""],
    ["train", "--manifest", "m", "--images", "i", "--texts", "t", "--checkpoint", "c"],
    ["train", "--manifest", "m", "--images", "i", "--texts", "t", "--checkpoint", "c",
     "--log", "l", "--report", "r", "--allow-ragged", "--seed=7"],
    ["index", "--checkpoint", "c", "--images", "i", "--out", "o"],
    ["query", "--index", "x", "--checkpoint", "c", "--embedding", "[1]"],
    ["query", "--index", "x", "--checkpoint", "c", "--texts", "t", "--text-id", "q", "--k", "3"],
    ["query", "--ind", "x", "--check", "c", "--text-id", "q"],
    ["eval", "--index", "x", "--checkpoint", "c", "--texts", "t", "--manifest", "m"],
    ["eval", "--index", "x", "--checkpoint", "c", "--texts", "t", "--judgments", "j",
     "--split", "s", "--dataset-name", "d", "--model-name", "n", "--report", "r", "--set", "a=1"],
]
BAD_ARGV = [
    [],
    ["synth"],
    ["ingest", "--manifest", "m", "--images", "i"],
    ["train", "--manifest", "m", "--images", "i", "--texts", "t"],
    ["index", "--checkpoint", "c", "--images", "i"],
    ["query", "--index", "x"],
    ["eval", "--index", "x", "--checkpoint", "c", "--texts", "t"],
    ["synth", "--out-dir", "d", "--nope"],
    ["ingest", "--manifest", "m", "--images", "i", "--texts", "t", "--nope", "1"],
    ["train", "--bogus"],
    ["index", "--checkpoint", "c", "--images", "i", "--out", "o", "extra"],
    ["query", "--index", "x", "--checkpoint", "c", "--k", "x"],
    ["eval", "--index", "x", "--checkpoint", "c", "--texts", "t", "--manifest", "m", "--judgments", "j"],
    ["eval", "--nope"],
]


COMMAND_HELP = {
    "synth": "generate a synthetic paired dataset",
    "ingest": "validate a manifest + embedding files as a paired dataset",
    "train": "train projection heads on a paired dataset",
    "index": "project an image store and build a retrieval index",
    "query": "rank indexed images against one text embedding",
    "eval": "evaluate retrieval quality for one dataset",
}


class TestParser:
    @pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
    def test_one_command_parser_parses_as_the_full_parser(self, argv):
        assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", BAD_ARGV, ids=lambda a: " ".join(a) or "(none)")
    def test_one_command_parser_refuses_as_the_full_parser(self, argv):
        messages = []
        for parser in (cli.build_parser(argv[0] if argv else None), cli.build_parser()):
            with pytest.raises(cli._UsageError) as exc:
                parser.parse_args(argv)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_a_command_builds_only_its_own_subparser(self, pipeline, capsys, monkeypatch):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        code, _, _ = run(["query", "--index", str(pipeline / "idx.azi"),
                          "--checkpoint", str(pipeline / "model.ckpt"),
                          "--texts", str(pipeline / "ds" / "texts.emb"), "--text-id", "img00#c0"],
                         capsys)
        assert code == 0
        assert built == ["query"]

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        words = " ".join(capsys.readouterr().out.split())  # help lines wrap at the terminal width
        for name, help_line in COMMAND_HELP.items():
            assert f" {name} {help_line} " in words, name

    def test_unknown_command_names_every_choice_exit_1(self, capsys):
        code, out, err = run(["bogus"], capsys)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "usage",
            "message": "argument command: invalid choice: 'bogus' (choose from "
            + ", ".join(map(repr, COMMAND_HELP)) + ")",
        }


class TestConfigMachinery:
    def test_defaults_match_documented_values(self):
        # README's "Defaults:" block, every key and value, spelled as JSON spells them
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("Defaults:\n\n```json\n", 1)[1].split("```", 1)[0]
        canonical = lambda cfg: json.dumps(cfg, sort_keys=True)
        assert canonical(json.loads(block)) == canonical(cli.DEFAULT_CONFIG)

    def test_flags_win_over_config_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"seed": 5, "train": {"epochs": 7}}))
        parser = cli.build_parser()
        args = parser.parse_args(
            ["synth", "--out-dir", "x", "--config", str(cfg_file), "--set", "train.epochs=9"]
        )
        cfg = cli.effective_config(args)
        assert cfg["seed"] == 5
        assert cfg["train"]["epochs"] == 9

    def test_each_override_is_typed_by_the_defaults(self, pipeline, tmp_path, capsys):
        # an int from the config file does not make train.lr_max an int for --set
        cfg_file, out = tmp_path / "c.json", tmp_path / "ingest.json"
        cfg_file.write_text(json.dumps({"data": {"captions_per_image": 2}, "train": {"lr_max": 1}}))
        code, _, err = run([str(a) for a in ingest(pipeline, "--config", cfg_file, "--set",
                                                   "train.lr_max=0.002", "--out", out)], capsys)
        assert code == 0, err
        assert json.loads(out.read_text())["config"]["train"]["lr_max"] == 0.002

    def test_empty_config_path_is_given_exit_2(self, pipeline, capsys):
        code, _, err = run([str(a) for a in ingest(pipeline, "--config", "")], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_absent_flag_keeps_the_config_file_value(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"data": {"allow_ragged": True}}))
        args = cli.build_parser().parse_args(
            ["ingest", "--manifest", "m", "--images", "i", "--texts", "t", "--config", str(cfg_file)]
        )
        assert cli.effective_config(args)["data"]["allow_ragged"] is True

    def test_nested_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"data": {"synth": {"nz": 1}}}))
        parser = cli.build_parser()
        args = parser.parse_args(["synth", "--out-dir", "x", "--config", str(cfg_file)])
        from twotower.errors import ConfigError

        with pytest.raises(ConfigError, match="data.synth.nz"):
            cli.effective_config(args)


def package_errors(cls=errors.TwoTowerError):
    """Names of ``cls`` and of every subclass of it."""
    return {cls.__name__}.union(*(package_errors(sub) for sub in cls.__subclasses__()))


def ingest(p, *flags):
    """``ingest`` of the pipeline's dataset with ``flags``."""
    ds = p / "ds"
    return ["ingest", *flags, "--manifest", ds / "manifest.jsonl", "--images", ds / "images.emb",
            "--texts", ds / "texts.emb"]


# Each command reads one input from a corrupted copy and the others intact.
CORRUPTIBLE = {
    "images.emb": lambda p, bad: ["index", "--checkpoint", p / "model.ckpt", "--images", bad,
                                  "--out", bad.parent / "o.azi"],
    "texts.emb": lambda p, bad: ["query", "--index", p / "idx.azi", "--checkpoint", p / "model.ckpt",
                                 "--texts", bad, "--text-id", "img00#c0"],
    "model.ckpt": lambda p, bad: ["query", "--index", p / "idx.azi", "--checkpoint", bad,
                                  "--texts", p / "ds" / "texts.emb", "--text-id", "img00#c0"],
    "idx.azi": lambda p, bad: ["query", "--index", bad, "--checkpoint", p / "model.ckpt",
                               "--texts", p / "ds" / "texts.emb", "--text-id", "img00#c0"],
    "manifest.jsonl": lambda p, bad: ["eval", "--index", p / "idx.azi", "--checkpoint", p / "model.ckpt",
                                      "--texts", p / "ds" / "texts.emb", "--manifest", bad],
    "judgments.jsonl": lambda p, bad: ["eval", "--index", p / "idx.azi", "--checkpoint", p / "model.ckpt",
                                       "--texts", p / "ds" / "texts.emb", "--judgments", bad],
    "config.json": lambda p, bad: ingest(p, "--config", bad),
}
# The exit codes a corrupt copy may give; a config file's keys and values can also be wrong (1).
CORRUPT_EXITS = {**dict.fromkeys(CORRUPTIBLE, (0, 2, 4)), "config.json": (0, 1, 2)}


@pytest.fixture(scope="module")
def intact(pipeline):
    """The bytes of each input in ``CORRUPTIBLE``; the judgments cover the test split."""
    ds = pipeline / "ds"
    rows = [json.loads(l) for l in (ds / "manifest.jsonl").read_text().splitlines()]
    judgments = "".join(
        json.dumps({"query_id": r["text_id"], "relevant_ids": [r["image_id"], "img01"],
                    "correct_id": r["image_id"]}) + "\n"
        for r in rows if r["split"] == "test"
    )
    files = {name: ds / name for name in ("images.emb", "texts.emb", "manifest.jsonl")}
    files.update({name: pipeline / name for name in ("model.ckpt", "idx.azi")})
    config = {**cli.DEFAULT_CONFIG, "data": {**cli.DEFAULT_CONFIG["data"], "captions_per_image": 2}}
    return {"judgments.jsonl": judgments.encode(), "config.json": json.dumps(config, indent=2).encode(),
            **{n: f.read_bytes() for n, f in files.items()}}


@st.composite
def corruptions(draw, raw):
    """``raw`` truncated, or with one byte changed."""
    at = draw(st.integers(0, len(raw) - 1))
    if draw(st.booleans()):
        return raw[:at]
    flipped = bytearray(raw)
    flipped[at] ^= draw(st.integers(1, 255))
    return bytes(flipped)


@pytest.mark.parametrize("name", CORRUPTIBLE)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_corrupt_input_exits_with_a_package_error(pipeline, intact, tmp_path_factory, name, data):
    bad = tmp_path_factory.getbasetemp() / "corrupt" / name
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(data.draw(corruptions(intact[name])))
    code, err = run_quiet(CORRUPTIBLE[name](pipeline, bad))
    assert code in CORRUPT_EXITS[name], err
    if code:
        assert json.loads(err)["error"] in package_errors(), err


def _config_keys(cfg, prefix=""):
    for key, value in cfg.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _config_keys(value, f"{prefix}{key}.")


# Every section and key of the config, and names that are none of them.
SET_KEYS = sorted(_config_keys(cli.DEFAULT_CONFIG)) + ["", "nope", "data.nope", "seed.x", "data..synth"]
DEEP = "[" * 100_000 + "]" * 100_000  # past any recursion limit of the json scanner
LONG = "1" * 5_000  # past the 4,300 digits int() converts from text
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SET_KEYS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
set_values = st.one_of(
    json_values.map(json.dumps),
    st.text(max_size=12),
    st.sampled_from([DEEP, LONG, "NaN", "-Infinity", "1e400", "{", "[1,", '"x', "true", "2"]),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sets=st.lists(st.tuples(st.sampled_from(SET_KEYS), set_values), min_size=1, max_size=3))
def test_set_values_exit_with_a_package_error(pipeline, sets):
    # ingest reads only seed and the data section: no drawn value starts a run or a synth
    code, err = run_quiet(ingest(pipeline, *(f for k, v in sets for f in ("--set", f"{k}={v}"))))
    assert code in (0, 1, 2), err
    if code:
        assert json.loads(err)["error"] in package_errors() | {"usage"}, err


def _checkpoint_with_meta(p, text, bad):
    save_checkpoint(init_model(10, 8, 2, seed=0), bad)  # meta {} is the last 4 + 2 bytes
    meta = text.encode()
    bad.write_bytes(bad.read_bytes()[:-6] + struct.pack("<I", len(meta)) + meta)
    return ["index", "--checkpoint", bad, "--images", p / "ds" / "images.emb", "--out", bad.parent / "o"]


def _jsonl_after_one_line(command, first):
    def argv(p, text, bad):
        bad.write_text(first + "\n" + text + "\n")
        return command(p, bad)
    return argv


def _config_file(p, text, bad):
    bad.write_text('{"seed": %s}' % text)
    return ingest(p, "--config", bad)


# Each JSON input with ``text`` in it, as (argv builder, the error kinds it may give).
JSON_INPUTS = {
    "manifest": (_jsonl_after_one_line(CORRUPTIBLE["manifest.jsonl"], json.dumps(
        {"image_id": "img00", "caption": "c", "lang": "x", "split": "test", "text_id": "img00#c0"})),
        {"ManifestError"}),
    "judgments": (_jsonl_after_one_line(CORRUPTIBLE["judgments.jsonl"], json.dumps(
        {"query_id": "img00#c0", "relevant_ids": ["img00"], "correct_id": "img00"})),
        {"DataFormatError"}),
    "config": (_config_file, {"DataFormatError"}),
    "set": (lambda p, text, bad: ingest(p, "--set", f"data.allow_ragged={text}"), {"ConfigError"}),
    "embedding": (lambda p, text, bad: ["query", "--index", p / "idx.azi", "--checkpoint",
                                        p / "model.ckpt", "--embedding", text], {"usage"}),
    "checkpoint-meta": (_checkpoint_with_meta, {"DataFormatError"}),
}


@pytest.mark.parametrize("payload", [DEEP, LONG], ids=["deep", "long-int"])
@pytest.mark.parametrize("site", JSON_INPUTS)
def test_deep_or_long_json_is_a_typed_error(pipeline, tmp_path, site, payload):
    argv, kinds = JSON_INPUTS[site]
    code, err = run_quiet(argv(pipeline, payload, tmp_path / "bad"))
    assert code in (1, 2), err
    assert len(err.splitlines()) == 1, err
    assert json.loads(err)["error"] in kinds, err
