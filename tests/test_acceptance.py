"""Acceptance suite.

Each test covers one release criterion, prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``), and asserts its bar.

Criterion 5 thresholds were frozen after the first complete run of the
default desk-scale config on this implementation, which reached train
Top-1 = 1.0 and held-out Top-1 = 1.0 (chance is 1/200 = 0.005); the
asserted bars are train >= 0.9 and held-out >= 0.5 with train >= held-out.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import (
    fd_param_grads,
    first_bad_block,
    oracle_contrastive,
    oracle_evaluate,
    oracle_topk,
)
from twotower import cli
from twotower.data import EmbeddingStore, load_embeddings, save_embeddings
from twotower.errors import BadMagicError, TruncatedFileError
from twotower.loss import LossConfig, contrastive_loss, loss_backward
from twotower.metrics import (
    QueryJudgment,
    average_precision,
    average_recall,
    evaluate_run,
    f1_per_query,
)
from twotower.model import init_model, load_checkpoint, save_checkpoint
from twotower.retrieval import batch_query, build_index, load_index, query, save_index


def report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------


def _grad_instance(rng, n, margin_active, lam, tau):
    """Random model + batch with the margin hinge forced active or inactive.

    Rows whose two smallest off-diagonal logits are nearly tied are
    resampled: the loss stays continuous across a tie, but central
    differences straddling one measure the branch average rather than the
    lowest-index subgradient this package pins.
    """
    for _ in range(50):
        img_dim = int(rng.integers(2, 9))
        txt_dim = int(rng.integers(2, 9))
        shared = int(rng.integers(2, 9))
        model = init_model(img_dim, txt_dim, shared, seed=int(rng.integers(0, 2**31)))
        img = rng.standard_normal((n, img_dim))
        txt = rng.standard_normal((n, txt_dim))
        probe, _ = loss_backward(img, txt, model, LossConfig(lam=0.0, temperature=tau))
        min_off = probe.per_row_min_offdiag
        from oracles import similarity_logits
        from twotower.model import project

        s = similarity_logits(
            project(model.image_head, img), project(model.text_head, txt), tau
        )
        # require a clear gap between each row's two smallest off-diagonals
        ok = True
        for i in range(n):
            off = np.sort(np.delete(s[i], i))
            if len(off) > 1 and off[1] - off[0] < 1e-3:
                ok = False
                break
        if not ok:
            continue
        margin = float(min_off.max() + 0.3) if margin_active else float(min_off.min() - 0.3)
        cfg = LossConfig(lam=lam, margin=margin, temperature=tau)
        return model, img, txt, cfg
    raise RuntimeError("could not build a well-separated gradient instance")


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    worst = 0.0
    combos = [
        (n, active, lam, tau)
        for n in (2, 4)
        for active in (True, False)
        for lam in (0.0, 0.5, 1.0)
        for tau in (0.5, 1.0)
    ]
    reps = math.ceil(200 / len(combos))
    for _ in range(reps):
        for n, active, lam, tau in combos:
            model, img, txt, cfg = _grad_instance(rng, n, active, lam, tau)
            _, grads = loss_backward(img, txt, model, cfg)
            fd = fd_param_grads(img, txt, model, cfg, h=1e-5)
            diff = np.abs(grads - fd)
            scale = np.maximum(np.abs(grads), np.abs(fd))
            bad = diff > np.maximum(1e-7, 1e-4 * scale)
            assert not bad.any(), (
                f"{first_bad_block(model, bad)} gradient mismatch (n={n}, active={active}, "
                f"lam={lam}, tau={tau}): max diff {diff.max():.3e}"
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                rel = np.where(scale > 0, diff / scale, 0.0)
            worst = max(worst, float(rel[diff > 1e-7].max()) if (diff > 1e-7).any() else 0.0)
            checked += 1
    elapsed = time.perf_counter() - t0
    report_line(
        1,
        "gradient-correctness",
        checked >= 200 and elapsed < 30.0,
        f"{checked} instances, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Loss oracle
# ---------------------------------------------------------------------------


def test_criterion_2_loss_oracle():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        s = rng.uniform(-3, 3, size=(n, n))
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        margin = float(rng.uniform(-0.5, 1.0))
        symmetric = bool(rng.integers(0, 2))
        out = contrastive_loss(s, LossConfig(lam=lam, margin=margin, symmetric=symmetric))
        ce, mt, total = oracle_contrastive(s.tolist(), lam, margin, symmetric)
        worst = max(
            worst,
            abs(out.ce_term - ce),
            abs(out.margin_term - mt),
            abs(out.total - total),
        )
        assert worst <= 1e-10, f"loss oracle disagreement {worst:.3e}"

    hand = contrastive_loss([[1.0, 0.0], [0.0, 1.0]], LossConfig(lam=1.0, margin=0.2))
    hand_ok = abs(hand.total - 0.706524) < 1e-6
    report_line(
        2,
        "loss-oracle",
        worst <= 1e-10 and hand_ok,
        f"1000 matrices, worst |diff| {worst:.2e}, hand case {hand.total:.6f}",
    )


# ---------------------------------------------------------------------------
# 3. Metrics oracle
# ---------------------------------------------------------------------------


def _random_metrics_instance(rng):
    from twotower.retrieval import RankedResult

    n_index = int(rng.integers(2, 31))
    index_ids = [f"im{i}" for i in range(n_index)]
    n_q = int(rng.integers(1, 21))
    results, judgments = [], []
    for qi in range(n_q):
        ranked = list(rng.permutation(index_ids))
        if rng.random() < 0.3:
            ranked = ranked[: int(rng.integers(1, n_index + 1))]
        m = int(rng.integers(1, min(6, n_index) + 1))
        relevant = list(rng.choice(index_ids, size=m, replace=False))
        results.append(
            RankedResult(query_id=f"q{qi}", hits=[(d, 0.0) for d in ranked], k=len(ranked))
        )
        judgments.append(QueryJudgment(f"q{qi}", frozenset(relevant), str(rng.choice(relevant))))
    return results, judgments


def test_criterion_3_metrics_oracle():
    rng = np.random.default_rng(1003)
    for _ in range(500):
        results, judgments = _random_metrics_instance(rng)
        mine = evaluate_run(results, judgments)
        agg, per = oracle_evaluate(results, judgments)
        exact = (
            mine.map == agg["ap"]
            and mine.mar == agg["ar"]
            and mine.maf1 == agg["f1"]
            and mine.top1 == agg["top1"]
            and mine.top5 == agg["top5"]
            and mine.top10 == agg["top10"]
            and all(m == o for m, o in zip(mine.per_query, per))
        )
        assert exact, "metrics oracle disagreement"

    ap = average_precision(["a", "b", "c"], {"a", "c"})
    ar = average_recall(["a", "b", "c"], {"a", "c"})
    f1 = f1_per_query(ap, ar)
    hand_ok = (
        abs(ap - 0.83333) < 5e-6 and abs(ar - 0.75) < 5e-6 and abs(f1 - 0.78947) < 5e-6
    )
    report_line(
        3,
        "metrics-oracle",
        hand_ok,
        f"500 instances exact, hand AP={ap:.5f} AR={ar:.5f} F1={f1:.5f}",
    )


# ---------------------------------------------------------------------------
# 4. Retrieval exactness
# ---------------------------------------------------------------------------


def test_criterion_4_retrieval_exactness():
    from twotower.retrieval import RetrievalIndex

    rng = np.random.default_rng(1004)
    for case in range(500):
        n = int(rng.integers(1, 51))
        d_in = int(rng.integers(2, 17))
        d_out = int(rng.integers(2, min(d_in, 16) + 1))
        model = init_model(d_in, d_in, d_out, seed=int(rng.integers(0, 2**31)))
        vecs = rng.standard_normal((n, d_in))
        store = EmbeddingStore(
            ids=[f"im{i}" for i in range(n)], vectors=vecs, kind="image_feature"
        )
        index = build_index(model, store)
        if n >= 2:  # bit-identical stored rows: exact score ties exercising tie order
            ids = index.ids + ["im0+dup", "im1+dup"]
            dup_vectors = np.vstack([index.vectors, index.vectors[[0, 1]]])
            index = RetrievalIndex(
                ids=ids, vectors=dup_vectors, model_fingerprint=index.model_fingerprint
            )
        q = rng.standard_normal(d_in)
        k = int(rng.integers(1, len(index) + 4))
        got = query(index, model, q, k=k)
        want_ids, want_scores = oracle_topk(index.ids, index.vectors, model, q, k)
        assert [h[0] for h in got.hits] == want_ids, f"case {case}: tie/order mismatch"
        for (_, s), w in zip(got.hits, want_scores):
            assert abs(s - w) <= 1e-12

    # batch_query must equal sequential query bit for bit
    model = init_model(8, 6, 4, seed=7)
    store = EmbeddingStore(
        ids=[f"im{i}" for i in range(40)],
        vectors=np.random.default_rng(5).standard_normal((40, 8)),
        kind="image_feature",
    )
    index = build_index(model, store)
    texts = EmbeddingStore(
        ids=[f"q{i}" for i in range(25)],
        vectors=np.random.default_rng(6).standard_normal((25, 6)),
        kind="text_feature",
    )
    batch = batch_query(index, model, texts, k=40)
    for i, res in enumerate(batch):
        single = query(index, model, texts.vectors[i], k=40, query_id=texts.ids[i])
        assert res.hits == single.hits
    report_line(4, "retrieval-exactness", True, "500 indexes vs full-sort oracle; batch == sequential")


# ---------------------------------------------------------------------------
# 5-7. End-to-end pipeline criteria (via the CLI, default desk-scale config)
# ---------------------------------------------------------------------------


def _run_pipeline(root, extra_sets=()):
    ds = root / "ds"
    args = []
    for expr in extra_sets:
        args += ["--set", expr]
    assert cli.main(["synth", "--out-dir", str(ds)] + args) == 0
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
            + args
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
    for split in ("train", "test"):
        assert (
            cli.main(
                [
                    "eval",
                    "--index", str(root / "idx.azi"),
                    "--checkpoint", str(root / "model.ckpt"),
                    "--texts", str(ds / "texts.emb"),
                    "--manifest", str(ds / "manifest.jsonl"),
                    "--split", split,
                    "--report", str(root / f"eval_{split}.json"),
                ]
                + args
            )
            == 0
        )
    return root


def _metric(root, split, key):
    doc = json.loads((root / f"eval_{split}.json").read_text())
    return doc["metrics"][key]


@pytest.fixture(scope="module")
def default_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_default")
    t0 = time.perf_counter()
    _run_pipeline(root)
    elapsed = time.perf_counter() - t0
    (root / "elapsed.txt").write_text(str(elapsed))
    return root


def test_criterion_5_end_to_end_learnability(default_pipeline):
    root = default_pipeline
    elapsed = float((root / "elapsed.txt").read_text())
    train_top1 = _metric(root, "train", "top1")
    test_top1 = _metric(root, "test", "top1")
    losses = json.loads((root / "train.json").read_text())["report"]["train_loss"]
    ok = (
        train_top1 >= 0.9
        and test_top1 >= 0.5
        and train_top1 >= test_top1
        and losses[-1] < losses[0]
        and elapsed < 120.0
    )
    report_line(
        5,
        "end-to-end-learnability",
        ok,
        f"train top1={train_top1:.3f}, held-out top1={test_top1:.3f}, "
        f"chance=0.005, loss {losses[0]:.3f}->{losses[-1]:.3f}, pipeline {elapsed:.1f}s",
    )


def test_criterion_6_augmentation_direction(default_pipeline, tmp_path):
    base_map = _metric(default_pipeline, "test", "map")
    aug_root = tmp_path / "aug"
    aug_root.mkdir()
    _run_pipeline(aug_root, extra_sets=["data.augment.sigma=0.05", "data.augment.copies=2"])
    aug_map = _metric(aug_root, "test", "map")

    never_hurts = aug_map >= base_map - 0.02
    improves = aug_map > base_map if base_map < 1.0 else aug_map == 1.0

    # the default config saturates held-out MAP at 1.0, hiding the
    # improvement direction; a noisier variant exposes it
    noisy = ["data.synth.noise_sigma=0.5"]
    base_noisy_root = tmp_path / "noisy_base"
    base_noisy_root.mkdir()
    _run_pipeline(base_noisy_root, extra_sets=noisy)
    aug_noisy_root = tmp_path / "noisy_aug"
    aug_noisy_root.mkdir()
    _run_pipeline(
        aug_noisy_root, extra_sets=noisy + ["data.augment.sigma=0.05", "data.augment.copies=2"]
    )
    base_noisy = _metric(base_noisy_root, "test", "map")
    aug_noisy = _metric(aug_noisy_root, "test", "map")
    direction = aug_noisy > base_noisy

    report_line(
        6,
        "augmentation-direction",
        never_hurts and improves and direction,
        f"default MAP {base_map:.4f}->{aug_map:.4f}; "
        f"noisy variant {base_noisy:.4f}->{aug_noisy:.4f}",
    )


def test_criterion_7_pipeline_determinism(default_pipeline, tmp_path):
    second = tmp_path / "again"
    second.mkdir()
    _run_pipeline(second)

    ckpt_same = (
        (default_pipeline / "model.ckpt").read_bytes() == (second / "model.ckpt").read_bytes()
    )
    index_same = (
        (default_pipeline / "idx.azi").read_bytes() == (second / "idx.azi").read_bytes()
    )
    log_same = (
        (default_pipeline / "train.log").read_bytes() == (second / "train.log").read_bytes()
    )

    def stripped(path):
        doc = json.loads(path.read_text())
        doc.pop("meta", None)
        return doc

    reports_same = all(
        stripped(default_pipeline / name) == stripped(second / name)
        for name in ("train.json", "eval_train.json", "eval_test.json", "ds/dataset.json")
    )
    data_same = all(
        (default_pipeline / "ds" / n).read_bytes() == (second / "ds" / n).read_bytes()
        for n in ("images.emb", "texts.emb", "manifest.jsonl")
    )
    report_line(
        7,
        "pipeline-determinism",
        ckpt_same and index_same and log_same and reports_same and data_same,
        "checkpoint, index, logs, reports byte-identical (meta excluded)",
    )


# ---------------------------------------------------------------------------
# 8. Format round-trips
# ---------------------------------------------------------------------------


def test_criterion_8_format_roundtrips(tmp_path):
    rng = np.random.default_rng(1008)
    store = EmbeddingStore(
        ids=[f"v{i}" for i in range(7)], vectors=rng.standard_normal((7, 5)), kind="text_feature"
    )
    model = init_model(5, 4, 3, seed=3)
    index = build_index(
        model,
        EmbeddingStore(ids=["a", "b"], vectors=rng.standard_normal((2, 5)), kind="image_feature"),
    )

    cases = []
    p1, p2 = tmp_path / "s1.emb", tmp_path / "s2.emb"
    save_embeddings(store, p1)
    save_embeddings(load_embeddings(p1), p2)
    cases.append(("embedding store", p1, p2, load_embeddings))

    c1, c2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    save_checkpoint(model, c1)
    save_checkpoint(load_checkpoint(c1), c2)
    cases.append(("checkpoint", c1, c2, load_checkpoint))

    i1, i2 = tmp_path / "x1.azi", tmp_path / "x2.azi"
    save_index(index, i1)
    save_index(load_index(i1), i2)
    cases.append(("index", i1, i2, load_index))

    for name, a, b, loader in cases:
        assert a.read_bytes() == b.read_bytes(), f"{name}: second write differs"
        corrupt = tmp_path / f"corrupt_{a.name}"
        data = bytearray(a.read_bytes())
        data[:4] = b"ZZZZ"
        corrupt.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            loader(corrupt)
        short = tmp_path / f"short_{a.name}"
        short.write_bytes(a.read_bytes()[: len(a.read_bytes()) // 2])
        with pytest.raises((TruncatedFileError,)):
            loader(short)

    report_line(8, "format-roundtrips", True, "store/checkpoint/index: rewrite identical, corruption detected")
