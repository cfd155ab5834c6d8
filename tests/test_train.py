import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import oracle_adamw, reference_loss_backward
from twotower import model as model_module
from twotower.data import EmbeddingStore, PairedDataset, make_batches, synth_dataset
from twotower.errors import ConfigError, DivergenceError, ShapeError
from twotower.loss import LossConfig, loss_backward
from twotower.model import checkpoint_bytes, init_model
from twotower.train import (
    OptimizerState,
    _step_line,
    TrainConfig,
    adamw_step,
    lr_at,
    train,
)


def sched_cfg(lr_max=1.0, lr_min=0.1, warmup=10):
    return TrainConfig(lr_max=lr_max, lr_min=lr_min, warmup_steps=warmup)


class TestLrSchedule:
    def test_warmup_start_is_zero(self):
        assert lr_at(0, sched_cfg(), total_steps=100) == 0.0

    def test_warmup_end_is_lr_max(self):
        assert lr_at(10, sched_cfg(), total_steps=100) == 1.0

    def test_cosine_midpoint(self):
        cfg = sched_cfg(lr_max=1.0, lr_min=0.1, warmup=10)
        mid = 10 + (100 - 10) // 2
        assert lr_at(mid, cfg, total_steps=100) == pytest.approx(0.55, abs=1e-12)

    def test_end_is_lr_min(self):
        assert lr_at(100, sched_cfg(), total_steps=100) == pytest.approx(0.1, abs=1e-15)

    def test_beyond_end_clamps(self):
        assert lr_at(250, sched_cfg(), total_steps=100) == 0.1

    def test_warmup_linear(self):
        cfg = sched_cfg()
        assert lr_at(5, cfg, total_steps=100) == pytest.approx(0.5)

    def test_no_warmup(self):
        cfg = sched_cfg(warmup=0)
        assert lr_at(0, cfg, total_steps=10) == 1.0

    def test_warmup_clamped_to_short_runs(self):
        cfg = sched_cfg(warmup=1000)
        assert lr_at(4, cfg, total_steps=4) == 1.0


class TestAdamWStep:
    def _single(self, theta, grad, lr, wd, t_before=0):
        params = np.array([theta])
        cfg = TrainConfig(weight_decay=wd)
        state = OptimizerState.for_params(params)
        state.t = t_before
        adamw_step(params, np.array([grad]), state, lr, cfg, np.empty((2, 1)))
        return params[0], state

    def test_hand_case(self):
        # m_hat = 1, v_hat = 1 at t=1, so theta' = 1 - 0.1/(1 + 1e-8) - 0.1*0.01*1
        theta, state = self._single(1.0, 1.0, lr=0.1, wd=0.01)
        assert theta == pytest.approx(0.899, abs=1e-6)
        expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8) - 0.1 * 0.01 * 1.0
        assert theta == pytest.approx(expected, abs=1e-15)
        assert state.t == 1

    def test_zero_grad_zero_decay_is_identity(self):
        theta, _ = self._single(3.5, 0.0, lr=0.1, wd=0.0)
        assert theta == 3.5

    def test_pure_decay(self):
        theta, _ = self._single(2.0, 0.0, lr=0.1, wd=0.05)
        assert theta == pytest.approx(2.0 - 0.1 * 0.05 * 2.0, abs=1e-15)

    def test_flat_step_bit_equals_per_block_reference(self):
        # the flat update must round exactly as the per-block formula does.
        # Entries span many magnitudes, every seventh gradient stays zero so
        # its update is decay alone, and lr * weight_decay nears 0.17 so the
        # decay term is not lost below the parameters' last bit.
        rng = np.random.default_rng(30)
        model = init_model(8, 6, 4, seed=31)
        n = model.params.size
        model.params[:] = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 1, n)
        scales = 10.0 ** rng.integers(-10, 2, n)
        scales[::7] = 0.0
        cfg = TrainConfig(lr_max=0.1, weight_decay=1.7, warmup_steps=10)
        state = OptimizerState.for_params(model.params)
        scratch = np.empty((2, n))
        ref = {k: v.copy() for k, v in model.blocks(model.params).items()}
        ref_m = {k: np.zeros_like(v) for k, v in ref.items()}
        ref_v = {k: np.zeros_like(v) for k, v in ref.items()}
        for step in range(1, 51):
            lr = lr_at(step, cfg, total_steps=50)
            grads = rng.standard_normal(n) * scales
            adamw_step(model.params, grads, state, lr, cfg, scratch)
            oracle_adamw(ref, model.blocks(grads), ref_m, ref_v, step, lr, cfg)
            for key, block in model.blocks(model.params).items():
                assert block.tobytes() == ref[key].tobytes(), f"{key} differs at step {step}"
        assert state.t == 50
        for key, block in model.blocks(state.v).items():
            assert block.tobytes() == ref_v[key].tobytes()


def tiny_dataset(seed=0, n_images=24, cpi=2):
    return synth_dataset(
        n_images, cpi, latent_dim=4, img_dim=8, txt_dim=6, noise_sigma=0.02, seed=seed
    )


def tiny_cfg(**kw):
    defaults = dict(
        epochs=3,
        batch_size=8,
        lr_max=5e-3,
        lr_min=5e-4,
        warmup_steps=4,
        seed=11,
        loss=LossConfig(lam=1.0, margin=0.2),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrain:
    def test_zero_lr_is_identity(self):
        ds = tiny_dataset()
        model = init_model(8, 6, 4, seed=1)
        before = model.params.copy()
        cfg = tiny_cfg(lr_max=0.0, lr_min=0.0, weight_decay=0.0)
        best, report = train(model, ds, cfg)
        np.testing.assert_array_equal(best.params, before)
        assert report.train_loss == pytest.approx([report.train_loss[0]] * 3, abs=1e-12)

    def test_same_seed_same_everything(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        outs = []
        for sub in ("a", "b"):
            ds = tiny_dataset(seed=5)
            model = init_model(8, 6, 4, seed=2)
            best, report = train(model, ds, tiny_cfg(), checkpoint_path=tmp_path / sub / "best.ckpt")
            outs.append((checkpoint_bytes(best), report))
        assert outs[0][0] == outs[1][0]
        r0, r1 = outs[0][1], outs[1][1]
        assert r0.train_loss == r1.train_loss
        assert r0.val_loss == r1.val_loss
        assert r0.best_epoch == r1.best_epoch
        assert r0.checkpointed == r1.checkpointed
        assert r0.final_lr == r1.final_lr

    def test_best_val_loss_reproducible(self, tmp_path):
        ds = tiny_dataset(seed=3)
        model = init_model(8, 6, 4, seed=4)
        cfg = tiny_cfg(epochs=4)
        best, report = train(model, ds, cfg, checkpoint_path=tmp_path / "best.ckpt")
        assert report.best_val_loss == min(report.val_loss)
        re_eval = chunked_val_loss(best, ds, cfg.loss, cfg.batch_size)
        assert re_eval == pytest.approx(report.best_val_loss, abs=1e-12)

    def test_checkpoint_writes_count_strict_improvements(self, tmp_path, monkeypatch):
        ds = tiny_dataset(seed=6)
        model = init_model(8, 6, 4, seed=7)
        train_module = importlib.import_module("twotower.train")  # not the train function
        saves = []
        real_save = train_module.save_checkpoint
        monkeypatch.setattr(train_module, "save_checkpoint",
                            lambda m, path: saves.append(path) or real_save(m, path))
        best, report = train(model, ds, tiny_cfg(epochs=5), checkpoint_path=tmp_path / "best.ckpt")
        assert saves == [tmp_path / "best.ckpt"] * report.checkpoint_writes  # the one checkpoint writer
        improvements = 0
        best_so_far = math.inf
        for v in report.val_loss:
            if v < best_so_far:
                improvements += 1
                best_so_far = v
        assert report.checkpoint_writes == improvements
        assert sum(report.checkpointed) == improvements
        assert report.checkpointed[report.best_epoch - 1]

    def test_first_epoch_ce_scale_sanity(self):
        # random heads on independent features produce near-uniform softmax
        # rows, so the first batch's cross-entropy sits near N * ln N
        rng = np.random.default_rng(8)
        n = 16
        model = init_model(12, 10, 8, seed=9)
        img, txt = rng.standard_normal((n, 12)), rng.standard_normal((n, 10))
        out, _ = loss_backward(img, txt, model, LossConfig(lam=0.0, temperature=1.0))
        assert abs(out.ce_term - n * math.log(n)) < 0.25 * n * math.log(n)

    def test_training_reduces_loss(self, tmp_path):
        ds = tiny_dataset(seed=10, n_images=40)
        model = init_model(8, 6, 4, seed=11)
        cfg = tiny_cfg(epochs=10, lr_max=5e-3)
        best, report = train(model, ds, cfg, checkpoint_path=tmp_path / "best.ckpt")
        assert report.train_loss[-1] < report.train_loss[0]

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_guard(self):
        # lr * weight_decay overflows, so the first update leaves inf/nan entries
        ds = tiny_dataset(seed=12)
        model = init_model(8, 6, 4, seed=13)
        cfg = tiny_cfg(lr_max=1e200, lr_min=1e200, warmup_steps=0, weight_decay=1e200)
        with pytest.raises(DivergenceError, match="parameter '(image|text)_[wb]'"):
            train(model, ds, cfg)

    def test_divergence_in_forward_pass(self):
        # a huge but finite update passes the guard; the next forward overflows
        ds = tiny_dataset(seed=12)
        model = init_model(8, 6, 4, seed=13)
        cfg = tiny_cfg(lr_max=1e200, lr_min=1e200, warmup_steps=0, weight_decay=0.0)
        message = r"^training aborted at step 2 \(epoch 1\): image row 0 projects to a vector whose norm overflows$"
        with pytest.raises(DivergenceError, match=message):
            train(model, ds, cfg)

    def test_batch_size_larger_than_split(self):
        ds = tiny_dataset(n_images=4, cpi=1)
        model = init_model(8, 6, 4, seed=0)
        with pytest.raises(ConfigError, match="batch_size"):
            train(model, ds, tiny_cfg(batch_size=64))

    def test_log_records(self, tmp_path):
        ds = tiny_dataset(seed=14)
        model = init_model(8, 6, 4, seed=15)
        log_path = tmp_path / "train.jsonl"
        cfg = tiny_cfg(epochs=2)
        train(model, ds, cfg, checkpoint_path=tmp_path / "best.ckpt", log_path=log_path)
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        steps = [r for r in records if "step" in r]
        epochs = [r for r in records if "step" not in r]
        n_train = ds.split_sizes()["train"]
        assert len(steps) == 2 * (n_train // cfg.batch_size)
        assert len(epochs) == 2
        assert set(steps[0]) == {"step", "epoch", "lr", "loss", "ce_term", "margin_term"}
        assert set(epochs[0]) == {"epoch", "train_loss", "val_loss", "checkpointed"}

    def test_step_lines_are_the_json_of_their_records(self, tmp_path):
        ds = tiny_dataset(seed=14)
        log_path = tmp_path / "train.jsonl"
        cfg = tiny_cfg(epochs=2, loss=LossConfig(lam=3.0))
        train(init_model(8, 6, 4, seed=15), ds, cfg, log_path=log_path)
        lines = log_path.read_text().splitlines()
        for line in lines:
            assert line == json.dumps(json.loads(line))
        assert any(json.loads(line).get("margin_term", 0.0) > 0 for line in lines)

    finite = st.floats(allow_nan=False, allow_infinity=False)

    @given(
        step=st.integers(0, 2**63),
        epoch=st.integers(0, 2**31),
        lr=st.one_of(finite, finite.map(np.float64), st.integers(-(2**70), 2**70)),
        values=st.lists(finite, min_size=3, max_size=3),
    )
    @example(step=1, epoch=1, lr=-0.0, values=[5e-324, 1e300, 2.2250738585072014e-308])
    @example(step=3750, epoch=30, lr=np.float64(1e-05), values=[0.1, 1 / 3, -1e-300])
    @example(step=2, epoch=1, lr=1, values=[-0.0, 0.0, 1e16])
    def test_step_line_equals_json_dumps(self, step, epoch, lr, values):
        loss, ce_term, margin_term = values
        record = {
            "step": step,
            "epoch": epoch,
            "lr": lr,
            "loss": loss,
            "ce_term": ce_term,
            "margin_term": margin_term,
        }
        assert _step_line(step, epoch, lr, loss, ce_term, margin_term) == json.dumps(record) + "\n"

    @pytest.mark.parametrize("path", ["nodir/best.ckpt", "", "."])
    def test_unwritable_checkpoint_path_fails_before_the_first_step(self, tmp_path, monkeypatch, path):
        monkeypatch.chdir(tmp_path)
        train_module = importlib.import_module("twotower.train")  # not the train function
        steps = []
        real_backward = train_module._backward
        monkeypatch.setattr(train_module, "_backward", lambda *a: steps.append(1) or real_backward(*a))
        with pytest.raises(IsADirectoryError if path == "." else FileNotFoundError) as e:
            train(init_model(8, 6, 4, seed=2), tiny_dataset(seed=5), tiny_cfg(), checkpoint_path=path)
        assert (e.value.filename, steps) == (path, [])
        assert list(tmp_path.iterdir()) == []  # no checkpoint or temporary file

    def test_checkpoint_path_only_decides_the_file(self, tmp_path):
        # with or without a path, train returns the same best model, and the
        # file on disk holds exactly that model's bytes; here validation
        # peaks at epoch 1, so the last epoch must not reach the file
        ds = tiny_dataset(seed=18)
        in_memory, _ = train(init_model(8, 6, 4, seed=19), ds, tiny_cfg(epochs=4))
        live = init_model(8, 6, 4, seed=19)
        on_disk, report = train(live, ds, tiny_cfg(epochs=4), checkpoint_path=tmp_path / "best.ckpt")
        assert report.checkpointed == [True, False, False, False]
        assert checkpoint_bytes(in_memory) == checkpoint_bytes(on_disk)
        assert (tmp_path / "best.ckpt").read_bytes() == checkpoint_bytes(on_disk)
        assert checkpoint_bytes(live) != checkpoint_bytes(on_disk)

    @pytest.mark.parametrize("to_file", [True, False], ids=["path", "no-path"])
    def test_model_serialised_only_to_write_a_checkpoint(self, tmp_path, monkeypatch, to_file):
        # the best model is kept as a copy: each improving epoch is turned
        # into checkpoint bytes once, by save_checkpoint, and only for a file
        serialised = []
        real_parts = model_module._checkpoint_parts
        monkeypatch.setattr(model_module, "_checkpoint_parts",
                            lambda m: serialised.append(m) or real_parts(m))
        path = tmp_path / "best.ckpt" if to_file else None
        _, report = train(init_model(8, 6, 4, seed=7), tiny_dataset(seed=6), tiny_cfg(epochs=5),
                          checkpoint_path=path)
        assert report.checkpoint_writes > 1
        assert len(serialised) == (report.checkpoint_writes if to_file else 0)

    def test_best_model_shares_no_memory_with_the_trained_one(self):
        live = init_model(8, 6, 4, seed=19)
        best, report = train(live, tiny_dataset(seed=18), tiny_cfg(epochs=4))
        assert report.best_epoch < 4  # the trained model moved on from the best one
        before = checkpoint_bytes(live)
        best.image_head.w[...] += 1.0
        assert checkpoint_bytes(live) == before
        assert not np.shares_memory(best.params, live.params)

    def test_checkpoint_roundtrip_preserves_training(self, tmp_path):
        # one optimizer step after save/load equals the same step without it
        ds = tiny_dataset(seed=16)
        model_a = init_model(8, 6, 4, seed=17)
        model_b = init_model(8, 6, 4, seed=17)
        from twotower.model import load_checkpoint, save_checkpoint

        p = tmp_path / "m.ckpt"
        save_checkpoint(model_a, p)
        model_a = load_checkpoint(p)

        image_rows, text_rows = ds.split_rows("train")
        img = ds.image_store.vectors[image_rows[:8]]
        txt = ds.text_store.vectors[text_rows[:8]]
        outs = []
        for model in (model_a, model_b):
            _, grads = loss_backward(img, txt, model, LossConfig())
            state = OptimizerState.for_params(model.params)
            adamw_step(model.params, grads, state, 1e-3, TrainConfig(), np.empty((2, grads.size)))
            outs.append(model.params.copy())
        np.testing.assert_array_equal(outs[0], outs[1])


def reference_train(model, ds, cfg):
    """The training loop built from the reference pieces: (log lines, val losses, best params).

    Each step runs ``reference_loss_backward`` and ``oracle_adamw`` on the
    next batch of ``make_batches`` at the rate ``lr_at`` gives, updating
    ``model.params`` in place; validation sums ``reference_loss_backward``'s
    totals over consecutive chunks of the val split. Fresh arrays and one
    helper per stage throughout, and no buffer is reused.
    """
    image_rows, text_rows = ds.split_rows("train")
    val_images, val_texts = ds.split_rows("val")
    images, texts = ds.image_store.vectors, ds.text_store.vectors
    batches = make_batches(ds, "train", cfg.batch_size, seed=cfg.seed)
    total_steps = cfg.epochs * len(batches)
    blocks = model.blocks(model.params)
    m = {k: np.zeros_like(b) for k, b in blocks.items()}
    v = {k: np.zeros_like(b) for k, b in blocks.items()}
    lines, val_losses, best, best_params = [], [], math.inf, None
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        loss_sum = 0.0
        for batch in batches:
            step += 1
            lr = lr_at(step, cfg, total_steps)
            img, txt = images[image_rows[batch]], texts[text_rows[batch]]
            terms, grads = reference_loss_backward(img, txt, model, cfg.loss)
            oracle_adamw(blocks, model.blocks(grads), m, v, step, lr, cfg)
            n = len(batch)
            loss_sum += terms["total"]
            record = {"step": step, "epoch": epoch, "lr": lr, "loss": terms["total"] / n,
                      "ce_term": terms["ce_term"] / n, "margin_term": terms["margin_term"] / n}
            lines.append(json.dumps(record))
        train_loss = loss_sum / (len(batches) * cfg.batch_size)
        val_sum = 0.0
        for i in range(0, len(val_images), cfg.batch_size):
            img = images[val_images[i : i + cfg.batch_size]]
            txt = texts[val_texts[i : i + cfg.batch_size]]
            val_sum += reference_loss_backward(img, txt, model, cfg.loss)[0]["total"]
        val = val_sum / len(val_images)
        improved = val < best
        if improved:
            best, best_params = val, model.params.copy()
        val_losses.append(val)
        lines.append(json.dumps({"epoch": epoch, "train_loss": train_loss, "val_loss": val,
                                 "checkpointed": improved}))
    return lines, val_losses, best_params


LOSS_MODES = {
    "literal": LossConfig(),
    "hard_negative": LossConfig(margin_mode="hard_negative"),
    "symmetric": LossConfig(symmetric=True),
    "temperature-0.5": LossConfig(temperature=0.5),
    "lam-0": LossConfig(lam=0.0),
}


class TestReferenceLoop:
    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_train_matches_the_reference_loop_bit_for_bit(self, tmp_path, mode):
        ds = tiny_dataset(seed=40, n_images=60)
        cfg = tiny_cfg(epochs=3, batch_size=7, loss=LOSS_MODES[mode])
        assert len(ds.split_rows("val")[0]) % cfg.batch_size  # a short last validation chunk
        log = tmp_path / "train.log"
        live, ref = init_model(8, 6, 4, seed=41), init_model(8, 6, 4, seed=41)
        best, report = train(live, ds, cfg, log_path=log)
        lines, val_losses, best_params = reference_train(ref, ds, cfg)
        assert log.read_text() == "".join(line + "\n" for line in lines)
        assert report.val_loss == val_losses
        assert live.params.tobytes() == ref.params.tobytes()
        assert best.params.tobytes() == best_params.tobytes()
        if mode != "lam-0":  # the hinge ran
            assert any(json.loads(line).get("margin_term", 0.0) > 0 for line in lines)


def chunked_val_loss(model, ds, loss_cfg, size):
    """Per-pair val loss: ``loss_backward``'s totals over consecutive chunks of ``size``, summed."""
    image_rows, text_rows = ds.split_rows("val")
    images, texts = ds.image_store.vectors, ds.text_store.vectors
    total = sum(
        loss_backward(images[image_rows[i : i + size]], texts[text_rows[i : i + size]], model,
                      loss_cfg)[0].total
        for i in range(0, len(image_rows), size)
    )
    return total / len(image_rows)


def poison(store, row, value):
    """Write ``value`` into one entry of a store's row, as a caller holding the array could."""
    store.vectors.setflags(write=True)
    store.vectors[row, 1] = value
    store.vectors.setflags(write=False)


class TestTrainChecksItsFeatures:
    """train checks every row it will read once, before its first step.

    A fault raises what the first step or validation pass to read the bad
    row raises in loss_backward; a row no step or validation chunk reads
    is no fault.
    """

    @pytest.mark.parametrize("dims, width, expects", [((9, 6), 8, 9), ((8, 7), 6, 7)],
                             ids=["image", "text"])
    def test_head_width_that_does_not_fit(self, tmp_path, dims, width, expects):
        log = tmp_path / "train.log"
        with pytest.raises(ShapeError, match=f"^features have width {width} but head expects {expects}$"):
            train(init_model(*dims, 4, seed=0), tiny_dataset(seed=42), tiny_cfg(), log_path=log)
        assert not log.exists()  # no step ran

    @pytest.mark.parametrize("tower, split, where", [
        ("image", "train", -1), ("text", "train", -1), ("image", "val", -1), ("text", "val", 0),
    ])
    def test_non_finite_row_that_is_read(self, tower, split, where):
        ds = tiny_dataset(seed=43)
        cfg = tiny_cfg()
        positions = make_batches(ds, "train", cfg.batch_size, seed=cfg.seed)[-1]  # the last step's
        if split == "val":
            positions = np.arange(len(ds.split_rows("val")[0]))
        rows = ds.split_rows(split)[tower == "text"]
        store = ds.text_store if tower == "text" else ds.image_store
        poison(store, rows[positions[where]], np.nan)
        model = init_model(8, 6, 4, seed=44)
        before = model.params.copy()
        with pytest.raises(ValueError, match=f"^{tower} features contains non-finite entries$"):
            train(model, ds, cfg)
        assert np.array_equal(model.params, before)  # raised before the first step

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rows_no_step_reads_are_no_fault(self, value):
        clean, poisoned = tiny_dataset(seed=45), tiny_dataset(seed=45)
        for row in poisoned.split_rows("test")[0][:2]:  # held-out images are never read
            poison(poisoned.image_store, row, value)
        runs = [train(init_model(8, 6, 4, seed=46), d, tiny_cfg()) for d in (clean, poisoned)]
        (best_a, report_a), (best_b, report_b) = runs
        assert checkpoint_bytes(best_a) == checkpoint_bytes(best_b)
        assert report_a.val_loss == report_b.val_loss


def permuted_stores(ds, seed):
    """The same pairs over stores whose rows are in a seeded random order."""
    rng = np.random.default_rng(seed)

    def permute(store):
        order = rng.permutation(len(store))
        return EmbeddingStore(
            ids=[store.ids[i] for i in order], vectors=store.vectors[order], kind=store.kind
        )

    return PairedDataset(
        image_store=permute(ds.image_store), text_store=permute(ds.text_store),
        text_ids=ds.text_ids, image_ids=ds.image_ids, splits=ds.splits,
    )


class TestStoreRowOrder:
    """Pairs address rows by id, so store row order must not change training.

    Synthetic stores hold text rows in pair order; these permute both
    stores, so code that indexed vectors by pair position would fail here.
    """

    def test_train_ignores_store_row_order(self):
        ds = tiny_dataset(seed=20)
        permuted = permuted_stores(ds, seed=21)
        assert permuted.text_store.ids != ds.text_store.ids
        runs = [train(init_model(8, 6, 4, seed=22), d, tiny_cfg()) for d in (ds, permuted)]
        (best_a, report_a), (best_b, report_b) = runs
        assert checkpoint_bytes(best_a) == checkpoint_bytes(best_b)
        assert report_a.train_loss == report_b.train_loss
        assert report_a.val_loss == report_b.val_loss


class TestValidation:
    def test_runs_no_backward_pass(self, monkeypatch):
        # with a zero learning rate every epoch validates the initial model,
        # whose loss is loss_backward's totals over the val chunks, per pair
        ds = tiny_dataset(seed=26, n_images=60)
        cfg = tiny_cfg(epochs=3, batch_size=5, lr_max=0.0, lr_min=0.0,
                       loss=LossConfig(symmetric=True))
        assert len(ds.split_rows("val")[0]) % cfg.batch_size  # the last chunk is short
        model = init_model(8, 6, 4, seed=27)
        expected = chunked_val_loss(model, ds, cfg.loss, cfg.batch_size)
        train_module = importlib.import_module("twotower.train")  # not the train function
        calls = []
        real_backward = train_module._backward
        monkeypatch.setattr(train_module, "_backward",
                            lambda *a: calls.append(1) or real_backward(*a))
        _, report = train(model, ds, cfg)
        batches = make_batches(ds, "train", cfg.batch_size, seed=cfg.seed)
        assert len(calls) == cfg.epochs * len(batches)  # one per step, none to validate
        assert report.val_loss == [expected] * cfg.epochs

    @pytest.mark.parametrize("lr_max", [0.0, 5e-2])
    def test_without_a_val_split_selects_on_train_loss(self, lr_max):
        ds = synth_dataset(24, 2, latent_dim=4, img_dim=8, txt_dim=6, noise_sigma=0.02,
                           seed=28, val_frac=0.0)
        assert not len(ds.split_rows("val")[0])
        cfg = tiny_cfg(epochs=6, lr_max=lr_max, lr_min=lr_max / 10)
        _, report = train(init_model(8, 6, 4, seed=29), ds, cfg)
        assert report.val_loss == report.train_loss
        flags, best = [], math.inf
        for loss in report.train_loss:
            flags.append(loss < best)
            best = min(best, loss)
        assert report.checkpointed == flags
        assert True in flags and False in flags  # both kinds of epoch were judged
        assert report.best_val_loss == best
        assert report.train_loss[report.best_epoch - 1] == best


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(lr_min=1.0, lr_max=0.5)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)
