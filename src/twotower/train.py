"""Training loop: AdamW updates under a warmup+cosine schedule.

Each optimizer step runs features -> project -> normalize -> logits ->
loss -> analytic gradients -> ``adamw_step``, then advances the learning
rate. After every epoch the validation loss is computed by the same
forward pass over the val split, with no backward pass; when it strictly
improves on the best seen so far, a copy of the model is kept (and
written as a checkpoint when a path is given), and the last such copy is
what training returns. Runs are fully deterministic per seed. ``train``
is the one way in: steps and validation run only inside it.

Loss numbers in logs and reports are per-pair means (batch objective
divided by batch size) so values are comparable across batch sizes.
"""

import copy
import json
import math
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import PairedDataset, _check_writable, make_batches
from .errors import ConfigError, DegenerateRowError, DivergenceError
from .loss import LossConfig, _backward, _features, _forward, _Workspace
from .model import DualEncoderModel, save_checkpoint


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    lr_max: float = 1e-3
    lr_min: float = 1e-5
    warmup_steps: int = 50
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ValueError(
                f"batch_size must be >= 2 for contrastive training, got {self.batch_size}"
            )
        if self.lr_max < 0 or self.lr_min < 0 or self.lr_min > self.lr_max:
            raise ValueError(
                f"need 0 <= lr_min <= lr_max, got lr_min={self.lr_min}, lr_max={self.lr_max}"
            )
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass
class OptimizerState:
    """AdamW first/second-moment vectors, shaped like the parameters, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


@dataclass
class TrainReport:
    train_loss: list        # per-epoch mean per-pair train loss
    val_loss: list          # per-epoch validation loss
    best_val_loss: float
    best_epoch: int         # 1-based
    checkpointed: list      # per-epoch strict-improvement flags
    checkpoint_writes: int
    wall_seconds: float
    final_lr: float


def lr_at(step, cfg: TrainConfig, total_steps) -> float:
    """Learning rate at a given optimizer step.

    Linear warmup from 0 to lr_max over ``warmup_steps``, then cosine
    decay to lr_min at ``total_steps``; later steps clamp to lr_min. A
    warmup longer than the run is shortened to the run.
    """
    warmup = min(cfg.warmup_steps, total_steps)
    if warmup > 0 and step < warmup:
        return cfg.lr_max * (step / warmup)
    if step > total_steps:
        return cfg.lr_min
    span = total_steps - warmup
    if span == 0:
        return cfg.lr_max
    progress = (step - warmup) / span
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1.0 + math.cos(math.pi * progress))


def adamw_step(params, grads, state: OptimizerState, lr, cfg: TrainConfig, scratch):
    """One decoupled-weight-decay Adam update, in place on ``params``.

        m <- b1 m + (1-b1) g          v <- b2 v + (1-b2) g^2
        theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta

    with bias-corrected m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t).
    ``params``, ``grads`` and the moments are vectors of one shape, such as
    ``model.params``; each line is one pass over the whole vector, the way
    fused multi-tensor AdamW runs, in the rounding order of the formula.
    The caller holds the numpy error state (a diverging run overflows
    here, and its finiteness guard reports it) and passes ``scratch``, two
    vectors shaped like ``params`` that take the temporaries.
    """
    tmp, denom = scratch
    state.t += 1
    state.m *= cfg.beta1
    state.m += np.multiply(grads, 1.0 - cfg.beta1, out=tmp)
    state.v *= cfg.beta2
    np.multiply(grads, grads, out=tmp)
    tmp *= 1.0 - cfg.beta2
    state.v += tmp
    np.divide(state.v, 1.0 - cfg.beta2 ** state.t, out=denom)
    np.sqrt(denom, out=denom)
    denom += cfg.eps
    step = np.divide(state.m, 1.0 - cfg.beta1 ** state.t, out=tmp)
    step *= lr
    step /= denom
    step += np.multiply(params, lr * cfg.weight_decay, out=denom)
    params -= step


def _chunks(image_rows, text_rows, size):
    # a split's (image rows, text rows) in consecutive chunks of size pairs, the last one short
    return [(image_rows[i : i + size], text_rows[i : i + size])
            for i in range(0, len(image_rows), size)]


def _check_features(model, images, texts, chunks):
    """Raise what ``loss_backward`` raises on the first of ``chunks`` whose features it rejects.

    ``chunks`` are (image rows, text rows) of the stores' ``vectors``, in
    the order they are read; a row no chunk names is not read, and is no
    fault.
    """
    for image_rows, text_rows in chunks:
        _features(images[image_rows], texts[text_rows], model)


def _workspaces(model, chunks):
    # one workspace per chunk length
    return {n: _Workspace(model, n) for n in {len(rows) for rows, _ in chunks}}


def _summed_loss(spaces, images, texts, chunks, loss_cfg):
    # the batch objectives of checked chunks, summed, each run through the workspace of its length
    total = 0.0
    for image_rows, text_rows in chunks:
        ws = spaces[len(image_rows)]
        total += _forward(ws, *ws.gather(images, texts, image_rows, text_rows), loss_cfg).total
    return total


def _json_number(x) -> str:
    # how json.dumps spells a finite int or float, numpy float64 included
    return float.__repr__(x) if isinstance(x, float) else int.__repr__(x)


def _step_line(step, epoch, lr, loss, ce_term, margin_term) -> str:
    """The log line of one step: ``json.dumps`` of its record, formatted directly.

    The step's guards make every value finite, so no NaN or Infinity
    spelling is needed.
    """
    return (
        f'{{"step": {step}, "epoch": {epoch}, "lr": {_json_number(lr)}, '
        f'"loss": {_json_number(loss)}, "ce_term": {_json_number(ce_term)}, '
        f'"margin_term": {_json_number(margin_term)}}}\n'
    )


def train(model: DualEncoderModel, ds: PairedDataset, cfg: TrainConfig, *,
          checkpoint_path=None, log_path=None):
    """Run the full training loop and return (best model, TrainReport).

    The passed model is trained in place through the final epoch; the
    returned model is a copy of it taken after the epoch with the best
    validation loss, sharing no memory with it. Each strict improvement is
    serialised only to be written to ``checkpoint_path``, when given; a
    path that cannot be written fails before the first step. Datasets
    without a val split fall back to the epoch's mean train loss for
    checkpoint selection. ``log_path``, when given, receives one JSON line
    per step and per epoch.

    One seeded shuffle (dropping a final short batch) fixes the batch
    sequence, which every epoch then replays; with a zero learning rate
    the per-epoch train loss is therefore exactly constant.

    Before the first step, every feature row the run will read is checked
    once, raising what the first step or validation pass to read a bad row
    would raise; the steps and validation chunks then run through
    workspaces allocated once, one per batch length.
    """
    t_start = time.perf_counter()
    image_rows, text_rows = ds.split_rows("train")
    if not len(image_rows):
        raise ValueError("dataset has an empty train split")
    if cfg.batch_size > len(image_rows):
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds train split size {len(image_rows)}"
        )
    batches = make_batches(ds, "train", cfg.batch_size, seed=cfg.seed)
    total_steps = cfg.epochs * len(batches)
    val_images, val_texts = ds.split_rows("val")
    val_chunks = _chunks(val_images, val_texts, cfg.batch_size)  # none without a val split

    model.meta = {**model.meta, "train_config": asdict(cfg)}

    state = OptimizerState.for_params(model.params)
    params = model.params
    images, texts = ds.image_store.vectors, ds.text_store.vectors
    batch_rows = [(image_rows[batch], text_rows[batch]) for batch in batches]
    if checkpoint_path is not None:
        _check_writable(checkpoint_path)
    _check_features(model, images, texts, batch_rows + val_chunks)
    spaces = _workspaces(model, batch_rows + val_chunks)
    ws = spaces[cfg.batch_size]
    scratch = np.empty((2,) + params.shape)
    log_file = open(log_path, "w", encoding="utf-8") if log_path is not None else nullcontext()
    best = math.inf
    best_epoch = 0
    best_model = None
    train_losses, val_losses, flags = [], [], []
    step = 0
    lr = 0.0
    # a diverging run overflows: check_norms and the guards below report it
    with np.errstate(over="ignore", invalid="ignore"), log_file as log:
        for epoch in range(1, cfg.epochs + 1):
            loss_sum = 0.0
            rows = 0
            for img_rows, txt_rows in batch_rows:
                step += 1
                lr = lr_at(step, cfg, total_steps)
                try:
                    out = _backward(ws, *ws.gather(images, texts, img_rows, txt_rows), cfg.loss)
                except DegenerateRowError as e:
                    raise DivergenceError(
                        f"training aborted at step {step} (epoch {epoch}): {e}"
                    ) from e
                if not math.isfinite(out.total):
                    raise DivergenceError(
                        f"loss became non-finite at step {step} (epoch {epoch})"
                    )
                adamw_step(params, ws.grads, state, lr, cfg, scratch)
                if not np.isfinite(params).all():
                    bad = model.blocks(~np.isfinite(params))
                    name = next(k for k, v in bad.items() if v.any())
                    raise DivergenceError(
                        f"parameter {name!r} became non-finite after step {step} "
                        f"(epoch {epoch}); try a lower lr_max"
                    )
                n = len(img_rows)
                loss_sum += out.total
                rows += n
                if log:
                    terms = (out.total / n, out.ce_term / n, out.margin_term / n)
                    log.write(_step_line(step, epoch, lr, *terms))
            train_loss = loss_sum / rows
            if val_chunks:
                val = _summed_loss(spaces, images, texts, val_chunks, cfg.loss) / len(val_images)
            else:
                val = train_loss
            improved = val < best
            if improved:
                best = val
                best_epoch = epoch
                best_model = copy.deepcopy(model)
                if checkpoint_path is not None:
                    save_checkpoint(model, checkpoint_path)
            train_losses.append(train_loss)
            val_losses.append(val)
            flags.append(improved)
            if log:
                record = {"epoch": epoch, "train_loss": train_loss, "val_loss": val,
                          "checkpointed": improved}
                log.write(json.dumps(record) + "\n")

    report = TrainReport(
        train_loss=train_losses,
        val_loss=val_losses,
        best_val_loss=best,
        best_epoch=best_epoch,
        checkpointed=flags,
        checkpoint_writes=sum(flags),
        wall_seconds=time.perf_counter() - t_start,
        final_lr=lr,
    )
    return best_model, report
