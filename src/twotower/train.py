"""Training loop: AdamW updates under a warmup+cosine schedule.

Each optimizer step runs features -> project -> normalize -> logits ->
loss -> analytic gradients -> AdamW, then advances the learning rate.
After every epoch the validation loss is computed and a checkpoint is
written iff it strictly improves on the best seen so far; the best
checkpoint is what training returns. Runs are fully deterministic per
seed.

Loss numbers in logs and reports are per-pair means (batch objective
divided by batch size) so values are comparable across batch sizes.
"""

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import PairedDataset, _write_atomic, make_batches
from .errors import ConfigError, DegenerateRowError, DivergenceError, ShapeError
from .loss import LossConfig, loss_backward, loss_forward
from .model import DualEncoderModel, checkpoint_bytes, checkpoint_from_bytes


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
    checkpoint_path: str | None = None
    log_path: str | None = None

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

    def as_dict(self) -> dict:
        return asdict(self)


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


def adamw_step(params, grads, state: OptimizerState, lr, cfg: TrainConfig):
    """One decoupled-weight-decay Adam update, in place on ``params``.

        m <- b1 m + (1-b1) g          v <- b2 v + (1-b2) g^2
        theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta

    with bias-corrected m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t).
    ``params``, ``grads`` and the moments are vectors of one shape, such as
    ``model.params``; each line is one pass over the whole vector, the way
    fused multi-tensor AdamW runs, in the rounding order of the formula.
    """
    if grads.shape != params.shape:
        raise ShapeError(
            f"gradient shape {grads.shape} does not match parameter shape {params.shape}"
        )
    state.t += 1
    # A diverging run overflows here; the caller's finiteness guard reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        state.m *= cfg.beta1
        state.m += (1.0 - cfg.beta1) * grads
        state.v *= cfg.beta2
        state.v += (1.0 - cfg.beta2) * (grads * grads)
        denom = state.v / (1.0 - cfg.beta2 ** state.t)
        np.sqrt(denom, out=denom)
        denom += cfg.eps
        step = state.m / (1.0 - cfg.beta1 ** state.t)
        step *= lr
        step /= denom
        step += (lr * cfg.weight_decay) * params
        params -= step


def evaluate_loss(model, ds: PairedDataset, split, loss_cfg: LossConfig, batch_size) -> float:
    """Mean per-pair loss over a split, batched in pair order (no shuffle).

    Deterministic: consecutive chunks of ``batch_size`` pairs, last chunk
    short. Returns the summed batch objectives divided by the pair count.
    Runs the forward pass only; no gradients are formed.
    """
    image_rows, text_rows = ds.split_rows(split)
    if not len(image_rows):
        raise ValueError(f"split {split!r} is empty")
    total = 0.0
    for start in range(0, len(image_rows), batch_size):
        img = ds.image_store.vectors[image_rows[start : start + batch_size]]
        txt = ds.text_store.vectors[text_rows[start : start + batch_size]]
        total += loss_forward(img, txt, model, loss_cfg).total
    return total / len(image_rows)


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


def train(model: DualEncoderModel, ds: PairedDataset, cfg: TrainConfig):
    """Run the full training loop and return (best model, TrainReport).

    The passed model is trained in place through the final epoch; the
    returned model is the snapshot from the epoch with the best validation
    loss (strictly-improving checkpoints, written to
    ``cfg.checkpoint_path`` when set). Datasets without a val split fall
    back to the epoch's mean train loss for checkpoint selection.

    One seeded shuffle (dropping a final short batch) fixes the batch
    sequence, which every epoch then replays; with a zero learning rate
    the per-epoch train loss is therefore exactly constant.
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
    has_val = ds.split_sizes()["val"] > 0

    model.meta = dict(model.meta)
    echo = _jsonable(asdict(cfg))
    echo.pop("checkpoint_path", None)  # keep artifacts path-independent
    echo.pop("log_path", None)
    model.meta["train_config"] = echo

    state = OptimizerState.for_params(model.params)
    params = model.params
    images, texts = ds.image_store.vectors, ds.text_store.vectors
    batch_rows = [(image_rows[batch], text_rows[batch]) for batch in batches]
    log = open(cfg.log_path, "w", encoding="utf-8") if cfg.log_path else None
    best = math.inf
    best_epoch = 0
    best_snapshot = None
    writes = 0
    train_losses, val_losses, flags = [], [], []
    step = 0
    lr = 0.0
    try:
        for epoch in range(1, cfg.epochs + 1):
            loss_sum = 0.0
            rows = 0
            for img_rows, txt_rows in batch_rows:
                step += 1
                lr = lr_at(step, cfg, total_steps)
                try:
                    out, grads = loss_backward(
                        images.take(img_rows, axis=0), texts.take(txt_rows, axis=0), model, cfg.loss
                    )
                except DegenerateRowError as e:
                    raise DivergenceError(
                        f"training aborted at step {step} (epoch {epoch}): {e}"
                    ) from e
                if not math.isfinite(out.total):
                    raise DivergenceError(
                        f"loss became non-finite at step {step} (epoch {epoch})"
                    )
                adamw_step(params, grads, state, lr, cfg)
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
            if has_val:
                val = evaluate_loss(model, ds, "val", cfg.loss, cfg.batch_size)
            else:
                val = train_loss
            improved = val < best
            if improved:
                best = val
                best_epoch = epoch
                writes += 1
                best_snapshot = checkpoint_bytes(model)
                if cfg.checkpoint_path:
                    with _write_atomic(cfg.checkpoint_path) as fh:
                        fh.write(best_snapshot)
            train_losses.append(train_loss)
            val_losses.append(val)
            flags.append(improved)
            if log:
                record = {"epoch": epoch, "train_loss": train_loss, "val_loss": val,
                          "checkpointed": improved}
                log.write(json.dumps(record) + "\n")
    finally:
        if log:
            log.close()

    report = TrainReport(
        train_loss=train_losses,
        val_loss=val_losses,
        best_val_loss=best,
        best_epoch=best_epoch,
        checkpointed=flags,
        checkpoint_writes=writes,
        wall_seconds=time.perf_counter() - t_start,
        final_lr=lr,
    )
    return checkpoint_from_bytes(best_snapshot), report


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)
