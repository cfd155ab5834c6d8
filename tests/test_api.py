"""The top-level namespace exports what the pipeline and the demos use, and nothing else."""

from types import ModuleType

import twotower

PUBLIC = {
    "LossConfig",
    "QueryJudgment",
    "TrainConfig",
    "augment_dataset",
    "average_precision",
    "average_recall",
    "build_index",
    "contrastive_loss",
    "evaluate",
    "f1_per_query",
    "format_table",
    "init_model",
    "load_checkpoint",
    "load_embeddings",
    "load_index",
    "loss_backward",
    "query",
    "save_embeddings",
    "synth_dataset",
    "train",
}


def test_public_names_are_pinned():
    # submodules become attributes of the package as they are imported, so they are left out
    names = {n for n, v in vars(twotower).items()
             if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert names == PUBLIC


def test_errors_module_is_exported():
    assert twotower.errors.__name__ == "twotower.errors"
