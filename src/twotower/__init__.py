"""Two-tower embedding retrieval over precomputed features.

Trainable linear projection heads map image and text feature vectors into
one shared space; a margin-augmented contrastive objective with analytic
gradients and an AdamW loop trains them; exact cosine top-k search answers
text queries against an indexed image corpus; and an IR metrics suite
(MAP, MAR, MAF1, Top-k accuracy) scores the results.

The top level exports what the pipeline and the demos use; everything
else is in its submodule (``twotower.data``, ``.linalg``, ``.loss``,
``.model``, ``.retrieval``, ``.train``, ``.metrics``), the command line in
``.cli``.
"""

from . import errors
from .data import augment_dataset, load_embeddings, save_embeddings, synth_dataset
from .loss import LossConfig, contrastive_loss, loss_backward
from .metrics import QueryJudgment, average_precision, average_recall, f1_per_query, format_table
from .model import init_model, load_checkpoint
from .retrieval import build_index, evaluate, load_index, query
from .train import TrainConfig, train

__version__ = "0.1.0"
