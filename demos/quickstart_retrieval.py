# %% [markdown]
# # Quickstart: train a two-tower retriever and query it
#
# The package works entirely on precomputed feature vectors: an "image" is
# a feature row from some upstream vision encoder, a "caption" is a feature
# row from some text encoder. Here a synthetic generator stands in for the
# encoders: image and text features are two different random linear views
# of a shared latent vector, plus noise, so a learnable correspondence
# exists by construction.
#
# Every step below has a CLI equivalent, shown in comments:
#
#     twotower synth --out-dir ds
#     twotower train --manifest ds/manifest.jsonl --images ds/images.emb \
#         --texts ds/texts.emb --checkpoint model.ckpt
#     twotower index --checkpoint model.ckpt --images ds/images.emb --out idx.azi
#     twotower query --index idx.azi --checkpoint model.ckpt \
#         --texts ds/texts.emb --text-id img000#c0 --k 5
#     twotower eval --index idx.azi --checkpoint model.ckpt --texts ds/texts.emb \
#         --manifest ds/manifest.jsonl --split test

# %%
import tempfile
from pathlib import Path

import twotower as tt

workdir = tempfile.TemporaryDirectory(prefix="twotower_quickstart_")
out = Path(workdir.name)
print(f"artifacts under {out} (removed at the end)\n")

# %% 200 images x 5 captions, subjects split 80/10/10 by image
ds = tt.synth_dataset(
    n_images=200,
    captions_per_image=5,
    latent_dim=16,
    img_dim=64,
    txt_dim=48,
    noise_sigma=0.05,
    seed=42,
)
print("dataset:", ds.split_sizes(), "pairs across", len(ds.image_store), "images")

# %% embedding stores round-trip through a compact binary format
tt.save_embeddings(ds.image_store, out / "images.emb")
reloaded = tt.load_embeddings(out / "images.emb")
print(f"store file holds {len(reloaded)} rows of dim {reloaded.dim} ({reloaded.kind})")

# %% train the two projection heads with the contrastive objective
model = tt.init_model(img_dim=64, txt_dim=48, shared_dim=32, seed=43)
cfg = tt.TrainConfig(
    epochs=30,
    batch_size=64,
    lr_max=1e-3,
    lr_min=1e-5,
    warmup_steps=50,
    seed=44,
    loss=tt.LossConfig(lam=1.0, margin=0.2, temperature=1.0),
)
best, report = tt.train(model, ds, cfg, checkpoint_path=out / "model.ckpt")
print(f"epoch  1: train loss {report.train_loss[0]:.4f}  val loss {report.val_loss[0]:.4f}")
print(f"epoch {cfg.epochs}: train loss {report.train_loss[-1]:.4f}  val loss {report.val_loss[-1]:.4f}")
print(f"best val loss {report.best_val_loss:.4f} at epoch {report.best_epoch}, "
      f"{report.checkpoint_writes} checkpoint writes, {report.wall_seconds:.1f}s")

# %% index the image corpus once, then query it
index = tt.build_index(best, ds.image_store)
judgments = ds.judgments("test")  # each test caption, with its one paired image
probe = judgments[0]
result = tt.query(index, best, ds.text_store.row(probe.query_id), k=5, query_id=probe.query_id)
print(f"\nquery {probe.query_id} (true image {probe.correct_id}):")
for rank, (image_id, score) in enumerate(result.hits, start=1):
    marker = " <-- correct" if image_id == probe.correct_id else ""
    print(f"  {rank}. {image_id}  cosine {score:.4f}{marker}")

# %% score the whole held-out split
metrics = tt.evaluate(index, best, ds.text_store, judgments)
print()
print(tt.format_table([{"model": "heads-32", "dataset": "synth-test", **metrics.as_dict()}]))
print(f"\nchance Top-1 on {len(index)} images would be {1 / len(index):.4f}")

# %% remove the artifacts
workdir.cleanup()
