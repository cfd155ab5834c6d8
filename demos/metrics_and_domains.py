# %% [markdown]
# # Retrieval metrics, worked by hand, then in-domain vs out-domain
#
# MAP, MAR, and MAF1 sample precision and recall at each cutoff where a
# relevant image appears in the ranking, average those samples per query,
# then average over queries. Top-k accuracy asks only whether the single
# paired image landed in the first k hits.

# %%
import twotower as tt

ranked = ["a", "b", "c"]
relevant = {"a", "c"}
ap = tt.average_precision(ranked, relevant)
ar = tt.average_recall(ranked, relevant)
print("ranking [a, b, c], relevant {a, c}:")
print(f"  relevant hits at cutoffs 1 and 3 -> AP = (1/1 + 2/3)/2 = {ap:.5f}")
print(f"  recall at those cutoffs          -> AR = (1/2 + 2/2)/2 = {ar:.5f}")
print(f"  harmonic mean                    -> F1 = {tt.f1_per_query(ap, ar):.5f}")

# %% [markdown]
# ## One model, several datasets
#
# A model is trained on one synthetic dataset, then evaluated on its own
# held-out split (in-domain) and on datasets built from different seeds
# and noise levels (out-domain). Different seeds mean different latent
# geometries, so out-domain numbers collapse toward chance: the shared
# space the heads learned simply does not describe those corpora.

# %%
def evaluate_on(model, index, ds, label):
    m = tt.evaluate(index, model, ds.text_store, ds.judgments("test"))
    return {"model": "heads-32", "dataset": label, **m.as_dict()}


def make(seed, noise):
    return tt.synth_dataset(
        n_images=200, captions_per_image=5, latent_dim=16,
        img_dim=64, txt_dim=48, noise_sigma=noise, seed=seed,
    )


home = make(seed=42, noise=0.05)
model = tt.init_model(64, 48, 32, seed=43)
cfg = tt.TrainConfig(epochs=30, batch_size=64, warmup_steps=50, seed=44,
                     loss=tt.LossConfig(lam=1.0, margin=0.2))
best, _ = tt.train(model, home, cfg)

rows = []
for label, ds in [
    ("in-domain", home),
    ("out-domain-a", make(seed=7, noise=0.05)),
    ("out-domain-b", make(seed=8, noise=0.3)),
]:
    # each corpus gets its own index; queries must come from the same world
    index = tt.build_index(best, ds.image_store)
    rows.append(evaluate_on(best, index, ds, label))

print()
print(tt.format_table(rows))
print(f"\n(chance Top-1 here is {1 / 200:.4f}; out-domain rows sit near it)")
