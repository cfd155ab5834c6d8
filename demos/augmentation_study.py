# %% [markdown]
# # Does feature-space jitter help?
#
# Pixel-level augmentation lives upstream of this package, so augmentation
# here means Gaussian jitter on the stored image features: every training
# image gains noisy replicas, each bound to a verbatim copy of its
# captions. The study below trains with and without jitter across data
# noise levels and compares held-out MAP.
#
# At low data noise the task saturates (MAP 1.0 with or without jitter);
# once the corpus itself is noisy, jitter acts as a regularizer and the
# gap opens in augmentation's favor.

# %%
import twotower as tt


def heldout_map(noise_sigma, augment, seed=42):
    ds = tt.synth_dataset(
        n_images=200, captions_per_image=5, latent_dim=16,
        img_dim=64, txt_dim=48, noise_sigma=noise_sigma, seed=seed,
    )
    train_ds = tt.augment_dataset(ds, sigma=0.05, copies=2, seed=seed + 3) if augment else ds
    model = tt.init_model(64, 48, 32, seed=seed + 1)
    cfg = tt.TrainConfig(epochs=30, batch_size=64, warmup_steps=50, seed=seed + 2,
                         loss=tt.LossConfig(lam=1.0, margin=0.2))
    best, _ = tt.train(model, train_ds, cfg)

    index = tt.build_index(best, ds.image_store)  # index the clean corpus
    return tt.evaluate(index, best, ds.text_store, ds.judgments("test")).map


# %%
print(f"{'data noise':>10}  {'MAP plain':>10}  {'MAP jitter':>10}  {'delta':>8}")
for noise in (0.05, 0.3, 0.5, 0.7):
    plain = heldout_map(noise, augment=False)
    jitter = heldout_map(noise, augment=True)
    print(f"{noise:>10.2f}  {plain:>10.4f}  {jitter:>10.4f}  {jitter - plain:>+8.4f}")
