# %% [markdown]
# # The contrastive objective, by hand and by gradient check
#
# For a batch of N matched pairs the objective is
#
#     total = sum_i -log softmax_row_i(s)[i]              (pull pairs together)
#           + sum_i lam * max(0, margin - M_i)^2          (squared hinge)
#
# where s holds temperature-scaled cosine similarities and
# M_i = min_{j != i} s_ij is row i's *smallest* off-diagonal entry. The
# hinge therefore fires when some negative drifts below the margin: it
# bounds how dispersed the negatives may get rather than separating the
# hardest one (that conventional variant is available as
# margin_mode="hard_negative").

# %%
import numpy as np

import twotower as tt

# %% worked example: a perfectly "diagonal" 2x2 batch
s = np.array([[1.0, 0.0], [0.0, 1.0]])
cfg = tt.LossConfig(lam=1.0, margin=0.2, temperature=1.0)
out = tt.contrastive_loss(s, cfg)
print("cross-entropy term :", out.ce_term, "  (= 2 ln(1 + e^-1) =", 2 * np.log1p(np.exp(-1.0)), ")")
print("margin term        :", out.margin_term, " (= 2 * (0.2 - 0.0)^2)")
print("total              :", out.total)
print("per-row min offdiag:", out.per_row_min_offdiag)

# %% the hinge deactivates once every negative clears the margin
calm = tt.contrastive_loss([[1.0, 0.5], [0.5, 1.0]], tt.LossConfig(lam=1.0, margin=0.4))
print("\nnegatives at 0.5 with margin 0.4 -> margin term", calm.margin_term)

# %% a single-pair batch has no negatives at all, so the loss is zero
print("N=1 batch:", tt.contrastive_loss([[3.7]], cfg).total)

# %% [markdown]
# ## Analytic gradients vs central finite differences
#
# `loss_backward` chains the loss through cosine similarity, row
# normalization, and both linear heads in closed form. It returns the
# gradient as one vector laid out like `model.params`, the flat buffer that
# holds all four parameter blocks; `model.blocks` names its parts.
# Spot-check one random weight against (f(w+h) - f(w-h)) / 2h.

# %%
rng = np.random.default_rng(0)
model = tt.init_model(img_dim=6, txt_dim=5, shared_dim=4, seed=1)
img = rng.standard_normal((4, 6))
txt = rng.standard_normal((4, 5))

_, grads = tt.loss_backward(img, txt, model, cfg)

h = 1e-5
w = model.image_head.w  # a view into model.params
analytic = model.blocks(grads)["image_w"][2, 1]
orig = w[2, 1]
w[2, 1] = orig + h
up, _ = tt.loss_backward(img, txt, model, cfg)
w[2, 1] = orig - h
down, _ = tt.loss_backward(img, txt, model, cfg)
w[2, 1] = orig
numeric = (up.total - down.total) / (2 * h)
print(f"image_w[2,1]: analytic {analytic:.10f}  finite-diff {numeric:.10f}  "
      f"|diff| {abs(analytic - numeric):.2e}")

# %% and the full check: one loop over every entry of model.params
fd = np.zeros_like(model.params)
for i in range(model.params.size):
    orig = model.params[i]
    model.params[i] = orig + h
    up, _ = tt.loss_backward(img, txt, model, cfg)
    model.params[i] = orig - h
    down, _ = tt.loss_backward(img, txt, model, cfg)
    model.params[i] = orig
    fd[i] = (up.total - down.total) / (2 * h)
for name, diff in model.blocks(np.abs(grads - fd)).items():
    print(f"{name:8s} worst |analytic - finite difference|: {diff.max():.2e}")
print(f"worst over all {model.params.size} parameters: {np.abs(grads - fd).max():.2e}")
