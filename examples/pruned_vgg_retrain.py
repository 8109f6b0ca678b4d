#!/usr/bin/env python
"""Retraining a pruned VGG-11 with BPPSA (paper Section 4.2).

1. Build a (width-scaled) VGG-11, prune 97 % of conv/linear weights by
   global magnitude (See et al., 2016).
2. Show the effect on the convolutions' transposed Jacobians: pruning
   the filters prunes the Jacobians (their values depend only on filter
   weights — Algorithm 4), slashing the FLOPs of every scan step.
3. Check the first step's BPPSA gradients against taped BP, then
   retrain the pruned network for a few steps, re-applying masks after
   each update, and verify sparsity holds.

Exits non-zero when a first-step gradient entry differs from taped BP
by more than 1e-9.

Run:  python examples/pruned_vgg_retrain.py
"""

import sys

import numpy as np

import repro
from repro.data import SyntheticImages
from repro.jacobian import conv2d_tjac
from repro.nn import CrossEntropyLoss, VGG11
from repro.optim import SGD
from repro.pruning import magnitude_prune, model_sparsity
from repro.tensor import Tensor

rng = np.random.default_rng(0)
model = VGG11(rng=rng, width_multiplier=0.125)

# --- Jacobian sparsity before/after pruning ------------------------------
conv1 = model.features[0]
dense_nnz = conv2d_tjac(conv1.weight.data, (32, 32), padding=1).nnz
masks = magnitude_prune(model, fraction=0.97, scope="global")
pruned_nnz = conv2d_tjac(conv1.weight.data, (32, 32), padding=1).nnz
print(f"model weight sparsity after pruning: {model_sparsity(model):.3f}")
print(
    f"conv1 transposed-Jacobian nnz: {dense_nnz} → {pruned_nnz} "
    f"({pruned_nnz / dense_nnz:.1%} kept)"
)

# --- retrain with BPPSA ----------------------------------------------------
# build_engine flattens features+classifier models (VGG-11) itself
engine = repro.build_engine(model, "blelloch")
full = engine.model
opt = SGD(full.parameters(), lr=1e-2, momentum=0.9)
data = SyntheticImages(num_samples=128, seed=1)

print("\nretraining (masks re-applied after each step):")
grad_error = None
for step, (x, y) in enumerate(data.batches(16, num_batches=6)):
    grads = engine.compute_gradients(x, y)
    if grad_error is None:  # first step: BPPSA against taped BP
        full.zero_grad()
        CrossEntropyLoss()(full(Tensor(x)), y).backward()
        grad_error = max(
            np.abs(grads[id(p)].reshape(p.data.shape) - p.grad).max()
            for p in full.parameters()
        )
        print(f"  max |Δ grad| vs taped BP (step 0): {grad_error:.2e}")
    engine.apply_gradients(grads)
    opt.step()
    masks.reapply(model)
    masks.assert_applied(model)
    logits = engine.last_logits
    shifted = logits - logits.max(axis=1, keepdims=True)
    nll = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(len(y)), y]
    print(f"  step {step}  loss={nll.mean():.4f}  sparsity={model_sparsity(model):.3f}")

cache = engine.context.cache
print(
    f"\nSpGEMM plan cache: {len(cache)} plans, {cache.hits} hits / "
    f"{cache.misses} misses — the symbolic phase amortizes across steps"
)

if not grad_error <= 1e-9:
    sys.exit(f"BPPSA gradients differ from taped BP by {grad_error:.2e}")
