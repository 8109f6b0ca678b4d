#!/usr/bin/env python
"""Input gradients through the scan: saliency maps from BPPSA.

The paper's exclusive scan produces ∇x_i for i = 1..n; one extra ⊙
application recovers ∇x_0 — the gradient w.r.t. the *model input*,
which powers saliency maps and adversarial probes.  This example trains
a small CNN on the synthetic image task, then compares BPPSA's input
gradient against taped autograd and renders a coarse saliency map.
Exits non-zero when the two input gradients differ by more than 1e-9.

Run:  python examples/input_saliency.py
"""

import sys

import numpy as np

import repro
from repro.core import Trainer
from repro.data import SyntheticImages
from repro.nn import CrossEntropyLoss, Sequential
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.optim import SGD
from repro.tensor import Tensor

rng = np.random.default_rng(0)
model = Sequential(
    Conv2d(1, 4, 3, padding=1, rng=rng),
    ReLU(),
    MaxPool2d(2),
    Flatten(),
    Linear(4 * 8 * 8, 4, rng=rng),
)
ds = SyntheticImages(num_samples=128, shape=(1, 16, 16), num_classes=4, seed=1)

# quick training so gradients mean something
trainer = Trainer(
    model, SGD(model.parameters(), lr=0.02, momentum=0.9),
    engine=repro.build_engine(model),
)
for epoch in range(2):
    trainer.fit(ds.batches(16, epoch_seed=epoch))
_, acc = trainer.evaluate(ds.batches(32))
print(f"train accuracy after 2 epochs: {acc:.2f}")

# --- input gradient: BPPSA vs taped autograd -----------------------------
x, y = next(ds.batches(4))
engine = repro.build_engine(model)
engine.compute_gradients(x, y, input_gradient=True)
bppsa_grad = engine.last_input_gradient

xt = Tensor(x, requires_grad=True)
loss = CrossEntropyLoss()(model(xt), y)
model.zero_grad()
loss.backward()
input_grad_error = np.abs(bppsa_grad - xt.grad).max()
print(f"max |Δ input grad| vs autograd: {input_grad_error:.2e}")

# --- coarse saliency raster ------------------------------------------------
sal = np.abs(bppsa_grad[0, 0])
sal = sal / sal.max()
chars = " .:-=+*#%@"
print(f"\nsaliency for one class-{y[0]} sample (input 16×16):")
for row in sal:
    print("".join(chars[int(v * (len(chars) - 1))] for v in row))

if not input_grad_error <= 1e-9:
    sys.exit(f"BPPSA input gradient differs from autograd by {input_grad_error:.2e}")
