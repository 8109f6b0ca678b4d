"""Neural-network library built on :mod:`repro.tensor`.

Provides the models the paper evaluates — a vanilla (Elman) RNN for the
end-to-end benchmark (Section 4.1), LeNet-5 for the convergence study
(Section 3.5 / Figure 7), and VGG-11 for the sparsity/pruning
micro-benchmarks (Sections 3.3, 4.2) — plus the layers, losses, and
initializers they need.
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    ELU,
    Flatten,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.attention import (
    LayerNorm,
    SelfAttention,
    TransformerBlock,
    make_transformer_classifier,
)
from repro.nn.rnn import RNN, RNNCell, RNNClassifier
from repro.nn.loss import CrossEntropyLoss, nll_loss, softmax_xent_grad
from repro.nn.models import (
    LeNet5,
    VGG11,
    make_mlp,
    vgg11_conv_shapes,
    vgg11_conv_stack,
)
from repro.nn import init
from repro.nn.serialization import load_checkpoint, save_checkpoint

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "ReLU",
    "LeakyReLU",
    "ELU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "LayerNorm",
    "SelfAttention",
    "TransformerBlock",
    "make_transformer_classifier",
    "RNN",
    "RNNCell",
    "RNNClassifier",
    "CrossEntropyLoss",
    "nll_loss",
    "softmax_xent_grad",
    "LeNet5",
    "VGG11",
    "make_mlp",
    "vgg11_conv_shapes",
    "vgg11_conv_stack",
    "init",
    "save_checkpoint",
    "load_checkpoint",
]
