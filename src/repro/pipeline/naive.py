"""Naïve model parallelism: partition the model, no pipelining.

The strawman of the paper's Section 1: layers are spread over ``K``
devices but a single mini-batch flows through them sequentially, so "at
most one device can be utilized at any given point in time"
(Narayanan et al., 2019) — utilization 1/K.
"""

from __future__ import annotations


class NaiveModelParallel:
    """Utilization/latency model of unpipelined model parallelism."""

    def __init__(self, num_layers: int, num_devices: int):
        if num_layers < num_devices:
            raise ValueError("cannot split fewer layers than devices")
        self.L = num_layers
        self.K = num_devices

    def utilization(self) -> float:
        """Mean busy fraction: exactly one of K devices works at a time."""
        return 1.0 / self.K

    def speedup_over_single_device(self) -> float:
        """Adding devices does not reduce iteration latency at all."""
        return 1.0
