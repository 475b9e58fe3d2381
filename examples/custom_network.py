#!/usr/bin/env python3
"""Mapping a custom spiking CNN onto the cluster with the SpikeStream optimizer.

The paper's technique is not specific to S-VGG11: any feed-forward SNN built
from spiking conv / pool / FC layers can be planned and executed.  This
example defines a small event-camera-style classifier (DVS-gesture-like
128-channel sparse input), lets the optimizer choose the per-layer execution
strategy, and compares the baseline against SpikeStream on the cluster
model.

Run with::

    python examples/custom_network.py
"""

import numpy as np

from repro import Session, baseline_config, spikestream_config
from repro.eval.reporting import format_table
from repro.snn import (
    Flatten,
    LIFParameters,
    SpikingConv2d,
    SpikingLinear,
    SpikingMaxPool2d,
    SpikingNetwork,
)
from repro.types import TensorShape


def build_event_classifier() -> SpikingNetwork:
    """A small SNN for 32x32 2-polarity event-camera frames, 11 gesture classes."""
    lif = LIFParameters(alpha=0.9, v_threshold=0.6)
    layers = [
        SpikingConv2d(2, 32, kernel_size=3, padding=1, lif=lif, name="conv1"),
        SpikingMaxPool2d(name="pool1"),
        SpikingConv2d(32, 64, kernel_size=3, padding=1, lif=lif, name="conv2"),
        SpikingMaxPool2d(name="pool2"),
        SpikingConv2d(64, 64, kernel_size=3, padding=1, lif=lif, name="conv3"),
        SpikingMaxPool2d(name="pool3"),
        Flatten(),
        SpikingLinear(4 * 4 * 64, 256, lif=lif, name="fc1"),
        SpikingLinear(256, 11, lif=lif, name="fc2", is_output=True),
    ]
    network = SpikingNetwork(layers, input_shape=TensorShape(32, 32, 2), name="event-classifier")
    network.initialize(rng=3)
    return network


def synthetic_event_frame(rng, rate=0.08):
    """A sparse binary event frame (two polarities) like a DVS camera produces."""
    return rng.random((32, 32, 2)) < rate


def main():
    network = build_event_classifier()
    rng = np.random.default_rng(11)
    frames = [synthetic_event_frame(rng) for _ in range(4)]

    # One Session provides every engine; all variants share its hardware models.
    session = Session()
    results = {}
    for label, config in (
        ("baseline FP16", baseline_config(batch_size=len(frames))),
        ("SpikeStream FP16", spikestream_config(batch_size=len(frames))),
    ):
        engine = session.engine(config)
        # The network's own forward pass supplies every layer's spike counts.
        results[label] = engine.run_functional(network, frames)

    print("=== Optimizer layer plans (SpikeStream FP16) ===")
    engine = session.engine(spikestream_config())
    plans = engine.optimizer.plan_network(network)
    print(format_table(
        [
            {
                "layer": plan.name,
                "kernel": plan.kernel.value,
                "streams": ", ".join(k.value for k in plan.stream_kinds) or "(none)",
                "simd_width": plan.simd_width,
                "notes": plan.notes,
            }
            for plan in plans
        ],
        columns=["layer", "kernel", "streams", "simd_width", "notes"],
    ))

    print("\n=== Baseline vs SpikeStream on the event classifier ===")
    rows = []
    for label, result in results.items():
        rows.append({
            "variant": label,
            "runtime_ms": result.total_runtime_s * 1e3,
            "energy_mj": result.total_energy_j * 1e3,
            "fpu_utilization": result.network_fpu_utilization,
        })
    print(format_table(rows))
    speedup = results["baseline FP16"].total_cycles / results["SpikeStream FP16"].total_cycles
    print(f"\nSpikeStream speedup on this network: {speedup:.2f}x")


if __name__ == "__main__":
    main()
