#!/usr/bin/env python3
"""Functional S-VGG11 inference on synthetic CIFAR-10-like frames.

Unlike the statistical quickstart, this example builds the *actual* S-VGG11
spiking network (randomly initialized), pushes a whole batch of synthetic
CIFAR-10-like images through it with ONE vectorized
``SpikingNetwork.forward_batch`` pass, records the real per-layer spike
activity, and feeds that shared activity to the cluster performance model of
all three evaluated hardware variants.  It also reports classification
outputs and each layer's input spike density.

Run with::

    python examples/svgg11_functional_inference.py          # 4 frames
    python examples/svgg11_functional_inference.py 16       # 16 frames
"""

import sys
import time

from repro import Session, spikestream_config
from repro.eval.reporting import format_table
from repro.snn import SyntheticCIFAR10, build_svgg11


def main(num_frames: int = 4):
    print(f"Building S-VGG11 and generating {num_frames} synthetic CIFAR-10 frame(s)...")
    # The network is randomly initialized (the trained CIFAR-10 weights are not
    # public); a lower firing threshold keeps spike activity propagating through
    # all eleven layers.  The densities below do not follow the paper's
    # Figure 3a profile (the later layers fire far more densely).
    from repro.snn import LIFParameters

    network = build_svgg11(lif=LIFParameters(alpha=0.9, v_threshold=0.25), rng=0)
    images, labels = SyntheticCIFAR10(seed=7).sample(num_frames)

    # One batched functional forward pass records the whole batch's activity.
    session = Session(config=spikestream_config(batch_size=num_frames))
    engine = session.engine()
    start = time.time()
    activity = engine.record_activity(network, images)
    # Classification falls out of the recorded activity: accumulate the
    # output layer's spikes over time (no second forward pass needed).
    output_spikes = sum(
        record.output_spikes.astype(int) for record in activity.for_name("fc3")
    )
    predictions = output_spikes.reshape(num_frames, -1).argmax(axis=1)
    print(f"Batched functional inference took {time.time() - start:.1f} s")
    for index, prediction in enumerate(predictions):
        print(f"  frame {index}: synthetic label={labels[index]}, "
              f"predicted class={int(prediction)}")

    # Input spike density of every weighted layer over the batch (conv1 reads
    # the dense image, so it has no input spikes).
    print("\n=== Per-layer input spike density (golden model) ===")
    print(format_table([
        {"layer": record.name, "input_density": float(record.input_spikes.mean())}
        for record in activity.records if record.input_spikes is not None
    ]))

    # Drive the cluster performance model with the recorded activity — the
    # store-backed session path, so a rerun with a cache_dir would be free.
    result = session.run_functional(network, images, activity=activity)
    print("\n=== Cluster performance model on the recorded activity (SpikeStream FP16) ===")
    print(format_table(result.per_layer_table(), columns=[
        "layer", "kernel", "mean_runtime_ms", "mean_fpu_utilization", "mean_energy_mj",
    ]))
    print(f"\nEnd-to-end: {result.total_runtime_s * 1e3:.2f} ms, "
          f"{result.total_energy_j * 1e3:.3f} mJ, "
          f"network FPU utilization {result.network_fpu_utilization:.1%}")

    # The same recorded activity costs the other variants without another
    # forward pass (this is what `run --scenario functional` automates).
    variants = session.run_functional_variants(network, images, activity=activity)
    print("\n=== Three variants on one shared recorded activity ===")
    print(format_table(
        [{"variant": key, **value.summary()} for key, value in variants.items()],
        columns=["variant", "total_runtime_ms", "total_energy_mj",
                 "network_fpu_utilization"],
    ))


if __name__ == "__main__":
    frames = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    main(frames)
