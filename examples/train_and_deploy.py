#!/usr/bin/env python3
"""Train a small SNN with surrogate gradients, then deploy it on the cluster model.

Workflow demonstrated:

1. generate a synthetic two-class dataset,
2. train a two-layer spiking classifier with the surrogate-gradient trainer,
3. wrap the trained layers into a :class:`SpikingNetwork`,
4. verify with the end-to-end validator that the compressed cluster kernels
   reproduce the golden model exactly, and
5. compare baseline vs SpikeStream runtime/energy for the deployed network.

Run with::

    python examples/train_and_deploy.py
"""

import numpy as np

from repro import Session, baseline_config, spikestream_config
from repro.core.validation import validate_network_on_kernels
from repro.eval.reporting import format_table
from repro.snn import (
    LIFParameters,
    SpikingLinear,
    SpikingNetwork,
    SurrogateGradientTrainer,
    TrainingConfig,
    make_two_moons,
)
from repro.types import TensorShape


def main():
    # 1. Data + 2. training -------------------------------------------------
    inputs, labels = make_two_moons(samples=400, seed=0)
    lif = LIFParameters(alpha=1.0, v_threshold=0.5)
    layers = [
        SpikingLinear(inputs.shape[1], 24, lif=lif, name="fc1"),
        SpikingLinear(24, 2, lif=lif, name="fc2", is_output=True),
    ]
    trainer = SurrogateGradientTrainer(
        layers, TrainingConfig(learning_rate=0.1, epochs=40, batch_size=32, seed=1)
    )
    history = trainer.fit(inputs, labels)
    print(f"Training finished: loss {history.loss[0]:.3f} -> {history.loss[-1]:.3f}, "
          f"accuracy {history.final_accuracy:.1%}")

    # 3. Wrap the trained layers into a deployable spiking network ----------
    network = SpikingNetwork(layers, input_shape=TensorShape(1, 1, inputs.shape[1]),
                             name="two-moons-snn")

    # 4. Validate the compressed kernels against the golden model -----------
    # The deployed network consumes binary spike vectors; threshold the
    # features to obtain spiking inputs for validation and deployment.
    spike_frames = [
        (inputs[i] > np.median(inputs, axis=0)).reshape(1, 1, -1) for i in range(8)
    ]
    report = validate_network_on_kernels(network, spike_frames)
    print(f"Kernel-vs-golden validation: {report.summary()}")

    # 5. Runtime and energy of the deployed classifier ----------------------
    session = Session()
    rows = []
    for label, config in (
        ("baseline FP16", baseline_config(batch_size=len(spike_frames))),
        ("SpikeStream FP16", spikestream_config(batch_size=len(spike_frames))),
    ):
        engine = session.engine(config)
        result = engine.run_functional(network, spike_frames)
        rows.append({
            "variant": label,
            "runtime_us": result.total_runtime_s * 1e6,
            "energy_uj": result.total_energy_j * 1e6,
            "fpu_utilization": result.network_fpu_utilization,
        })
    print("\n=== Deployed two-layer classifier on the Snitch cluster model ===")
    print(format_table(rows))
    print("\n(A network this small is dominated by fixed overheads; the speedup grows with "
          "layer depth as shown in the S-VGG11 experiments.)")


if __name__ == "__main__":
    main()
