"""Property tests: result-store fingerprints survive pickle and the wire.

Every cache key in the system is a :class:`~repro.session.Session`
fingerprint computed from inputs that may have crossed a process boundary:
a process-pool worker receives its run parameters by ``pickle``, and a
:mod:`repro.net` worker rebuilds each request from the wire and sends its
result back under the request's fingerprint for the coordinator's store.
A fingerprint must therefore not change when its inputs cross either, by
``pickle`` or by the frame codec (:mod:`repro.net.framing`, through the
one decoder behind :meth:`~repro.net.framing.FramedConnection.recv`).
"""

import pickle
import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import baseline_config, spikestream_config
from repro.eval.sweeps import functional_network
from repro.net.framing import FramedConnection
from repro.session import Session
from repro.snn.datasets import SyntheticCIFAR10
from repro.snn.numerics import FORWARD_PATHS, PRECISIONS, NumericsPolicy
from repro.snn.svgg11 import SVGG11_LAYER_FIRING_RATES
from repro.types import Precision, TensorShape


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


def _wired(value):
    left, right = socket.socketpair()
    right.settimeout(30.0)
    with FramedConnection(left) as sender, FramedConnection(right) as receiver:
        # Networks are larger than the socket buffer: send from a helper
        # thread while this one receives.
        pusher = threading.Thread(target=sender.send, args=("probe",),
                                  kwargs={"value": value}, daemon=True)
        pusher.start()
        message = receiver.recv()
        pusher.join(timeout=30.0)
    assert not pusher.is_alive()
    return message["value"]


ROUND_TRIPS = pytest.mark.parametrize("round_trip", [_pickled, _wired], ids=["pickle", "wire"])

configs = st.builds(
    lambda make, precision, batch, timesteps, seed: make(
        precision, batch_size=batch, timesteps=timesteps, seed=seed
    ),
    st.sampled_from([baseline_config, spikestream_config]),
    st.sampled_from(list(Precision)),
    st.integers(1, 16),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
firing_rates = st.none() | st.dictionaries(
    st.sampled_from(sorted(SVGG11_LAYER_FIRING_RATES)),
    st.floats(0.0, 1.0, allow_nan=False),
    min_size=1,
)


@ROUND_TRIPS
@settings(max_examples=25, deadline=None)
@given(config=configs, rates=firing_rates, batch=st.integers(1, 16),
       timesteps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_statistical_fingerprint_survives_round_trip(round_trip, config, rates,
                                                     batch, timesteps, seed):
    session = Session()
    expected = session.fingerprint(config, batch, rates, seed, timesteps)
    config_back, rates_back = round_trip((config, rates))
    assert session.fingerprint(config_back, batch, rates_back, seed, timesteps) == expected


@ROUND_TRIPS
@settings(max_examples=8, deadline=None)
@given(network_seed=st.integers(0, 2**16), frame_seed=st.integers(0, 2**16),
       frame_count=st.integers(1, 3), precision=st.sampled_from(PRECISIONS),
       forward_path=st.sampled_from(FORWARD_PATHS))
def test_functional_fingerprint_survives_round_trip(round_trip, network_seed, frame_seed,
                                                    frame_count, precision, forward_path):
    session = Session()
    config = spikestream_config(batch_size=frame_count, seed=frame_seed)
    network = functional_network(network_seed)
    frames, _labels = SyntheticCIFAR10(
        seed=frame_seed, image_shape=TensorShape(16, 16, 3)
    ).sample(frame_count)
    numerics = NumericsPolicy(precision=precision, forward_path=forward_path)
    expected = session.functional_fingerprint(config, network, frames, numerics=numerics)
    config_back, network_back, frames_back, numerics_back = round_trip(
        (config, network, frames, numerics)
    )
    assert session.functional_fingerprint(
        config_back, network_back, frames_back, numerics=numerics_back
    ) == expected
