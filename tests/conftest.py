import math
import os

# One OpenBLAS thread, set before numpy is first imported (pytest and its
# plugins do not import it).  On a 2-vCPU host an (8, 8) @ (8, 1551)
# complex product took 0.94 ms with OpenBLAS's default threads and 0.04 ms
# with one.  The benchmark pins the same count; an explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from beamfield import (  # noqa: E402
    ChannelModelConfig,
    OfdmConfig,
    Room,
    build_array,
    build_grid,
    combining_vectors,
    generate_channel,
    probe_gains,
    standard_scenarios,
    zf_precoder,
)


# The layer configs default to the run's operating point (image-order-1,
# 40 dB CSI, a 64 dB receiver, 4 frames).  Tests whose physics rests on line
# of sight with perfect CSI, or on a 60 dB receiver over one frame, spell
# those values through these constants, and vary them with
# dataclasses.replace.
LOS_PERFECT_CSI = ChannelModelConfig(mode="los-only", csi_snr_db=math.inf)
OFDM_ONE_FRAME = OfdmConfig(noise_snr_db=60.0, frames=1)


@pytest.fixture(scope="session")
def room():
    return Room()


@pytest.fixture(scope="session")
def array():
    return build_array()


@pytest.fixture(scope="session")
def grid(room):
    return build_grid(room=room)


@pytest.fixture(scope="session")
def scenarios():
    return standard_scenarios()


@pytest.fixture(scope="session")
def los_cfg():
    """LoS-only channel with perfect CSI."""
    return LOS_PERFECT_CSI


@pytest.fixture(scope="session")
def los_gains(array, room, grid, los_cfg):
    """Field gains of the default array over the default grid, LoS-only."""
    return probe_gains(array, room, grid, los_cfg)


def perfect_link(array, scenario, room, cfg, total_power=1.0):
    """Channel, combiners and ZF precoder under perfect CSI."""
    (h,) = generate_channel(array, [scenario], room, cfg)
    combiners = combining_vectors(h)
    precoder = zf_precoder(h, combiners, total_power)
    return h, combiners, precoder


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)
