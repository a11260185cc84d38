import os

# One OpenBLAS thread, set before numpy is first imported (pytest and its
# plugins do not import it).  On a 2-vCPU host an (8, 8) @ (8, 1551)
# complex product took 0.94 ms with OpenBLAS's default threads and 0.04 ms
# with one.  The benchmark pins the same count; an explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from beamfield import (  # noqa: E402
    ChannelModelConfig,
    Room,
    build_array,
    build_grid,
    combining_vectors,
    generate_channel,
    probe_gains,
    standard_scenarios,
    zf_precoder,
)


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
    return ChannelModelConfig()


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
