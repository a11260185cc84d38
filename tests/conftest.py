import pytest

from beamfield import (
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


def perfect_link(array, scenario, room, cfg):
    """Channel, combiners and ZF precoder under perfect CSI."""
    h = generate_channel(array, scenario, room, cfg)
    combiners = combining_vectors(h, scenario)
    precoder = zf_precoder(h, scenario, combiners=combiners)
    return h, combiners, precoder


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)
