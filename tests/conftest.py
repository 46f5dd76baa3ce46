import hypothesis
import numpy as np
import pytest

from sfma.semantic_rate import InterferenceProfile, Link, rho_eval, sinr_semantic

hypothesis.settings.register_profile("default", deadline=None, max_examples=60)
hypothesis.settings.load_profile("default")

NOISE_W = 10.0 ** (-10.4)  # -104 dBW


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def default_profile():
    return InterferenceProfile.default_table()


@pytest.fixture
def unit_link():
    return Link(gain=1.0, noise=1.0)


def make_link(snr_at_1w_db: float, noise_w: float = NOISE_W) -> Link:
    """Link whose receive SNR at 1 W transmit power is the given dB value."""
    return Link(gain=noise_w * 10.0 ** (snr_at_1w_db / 10.0), noise=noise_w)


def pair_sum_rate(p1: float, p2: float, profile: InterferenceProfile, link1: Link, link2: Link) -> float:
    """Group sum rate: both users' log2(1 + semantic SINR), rho at the group power.

    The one profile is evaluated on each receiver's own link. This scalar
    form is the tests' rate reference; sfma itself evaluates rates in arrays.
    """
    p_group = p1 + p2
    rho_21 = rho_eval(profile, p_group, link1.gain, link1.noise)
    rho_12 = rho_eval(profile, p_group, link2.gain, link2.noise)
    return float(np.log2(1.0 + sinr_semantic(p1, p2, rho_21, link1))
                 + np.log2(1.0 + sinr_semantic(p2, p1, rho_12, link2)))
