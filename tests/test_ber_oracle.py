"""Monte-Carlo BER of every link against the exact residual-interference oracle.

Each user's bit-error count is a sum of independent per-symbol error
counts whose distribution ``residual_error_pmf_64qam`` gives exactly from
its row of the true effective channel.  A link fails when the count lies
outside the two-sided interval at level 1e-6 around the prediction.
"""

import dataclasses
import math

import numpy as np
import pytest

from beamfield import (
    RunConfig,
    build_array,
    effective_channel,
    estimate_csi,
    generate_channel,
    standard_scenarios,
    transmit_frame,
)
from beamfield.config import derive_seed
from beamfield.precoding import combining_vectors, zf_precoder
from beamfield.runner import _SEED_STREAM_CSI, _SEED_STREAM_FRAME

from ofdm_reference import time_domain_errors
from qam_oracle import (
    count_log_tail,
    exact_ber_64qam,
    residual_ber_64qam,
    residual_error_pmf_64qam,
)

LEVEL = 1e-6
# The default campaign's scenarios, keyed by id.
SCENARIOS = {s.id: s for s in standard_scenarios()}


def _link(scenario, ch_cfg, seed):
    """True channel, combiners and ZF precoder from a noisy CSI estimate."""
    config = RunConfig()
    (h,) = generate_channel(build_array(config.array), [scenario], config.room, ch_cfg)
    est = estimate_csi(h, ch_cfg, seed)
    combiners = combining_vectors(est)
    return h, combiners, zf_precoder(est, combiners, config.tx_power_w)


def _run_link(h, combiners, precoder, ofdm_cfg, seed, time_domain=False):
    """Bit-error count per user, symbols sent per user, and the effective channel.

    ``time_domain`` counts the errors with the full-array reference
    simulator instead of ``transmit_frame``.
    """
    bits = ofdm_cfg.frames * ofdm_cfg.bits_per_frame
    if time_domain:
        counts = time_domain_errors(precoder, h, combiners, ofdm_cfg,
                                    np.random.default_rng(seed)).tolist()
    else:
        report = transmit_frame(precoder, h, combiners, ofdm_cfg, seed)
        assert report.bits_tested == bits
        counts = [round(ber * bits) for ber in report.per_ue_ber]
    return counts, bits // 6, effective_channel(h, precoder, combiners)


def _oracle_pmfs(eff, noise_snr_db, interference=True):
    """Per user, the oracle's per-symbol error distribution from its row of ``eff``."""
    noise_power = 10.0 ** (-noise_snr_db / 10.0)
    pmfs = []
    for u in range(eff.shape[0]):
        own = eff[u, u]
        residual = np.delete(eff[u], u) / own if interference else ()
        pmfs.append(residual_error_pmf_64qam(residual, noise_power / abs(own) ** 2))
    return pmfs


def _inside(count, n_symbols, pmf):
    return count_log_tail(pmf, n_symbols, count) >= math.log(LEVEL / 2)


def _check_against_oracle(h, combiners, precoder, ofdm_cfg, seed, label, time_domain=False):
    """Send frames, then test every user's error count; returns report lines."""
    counts, n_symbols, eff = _run_link(h, combiners, precoder, ofdm_cfg, seed, time_domain)
    lines = []
    for u, (count, pmf) in enumerate(zip(counts, _oracle_pmfs(eff, ofdm_cfg.noise_snr_db))):
        predicted = n_symbols * float(np.dot(np.arange(7), pmf))
        assert _inside(count, n_symbols, pmf), (
            f"{label} user {u + 1}: {count} bit errors, oracle predicts {predicted:.4g}")
        lines.append(f"{label}/{u + 1}: {count} vs {predicted:.3g}")
    return lines


def test_oracle_without_interference_is_the_awgn_oracle():
    for ebn0_db in (6.0, 12.0, 18.0):
        n0 = 1.0 / (6.0 * 10.0 ** (ebn0_db / 10.0))
        pmf = residual_error_pmf_64qam((), n0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(pmf >= 0.0)
        assert residual_ber_64qam((), n0) == pytest.approx(exact_ber_64qam(ebn0_db),
                                                           rel=1e-12)


def test_interference_raises_the_predicted_ber():
    one = residual_ber_64qam((0.02j,), 0.01)
    assert residual_ber_64qam((), 0.01) < one < residual_ber_64qam((0.02j, -0.01 + 0.01j), 0.01)


def test_count_interval_is_two_sided():
    pmf = residual_error_pmf_64qam((), 0.01)
    n = 100_000
    mean = n * float(np.dot(np.arange(7), pmf))
    assert count_log_tail(pmf, n, round(mean)) > -1e-3
    sd = math.sqrt(mean)
    for count in (mean + 8 * sd, mean - 8 * sd, 0):
        assert count_log_tail(pmf, n, round(count)) < math.log(LEVEL / 2)


def test_campaign_links_match_oracle():
    """The 14 user links of the default campaign at seed 1, as the runner seeds them."""
    config = dataclasses.replace(RunConfig(), seed=1)
    lines = []
    for i, scn in enumerate(SCENARIOS.values()):
        link = _link(scn, config.channel, derive_seed(config.seed, i, _SEED_STREAM_CSI))
        lines += _check_against_oracle(*link, config.ofdm,
                                       derive_seed(config.seed, i, _SEED_STREAM_FRAME), scn.id)
    assert len(lines) == 14
    print("\n" + "; ".join(lines))


def test_criterion_5_links_match_oracle():
    """Every link of the 20 seeds the acceptance suite averages."""
    base = RunConfig()
    checked = 0
    for scn in SCENARIOS.values():
        for seed in range(20):
            ofdm_cfg = dataclasses.replace(base.ofdm, frames=1)
            checked += len(_check_against_oracle(*_link(scn, base.channel, 10_000 + seed),
                                                 ofdm_cfg, 20_000 + seed, f"{scn.id}@{seed}"))
    assert checked == 20 * 14


@pytest.mark.parametrize("time_domain", [False, True], ids=["flat", "time-domain"])
@pytest.mark.parametrize("scenario_id,snr_db", [("1", 61.0), ("5", 64.0)])
def test_flat_and_full_array_paths_match_oracle(time_domain, scenario_id, snr_db):
    """The k x k flat path and the full 64-antenna IFFT/FFT reference simulator
    agree with the same oracle on a 1-user and a 2-user link where the BER is
    ~1e-3."""
    base = RunConfig()
    scn = SCENARIOS[scenario_id]
    h, combiners, precoder = _link(scn, base.channel, 7)
    pmf = _oracle_pmfs(effective_channel(h, precoder, combiners), snr_db)[0]
    assert 3e-4 <= float(np.dot(np.arange(7), pmf)) / 6 <= 3e-3
    ofdm_cfg = dataclasses.replace(base.ofdm, noise_snr_db=snr_db, frames=2)
    _check_against_oracle(h, combiners, precoder, ofdm_cfg, 8, scenario_id, time_domain)


@pytest.mark.parametrize("time_domain", [False, True], ids=["flat", "time-domain"])
def test_interference_limited_link_matches_oracle(time_domain):
    """At 10 dB CSI SNR the residual ZF interference, not the noise, sets the BER
    of scenario 8's first user (predicted ~4e-3 against ~8e-5 from noise alone):
    its count must match the full oracle and be rejected by the noise-only one."""
    base = RunConfig()
    scn = SCENARIOS["8"]
    ch_cfg = dataclasses.replace(base.channel, csi_snr_db=10.0)
    h, combiners, precoder = _link(scn, ch_cfg, 7)
    ofdm_cfg = dataclasses.replace(base.ofdm, noise_snr_db=68.0, frames=1)
    counts, n_symbols, eff = _run_link(h, combiners, precoder, ofdm_cfg, 8, time_domain)
    for count, pmf in zip(counts, _oracle_pmfs(eff, ofdm_cfg.noise_snr_db)):
        assert _inside(count, n_symbols, pmf)
    noise_only = _oracle_pmfs(eff, ofdm_cfg.noise_snr_db, interference=False)
    assert not _inside(counts[0], n_symbols, noise_only[0])
