"""64-QAM bit error rate against additive white Gaussian noise.

Sends OFDM frames over the simulator's own link, one user with perfect
CSI.  Zero forcing then leaves the equalised channel at exactly 1, so the
link is 64-QAM over AWGN, and the receiver noise power sets Eb/N0 from
the user's own gain.  The measured BER is compared with the classic
closed-form approximation (7/24) erfc(sqrt(Eb/N0 / 7)).
"""

import math

from beamfield import (
    ChannelModelConfig,
    OfdmConfig,
    Room,
    build_array,
    combining_vectors,
    effective_channel,
    generate_channel,
    standard_scenarios,
    transmit_frame,
    zf_precoder,
)

room = Room()
array = build_array()
scenario = standard_scenarios()[0]
cfg = ChannelModelConfig(mode="los-only", csi_snr_db=math.inf)  # line of sight, perfect CSI
(h,) = generate_channel(array, [scenario], room, cfg)
combiners = combining_vectors(h)
precoder = zf_precoder(h, combiners, total_power=1.0)
gain = abs(effective_channel(h, precoder, combiners)[0, 0])
print(f"one user at {scenario.ue_positions[0]}: own gain |g| = {gain:.4e}")

print("\nEb/N0 (dB)   simulated BER   closed form     ratio")
for i, ebn0_db in enumerate((8.0, 10.0, 12.0, 14.0, 16.0)):
    # Unit-energy symbols, 6 bits each, equalised by g: Eb/N0 = |g|^2 / (6 sigma^2).
    noise_snr_db = ebn0_db + 10.0 * math.log10(6.0) - 20.0 * math.log10(gain)
    report = transmit_frame(precoder, h, combiners,
                            OfdmConfig(noise_snr_db=noise_snr_db, frames=5), seed=7 + i)
    ber = report.per_ue_ber[0]
    analytic = (7.0 / 24.0) * math.erfc(math.sqrt(10 ** (ebn0_db / 10) / 7.0))
    print(f"{ebn0_db:10.1f}   {ber:13.3e}   {analytic:11.3e}   {ber / analytic:9.3f}")

print(f"\n{report.bits_tested} bits per point, hard decisions only; an uncoded link")
print("needs roughly 17 dB per bit before 64-QAM drops below 1e-5.")
