#!/usr/bin/env python3
"""Two flows with different freshness thresholds share one bottleneck.

One adaptive controller drives the total rate from pooled feedback; the
allocator then splits it, moving rate toward the flow that violates more.
The stricter flow ends up with the larger share.
"""

from agefec.core import CodingParams, LossModel
from agefec.multiflow import run_sim
from agefec.netsim import SimConfig


def main() -> None:
    config = SimConfig(
        coding=CodingParams(3, 4),
        avt=5,
        q_s=2 * 3 * 1.4706,
        loss=LossModel(0.1, 0.1),
        duration=30_000,
        monitoring_interval=100,
        rng_seed=0,
    )

    print("identical thresholds (5, 5):")
    res = run_sim(config, flow_count=2)
    for flow in range(2):
        print(
            f"  flow {flow}: rate {res.final_sigmas[flow]:.3f} chunks/slot, "
            f"av={res.system.flow_av[flow]:.4f}, decoded {res.system.flow_decoded[flow]}"
        )
    print(f"  fairness (Jain) final={res.fairness_final:.4f} mean={res.fairness_mean:.4f}")

    print("mixed thresholds (3, 8):")
    res = run_sim(config, flow_count=2, flow_avts=(3, 8))
    for flow, avt in enumerate((3, 8)):
        print(
            f"  flow {flow} (threshold {avt}): rate {res.final_sigmas[flow]:.3f}, "
            f"av={res.system.flow_av[flow]:.4f}"
        )
    total = sum(res.final_sigmas)
    print(f"  total allocated rate {total:.3f} chunks/slot")


if __name__ == "__main__":
    main()
