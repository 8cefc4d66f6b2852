#!/usr/bin/env python3
"""Print the truncated transcript entropy of bit exchange against its closed form.

The table shows the approach to the four-bit total; the last lines rerun the
closed-form assembly and a Monte Carlo spot check.
"""

import math

from latcomm import assemble_four_bits, bit_exchange_protocol, monte_carlo, sum_rate
from latcomm.cli import DEFAULT_SEED


def closed_form(d: int) -> float:
    return math.fsum(2.0**-k * 2 * k for k in range(1, d + 1)) + 2.0**-d * 2 * d


def main() -> None:
    print(f"{'depth':>5} {'entropy_bits':>20} {'closed_form':>20} {'gap_to_4':>12}")
    for depth in list(range(1, 13)) + [16, 20, 30]:
        rate = sum_rate(bit_exchange_protocol(depth))
        print(f"{depth:>5} {rate:>20.15f} {closed_form(depth):>20.15f} {4.0 - rate:>12.3e}")
    print()
    print(f"closed-form assembly: {assemble_four_bits()} bits")
    samples = 200_000
    mean_bits, mean_rounds = monte_carlo(30, samples, seed=DEFAULT_SEED)
    print(f"monte carlo ({samples} samples): {mean_bits:.4f} bits, {mean_rounds:.4f} rounds")


if __name__ == "__main__":
    main()
