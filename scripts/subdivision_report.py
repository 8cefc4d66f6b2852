#!/usr/bin/env python3
"""Seven-rectangle refinements and their message rates for a few lattices.

For each lattice: the subdivision JSON, the message distributions, the rate
read off the refinement's protocol tree and the round count, and a Monte
Carlo round count to compare against the latter.
"""

import json
import math

from latcomm import (
    Lattice2D,
    babai_subdivision,
    crossed_cell_mass,
    round_rates,
    simulate_round_count,
    subdivision_to_json,
)
from latcomm.cli import DEFAULT_SEED

CASES = [
    (1.0, math.pi / 3),
    (1.0, 0.45 * math.pi),
    (2.0, 1.2),
    (1.0, math.pi / 2),
]


def main() -> None:
    for rho, theta in CASES:
        lat = Lattice2D(rho, theta)
        sub = babai_subdivision(lat)
        rates = round_rates(sub)
        print(f"--- rho={rho}, theta={theta:.6f} ---")
        print(json.dumps(subdivision_to_json(sub), sort_keys=True))
        print(f"Q={rates.Q} Q0={rates.Q0:.6f}")
        print(f"P={rates.P} P0={rates.P0:.6f}")
        print(f"R_bar={rates.R_bar:.6f} bits, N_bar={rates.N_bar:.6f} rounds, "
              f"crossed mass={crossed_cell_mass(sub):.6f}")
        if not sub.degenerate:
            mc = simulate_round_count(sub, 100_000, seed=DEFAULT_SEED)
            print(f"monte carlo rounds: {mc:.4f}")
        print()


if __name__ == "__main__":
    main()
