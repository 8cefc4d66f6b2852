"""Desk-scale machinery for interactive ordering of two uniform variables.

Modules cover the 2-D lattice geometry the problem comes from (Babai and
Voronoi cells, and the seven-rectangle refinement of the Babai cell, a
protocol tree whose messages give the rates), rectangular partitions of the
unit square with their entropy accounting, an interactive protocol engine
with the bit-exchange construction, and the verification suite showing the
four-bit total is optimal.
"""

from .partition_core import (
    LabeledPartition,
    TargetFunction,
    entropy_bits,
    is_zero_error,
    majorizes,
    maximize_staircase_numeric,
    partition_entropy,
    readjust_max_rectangle,
    staircase_area,
    staircase_max,
    satisfies_staircase_bounds,
)
from .lattice_geometry import (
    ConvexPolygon,
    Lattice2D,
    Point2,
    RoundRates,
    UnsupportedGeometryError,
    babai_cell,
    babai_subdivision,
    crossed_cell_mass,
    nearest_lattice_point,
    nearest_plane_point,
    round_rates,
    simulate_round_count,
    subdivision_to_json,
    voronoi_cell,
)
from .protocol_engine import (
    ProtocolTree,
    Transcript,
    bit_exchange_protocol,
    induced_partition,
    make_leaf,
    make_node,
    monte_carlo,
    one_round_quadrant_protocol,
    run_protocol,
    sample_inputs,
    sum_rate,
)
from .converse_verification import (
    assemble_four_bits,
    entropy_ratio,
    quadrant_feasible,
    quadrant_grid_oracle,
    quadrant_min_entropy,
    minimize_entropy_ratio,
    run_all_checks,
    self_similar_partition,
    side_conditional_entropy,
)

__version__ = "0.1.0"
