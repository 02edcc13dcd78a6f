"""Exact enumeration of polyominoes inscribed in a rectangle.

A stack of row configurations encodes a polyomino drawn row by row inside a
b x h rectangle.  A finite automaton over labeled rows recognizes exactly the
stacks that form one connected polyomino touching all four sides, which turns
counting into linear algebra: series by height, series refined by area, and
verified rational generating functions for both.
"""

from .automaton import (
    Automaton,
    DEFAULT_STATE_CEILING,
    build,
    deserialize,
    export_dot,
    serialize,
    state_count_formula,
)
from .counting import SeriesTable, accepts, count_area_series, count_series
from .errors import (
    AutomatonFormatError,
    AutomatonInvariantError,
    AutomatonVersionError,
    FitError,
    ResourceLimitError,
)
from .genfunc import (
    RationalGF,
    expand,
    fit_rational,
    gf_height,
    gf_height_area,
    specialize_q,
)
from .oracle import (
    GridSubset,
    ORACLE_CELL_LIMIT,
    brute_force_area_histogram,
    brute_force_count,
    is_inscribed_polyomino,
    sample_accepted_stacks,
)
from .polynomial import Polynomial
from .rowconfig import MAX_WIDTH, RowConfig, enumerate_alphabet
from .states import (
    AutomatonState,
    LabeledWord,
    enumerate_valid_states,
    initial_state,
    is_accepting,
)
from .transition import step

__version__ = "0.1.0"

__all__ = [
    "Automaton",
    "AutomatonFormatError",
    "AutomatonInvariantError",
    "AutomatonState",
    "AutomatonVersionError",
    "DEFAULT_STATE_CEILING",
    "FitError",
    "GridSubset",
    "LabeledWord",
    "MAX_WIDTH",
    "ORACLE_CELL_LIMIT",
    "Polynomial",
    "RationalGF",
    "ResourceLimitError",
    "RowConfig",
    "SeriesTable",
    "accepts",
    "brute_force_area_histogram",
    "brute_force_count",
    "build",
    "count_area_series",
    "count_series",
    "deserialize",
    "enumerate_alphabet",
    "enumerate_valid_states",
    "expand",
    "export_dot",
    "fit_rational",
    "gf_height",
    "gf_height_area",
    "initial_state",
    "is_accepting",
    "is_inscribed_polyomino",
    "sample_accepted_stacks",
    "serialize",
    "specialize_q",
    "state_count_formula",
    "step",
]
