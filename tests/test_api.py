import polyrect
from polyrect import transition

# the package's public names: an addition or a removal shows in this list
PUBLIC_NAMES = [
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

# Polynomial's public attributes: a method added or removed shows here
POLYNOMIAL_NAMES = ["coeffs", "degree", "evaluate", "to_string"]


def test_public_surface():
    assert sorted(polyrect.__all__) == PUBLIC_NAMES
    assert transition.__all__ == ["step"]
    for module in (polyrect, transition):
        for name in module.__all__:
            getattr(module, name)  # AttributeError when a listed name is gone
    assert sorted(n for n in dir(polyrect.Polynomial) if not n.startswith("_")) == POLYNOMIAL_NAMES
