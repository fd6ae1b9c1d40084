"""Walsh spectra of Boolean functions and a classical Deutsch-Jozsa simulator.

The package detects constant, balanced, linear, affine and bent functions
from their Walsh spectra and cross-checks the spectral route against two
statevector simulations of the algorithm's output state.
"""

from .boolfn import (
    MAX_ARITY,
    AnfPolynomial,
    BitVector,
    TruthTable,
    dot,
    from_anf,
    make_affine,
    make_constant,
    make_inner_product_bent,
    make_mm_bent,
    random_function,
    to_anf,
)
from .djsim import (
    ANCILLA_MAX_N,
    STATEVECTOR_MAX_N,
    Amplitudes,
    MeasurementHistogram,
    amplitudes_direct,
    amplitudes_from_walsh,
    probabilities,
    sample_measurements,
    simulate_circuit,
    simulate_with_ancilla,
)
from .spectra import (
    SpectrumReport,
    export_csv,
    export_json,
    make_report,
    read_report,
    render_bars,
)
from .walsh import (
    Classification,
    ShuffleSearchResult,
    WalshSpectrum,
    classify,
    dual_bent,
    fwht,
    is_bent,
    shuffle_search_bent,
    walsh_naive,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_ARITY",
    "STATEVECTOR_MAX_N",
    "ANCILLA_MAX_N",
    "AnfPolynomial",
    "Amplitudes",
    "BitVector",
    "Classification",
    "MeasurementHistogram",
    "ShuffleSearchResult",
    "SpectrumReport",
    "TruthTable",
    "WalshSpectrum",
    "amplitudes_direct",
    "amplitudes_from_walsh",
    "classify",
    "dot",
    "dual_bent",
    "export_csv",
    "export_json",
    "from_anf",
    "fwht",
    "is_bent",
    "make_affine",
    "make_constant",
    "make_inner_product_bent",
    "make_mm_bent",
    "make_report",
    "probabilities",
    "random_function",
    "read_report",
    "render_bars",
    "sample_measurements",
    "shuffle_search_bent",
    "simulate_circuit",
    "simulate_with_ancilla",
    "to_anf",
    "walsh_naive",
]
