"""Numerical workbench for entropic chaos degrees and recognition channels.

The package splits into five layers:

- ``hilbert``: finite-dimensional states, spectral decompositions,
  entropies, shift and multiplication operators on the cyclic index set,
  and the private helpers that the other layers share.
- ``channels``: quantum channels (Kraus, Schur-multiplier, unitary,
  stochastic), trace-normalized Schur conditioning and
  complete-positivity diagnostics.
- ``metrics``: chaos degree, transmitted complexity, axiom property
  suite, value of information and the chaos-versus-value batches.
- ``classical``: iterated maps, orbit binning, empirical channels,
  Lyapunov exponents, parameter sweeps and their labels.
- ``recognition``: signal bases, entangling lifts, and the recognition
  step in closed form, checked against three independent update routes.

``cli`` exposes the ``infodyn`` console entry point; ``jsonio`` and
``svgplot`` carry the serialization formats it speaks.

A public name is added in one place: under its home module in
`_EXPORTS`, from which `__all__` is derived. Each has one role in
README's role table: a subcommand reaches it, the benchmark reads it,
it implements a formula of the paper, or a test uses it as an oracle;
a name with none of these is deleted. The namespace is lazy (PEP
562): ``import infodyn`` loads no layer, and a name's module, or a
layer named in `_EXPORTS`, is imported when it is first read.
"""

import importlib as _importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exceptions": (
        "DimensionMismatch",
        "InfodynError",
        "OrbitEscape",
        "OutsideDomain",
        "ZeroProbabilityOutcome",
    ),
    "hilbert": (
        "DensityOperator",
        "diag_embedding",
        "mult_operator",
        "partial_trace",
        "random_density",
        "random_state",
        "random_unitary",
        "relative_entropy",
        "shift_unitary",
        "tensor",
        "von_neumann_entropy",
    ),
    "channels": (
        "Channel",
        "CompletePositivityReport",
        "choi_check",
        "choi_matrix",
        "depolarizing_channel",
        "identity_channel",
        "kraus_channel",
        "random_kraus_channel",
        "schur_apply_from_terms",
        "schur_channel",
        "schur_channel_apply",
        "stochastic_channel",
        "unitary_channel",
    ),
    "metrics": (
        "AxiomResult",
        "ChaosDegreeReport",
        "ComplexityConfig",
        "ConjectureOutcome",
        "axiom_suite",
        "chaos_degree",
        "complexity",
        "conjecture_batch",
        "conjecture_experiment",
        "transmitted_complexity",
        "value_of_information",
    ),
    "classical": (
        "BUILTIN_MAPS",
        "EmpiricalChannel",
        "MapSystem",
        "OrbitConfig",
        "Partition",
        "SweepRow",
        "baker_map",
        "empirical_channel",
        "iterate_orbit",
        "logistic_map",
        "lyapunov_exponent",
        "orbit_chaos_degree",
        "sweep",
        "sweep_to_csv",
        "tinkerbell_map",
    ),
    "recognition": (
        "ArgmaxPolicy",
        "BellSystem",
        "FixedPolicy",
        "RecognitionStep",
        "SamplePolicy",
        "SignalBasis",
        "entangle",
        "measured_operator",
        "outcome_probabilities",
        "outcome_probability",
        "recognize_sequence",
        "transfer_operator",
        "update_composed",
        "update_direct",
        "update_spectral",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    if name in _EXPORTS:
        value = _importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
