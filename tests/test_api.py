"""The public API: the names spinlab exports."""

from pathlib import Path

import pytest

import spinlab

PUBLIC_NAMES = [
    "BjjRegime",
    "DegenerateEstimateError",
    "EprReport",
    "EstimateResult",
    "EvolutionSpec",
    "HermitianOperator",
    "KetState",
    "MeasurementModel",
    "MixedState",
    "OatClosedForms",
    "OutcomeDistribution",
    "PairBasisState",
    "ProtocolFormulas",
    "QuasiProbMap",
    "SampleSet",
    "SensitivityFloors",
    "SpectralPropagator",
    "SpinNoiseMoments",
    "SpinSpace",
    "SqueezingReport",
    "StateBenchmarks",
    "TensorDecomposition",
    "ThreeModeState",
    "WitnessReport",
    "apply_unitary",
    "bjj_ground_state",
    "bjj_regime_predictions",
    "bures",
    "clebsch_gordan",
    "coherent",
    "collective_dephasing",
    "collective_operator",
    "decompose",
    "dicke",
    "dynamics",
    "entanglement_depth_bound",
    "epr_criteria",
    "estimate",
    "estimation",
    "evolve",
    "expectation",
    "export_map",
    "fisher_from_hellinger",
    "fisher_information",
    "hellinger",
    "jx",
    "jy",
    "jz",
    "make_space",
    "metrology",
    "moments",
    "n_effective",
    "noon",
    "oat_closed_forms",
    "oat_evolve",
    "optimal_generator_direction",
    "outcome_distribution",
    "pair_qfi_sx",
    "pair_quadrature_variances",
    "perpendicular_qfi",
    "protocol_formulas",
    "qfi",
    "quantum_fidelity",
    "quasiprobability",
    "reconstruct",
    "reference",
    "render_map",
    "rotate_state",
    "rotation",
    "sample",
    "sensitivity_floors",
    "spin_mixing_ground_state",
    "spin_noise_moments",
    "spinspace",
    "squeezing",
    "state_benchmarks",
    "states",
    "su11_scan",
    "tomography",
    "twin_fock",
    "two_mode_squeezed_vacuum",
    "variance",
    "w_state",
    "witnesses",
]


def test_public_names_are_pinned():
    # __all__ is built from dir(), so any public name imported into the
    # package would extend it silently; helpers stay underscore-private
    assert len(PUBLIC_NAMES) == 84
    assert spinlab.__all__ == PUBLIC_NAMES


def test_distribution_is_named_after_the_package():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["name"] == "spinlab"
