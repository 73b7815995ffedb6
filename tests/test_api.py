"""The public API: the names spinlab exports, the scipy modules its entry points load, the
boundary checks of its scalar parameters, and closed forms wired to the numerics."""

import ast
import inspect
import json
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spinlab
from spinlab import dynamics, spinspace, states, tomography
from spinlab.cli import _STATE_MENU
from spinlab.reference import ProtocolFormulas

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


def _scipy_loaded_by(code: str, cwd, roots=("scipy",)) -> set:
    """The modules under `roots` (scipy by default) in sys.modules after `code` runs in a
    fresh interpreter."""
    # the child runs from cwd, where a relative PYTHONPATH such as "src" resolves to
    # nothing; put the directory holding the spinlab this run imported first
    package_root = str(Path(spinlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    probe = (
        f"import json, sys\n{code}\n"
        f"roots = {tuple(roots)!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if any(m == r or m.startswith(r + '.') for r in roots))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=cwd, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("module", ["spinlab", "spinlab.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    assert _scipy_loaded_by(f"import {module}", tmp_path) == set()


CLOSED_FORM_RUNS = [
    (["oat-sweep", "--n", "12", "--chit", "0:0.2:3"], 0),
    (["floors", "--n", "2:10:5"], 0),
    *((["witness", "--n", "8", "--state", s, "--chit", "0.1:0.2:2"], 0) for s in _STATE_MENU),
    (["oat-sweep", "--chit", "0:1:5"], 2),
    (["--help"], 0),
]


@pytest.mark.parametrize(
    ("argv", "exit_code"), CLOSED_FORM_RUNS, ids=[" ".join(argv) for argv, _ in CLOSED_FORM_RUNS]
)
def test_closed_form_subcommands_load_no_scipy(argv, exit_code, tmp_path):
    code = (
        "from spinlab.cli import run\n"
        "try:\n"
        f"    code = run({argv!r})\n"
        "except SystemExit as exc:  # --help exits from argparse\n"
        "    code = exc.code\n"
        f"assert code == {exit_code}, code"
    )
    assert _scipy_loaded_by(code, tmp_path) == set()


# the first solve loads scipy's LAPACK extension alone: the scipy.linalg package would bring
# scipy's array-API layer and numpy.testing / numpy.f2py with it (about 17 MB and 0.2 s)
_HEAVY = ("scipy.linalg", "scipy._lib._array_api", "scipy.special", "numpy.f2py", "numpy.testing")


def test_first_solve_loads_scipy_linalg_only(tmp_path):
    loaded = _scipy_loaded_by(
        "from spinlab import bjj_ground_state, make_space\nbjj_ground_state(make_space(20), 1.0)",
        tmp_path,
        roots=("scipy", "numpy.f2py", "numpy.testing"),
    )
    assert "scipy.linalg._flapack" in loaded
    assert not loaded & set(_HEAVY)


def test_maps_and_clebsch_gordan_load_scipy_lapack_only(tmp_path):
    loaded = _scipy_loaded_by(
        "from spinlab import clebsch_gordan, coherent, make_space, quasiprobability\n"
        "for kind in 'pwq':\n"
        "    quasiprobability(coherent(make_space(4), 0.3), kind)\n"
        "clebsch_gordan(7.5, 0.5, 3, -2, 6.5, -1.5)",
        tmp_path,
        roots=("scipy", "numpy.f2py", "numpy.testing"),
    )
    assert "scipy.linalg._flapack" in loaded
    assert not loaded & set(_HEAVY)


def _scipy_imports(path: Path) -> set:
    """(file, innermost function, statement) for each scipy import, and each dynamic import
    whatever it names, in one source file."""
    tree = ast.parse(path.read_text())
    owner = {}
    for fn in ast.walk(tree):  # breadth first, so a nested function overwrites its parent
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.partition(".")[0] == "scipy" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.level == 0 and node.module.partition(".")[0] == "scipy"
        elif isinstance(node, ast.Call):
            hit = ast.unparse(node.func).rpartition(".")[2] in ("import_module", "__import__")
        else:
            continue
        if hit:
            found.add((path.name, owner.get(id(node)), ast.unparse(node)))
    return found


def test_only_the_lapack_loader_imports_scipy():
    # the static twin of the loaded-module probes above: no other route to scipy in the source
    src = Path(spinlab.__file__).resolve().parent
    found = set().union(*(_scipy_imports(path) for path in src.glob("*.py")))
    assert found == {
        ("spinspace.py", "_flapack", "import scipy"),
        ("spinspace.py", "_flapack", "importlib.import_module(name)"),
    }


@pytest.mark.parametrize("module", [states, dynamics, tomography], ids=lambda m: m.__name__)
def test_every_tridiagonal_solve_goes_through_spinspace(module):
    assert module.eigh_tridiagonal is spinspace.eigh_tridiagonal


def _delta_calls(path: Path) -> set:
    """(file, qualified name of the enclosing definition) for each call of `_delta` in one file."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func).rpartition(".")[2] == "_delta":
                found.add((path.name, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_every_delta_product_goes_through_the_halves():
    # the static twin of the solve guard above: d^j(pi/2) is read only by spinspace's product and
    # assembly helpers and by a measurement model's build, which holds the halves for its tables
    src = Path(spinlab.__file__).resolve().parent
    found = set().union(*(_delta_calls(path) for path in src.glob("*.py")))
    assert found == {
        ("spinspace.py", "_delta_times"),
        ("spinspace.py", "_d_matrix"),
        ("estimation.py", "MeasurementModel._machinery.d_of"),
    }


# ---------------------------------------------------------------------------
# boundary checks: every public scalar parameter goes through one spinspace helper, by kind.
# size: integer-typed (a bool or a whole float is refused); count: a whole-valued finite
# real, not a bool; real: a finite real, not a bool, within its bounds.


@lru_cache(maxsize=1)
def _objects():
    space = spinlab.make_space(4)
    css = spinlab.coherent(space, math.pi / 2)
    grid = np.linspace(-0.5, 0.5, 21)
    model = spinlab.MeasurementModel(css, (0.0, 0.0, 1.0), (), (0.0, 1.0, 0.0), grid)
    return SimpleNamespace(
        space=space,
        css=css,
        grid=grid,
        model=model,
        draws=spinlab.sample(model, 0.0, 20, 1),
        dec=spinlab.decompose(spinlab.coherent(spinlab.make_space(2), 0.3)),
        bench=spinlab.state_benchmarks(4),
        tmsv=spinlab.two_mode_squeezed_vacuum(0.3),
    )


PF = ProtocolFormulas
SB = spinlab.StateBenchmarks
S = spinlab
Z, X = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
CG = (1, 0, 1, 0, 2, 0)  # <1 0; 1 0 | 2 0>

# (kind, the callable, its parameter, the call with the value in that slot); "or None" marks
# a parameter whose default None is valid
SCALARS = [
    ("size", S.make_space, "n_particles", lambda o, v: S.make_space(v)),
    ("real", S.rotation, "angle", lambda o, v: S.rotation(o.space, Z, v)),
    ("real", S.rotate_state, "angle", lambda o, v: S.rotate_state(o.css, Z, v)),
    ("real", S.coherent, "theta", lambda o, v: S.coherent(o.space, v)),
    ("real", S.coherent, "phi", lambda o, v: S.coherent(o.space, 0.3, v)),
    ("real", S.dicke, "m", lambda o, v: S.dicke(o.space, v)),
    ("real", S.noon, "phi", lambda o, v: S.noon(o.space, v)),
    ("real", states.bjj_hamiltonian_bands, "lam",
     lambda o, v: states.bjj_hamiltonian_bands(o.space, v)),
    ("real", states.bjj_hamiltonian_bands, "delta_e",
     lambda o, v: states.bjj_hamiltonian_bands(o.space, 1.0, v)),
    ("real", S.bjj_ground_state, "lam", lambda o, v: S.bjj_ground_state(o.space, v)),
    ("real", S.bjj_ground_state, "delta_e", lambda o, v: S.bjj_ground_state(o.space, 1.0, v)),
    ("size", states.pair_hamiltonian_bands, "n_particles",
     lambda o, v: states.pair_hamiltonian_bands(v, 1.0, -1.0)),
    ("real", states.pair_hamiltonian_bands, "q",
     lambda o, v: states.pair_hamiltonian_bands(4, v, -1.0)),
    ("real", states.pair_hamiltonian_bands, "lam",
     lambda o, v: states.pair_hamiltonian_bands(4, 1.0, v)),
    ("size", states.pair_sx2_bands, "n_particles", lambda o, v: states.pair_sx2_bands(v)),
    ("size", S.spin_mixing_ground_state, "n_particles",
     lambda o, v: S.spin_mixing_ground_state(v, 1.0)),
    ("real", S.spin_mixing_ground_state, "q", lambda o, v: S.spin_mixing_ground_state(4, v)),
    ("real", S.two_mode_squeezed_vacuum, "r", lambda o, v: S.two_mode_squeezed_vacuum(v)),
    ("size or None", S.two_mode_squeezed_vacuum, "n_max",
     lambda o, v: S.two_mode_squeezed_vacuum(0.3, v)),
    ("size", S.ThreeModeState, "n_particles", lambda o, v: S.ThreeModeState(v, np.eye(3)[0])),
    ("real", S.PairBasisState, "r", lambda o, v: S.PairBasisState(v, 0, [1.0])),
    ("size", S.PairBasisState, "n_max", lambda o, v: S.PairBasisState(0.0, v, [1.0])),
    ("real", S.EvolutionSpec, "chi_t", lambda o, v: S.EvolutionSpec(kind="oat", chi_t=v)),
    ("real", S.EvolutionSpec, "lam", lambda o, v: S.EvolutionSpec(kind="bjj", lam=v, t=1.0)),
    ("real", S.EvolutionSpec, "t", lambda o, v: S.EvolutionSpec(kind="bjj", lam=1.0, t=v)),
    ("real", S.EvolutionSpec, "omega",
     lambda o, v: S.EvolutionSpec(kind="bjj", lam=1.0, t=1.0, omega=v)),
    ("real", S.EvolutionSpec, "delta_e",
     lambda o, v: S.EvolutionSpec(kind="bjj", lam=1.0, t=1.0, delta_e=v)),
    ("real", S.EvolutionSpec, "q", lambda o, v: S.EvolutionSpec(kind="spin_mixing", q=v, t=1.0)),
    ("real", S.EvolutionSpec, "t", lambda o, v: S.EvolutionSpec(kind="spin_mixing", q=1.0, t=v)),
    ("real", S.EvolutionSpec, "t",
     lambda o, v: S.EvolutionSpec(kind="custom", t=v, hamiltonian=S.jz(o.space))),
    ("real", S.oat_evolve, "chi_t", lambda o, v: S.oat_evolve(o.css, v)),
    ("size", S.su11_scan, "n_particles", lambda o, v: S.su11_scan(v, -1, 7.0, 0.01, [3.0])),
    ("real", S.su11_scan, "q", lambda o, v: S.su11_scan(4, -1, v, 0.01, [3.0])),
    ("real", S.su11_scan, "t_mix", lambda o, v: S.su11_scan(4, -1, 7.0, v, [3.0])),
    ("real", S.entanglement_depth_bound, "fisher", lambda o, v: S.entanglement_depth_bound(v, 4)),
    ("size", S.entanglement_depth_bound, "n_particles",
     lambda o, v: S.entanglement_depth_bound(3.0, v)),
    ("real", S.epr_criteria, "v_x_plus", lambda o, v: S.epr_criteria(v, 1.0, 1.0, 1.0)),
    ("real", S.epr_criteria, "v_x_minus", lambda o, v: S.epr_criteria(1.0, v, 1.0, 1.0)),
    ("real", S.epr_criteria, "v_p_plus", lambda o, v: S.epr_criteria(1.0, 1.0, v, 1.0)),
    ("real", S.epr_criteria, "v_p_minus", lambda o, v: S.epr_criteria(1.0, 1.0, 1.0, v)),
    ("real", S.collective_dephasing, "sigma_pn", lambda o, v: S.collective_dephasing(o.css, v)),
    ("real or None", S.collective_dephasing, "theta",
     lambda o, v: S.collective_dephasing(o.css, 0.1, v)),
    ("size", S.sensitivity_floors, "n_particles", lambda o, v: S.sensitivity_floors(v, 1.0, 0.0)),
    ("real", S.sensitivity_floors, "eta", lambda o, v: S.sensitivity_floors(4, v, 0.0)),
    ("real", S.sensitivity_floors, "sigma_pn", lambda o, v: S.sensitivity_floors(4, 1.0, v)),
    ("real", S.sensitivity_floors, "nu", lambda o, v: S.sensitivity_floors(4, 1.0, 0.0, v)),
    ("real", S.pair_quadrature_variances, "phi", lambda o, v: S.pair_quadrature_variances(o.tmsv, v)),
    ("real", S.MeasurementModel, "detection_sigma",
     lambda o, v: S.MeasurementModel(o.css, Z, (), X, o.grid, v)),
    ("real", S.MeasurementModel, "detection_eta",
     lambda o, v: S.MeasurementModel(o.css, Z, (), X, o.grid, 0.5, v)),
    ("real", S.MeasurementModel, "pipeline",
     lambda o, v: S.MeasurementModel(o.css, Z, ((X, v),), X, o.grid)),
    ("real", S.outcome_distribution, "theta", lambda o, v: S.outcome_distribution(o.model, v)),
    ("real", S.fisher_information, "theta", lambda o, v: S.fisher_information(o.model, v)),
    ("real or None", S.fisher_information, "dtheta",
     lambda o, v: S.fisher_information(o.model, 0.0, v)),
    ("real", S.hellinger, "theta0", lambda o, v: S.hellinger(o.model, v, 0.0)),
    ("real", S.hellinger, "theta", lambda o, v: S.hellinger(o.model, 0.0, v)),
    ("real", S.fisher_from_hellinger, "theta0", lambda o, v: S.fisher_from_hellinger(o.model, v, 0.2)),
    ("real", S.fisher_from_hellinger, "window", lambda o, v: S.fisher_from_hellinger(o.model, 0.0, v)),
    ("count", S.fisher_from_hellinger, "fit_degree",
     lambda o, v: S.fisher_from_hellinger(o.model, 0.0, 0.2, v)),
    ("real", S.sample, "theta_true", lambda o, v: S.sample(o.model, v, 10, 1)),
    ("count", S.sample, "nu", lambda o, v: S.sample(o.model, 0.0, v, 1)),
    ("size", S.sample, "seed", lambda o, v: S.sample(o.model, 0.0, 10, v)),
    ("count", S.estimate, "grid_points",
     lambda o, v: S.estimate(o.draws, o.model, "mle", grid_points=v)),
    *(
        ("real", S.clebsch_gordan, name, lambda o, v, i=i: S.clebsch_gordan(*CG[:i], v, *CG[i + 1 :]))
        for i, name in enumerate(("j1", "m1", "j2", "m2", "j3", "m3"))
    ),
    ("size", S.TensorDecomposition, "n_particles",
     lambda o, v: S.TensorDecomposition(v, np.zeros((3, 5)))),
    ("size", S.TensorDecomposition.coefficient, "k", lambda o, v: o.dec.coefficient(v, 0)),
    ("size", S.TensorDecomposition.coefficient, "q", lambda o, v: o.dec.coefficient(1, v)),
    ("size or None", S.render_map, "n_theta", lambda o, v: S.render_map(o.dec, "q", v)),
    ("size or None", S.render_map, "n_phi", lambda o, v: S.render_map(o.dec, "q", None, v)),
    ("size or None", S.quasiprobability, "n_theta", lambda o, v: S.quasiprobability(o.css, "w", v)),
    ("size or None", S.quasiprobability, "n_phi", lambda o, v: S.quasiprobability(o.css, "w", None, v)),
    ("count", S.spin_noise_moments, "order", lambda o, v: S.spin_noise_moments(o.css, [0.0, 1.0], v)),
    ("size", S.oat_closed_forms, "n_particles", lambda o, v: S.oat_closed_forms(v, 0.1)),
    ("real", S.oat_closed_forms, "chi_t", lambda o, v: S.oat_closed_forms(4, v)),
    ("size", S.bjj_regime_predictions, "n_particles", lambda o, v: S.bjj_regime_predictions(v, 0.5)),
    ("real", S.bjj_regime_predictions, "lam", lambda o, v: S.bjj_regime_predictions(4, v)),
    ("size", S.state_benchmarks, "n_particles", lambda o, v: S.state_benchmarks(v)),
    ("real", SB.dicke_qfi, "m", lambda o, v: o.bench.dicke_qfi(v)),
    ("real", SB.twin_fock_phase_var, "theta", lambda o, v: o.bench.twin_fock_phase_var(v)),
    ("real", SB.twin_fock_phase_var, "nu", lambda o, v: o.bench.twin_fock_phase_var(0.0, v)),
    ("real", SB.css_overlap, "theta", lambda o, v: o.bench.css_overlap(v)),
    ("real", SB.fock_input_qfi, "n_a", lambda o, v: o.bench.fock_input_qfi(v)),
    ("real", PF.qnd_kappa_squared, "n_atoms", lambda o, v: PF.qnd_kappa_squared(v, 10.0, 0.1)),
    ("real", PF.qnd_kappa_squared, "n_photons", lambda o, v: PF.qnd_kappa_squared(10.0, v, 0.1)),
    ("real", PF.qnd_kappa_squared, "k", lambda o, v: PF.qnd_kappa_squared(10.0, 10.0, v)),
    ("real", PF.qnd_conditional_mean, "m_y", lambda o, v: PF.qnd_conditional_mean(v, 0.2, 10.0, 10.0)),
    ("real", PF.qnd_conditional_mean, "kappa",
     lambda o, v: PF.qnd_conditional_mean(0.1, v, 10.0, 10.0)),
    ("real", PF.qnd_conditional_mean, "n_atoms",
     lambda o, v: PF.qnd_conditional_mean(0.1, 0.2, v, 10.0)),
    ("real", PF.qnd_conditional_mean, "n_photons",
     lambda o, v: PF.qnd_conditional_mean(0.1, 0.2, 10.0, v)),
    ("real", PF.qnd_conditional_var, "kappa", lambda o, v: PF.qnd_conditional_var(v, 10.0)),
    ("real", PF.qnd_conditional_var, "n_atoms", lambda o, v: PF.qnd_conditional_var(0.2, v)),
    ("size", PF.heralded_qfi_over_n, "n_atoms", lambda o, v: PF.heralded_qfi_over_n(v, 0.3)),
    ("real", PF.heralded_qfi_over_n, "phi", lambda o, v: PF.heralded_qfi_over_n(4, v)),
    ("real", PF.ghz_parity_fisher, "n_atoms", lambda o, v: PF.ghz_parity_fisher(v, 0.8, 0.1)),
    ("real", PF.ghz_parity_fisher, "visibility", lambda o, v: PF.ghz_parity_fisher(4, v, 0.1)),
    ("real", PF.ghz_parity_fisher, "theta", lambda o, v: PF.ghz_parity_fisher(4, 0.8, v)),
    ("real", PF.su11_sensitivity, "n_scattered", lambda o, v: PF.su11_sensitivity(v, 3.0)),
    ("real", PF.su11_sensitivity, "theta", lambda o, v: PF.su11_sensitivity(2.0, v)),
    ("real", PF.tmsv_quadrature_variances, "r", lambda o, v: PF.tmsv_quadrature_variances(v, 0.2)),
    ("real", PF.tmsv_quadrature_variances, "phi", lambda o, v: PF.tmsv_quadrature_variances(0.3, v)),
    ("real", PF.xi_r2_from_quadrature, "var_q", lambda o, v: PF.xi_r2_from_quadrature(v)),
    ("real", PF.frozen_spin_variances, "n_atoms",
     lambda o, v: PF.frozen_spin_variances(v, 1.0, 0.5, 0.3)),
    ("real", PF.frozen_spin_variances, "omega",
     lambda o, v: PF.frozen_spin_variances(100.0, v, 0.5, 0.3)),
    ("real", PF.frozen_spin_variances, "lam",
     lambda o, v: PF.frozen_spin_variances(100.0, 1.0, v, 0.3)),
    ("real", PF.frozen_spin_variances, "t", lambda o, v: PF.frozen_spin_variances(100.0, 1.0, 0.5, v)),
    ("real", PF.bogoliubov_pair_population, "alpha",
     lambda o, v: PF.bogoliubov_pair_population(v, 1.5, 0.5)),
    ("real", PF.bogoliubov_pair_population, "beta",
     lambda o, v: PF.bogoliubov_pair_population(1.0, v, 0.5)),
    ("real", PF.bogoliubov_pair_population, "t",
     lambda o, v: PF.bogoliubov_pair_population(1.0, 1.5, v)),
    ("real", PF.pair_amplitudes, "alpha", lambda o, v: PF.pair_amplitudes(v, 1.5, 0.5, 3)),
    ("real", PF.pair_amplitudes, "beta", lambda o, v: PF.pair_amplitudes(1.0, v, 0.5, 3)),
    ("real", PF.pair_amplitudes, "t", lambda o, v: PF.pair_amplitudes(1.0, 1.5, v, 3)),
    ("size", PF.pair_amplitudes, "n_max", lambda o, v: PF.pair_amplitudes(1.0, 1.5, 0.5, v)),
    ("real", PF.pair_amplitudes, "phi0", lambda o, v: PF.pair_amplitudes(1.0, 1.5, 0.5, 3, v)),
    ("real", PF.two_atom_xi_r2, "alpha", lambda o, v: PF.two_atom_xi_r2(v)),
    ("size", PF.producibility_bound, "n_particles", lambda o, v: PF.producibility_bound(v, 2)),
    ("size", PF.producibility_bound, "k", lambda o, v: PF.producibility_bound(5, v)),
]
# the message names the parameter, in the words that older messages used for these four
LABELS = {
    (S.sensitivity_floors, "eta"): "transmission",
    (S.entanglement_depth_bound, "fisher"): "Fisher information",
    (S.sample, "theta_true"): "theta",
    (S.MeasurementModel, "pipeline"): "pipeline[0] must be an (axis, finite angle) pair: angle",
}

# a size refuses a whole float as well; a real takes 2.7, but no bool, non-number or non-finite
BAD = {
    "size": [2.7, 4.0, True, None, "3", math.nan, math.inf],
    "count": [2.7, True, None, "3", math.nan, math.inf],
    "real": [True, None, "3", math.nan, math.inf, -math.inf],
}
BOUNDARY_CASES = [
    pytest.param(LABELS.get((fn, param), param), call, bad, id=f"{fn.__qualname__}-{param}-{bad!r}")
    for kind, fn, param, call in SCALARS
    for bad in BAD[kind.partition(" ")[0]]
    if not (bad is None and kind.endswith("or None"))
]


@pytest.mark.parametrize("name, call, bad", BOUNDARY_CASES)
def test_a_bad_scalar_is_refused_naming_the_parameter_and_the_value(name, call, bad):
    with pytest.raises(ValueError) as err:
        call(_objects(), bad)
    message = str(err.value)
    assert name in message and repr(bad) in message, message
    assert not isinstance(err.value, np.linalg.LinAlgError)


def _scalar_parameters(fn) -> set:
    """The parameters of fn annotated int or float (or either or None)."""
    scalar = {"int", "float", "int | None", "float | None"}
    return {p.name for p in inspect.signature(fn).parameters.values() if p.annotation in scalar}


def test_the_table_holds_every_scalar_parameter_of_the_public_api():
    # inputs only: the functions spinlab exports, the classes a caller builds, the closed forms
    inputs = [getattr(S, name) for name in S.__all__ if inspect.isfunction(getattr(S, name))]
    inputs += [S.EvolutionSpec, S.MeasurementModel, S.PairBasisState, S.ThreeModeState]
    inputs += [S.TensorDecomposition, S.TensorDecomposition.coefficient]
    inputs += [f for cls in (PF, SB) for name, f in vars(cls).items() if not name.startswith("_")]
    inputs = [getattr(PF, f.__func__.__name__) if isinstance(f, staticmethod) else f for f in inputs]
    listed = {(fn, param) for _, fn, param, _ in SCALARS}
    # lam_sign is a choice of two signs, checked by membership; threads is accepted and ignored
    unchecked = {"lam_sign", "threads"}
    missing = {(fn.__qualname__, p) for fn in inputs for p in _scalar_parameters(fn) - unchecked}
    missing -= {(fn.__qualname__, p) for fn, p in listed}
    assert missing == set()
    assert {kind.partition(" ")[0] for kind, *_ in SCALARS} == {"size", "count", "real"}


# valid boundary values: a whole-float count, numpy integer sizes and numpy float reals give
# the very result of the plain Python value
TYPED_VALUES = [
    (
        "make_space",
        lambda: spinlab.make_space(np.int64(5)).m_labels,
        lambda: spinlab.make_space(5).m_labels,
    ),
    (
        "sample",
        lambda: spinlab.sample(_objects().model, np.float64(0.1), 30.0, np.int64(2)).outcomes,
        lambda: spinlab.sample(_objects().model, 0.1, 30, 2).outcomes,
    ),
    (
        "estimate",
        lambda: spinlab.estimate(_objects().draws, _objects().model, "bayes", grid_points=101.0).interval,
        lambda: spinlab.estimate(_objects().draws, _objects().model, "bayes", grid_points=101).interval,
    ),
    (
        "spin_noise_moments",
        lambda: spinlab.spin_noise_moments(_objects().css, _objects().grid, 2.0).cos_coefficients,
        lambda: spinlab.spin_noise_moments(_objects().css, _objects().grid, 2).cos_coefficients,
    ),
    (
        "oat_closed_forms",
        lambda: spinlab.oat_closed_forms(np.int64(12), np.float64(0.07)),
        lambda: spinlab.oat_closed_forms(12, 0.07),
    ),
    (
        "sensitivity_floors",
        lambda: spinlab.sensitivity_floors(np.int64(10), np.float64(0.9), np.float64(0.01), 4.0),
        lambda: spinlab.sensitivity_floors(10, 0.9, 0.01, 4),
    ),
    (
        "entanglement_depth_bound",
        lambda: spinlab.entanglement_depth_bound(np.float64(7.5), np.int64(4)),
        lambda: spinlab.entanglement_depth_bound(7.5, 4),
    ),
    (
        "su11_scan",
        lambda: spinlab.su11_scan(np.int64(20), -1, np.float64(39.0), np.float64(0.01), [2.5, 3.0]),
        lambda: spinlab.su11_scan(20, -1, 39.0, 0.01, [2.5, 3.0]),
    ),
    (
        "render_map",
        lambda: spinlab.render_map(_objects().dec, "w", np.int64(8), np.int64(5)).values,
        lambda: spinlab.render_map(_objects().dec, "w", 8, 5).values,
    ),
    (
        "coherent",
        lambda: spinlab.coherent(_objects().space, np.float64(0.3), np.float64(0.2)).amplitudes,
        lambda: spinlab.coherent(_objects().space, 0.3, 0.2).amplitudes,
    ),
    (
        "two_mode_squeezed_vacuum",
        lambda: spinlab.two_mode_squeezed_vacuum(np.float64(0.3), np.int64(40)).amplitudes,
        lambda: spinlab.two_mode_squeezed_vacuum(0.3, 40).amplitudes,
    ),
    (
        "collective_dephasing",
        lambda: spinlab.collective_dephasing(_objects().css, np.float64(0.1), np.float64(0.2)).matrix,
        lambda: spinlab.collective_dephasing(_objects().css, 0.1, 0.2).matrix,
    ),
    (
        "pair_amplitudes",
        lambda: PF.pair_amplitudes(1.0, 1.5, np.float64(0.5), np.int64(3)),
        lambda: PF.pair_amplitudes(1.0, 1.5, 0.5, 3),
    ),
]


@pytest.mark.parametrize(
    "typed, plain", [row[1:] for row in TYPED_VALUES], ids=[row[0] for row in TYPED_VALUES]
)
def test_valid_typed_values_give_the_plain_result_bitwise(typed, plain):
    got, want = typed(), plain()
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert got == want


# ---------------------------------------------------------------------------
# static guard, the twin of the LAPACK and `_delta` guards above: integer-typed checks and
# `numbers` live in spinspace's three helpers only, and no function truncates its own parameter

def _scalar_checks(path: Path) -> dict:
    """Per kind, (file, qualified scope) of each `import numbers`, each isinstance test against
    an integer type, and each int(p) of a parameter p of the enclosing function (text parsers,
    whose parameter is annotated str, raise on a fraction and are left out)."""
    found = {"numbers": set(), "integer_type": set(), "int_of_parameter": set()}

    def visit(node, scope, params):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                own = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                       if a.annotation is None or ast.unparse(a.annotation) != "str"}
                visit(child, (*scope, child.name), own)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, (*scope, child.name), set())
                continue
            where = (path.name, ".".join(scope))
            if isinstance(child, ast.Import) and any(a.name == "numbers" for a in child.names):
                found["numbers"].add(where)
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id == "isinstance" and len(child.args) == 2:
                    types = getattr(child.args[1], "elts", child.args[1:])
                    if {ast.unparse(t) for t in types} & {"int", "np.integer", "numbers.Integral"}:
                        found["integer_type"].add(where)
                arg = child.args[0] if len(child.args) == 1 else None
                if child.func.id == "int" and isinstance(arg, ast.Name) and arg.id in params:
                    found["int_of_parameter"].add(where)
            visit(child, scope, params)

    visit(ast.parse(path.read_text()), (), set())
    return found


def test_scalar_checks_live_in_the_three_spinspace_helpers():
    src = Path(spinlab.__file__).resolve().parent
    found = {"numbers": set(), "integer_type": set(), "int_of_parameter": set()}
    for path in src.glob("*.py"):
        for kind, sites in _scalar_checks(path).items():
            found[kind] |= sites
    assert found["numbers"] == {("spinspace.py", "")}
    assert found["integer_type"] == {("spinspace.py", "_size")}
    # a size and a count leave their helper as an int, after the check
    assert found["int_of_parameter"] == {("spinspace.py", "_size"), ("spinspace.py", "_count")}


# ---------------------------------------------------------------------------
# closed forms wired to the numerics (first routes of the oracle map): the benchmark formulas
# of spinlab.reference against the exact state numerics


@pytest.mark.parametrize("n", [10, 40, 101])
def test_css_overlap_is_the_fidelity_of_a_rotated_coherent_state(n):
    css = spinlab.coherent(spinlab.make_space(n), math.pi / 2)
    fidelity = spinlab.quantum_fidelity(css, spinlab.rotate_state(css, (0.0, 1.0, 0.0), 0.7))
    # a fidelity lies in [0, 1]: its rounding is absolute (measured at most 7.9e-16)
    assert fidelity == pytest.approx(spinlab.state_benchmarks(n).css_overlap(0.7), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n", [10, 40])
def test_fock_input_qfi_is_the_twin_fock_qfi(n):
    space = spinlab.make_space(n)
    got = spinlab.qfi(spinlab.dicke(space, 0), spinlab.jx(space))
    assert got == spinlab.state_benchmarks(n).fock_input_qfi(n / 2) == {10: 60.0, 40: 840.0}[n]


@pytest.mark.parametrize("polarization, sign", [("h", -1.0), ("v", 1.0)])
@pytest.mark.parametrize("n", [10, 40, 101])
def test_heralded_qfi_is_the_optimal_qfi_of_the_heralded_cat(n, polarization, sign):
    # the herald leaves the difference (h) or sum (v) of coherent states at polar angle pi/2 +- phi
    space, phi = spinlab.make_space(n), 0.3
    up, down = (spinlab.coherent(space, math.pi / 2 + s * phi).amplitudes for s in (1.0, -1.0))
    amp = up + sign * down
    state = spinlab.KetState(space, amp / np.linalg.norm(amp))
    got = spinlab.optimal_generator_direction(state)[1] / n
    assert got == pytest.approx(PF.heralded_qfi_over_n(n, phi, polarization), rel=1e-12)
