"""The public API: the names spinlab exports, and the scipy modules its entry points load."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinlab
from spinlab import dynamics, spinspace, states, tomography
from spinlab.cli import _STATE_MENU

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
