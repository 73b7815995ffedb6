"""Scale gates: public ket entry points at N = 4000 within a traced-memory budget.

One dense (N+1)^2 complex operator at N = 4000 takes 256 MB.  Each entry point
here is O(N), or O(N^2) real products against the cached d^j(pi/2), so its
tracemalloc peak must stay under 1 MB.  The collective-spin readers must also
run without an eigensolve: J_n is held as its axis and read through the band.
A state caches its band pass, so each gate reads a fresh copy of the twisted
ket, built outside the traced region, and pays that pass inside it.

An estimator's window table is the one O(N T) result here: its traced peak is
held to a small multiple of the log-probability table it returns.  A Ramsey
model (generator z, readout y) needs no eigensolve once d^j(pi/2) is cached,
since the generator's d^j(0) is the identity, and its 256-phase ket table at
N = 4000 peaks at 3.1x the table (held to 4x), for z, y or x generators.

A W or Q map is an O(N^2) result, (2N+2)^2 values on the default grid.  The
synthesis sums the multipoles one rank at a time, so besides the map it holds
only O(N n_theta) Legendre slices and amplitudes, plus the complex azimuth
product; its traced peak is held to 8x the map's values.  A whole Legendre
table, (N+1)^2 n_theta, would break that from small N on (37x at N = 64,
155x at N = 300).  The multipoles are taken outside the traced region.

The multipole strip tables of one N, 8(N+1)(N+2)(2N+3)/6 bytes, are solved
once and kept read-only while they fit an 8 MiB cap (N <= 145), four sizes
at most; above the cap every call solves its N+1 strips again.

A spin-noise curve is a measurement-model table with generator x and readout
z, whose one Wigner matrix is the cached d^j(pi/2): at a warm N it solves nothing.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  spinlab loads it on the first solve; keep that out of the traces

from spinlab import dynamics, spinspace, states, tomography
from spinlab.dynamics import oat_evolve
from spinlab.estimation import MeasurementModel, _window_table
from spinlab.metrology import (
    optimal_generator_direction,
    perpendicular_qfi,
    qfi,
    squeezing,
    witnesses,
)
from spinlab.spinspace import (
    KetState,
    MixedState,
    collective_operator,
    expectation,
    jx,
    jy,
    jz,
    make_space,
    moments,
    rotate_state,
    variance,
)
from spinlab.states import bjj_ground_state, coherent, spin_mixing_ground_state
from spinlab.tomography import decompose, reconstruct, render_map, spin_noise_moments

N = 4000
BUDGET = 2**20
AXIS = (0.48, 0.6, 0.64)


@pytest.fixture(scope="module")
def twisted_ket():
    """A one-axis-twisted ket at N = 4000, near the optimal squeezing time."""
    return oat_evolve(coherent(make_space(N), math.pi / 2), N ** (-2.0 / 3.0))


@pytest.fixture
def twisted(twisted_ket):
    """A fresh state object with the twisted amplitudes, so no moments are cached yet."""
    return KetState(twisted_ket.space, twisted_ket.amplitudes)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _count_eigensolves(monkeypatch) -> list:
    """Record every call to eigh_tridiagonal (in each module that imports it) and np.linalg.eigh."""
    calls = []

    def counted(name, solver):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return solver(*args, **kwargs)

        return wrapper

    for module in (spinspace, states, dynamics, tomography):
        monkeypatch.setattr(module, "eigh_tridiagonal", counted("eigh_tridiagonal", module.eigh_tridiagonal))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    return calls


def _witness_triple(ket):
    report = squeezing(ket)
    n1, n2 = report.squeezing_axis, report.mean_spin_axis
    return witnesses(ket, n1, n2, np.cross(n1, n2))


J_READERS = {
    "jz": lambda ket: jz(ket.space),
    "collective_operator": lambda ket: collective_operator(ket.space, AXIS),
    "expectation": lambda ket: expectation(ket, jz(ket.space)),
    "variance": lambda ket: variance(ket, jy(ket.space)),
    "moments": lambda ket: moments(ket, [jx(ket.space), jy(ket.space), jz(ket.space)]),
    "qfi": lambda ket: qfi(ket, collective_operator(ket.space, AXIS)),
}

REPORTS = {
    "squeezing": squeezing,
    "perpendicular_qfi": lambda ket: perpendicular_qfi(ket, mean_axis=(1.0, 0.0, 0.0)),
    "optimal_generator_direction": optimal_generator_direction,
    "witnesses": _witness_triple,
    "bjj_ground_state": lambda ket: bjj_ground_state(ket.space, 2.0),
    "spin_mixing_ground_state": lambda ket: spin_mixing_ground_state(N, 1.0),
}


@pytest.mark.parametrize("name", J_READERS)
def test_collective_spin_readers_take_the_band(twisted, monkeypatch, name):
    calls = _count_eigensolves(monkeypatch)
    assert _traced_peak(lambda: J_READERS[name](twisted)) < BUDGET
    assert calls == []


@pytest.mark.parametrize("name", REPORTS)
def test_reports_and_ground_states_stay_under_budget(twisted, name):
    assert _traced_peak(lambda: REPORTS[name](twisted)) < BUDGET


def test_warm_rotation_stays_under_budget(twisted):
    rotate_state(twisted, AXIS, 0.3)  # caches d^j(pi/2) for this N
    assert _traced_peak(lambda: rotate_state(twisted, AXIS, 0.7)) < BUDGET


@pytest.mark.parametrize("sigma", [0.0, 1.5])
def test_cold_window_table_peaks_near_its_log_table(sigma):
    """A 2001-phase table at N = 1000 is built in blocks of phases: no full-width temporary."""
    model = MeasurementModel(
        coherent(make_space(1000), math.pi / 2), (0.0, 0.0, 1.0), (), (0.0, 1.0, 0.0),
        np.linspace(-0.3, 0.3, 301), detection_sigma=sigma,
    )
    model.outcome_values  # the Wigner matrices and kernel, outside the traced region
    tables = []
    peak = _traced_peak(lambda: tables.append(_window_table(model, -0.2, 0.2, 2001)))
    assert peak <= 2 * tables[0][1].nbytes


@pytest.mark.parametrize("probe", ["coherent", "twisted"])
def test_warm_ramsey_ket_table_solves_nothing_and_peaks_near_its_values(twisted, monkeypatch, probe):
    state = coherent(twisted.space, math.pi / 2) if probe == "coherent" else twisted
    spinspace._delta(N)  # the readout's d^j(pi/2), cached per N
    calls = _count_eigensolves(monkeypatch)
    model = MeasurementModel(state, (0.0, 0.0, 1.0), (), (0.0, 1.0, 0.0), np.linspace(-0.05, 0.05, 11))
    model.outcome_values  # builds the model's machinery
    assert calls == []
    tables = []
    peak = _traced_peak(lambda: tables.append(model.probabilities(np.linspace(-0.04, 0.04, 256))))
    assert peak <= 4 * tables[0].nbytes


@pytest.mark.parametrize("generator", [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)], ids=["y", "x"])
def test_warm_y_and_x_generator_ket_tables_solve_nothing_and_peak_near_their_values(
    twisted, monkeypatch, generator
):
    """Readout z gives Euler B = pi/2: the lift and the table both read the cached Delta."""
    spinspace._delta(N)
    calls = _count_eigensolves(monkeypatch)
    model = MeasurementModel(twisted, generator, (), (0.0, 0.0, 1.0), np.linspace(-0.05, 0.05, 11))
    model.outcome_values  # builds the model's machinery, with the lift of the probe
    assert calls == []
    tables = []
    peak = _traced_peak(lambda: tables.append(model.probabilities(np.linspace(-0.04, 0.04, 256))))
    assert peak <= 4 * tables[0].nbytes


@pytest.mark.parametrize("kind", ["w", "q"])
@pytest.mark.parametrize("n", [64, 300])
def test_map_render_peaks_near_its_values(n, kind):
    """No (N+1)^2 n_theta Legendre table: the render holds O(N n_theta) besides the map."""
    dec = decompose(oat_evolve(coherent(make_space(n), math.pi / 2), n ** (-2.0 / 3.0)))
    maps = []
    peak = _traced_peak(lambda: maps.append(render_map(dec, kind)))
    assert peak <= 8 * maps[0].values.nbytes


def _full_rank_mixed(n: int) -> MixedState:
    rng = np.random.default_rng(n)
    g = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    return MixedState(make_space(n), g @ g.conj().T / np.trace(g @ g.conj().T).real)


def test_repeated_decompose_and_reconstruct_solve_no_strip(monkeypatch):
    state = _full_rank_mixed(48)
    tomography._cached_strips.cache_clear()
    calls = _count_eigensolves(monkeypatch)
    dec = decompose(state)
    assert calls == ["eigh_tridiagonal"] * 49
    calls.clear()
    decompose(state)
    reconstruct(dec)
    assert calls == []


def test_strips_above_the_cap_are_solved_per_call_and_not_cached(monkeypatch):
    state = _full_rank_mixed(300)
    tomography._cached_strips.cache_clear()
    calls = _count_eigensolves(monkeypatch)
    reconstruct(decompose(state))
    assert calls == ["eigh_tridiagonal"] * 2 * 301
    assert tomography._cached_strips.cache_info().currsize == 0


def test_strip_cache_holds_four_sets_within_the_cap():
    tomography._cached_strips.cache_clear()

    def set_bytes(n):
        return sum(table.nbytes for table in tomography._strip_tables(n))

    assert set_bytes(145) <= tomography._STRIP_CACHE_BYTES < set_bytes(146)
    for n in (1, 2, 7, 33, 64):
        tomography._strip_tables(n)
    info = tomography._cached_strips.cache_info()
    assert info.currsize == info.maxsize == 4
    assert sum(set_bytes(n) for n in (2, 7, 33, 64)) <= 4 * tomography._STRIP_CACHE_BYTES


def test_cached_strip_tables_are_read_only():
    tomography._cached_strips.cache_clear()
    tables = tomography._strip_tables(12)
    assert isinstance(tables, tuple) and len(tables) == 13
    assert not any(table.flags.writeable for table in tables)
    with pytest.raises(ValueError):
        tables[3][0, 0] = 1.0


@pytest.mark.parametrize("n", [1, 2, 7, 33, 64, 200])
def test_cached_strips_give_the_solved_multipoles_bitwise(n):
    state = _full_rank_mixed(n)
    tomography._cached_strips.cache_clear()
    solved = decompose(state)  # solves, and caches the set under the cap
    cached = decompose(state)
    back_cached = reconstruct(cached)
    tomography._cached_strips.cache_clear()
    back_solved = reconstruct(solved)
    assert np.array_equal(cached.coefficients, solved.coefficients)
    assert np.array_equal(back_cached.matrix, back_solved.matrix)


@pytest.mark.parametrize("mixed", [False, True])
def test_warm_spin_noise_curve_solves_nothing(monkeypatch, mixed):
    """Generator x and readout z give Euler B = pi/2 exactly: the model reads the cached Delta."""
    state = coherent(make_space(300), 0.8, 0.3)
    state = state.density_matrix() if mixed else state
    grid = np.linspace(-1.0, 2.0, 9)
    spin_noise_moments(state, grid, 2)  # caches d^j(pi/2) for this N
    calls = _count_eigensolves(monkeypatch)
    spin_noise_moments(state, grid, 3)
    assert calls == []
