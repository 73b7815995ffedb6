"""Command-line driver: argument handling, outputs, determinism."""

import csv
import json
import math
import threading
import types

import numpy as np
import pytest

from spinlab import dynamics, spinspace, tomography
from spinlab.cli import build_parser, run
from spinlab.dynamics import SpectralPropagator, _spectrum, oat_evolve, su11_scan
from spinlab.spinspace import _real_times, make_space
from spinlab.states import ThreeModeState, _count_moments, coherent, pair_hamiltonian_bands
from spinlab.tomography import export_map, quasiprobability


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(header, body, name, conv=float):
    i = header.index(name)
    return [conv(row[i]) for row in body]


class TestArgumentHandling:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "argument error" in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self, capsys):
        assert run([]) == 2

    def test_missing_required_option_exits_2(self, tmp_path, capsys):
        assert run(["oat-sweep", "--chit", "0:1:5", "--output", str(tmp_path / "x.csv")]) == 2
        assert "--n" in capsys.readouterr().err

    def test_malformed_range_exits_2(self, tmp_path, capsys):
        args = ["floors", "--n", "4:10", "--output", str(tmp_path / "x.csv")]
        assert run(args) == 2

    def test_bad_choice_exits_2(self, tmp_path, capsys):
        args = [
            "tomography", "--n", "4", "--kind", "husimi",
            "--output", str(tmp_path / "x.csv"),
        ]
        assert run(args) == 2

    def test_stochastic_without_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "est.csv"
        args = ["estimate", "--n", "8", "--nu", "50", "--output", str(out)]
        assert run(args) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_range_endpoints_are_inclusive(self, tmp_path):
        out = tmp_path / "floors.csv"
        assert run(["floors", "--n", "2:10:5", "--output", str(out)]) == 0
        header, body = read_csv(out)
        assert column(header, body, "n") == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_config_file_feeds_missing_options(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2:6:3\neta = 0.5\n# comment line\n\n")
        out = tmp_path / "floors.csv"
        assert run(["floors", "--config", str(cfg), "--output", str(out)]) == 0
        header, body = read_csv(out)
        assert column(header, body, "n") == [2.0, 4.0, 6.0]

    def test_flags_override_the_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4:4:1\neta=0.5\n")
        out = tmp_path / "floors.csv"
        args = ["floors", "--config", str(cfg), "--eta", "1.0", "--output", str(out)]
        assert run(args) == 0
        meta = json.loads((tmp_path / "floors.csv.meta.json").read_text())
        assert meta["config"]["eta"] == "1.0"
        assert meta["config"]["n"] == "4:4:1"
        header, body = read_csv(out)
        # eta = 1 pins the loss bound to the Heisenberg value
        assert column(header, body, "loss_bound") == column(header, body, "hl")

    def test_unreadable_config_exits_2(self, tmp_path):
        args = ["floors", "--n", "2:2:1", "--config", str(tmp_path / "absent.cfg")]
        assert run(args) == 2

    def test_threads_env_fallback_and_flag_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINLAB_THREADS", "3")
        out = tmp_path / "a.csv"
        assert run(["floors", "--n", "2:4:2", "--output", str(out)]) == 0
        assert json.loads((tmp_path / "a.csv.meta.json").read_text())["threads"] == 3
        out2 = tmp_path / "b.csv"
        assert run(["floors", "--n", "2:4:2", "--threads", "2", "--output", str(out2)]) == 0
        assert json.loads((tmp_path / "b.csv.meta.json").read_text())["threads"] == 2

    def test_non_integer_threads_env_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPINLAB_THREADS", "abc")
        out = tmp_path / "x.csv"
        assert run(["floors", "--n", "2:4:2", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "argument error" in err and "SPINLAB_THREADS" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_nonpositive_reps_exit_2(self, tmp_path, capsys, reps):
        out = tmp_path / "est.csv"
        args = ["estimate", "--n", "8", "--nu", "50", "--seed", "1", "--reps", reps]
        assert run([*args, "--output", str(out)]) == 2
        assert "--reps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:nan:3", "nan:1:3", "0:inf:3", "-inf:0:3"])
    def test_non_finite_grid_endpoints_exit_2(self, tmp_path, capsys, grid):
        out = tmp_path / "sm.csv"
        args = ["spin-mixing", "--n", "20", f"--t={grid}", "--q0", "39", "--output", str(out)]
        assert run(args) == 2
        assert "bad value for --t" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("q0", ["nan", "inf", "-inf"])
    def test_non_finite_q0_exits_2(self, tmp_path, capsys, q0):
        out = tmp_path / "sm.csv"
        args = ["spin-mixing", "--n", "20", "--t", "0:1:3", f"--q0={q0}", "--output", str(out)]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "spin_mixing evolution needs finite q" in err and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_true_phase_exits_2(self, tmp_path, capsys):
        out = tmp_path / "est.csv"
        args = ["estimate", "--n", "8", "--nu", "50", "--seed", "1", "--theta-true", "nan"]
        assert run([*args, "--output", str(out)]) == 2
        assert "theta must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_floors_reject_a_zero_particle_number(self, tmp_path, capsys):
        out = tmp_path / "floors.csv"
        assert run(["floors", "--n", "0:3:4", "--output", str(out)]) == 2
        assert "positive particle number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--sigma-pn", "--nu"])
    def test_floors_reject_an_infinite_noise_width_or_repetition_count(self, tmp_path, capsys, flag):
        out = tmp_path / "floors.csv"
        assert run(["floors", "--n", "10:20:2", flag, "inf", "--output", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["floors", "--n", "2:2:1"]) == 0
        assert (tmp_path / "floors.csv").exists()
        assert (tmp_path / "floors.csv.meta.json").exists()


class TestNumericalOutputs:
    def test_oat_sweep_matches_closed_forms(self, tmp_path):
        out = tmp_path / "oat.csv"
        args = ["oat-sweep", "--n", "40", "--chit", "0.01:0.3:5", "--output", str(out)]
        assert run(args) == 0
        header, body = read_csv(out)
        assert header == ["chit", "xiR2_numeric", "xiR2_closed", "fq_numeric", "fq_closed", "contrast"]
        xi_n = column(header, body, "xiR2_numeric")
        xi_c = column(header, body, "xiR2_closed")
        fq_n = column(header, body, "fq_numeric")
        fq_c = column(header, body, "fq_closed")
        for a, b in zip(xi_n + fq_n, xi_c + fq_c):
            assert a == pytest.approx(b, rel=1e-8)

    def test_cells_round_trip_through_repr_precision(self, tmp_path):
        from spinlab.reference import oat_closed_forms

        out = tmp_path / "oat.csv"
        assert run(["oat-sweep", "--n", "12", "--chit", "0.07:0.07:1", "--output", str(out)]) == 0
        header, body = read_csv(out)
        closed = oat_closed_forms(12, 0.07)
        assert column(header, body, "xiR2_closed")[0] == closed.xi_r2
        assert column(header, body, "chit")[0] == 0.07

    def test_bjj_ground_sweep_carries_regime_tags(self, tmp_path):
        out = tmp_path / "bjj.csv"
        args = ["bjj-ground", "--n", "50", "--lambda=-0.5:1:4", "--output", str(out)]
        assert run(args) == 0
        header, body = read_csv(out)
        regimes = column(header, body, "regime", conv=str)
        assert regimes == ["disordered", "rabi", "josephson", "josephson"]
        xi = column(header, body, "xiR2")
        # Lambda = 0 ground state is the coherent state, exactly at unity
        assert xi[1] == pytest.approx(1.0, rel=1e-9)
        # the asymptotic prediction columns only apply deep inside a regime;
        # here just require them parsed and positive where closed forms exist
        pred = column(header, body, "xiR2_pred")
        assert all(b > 0 for b in pred if math.isfinite(b))

    def test_spin_mixing_ground_sweep(self, tmp_path):
        out = tmp_path / "mix.csv"
        args = ["spin-mixing", "--n", "20", "--q=-5:5:3", "--output", str(out)]
        assert run(args) == 0
        header, body = read_csv(out)
        assert header == ["q", "npair_mean", "npair_var", "fq_sx_over_n"]
        assert all(v >= 0 for v in column(header, body, "npair_mean"))

    def test_spin_mixing_dynamics_tracks_the_pump_law(self, tmp_path):
        out = tmp_path / "dyn.csv"
        args = [
            "spin-mixing", "--n", "200", "--t", "5e-5:3e-4:4", "--q0", "399",
            "--output", str(out),
        ]
        assert run(args) == 0
        header, body = read_csv(out)
        mean = column(header, body, "nside_mean")
        bogo = column(header, body, "nside_bogoliubov")
        for a, b in zip(mean, bogo):
            assert a == pytest.approx(b, rel=0.05)

    def test_spin_mixing_dynamics_equals_per_time_applies(self, tmp_path):
        out = tmp_path / "dyn.csv"
        args = ["spin-mixing", "--n", "200", "--t", "0:3:13", "--q0", "0.5", "--output", str(out)]
        assert run(args) == 0
        header, body = read_csv(out)
        diag, off = pair_hamiltonian_bands(200, 0.5, -1.0)
        prop = SpectralPropagator.from_tridiagonal(diag, off)
        vacuum = np.arange(diag.size) == 0
        for t, side, var in zip(*(column(header, body, c) for c in ("t", "nside_mean", "npair_var"))):
            state = ThreeModeState(200, prop.apply(vacuum, t))
            assert side == pytest.approx(state.mode_populations()[1], rel=1e-12, abs=1e-12)
            assert var == pytest.approx(state.pair_population()[1], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [20, 200])
    def test_spin_mixing_dynamics_equals_the_inline_block_bitwise(self, tmp_path, n):
        """The time grid through SpectralPropagator.apply writes what the CLI's own
        e^{-iEt} V[0] block wrote before it."""
        out = tmp_path / "dyn.csv"
        args = ["spin-mixing", "--n", str(n), "--t", "0:2.5:17", "--q0", "0.7", "--output", str(out)]
        assert run(args) == 0
        header, body = read_csv(out)
        prop, t = _spectrum(n, 0.7, -1.0), np.linspace(0.0, 2.5, 17)
        v = prop.vectors
        amps = _real_times(v, np.exp(-1j * np.outer(prop.energies, t)) * v[0][:, None])
        mean, var = _count_moments(amps.real**2 + amps.imag**2, 2.0 * np.arange(v.shape[0]))
        assert column(header, body, "nside_mean") == (0.5 * mean).tolist()
        assert column(header, body, "npair_var") == var.tolist()
        assert column(header, body, "depletion") == (mean / n).tolist()

    def test_spin_mixing_without_mode_exits_2(self, tmp_path):
        assert run(["spin-mixing", "--n", "10", "--output", str(tmp_path / "x.csv")]) == 2

    def test_su11_json_stringifies_non_finite_cells(self, tmp_path):
        out = tmp_path / "su11.json"
        args = [
            "su11", "--n", "20", "--q", "39", "--tmix", "0.004",
            "--theta", "0:3:4", "--format", "json", "--output", str(out),
        ]
        assert run(args) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "theta"
        i_closed = payload["columns"].index("delta_theta_closed")
        first = payload["rows"][0][i_closed]  # theta = 0 sits on the divergence
        assert isinstance(first, str) and first == "inf"
        later = payload["rows"][-1][i_closed]
        assert isinstance(later, float)

    def test_su11_solves_one_propagator(self, tmp_path, monkeypatch):
        solves = []
        build = SpectralPropagator.from_tridiagonal.__func__

        def counted(cls, diag, off):
            solves.append(diag.size)
            return build(cls, diag, off)

        monkeypatch.setattr(SpectralPropagator, "from_tridiagonal", classmethod(counted))
        out = tmp_path / "su11.csv"
        args = [
            "su11", "--n", "40", "--q", "79", "--tmix", "0.002",
            "--theta", "2:3.5:7", "--output", str(out),
        ]
        assert run(args) == 0
        assert solves == [21]
        header, body = read_csv(out)
        scan = su11_scan(40, -1, 79.0, 0.002, np.linspace(2.0, 3.5, 7))
        np.testing.assert_array_equal(column(header, body, "npair_mean"), scan[:, 1])
        np.testing.assert_array_equal(column(header, body, "npair_var"), scan[:, 2])

    def test_tomography_sidecar_reports_a_unit_integral(self, tmp_path):
        out = tmp_path / "tomo.csv"
        args = [
            "tomography", "--n", "8", "--state", "coherent", "--theta0", "0.6",
            "--output", str(out),
        ]
        assert run(args) == 0
        meta = json.loads((tmp_path / "tomo.csv.meta.json").read_text())
        assert meta["result_meta"]["sphere_integral"] == pytest.approx(1.0, abs=1e-6)
        header, body = read_csv(out)
        assert len(body) == meta["result_meta"]["n_theta"] * meta["result_meta"]["n_phi"]

    @pytest.mark.parametrize("kind", ["p", "w", "q"])
    def test_tomography_csv_is_the_export_map_csv(self, tmp_path, kind):
        out = tmp_path / "tomo.csv"
        args = [
            "tomography", "--n", "9", "--state", "oat", "--chit", "0.2", "--kind", kind,
            "--output", str(out),
        ]
        assert run(args) == 0
        state = oat_evolve(coherent(make_space(9), 0.5 * math.pi, 0.0), 0.2)
        export_map(quasiprobability(state, kind), tmp_path / "ref.csv")
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_witness_sweep_flags_squeezed_states(self, tmp_path):
        out = tmp_path / "wit.csv"
        args = ["witness", "--n", "12", "--chit", "0.05:0.2:3", "--output", str(out)]
        assert run(args) == 0
        header, body = read_csv(out)
        assert column(header, body, "res_a")[0] < 0.0
        assert column(header, body, "xiR2")[0] < 1.0
        depth = column(header, body, "depth_bound")
        assert all(d >= 1 and d == int(d) for d in depth)

    def test_witness_benchmark_state(self, tmp_path):
        out = tmp_path / "wit.csv"
        args = ["witness", "--n", "10", "--state", "twin-fock", "--output", str(out)]
        assert run(args) == 0
        header, body = read_csv(out)
        assert column(header, body, "fq_over_n")[0] == pytest.approx(6.0, rel=1e-9)

    def test_estimate_bayes_reports_an_interval(self, tmp_path):
        out = tmp_path / "est.csv"
        args = [
            "estimate", "--n", "10", "--nu", "300", "--method", "bayes",
            "--seed", "7", "--window=-0.3:0.3:301", "--output", str(out),
        ]
        assert run(args) == 0
        header, body = read_csv(out)
        lo = column(header, body, "interval_lo")[0]
        hi = column(header, body, "interval_hi")[0]
        hat = column(header, body, "theta_hat")[0]
        assert lo < hat < hi


class TestMomentPasses:
    """A report row runs the collective-spin band pass once, however many of squeezing,
    the optimal generator, the perpendicular QFI and the witnesses read its state."""

    @pytest.mark.parametrize(
        "args, rows",
        [
            (["witness", "--n", "40", "--state", "oat"], 10),
            (["bjj-ground", "--n", "20", "--lambda=-2:5:6"], 6),
            (["oat-sweep", "--n", "20", "--chit", "0.05:0.5:5"], 5),
        ],
        ids=["witness", "bjj-ground", "oat-sweep"],
    )
    def test_one_pass_per_row(self, tmp_path, moment_passes, args, rows):
        out = tmp_path / "rows.csv"
        assert run([*args, "--output", str(out)]) == 0
        assert len(read_csv(out)[1]) == rows
        assert len(moment_passes) == rows


class TestDeterminism:
    ARGS = [
        "estimate", "--n", "10", "--nu", "200", "--reps", "3",
        "--method", "mle", "--window=-0.3:0.3:201",
    ]

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run([*self.ARGS, "--seed", "11", "--output", str(a)]) == 0
        assert run([*self.ARGS, "--seed", "11", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run([*self.ARGS, "--seed", "11", "--output", str(a)]) == 0
        assert run([*self.ARGS, "--seed", "12", "--output", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_thread_count_does_not_change_results(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["oat-sweep", "--n", "30", "--chit", "0:0.5:9"]
        assert run([*base, "--threads", "1", "--output", str(a)]) == 0
        assert run([*base, "--threads", "4", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "args",
        [
            ["spin-mixing", "--n", "200", "--t", "0:0.002:21", "--q0", "399"],
            ["su11", "--n", "200", "--q", "399", "--tmix", "0.001", "--theta", "0:6.2:32"],
        ],
    )
    def test_pair_dynamics_repeat_byte_identical_from_the_spectrum_cache(self, tmp_path, args):
        _spectrum.cache_clear()
        outputs = []
        for name in ("a.csv", "b.csv"):
            assert run([*args, "--output", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name).read_bytes())
        info = _spectrum.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert len(outputs[0].splitlines()) > 20
        assert outputs[0] == outputs[1]

    def test_runs_in_one_process_share_one_parser(self, tmp_path):
        build_parser.cache_clear()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run([*self.ARGS, "--seed", "11", "--output", str(a)]) == 0
        assert run(["oat-sweep", "--chit", "0:1:5"]) == 2  # a usage error leaves the parser clean
        assert run([*self.ARGS, "--seed", "11", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        info = build_parser.cache_info()
        assert (info.hits, info.misses) == (2, 1)

    def test_seeds_recorded_in_rows(self, tmp_path):
        out = tmp_path / "est.csv"
        assert run([*self.ARGS, "--seed", "5", "--output", str(out)]) == 0
        header, body = read_csv(out)
        assert column(header, body, "seed") == [5.0, 6.0, 7.0]


SWEEPS = {
    "oat-sweep": ["--n", "30", "--chit", "0:0.5:9"],
    "bjj-ground": ["--n", "20", "--lambda=-2:5:6"],
    "spin-mixing": ["--n", "20", "--q=-3:3:5"],
    "witness": ["--n", "20", "--chit", "0.05:0.5:4"],
    "floors": ["--n", "2:40:5", "--eta", "0.8", "--sigma-pn", "0.01"],
    "estimate": ["--n", "10", "--nu", "100", "--reps", "3", "--seed", "5", "--window=-0.3:0.3:101"],
}


@pytest.mark.parametrize("sub", sorted(SWEEPS))
def test_sweeps_start_no_threads_and_ignore_the_thread_count(tmp_path, monkeypatch, sub):
    def refuse(self):
        raise AssertionError(f"{sub} started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setenv("SPINLAB_THREADS", "3")
    outputs = {}
    for label, flags, recorded in (
        ("one", ["--threads", "1"], 1),
        ("four", ["--threads", "4"], 4),
        ("env", [], 3),
    ):
        out = tmp_path / f"{label}.csv"
        assert run([sub, *SWEEPS[sub], *flags, "--output", str(out)]) == 0
        outputs[label] = out.read_bytes()
        assert json.loads((tmp_path / f"{label}.csv.meta.json").read_text())["threads"] == recorded
    assert len(outputs["one"].splitlines()) > 1
    assert outputs["one"] == outputs["four"] == outputs["env"]


# LAPACK stand-ins that report failure (info = 1) from every tridiagonal solve
_FAILING_LAPACK = types.SimpleNamespace(
    dstevd=lambda d, e, compute_v=1: (d, np.eye(d.size), 1),
    dstebz=lambda *args: (0, np.zeros(0), np.zeros(0, int), np.zeros(0, int), 1),
)

NUMERICAL_FAILURES = [
    ["bjj-ground", "--n", "30", "--lambda", "0.5:1:2"],
    ["spin-mixing", "--n", "30", "--q=-5:5:2"],
    ["su11", "--n", "30", "--q", "59", "--tmix", "0.004", "--theta", "0:3:2"],
    ["tomography", "--n", "6", "--kind", "q"],
]


@pytest.mark.parametrize("argv", NUMERICAL_FAILURES, ids=lambda argv: argv[0])
def test_a_failed_solve_exits_1(argv, tmp_path, monkeypatch, capsys):
    # LinAlgError is a ValueError, so it must be caught before the argument-error clause
    monkeypatch.setattr(spinspace, "_flapack", lambda: _FAILING_LAPACK)
    for cache in (spinspace._delta, dynamics._spectrum, tomography._cached_strips):
        cache.cache_clear()  # every solve of the run reaches the stand-in
    assert run([*argv, "--output", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spinlab: numerical failure:") and "LAPACK info=1" in err
    assert not (tmp_path / "x.csv.meta.json").exists()
