"""spinlab benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload twist-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; spinlab is imported from ./src.
The BLAS pool is pinned to one thread and spinlab's own ``threads`` is
set to the number of usable cores, so at most that many threads compute.

A run repeats the workload's fixed batch of items until ``--seconds`` have
passed, at least MIN_BATCHES batches and MIN_ITEMS items are done and at
least SETUP_REPEATS set-up times are measured.  After every batch,
PROBES_PER_BATCH fresh interpreters each measure set-up time (imports,
seeded inputs, spaces and probe states), so the probes see the same
machine as the batches.  Every
batch is checked against its oracles after it ends, outside the timed
region.  During every batch the runner also measures the machine's speed
(see speed.py) and reports times at a fixed reference speed: each batch's
item times, and the set-up times measured after it, are divided by that
batch's speed factor.  The factor and the times as measured are printed
and kept in the run record.

With ``--trace 0`` it reports the end-to-end metrics: median batch time
(time to solution, the sum of the batch's item latencies), median and
tail item latency, median set-up time and peak resident memory.  With
``--trace 1`` it alternates untraced and traced batches and reports, per
``<module>.<call>``, the calls, self time (as measured) and failures of
one batch, plus the estimator warm share, the CLI output bytes, log-log
slopes in N, the share of the batch time the spans cover and the tracing
overhead (traced minus untraced batch time, both at the reference speed).

Every run prints its environment record, the metrics by name with their
unit, the oracle verdicts, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Program output goes
to a temporary directory under ``.bench_out/`` that is removed at exit;
the run record (environment, metrics, verdicts and, when traced, every
span) is written to ``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS pool before numpy loads; child processes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 6
PROBES_PER_BATCH = 2
MIN_BATCHES = 3
# enough items in the shortest run that the tail percentile sits at p90 or above
MIN_ITEMS = 100
MIN_TRACED = 2  # a traced run alternates untraced and traced batches, at least this many of each
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYER_CALLS = (
    "spinspace.rotate_state",
    "spinspace.variance",
    "states.coherent",
    "states.bjj_ground_state",
    "states.spin_mixing_ground_state",
    "states.two_mode_squeezed_vacuum",
    "dynamics.oat_evolve",
    "dynamics.evolve",
    "dynamics.su11_scan",
    "metrology.squeezing",
    "metrology.perpendicular_qfi",
    "metrology.optimal_generator_direction",
    "metrology.witnesses",
    "metrology.entanglement_depth_bound",
    "metrology.collective_dephasing",
    "metrology.qfi",
    "metrology.pair_qfi_sx",
    "metrology.pair_quadrature_variances",
    "estimation.model_setup",
    "estimation.sample",
    "estimation.estimate_cold",
    "estimation.estimate_warm",
    "estimation.fisher_information",
    "estimation.fisher_from_hellinger",
    "tomography.decompose",
    "tomography.reconstruct",
    "tomography.render_map",
    "tomography.spin_noise_moments",
    "tomography.export_map",
    "reference.oat_closed_forms",
    "reference.bjj_regime_predictions",
    "reference.protocol_formulas",
    "cli.run.oat-sweep",
    "cli.run.tomography",
    "cli.run.su11",
)


def per_layer_units(slope_calls) -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for name in LAYER_CALLS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_ms"] = "ms"
        units[f"{name}.failed"] = "count"
    units["estimation.warm_share"] = "ratio"
    units["cli.bytes_out"] = "bytes"
    for name in slope_calls:
        units[f"{name}.n_slope"] = "exponent"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["error_rate"] = "ratio"
    return units


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _environment(seed: int, threads: int) -> dict:
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        vendor = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "spinlab_threads": threads,
        "nproc": _nproc(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _setup_probe_cmd(args) -> list[str]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    return cmd + ["--tiny"] if args.tiny else cmd


def _measure_setup(cmd: list[str]) -> float:
    """Set-up time of one fresh interpreter, from launch to the first item being ready."""
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    # CLOCK_MONOTONIC is shared by parent and child
    return float(proc.stdout.split()[-1]) - start


class Outcome(NamedTuple):
    kind: str
    n: int | None
    ms: float
    error: str | None
    known_defect: bool


class Batch(NamedTuple):
    wall: float  # seconds, the sum of the item latencies
    items: list[Outcome]
    bytes_out: int
    tracer: object
    speed: float  # the machine's speed factor during the batch (see speed.py)


def _run_batch(workloads, name, inputs, tmpdir, threads, tracer, reference) -> Batch:
    ctx = workloads.Context(tracer=tracer, tmpdir=tmpdir, threads=threads)
    items = workloads.batch(name, inputs, ctx)
    gc.collect()  # every batch starts from the same heap, not from the last batch's garbage
    reference.reset()
    for index, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            with tracer.item(index, item.kind):
                item.output = item.run()
        except Exception as exc:  # an item that raises counts as failed; the run goes on
            item.error = f"raised {type(exc).__name__}: {exc}"
        item.ms = (time.perf_counter() - t0) * 1e3
        reference.run_after(item.ms / 1e3)
    for item in items:  # oracles, outside the timed region
        if item.error is None:
            try:
                item.error = item.check(item.output)
            except Exception as exc:
                item.error = f"check raised {type(exc).__name__}: {exc}"
    # keep only the verdicts, so no batch's models and maps outlive it in memory
    outcomes = [
        Outcome(i.kind, i.n, i.ms, i.error, workloads.is_known_defect(i.kind, i.n, i.error)) for i in items
    ]
    return Batch(sum(o.ms for o in outcomes) / 1e3, outcomes, ctx.bytes_out, tracer, reference.factor())


def _min_batches(per_batch_items: int) -> int:
    return max(MIN_BATCHES, -(-MIN_ITEMS // per_batch_items))


def _tail(values, min_count: int) -> tuple[float, float]:
    """Highest ladder percentile with at least ten items beyond it in the
    smallest sample a run can have, and the value there."""
    pct = next(p for p in TAIL_LADDER if min_count * (1.0 - p / 100.0) >= 10.0)
    return pct, float(np.percentile(values, pct))


def _layer_metrics(traced, slope_calls) -> dict[str, float]:
    """Per-batch layer figures, as medians over the traced batches."""
    per_batch = []
    sizes: dict[str, dict[int, list[float]]] = {name: {} for name in slope_calls}
    for wall, items, bytes_out, tracer, _ in traced:
        selft = tracer.self_times()
        counts = {name: [0, 0.0, 0] for name in LAYER_CALLS}
        covered = 0.0
        for span in tracer.spans:
            if span.parent is None:
                continue
            covered += span.duration if tracer.spans[span.parent].parent is None else 0.0
            entry = counts.get(span.name)
            if entry is None:
                raise RuntimeError(f"span {span.name!r} is not a benchmark layer call")
            entry[0] += 1
            entry[1] += selft[span.span_id] * 1e3
            entry[2] += int(span.failed)
            if span.name in sizes and span.n is not None and not span.failed:
                sizes[span.name].setdefault(span.n, []).append(selft[span.span_id])
        cold = counts["estimation.estimate_cold"][0]
        warm = counts["estimation.estimate_warm"][0]
        row = {}
        for name, (calls, busy, failed) in counts.items():
            row[f"{name}.calls"] = calls
            row[f"{name}.busy_ms"] = busy
            row[f"{name}.failed"] = failed
        row["estimation.warm_share"] = warm / (warm + cold) if warm + cold else 0.0
        row["cli.bytes_out"] = bytes_out
        row["trace.coverage"] = covered / wall
        per_batch.append(row)
    out = {key: float(statistics.median(r[key] for r in per_batch)) for key in per_batch[0]}
    for name, by_n in sizes.items():
        slope = 0.0  # fewer than two sizes on this workload
        if len(by_n) >= 2:
            ns = sorted(by_n)
            med = [statistics.median(by_n[n]) for n in ns]
            slope = float(np.polyfit(np.log(ns), np.log(med), 1)[0])
        out[f"{name}.n_slope"] = slope
    return out


def _fmt(value: float) -> str:
    return repr(float(value))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny problem sizes (self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "spinlab" / "__init__.py").is_file():
        print(f"perfbench: no spinlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spinlab
    import workloads

    if Path(spinlab.__file__).resolve().parent != (SRC / "spinlab").resolve():
        print(f"perfbench: imported spinlab from {spinlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    inputs = workloads.setup(args.workload, args.seed, args.tiny)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    import speed
    from spans import Tracer

    threads = _nproc()
    env = _environment(args.seed, threads)
    probe_cmd = _setup_probe_cmd(args)
    setup_raw, setup_times = [], []

    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    reference = speed.ReferenceSpeed()
    untraced, traced = [], []
    started = time.perf_counter()
    try:
        while True:
            trace_next = bool(args.trace) and len(traced) < len(untraced)
            tracer = Tracer(trace_next)
            batch = _run_batch(workloads, args.workload, inputs, tmpdir, threads, tracer, reference)
            (traced if trace_next else untraced).append(batch)
            # set-up probes after every batch, at the speed that batch measured
            setup_raw += [_measure_setup(probe_cmd) for _ in range(PROBES_PER_BATCH)]
            setup_times += [t / batch.speed for t in setup_raw[-PROBES_PER_BATCH:]]
            if args.trace:
                finished = len(traced) >= MIN_TRACED and len(traced) == len(untraced)
            else:
                finished = len(untraced) >= _min_batches(len(batch.items))
            finished = finished and len(setup_times) >= SETUP_REPEATS
            if finished and time.perf_counter() - started >= args.seconds:
                break
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    batches = untraced + traced
    all_items = [item for batch in batches for item in batch.items]
    failed = [item for item in all_items if item.error is not None]
    unexpected = [item for item in failed if not item.known_defect]
    error_rate = len(failed) / len(all_items)

    per_batch_items = len(batches[0].items)
    # times at the reference speed: each batch's measured times over its speed factor
    untraced_items = [item.ms / batch.speed for batch in untraced for item in batch.items]
    shortest = MIN_TRACED if args.trace else _min_batches(per_batch_items)
    pct, tail = _tail(untraced_items, shortest * per_batch_items)
    walls = [batch.wall / batch.speed for batch in untraced]
    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "item_p50_ms": statistics.median(untraced_items),
        "item_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} tiny={args.tiny}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("closed loop, 1 client; "
          f"{len(untraced)} untraced + {len(traced)} traced batches of {per_batch_items} items")
    print("end-to-end (tracing off; times at the reference speed, see speed.py):")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name}: {_fmt(value)} {units[name]}")
    print(f"  item_tail_ms is p{pct:g} of {len(untraced_items)} items "
          f"({sum(v > tail for v in untraced_items)} beyond)")
    print(f"  setup_s is the median of {len(setup_times)} fresh interpreters")
    factors = [batch.speed for batch in batches]
    print(f"  machine speed factor: median {statistics.median(factors):.3f}, "
          f"range {min(factors):.3f}..{max(factors):.3f} over {len(factors)} batches; as measured, "
          f"wall_s {_fmt(statistics.median(b.wall for b in untraced))} s, "
          f"setup_s {_fmt(statistics.median(setup_raw))} s")
    print(f"  error_rate: {_fmt(error_rate)} ratio ({len(failed)} of {len(all_items)} items failed)")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    layer = {}
    if args.trace:
        layer_units = per_layer_units(workloads.SLOPE_CALLS)
        layer = _layer_metrics(traced, workloads.SLOPE_CALLS)
        layer["trace.overhead_s"] = statistics.median(b.wall / b.speed for b in traced) - e2e["wall_s"]
        layer["error_rate"] = error_rate
        print("per layer (one traced batch, medians over traced batches):")
        for name, unit in layer_units.items():
            print(f"  {name}: {_fmt(layer[name])} {unit}")
        warm = layer["estimation.estimate_warm.calls"]
        cold = layer["estimation.estimate_cold.calls"]
        print(f"  estimation.warm_share base: {warm + cold:g} estimates")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in layer_units.items()}

    print("oracle verdicts (one line per item kind, all batches):")
    kinds: dict[str, list] = {}
    for item in all_items:
        kinds.setdefault(f"{item.kind}[N={item.n}]", []).append(item)
    for key, group in kinds.items():
        bad = [item for item in group if item.error is not None]
        verdict = "PASS" if not bad else ("KNOWN-DEFECT" if all(i.known_defect for i in bad) else "FAIL")
        detail = f": {bad[0].error}" if bad else ""
        print(f"  {verdict} {key} {len(group) - len(bad)}/{len(group)}{detail}")

    record = {
        "workload": args.workload,
        "environment": env,
        "tiny": args.tiny,
        "setup_s_measured": setup_raw,
        "speed_factors_untraced": [b.speed for b in untraced],
        "speed_factors_traced": [b.speed for b in traced],
        "batch_walls_untraced": [b.wall for b in untraced],
        "batch_walls_traced": [b.wall for b in traced],
        "item_ms_untraced": [[item.ms for item in b.items] for b in untraced],
        "metrics": {**e2e, **layer, "error_rate": error_rate},
        "tail_percentile": pct,
        "failures": sorted({f"{i.kind}[N={i.n}]: {i.error}" for i in failed}),
        "spans": [b.tracer.as_records() for b in traced],
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(f"run record: {record_path.relative_to(ROOT)}")

    result = {
        "correct": not unexpected,
        "attempted": len(all_items),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
