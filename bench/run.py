#!/usr/bin/env python3
"""lindgain benchmark.

    python3 bench/run.py --workload {trajectory,sweep,cli} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from anywhere; the program under test is ``src/lindgain`` of the
checkout that holds this file.  The op list is drawn from ``--seed``
(``workloads.make_ops``) and repeated in whole cycles until at least
``--seconds`` of op time is measured; every op's output is checked against a
reference outside the timed region.  All ops run serially in one closed loop,
``cli`` ops as one fresh process at a time, with BLAS pinned to one thread.

``--trace 0`` measures the end-to-end metrics.  Their times are scaled to a
reference machine speed by a probe timed right after each op (see
``COMPUTE_REF_S``); the raw times are printed beside them.  ``--trace 1`` runs each op
twice, untraced and traced, and reports the per-layer metrics plus the
tracing overhead.  The report is printed to stdout; its last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--tiny`` shrinks every op for the smoke test (``bench/test_bench.py``).
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# Imports use cached bytecode, as an installed package does, whatever the
# caller's environment says; the cache lands in src/lindgain/__pycache__.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.dont_write_bytecode = False

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
SETUP_CODE = (
    "import time; t = time.perf_counter(); import lindgain, lindgain.cli; "
    "print(time.perf_counter() - t)"
)

# Machine-speed probes.  On a shared host the speed of the whole machine
# drifts by up to +-30% over seconds to minutes, which moves every timing.
# Two fixed jobs that share no code with lindgain are timed in the same run,
# between ops, and the gated times are scaled to a reference speed with
# them; the raw times are printed as well.  The compute probe (interpreter
# work, small LAPACK calls and small file writes, like the in-process ops)
# scales the in-process workloads; the startup probe (a fresh interpreter
# importing numpy and scipy.linalg, like set-up and cli ops) scales setup_s
# and cli.
# The references are the probes' typical times on the 2-vCPU development VM.
COMPUTE_REF_S = 6.0e-3
STARTUP_REF_S = 0.28
STARTUP_CODE = (
    "import time; t = time.perf_counter(); import numpy, scipy.linalg; "
    "print(time.perf_counter() - t)"
)
PROBE_MATRIX = ((2.0, 0.5, 0.1), (0.5, 1.0, 0.3), (0.1, 0.3, 0.5))
# the guide's rule: a percentile is reported only with ten samples beyond it
P90_MIN_OPS = 100

END_TO_END = {  # name: unit; the JSON metrics of --trace 0
    "setup_s": "s",
    "op_p50_ms": "ms",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
ROWS_NAME = {"trajectory": "steps_per_s", "sweep": "points_per_s", "cli": "rows_per_s"}


def per_layer_units() -> dict:
    """name: unit of every --trace 1 metric (all but imports are per op)."""
    from tracing import COUNTERS, TIME_LAYERS

    units = {f"{layer}_ms": "ms" for layer in TIME_LAYERS}
    units.update({name: "1/op" for name in COUNTERS})
    units["cli.csv_bytes"] = "B/op"
    units.update({
        "cli.import_ms": "ms", "greens.import_ms": "ms", "master.import_ms": "ms",
        "trace.op_ms": "ms", "trace.spans": "1/op", "trace.overhead_frac": "1",
        "verify.max_ref_err": "1", "verify.checks": "1/op",
    })
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_timing(code: str) -> float:
    """Seconds that ``code`` run in a fresh interpreter prints."""
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def compute_probe(tmp: Path) -> float:
    import numpy as np

    a = np.array(PROBE_MATRIX)
    b = np.kron(a, a) + 1j * np.eye(9)
    probe_dir = tmp / "probe"
    t0 = perf_counter()
    table = {}
    for i in range(4000):
        table[i] = (i, str(i))
    for _ in range(120):
        np.linalg.eigvalsh(a)
        np.kron(a, a)
    for _ in range(20):
        np.linalg.eig(b)
    probe_dir.mkdir()
    for i in range(10):
        (probe_dir / f"{i}.json").write_text(json.dumps(table[i]))
    shutil.rmtree(probe_dir)
    return perf_counter() - t0


def probe(workload: str, tmp: Path) -> float:
    return fresh_timing(STARTUP_CODE) if workload == "cli" else compute_probe(tmp)


def probe_ref(workload: str) -> float:
    return STARTUP_REF_S if workload == "cli" else COMPUTE_REF_S


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Seconds of ``import lindgain, lindgain.cli`` in fresh interpreters,
    each followed by a startup probe."""
    setup, probes = [], []
    for _ in range(repeats):
        setup.append(fresh_timing(SETUP_CODE))
        probes.append(fresh_timing(STARTUP_CODE))
    return setup, probes


def import_profile(stderrs: list[str]) -> dict:
    """Median cumulative import times (ms) over ``-X importtime`` outputs."""
    from tracing import ENTRY, parse_importtime

    parsed = [parse_importtime(s) for s in stderrs]
    keys = {"cli.import_ms": ENTRY, "greens.import_ms": "lindgain.greens",
            "master.import_ms": "lindgain.master"}
    return {name: statistics.median(p.get(key, 0.0) for p in parsed) for name, key in keys.items()}


def importtime_runs(repeats: int) -> list[str]:
    cmd = [sys.executable, "-X", "importtime", "-c", "import lindgain.cli"]
    return [subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                           timeout=120, check=True).stderr for _ in range(repeats)]


def blas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def run_record(args) -> dict:
    import numpy as np
    import scipy

    nproc = os.cpu_count() or 1
    return {
        "host": platform.node(),
        "nproc": nproc,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "bytecode": "cached (PYTHONDONTWRITEBYTECODE cleared)",
        "loop": "closed, one caller, serial; cli ops one process at a time",
        "parallel": "never used; its ThreadPoolExecutor() would start "
                    f"min(32, nproc + 4) = {min(32, nproc + 4)} threads",
    }


class Runner:
    """Executes ops of one workload, each in a fresh directory under TMP."""

    def __init__(self, workload: str, tmp: Path, tracer=None):
        import workloads

        self.w = workloads
        self.workload = workload
        self.tmp = tmp
        self.tracer = tracer
        self.count = 0
        self.import_stderr: list[str] = []

    def execute(self, op: dict, traced: bool = False):
        """Run, time and check one op; returns (seconds, Verdict)."""
        out = self.tmp / f"op{self.count}"
        self.count += 1
        out.mkdir(parents=True)
        try:
            if self.workload == "cli":
                return self._cli(op, out, traced)
            return self._inprocess(op, out, traced)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _inprocess(self, op, out, traced):
        from lindgain.errors import LindgainError

        result, error = None, None
        if traced:
            self.tracer.install()
        try:
            t0 = perf_counter()
            try:
                if traced:
                    with self.tracer.op():
                        result = self.w.run_inprocess(op, out)
                else:
                    result = self.w.run_inprocess(op, out)
            except LindgainError as exc:
                error = f"{op['kind']}: {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        if error is not None:
            verdict = self.w.Verdict()
            verdict.errors.append(error)
            return dt, verdict
        return dt, self.w.check_inprocess(op, out, result)

    def _cli(self, op, out, traced):
        self.w.prepare_cli(op, out)
        trace_json = self.tmp / f"trace{self.count}.json" if traced else None
        t0 = perf_counter()
        proc = self.w.run_cli(op, out, sys.executable, child_env(), trace_json)
        dt = perf_counter() - t0
        if traced:
            self.tracer.merge(json.loads(trace_json.read_text()))
            trace_json.unlink()
            self.import_stderr.append(proc.stderr)
        return dt, self.w.check_cli(op, out, proc)


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rows = 0
        self.checks = 0
        self.max_err = 0.0
        self.notes: list[str] = []
        self.by_label: dict[str, list[float]] = {}
        self.probes: list[float] = []
        self.scaled: list[float] = []
        self.scaled_busy = 0.0

    def add_probe(self, seconds: float, ref: float) -> None:
        """Scale the last op to the reference speed with the probe taken
        right after it."""
        self.probes.append(seconds)
        self.scaled.append(self.latencies[-1] * ref / seconds)
        self.scaled_busy += self.scaled[-1]

    def add(self, label: str, dt: float, verdict) -> None:
        self.by_label.setdefault(label, []).append(dt)
        self.latencies.append(dt)
        self.busy += dt
        self.attempted += 1
        self.failed += verdict.failed
        self.wrong += bool(verdict.wrong)
        self.rows += verdict.rows
        self.checks += verdict.checks
        self.max_err = max(self.max_err, verdict.max_err)
        for note in verdict.errors + verdict.wrong:
            if len(self.notes) < 8 and note not in self.notes:
                self.notes.append(note)


def op_label(op: dict) -> str:
    """Op kind plus the detail that sets its work, for the per-kind report."""
    detail = op.get("name") or op.get("env") or ""
    kind = f"cli {op['sub']}" if op["kind"] == "cli" else op["kind"]
    return f"{kind} {detail}".strip()


def measure(args, ops, runner) -> tuple[Tally, Tally]:
    """Whole cycles of ops until the measured op time reaches --seconds.

    Returns the tallies of the untraced and the traced executions (the
    latter empty unless --trace 1, where each op runs once each way, in
    alternating order)."""
    plain, traced = Tally(), Tally()
    i = 0
    while True:
        op = ops[i % len(ops)]
        label = op_label(op)
        if args.trace:
            for tr in ((False, True) if i % 2 == 0 else (True, False)):
                (traced if tr else plain).add(label, *runner.execute(op, traced=tr))
        else:
            plain.add(label, *runner.execute(op))
            plain.add_probe(probe(args.workload, runner.tmp), probe_ref(args.workload))
        i += 1
        if i % len(ops) == 0 and plain.busy + traced.busy >= args.seconds:
            return plain, traced


def warm_up(args, ops, runner) -> None:
    """Fill caches and finish lazy set-up: one cycle in-process, one op for cli."""
    for op in ops[:1] if args.workload == "cli" else ops:
        runner.execute(op)


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def end_to_end(args, tally: Tally, setup: list[float], setup_probes: list[float]):
    """Gated metrics, times scaled to the reference machine speed."""
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    n = len(tally.latencies)
    raw = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(tally.latencies) * 1e3,
        "op_p90_ms": quantile(tally.latencies, 0.9) * 1e3 if n >= P90_MIN_OPS else None,
        "rows_per_s": tally.rows / tally.busy,
    }
    metrics = {
        "setup_s": statistics.median(t * STARTUP_REF_S / q for t, q in zip(setup, setup_probes)),
        "op_p50_ms": statistics.median(tally.scaled) * 1e3,
        "rows_per_s": tally.rows / tally.scaled_busy,
        "peak_rss_mb": peak_mb,
    }
    setup_scale = metrics["setup_s"] / raw["setup_s"]
    scale = tally.scaled_busy / tally.busy
    p90 = quantile(tally.scaled, 0.9) * 1e3 if n >= P90_MIN_OPS else None
    rows = [
        ("setup_s", metrics["setup_s"], "s",
         f"{len(setup)} fresh imports; raw {raw['setup_s']:.4f} s, scale {setup_scale:.3f}"),
        ("op_p50_ms", metrics["op_p50_ms"], "ms",
         f"{n} ops; raw {raw['op_p50_ms']:.3f} ms, scale {scale:.3f}"),
        ("op_p90_ms", p90, "ms",
         f"{n} ops; raw {raw['op_p90_ms']:.3f} ms" if p90 is not None
         else f"{n} ops; needs >= {P90_MIN_OPS}, not reported"),
        (ROWS_NAME[args.workload], metrics["rows_per_s"], "1/s",
         f"{tally.rows} rows in {tally.busy:.2f} s; raw {raw['rows_per_s']:.1f} /s "
         "(gated as rows_per_s)"),
        ("failed_frac", tally.failed / tally.attempted, "1", f"{tally.attempted} ops"),
        ("peak_rss_mb", peak_mb, "MB",
         "largest child process" if args.workload == "cli" else "benchmark process"),
    ]
    probe_name = "startup" if args.workload == "cli" else "compute"
    ref = probe_ref(args.workload)
    notes = [
        f"machine speed: {probe_name} probe median {statistics.median(tally.probes) * 1e3:.3f} ms "
        f"over {len(tally.probes)} samples (reference {ref * 1e3:g} ms); startup probe median "
        f"{statistics.median(setup_probes) * 1e3:.3f} ms over {len(setup_probes)} samples "
        f"(reference {STARTUP_REF_S * 1e3:g} ms)",
    ]
    return metrics, rows, notes


def per_layer(args, plain: Tally, traced: Tally, runner) -> tuple[dict, list]:
    metrics = runner.tracer.per_op()
    if args.workload == "cli":
        stderrs = runner.import_stderr
    else:
        stderrs = importtime_runs(1 if args.tiny else IMPORTTIME_REPEATS)
    metrics.update(import_profile(stderrs))
    metrics["trace.overhead_frac"] = (traced.busy - plain.busy) / plain.busy
    metrics["verify.max_ref_err"] = max(plain.max_err, traced.max_err)
    metrics["verify.checks"] = traced.checks / traced.attempted
    units = per_layer_units()
    samples = {name: f"{traced.attempted} traced ops" for name in metrics}
    samples.update({k: f"{len(stderrs)} -X importtime runs" for k in metrics if k.endswith("import_ms")})
    samples["trace.overhead_frac"] = f"{traced.attempted} op pairs"
    rows = [(name, metrics[name], units[name], samples[name]) for name in sorted(metrics)]
    return metrics, rows, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("trajectory", "sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every op (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "lindgain" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'lindgain'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lindgain

    if not Path(lindgain.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported lindgain from {lindgain.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    record = run_record(args)
    ops = workloads.make_ops(args.workload, args.seed, tiny=args.tiny)
    tmp = TMP / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(args.workload, tmp, Tracer() if args.trace else None)
        if not args.trace:
            setup, setup_probes = measure_setup(1 if args.tiny else SETUP_REPEATS)
        warm_up(args, ops, runner)
        plain, traced = measure(args, ops, runner)
        if args.trace:
            metrics, rows, notes = per_layer(args, plain, traced, runner)
            tally = traced
        else:
            metrics, rows, notes = end_to_end(args, plain, setup, setup_probes)
            tally = plain
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()

    print(f"run_record {json.dumps(record, sort_keys=True)}")
    print(f"workload {args.workload}: {tally.attempted} ops ({len(ops)} per cycle), "
          f"{tally.failed} failed, {tally.wrong} with wrong output, {tally.checks} reference "
          f"checks, max reference error {tally.max_err:.3e}")
    for note in tally.notes:
        print(f"  failed: {note}")
    print("median latency by op kind:")
    for label, times in sorted(tally.by_label.items()):
        print(f"  {label:<26} {statistics.median(times) * 1e3:10.2f} ms  ({len(times)} ops)")
    for note in notes:
        print(note)
    print(f"{'metric':<28} {'value':>14}  {'unit':<6} samples")
    for name, value, unit, samples in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<28} {shown:>14}  {unit:<6} {samples}")
    units = per_layer_units() if args.trace else END_TO_END
    print(json.dumps({
        "correct": plain.wrong + traced.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
