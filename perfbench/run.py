"""modnls benchmark runner: one workload per process, gated results.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from the `src/` directory next
to `perfbench/`, never from an installed copy. BLAS/OpenMP/modnls threads
are pinned to 1 before numpy loads.

--trace 0 repeats units of the workload for --seconds and reports the
end-to-end metrics of BENCHMARK.json. --trace 1 runs a fixed number of
units, each once untraced and once under the span tracer, and reports
the per-layer metrics of the traced ones; its counts depend only on the
seed. The last line of stdout is the result object; the line before it
holds the details (environment, wall-time percentile, failed gates).
Spans and results are also written under `.perfbench_out/` in the
checkout.

Exit codes: 0 when a result was printed (check its "correct" field),
2 when the package or BENCHMARK.json cannot be found.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "MODNLS_THREADS": "1"}
ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5  # fresh processes timed for setup_s; the median is reported
REF_REL_TOL = 1e-11  # fast vs method="reference" norm agreement


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's acceptance seed)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: self-test size")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment(np) -> dict:
    """Machine, interpreter, numpy and thread settings of this run. CPU
    model and cache sizes come from the kernel's read-only machine files
    and read "unknown" where those cannot be opened."""
    env = {
        "cpu_model": "unknown",
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "numpy.fft (pocketfft)",
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for level in ("2", "3"):
        env[f"l{level}_cache"] = "unknown"
        try:
            for index in sorted(cache_dir.glob("index*")):
                if (index / "level").read_text().strip() == level:
                    env[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return env


def timed_setup(args, seed: int) -> float:
    """Process start to the first timed unit, in a fresh process: interpreter
    start, imports, grid, partition and input pool, then exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__, "--workload", args.workload, "--seed",
                    str(seed), "--size", args.size, "--setup-only"],
                   check=True, stdout=subprocess.DEVNULL)  # no timeout: it polls in 50 ms steps
    return time.perf_counter() - t0


def high_percentile(samples) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    rank = n - 10
    return {"percentile": math.floor(100 * rank / n), "value": sorted(samples)[rank - 1],
            "samples": n}


class Gates:
    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, label: str, results) -> None:
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failed.append(f"{label}:{name}")


def run_unit(wl, i, gates: Gates, label: str):
    """One timed unit; its gates run after the clock stops."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = wl.unit(i)
    except Exception as exc:  # a unit that raises is a failed request
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        gates.add(f"{label}{i}", [(f"raised {type(exc).__name__}: {exc}", False)])
        return None, wall, cpu
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    gates.add(f"{label}{i}", wl.check(i, result))
    return result, wall, cpu


def timed_run(wl, seconds: float, gates: Gates):
    walls, cpus = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        _, wall, cpu = run_unit(wl, i, gates, "unit")
        walls.append(wall)
        cpus.append(cpu)
        i += 1
    return walls, cpus


def reference_checks(samples) -> list[tuple[str, float]]:
    """Fast path against method="reference" on sampled norm calls.

    Trajectory arguments are cut to their first, middle and last samples
    so the full-grid reference stays affordable at n = 256.
    """
    from modnls.spectral import Trajectory

    out = []
    for name, fn, args, kwargs in samples:
        cut = []
        for a in args:
            if isinstance(a, Trajectory) and a.n_samples > 3:
                idx = sorted({0, a.n_samples // 2, a.n_samples - 1})
                a = Trajectory(a.grid, a.times[idx], a.spectra[idx])
            cut.append(a)
        kw = {k: v for k, v in kwargs.items() if k != "method"}
        fast = fn(*cut, **kw, method="fast").value
        ref = fn(*cut, **kw, method="reference").value
        out.append((name, abs(fast - ref) / max(abs(ref), 1e-300)))
    return out


def traced_run(wl, gates: Gates, out_dir: Path, seed: int) -> dict:
    """Each unit untraced, then again traced; per-layer values of the traced ones."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, results, unit_spans = [], [], [], []
    pass_wall = 0.0
    for i in range(wl.trace_units):  # interleaved, so warm-up is not billed to one side
        plain.append(run_unit(wl, i, gates, "plain")[1])
        t0 = time.perf_counter()
        with tracer.installed():
            unit_spans.append(len(tracer.spans))
            with tracer.span("unit"):
                result, wall, _ = run_unit(wl, i, gates, "traced")
        pass_wall += time.perf_counter() - t0
        traced.append(wall)
        results.append(result)

    self_sum = sum(tracer.self_times())
    gates.add("tracer", [("self_times_within_wall", self_sum <= pass_wall)])
    errors = reference_checks(tracer.samples)
    gates.add("reference", [(f"{name}_rel_err_le_1e-11", err <= REF_REL_TOL)
                            for name, err in errors])

    # counters that stay 0 when the workload never reaches them
    values = {"spectral.transform.bytes": 0, "spectral.write.bytes": 0, "oracle_dev": 0.0}
    values.update((f"{name}.{field}", v) for name, row in tracer.summary().items()
                  for field, v in row.items())
    values.update(tracer.counters)
    values.update(picard_counts(wl, tracer, unit_spans, results))
    values["trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    values["norm_ref.checks"] = len(errors)
    values["norm_ref.max_rel_err"] = max((e for _, e in errors), default=0.0)
    values.update(wl.details())
    tracer.dump(out_dir / f"spans_seed{seed}.json")
    return values


def picard_counts(wl, tracer, unit_spans, results) -> dict:
    """Picard iterations (duhamel_apply under picard_solve), the share in
    accepted solves, and the bisection trial counts."""
    total = useful = trials = rejected = 0
    for sid, result in zip(unit_spans, results):
        flags = wl.trial_flags(result) if result is not None else None
        solves = tracer.descendants(sid, "solver.picard_solve")
        if flags is not None:
            trials += len(flags)
            rejected += flags.count(False)
        for k, solve in enumerate(solves):
            iters = len(tracer.descendants(solve, "solver.duhamel_apply"))
            if flags is not None and k < len(flags):
                accepted = flags[k]
            else:
                accepted = not tracer.spans[solve][4]
            total += iters
            useful += iters if accepted else 0
    return {"solver.iterations": total,
            "solver.iterations_useful_frac": useful / total if total else 1.0,
            "solver.bisect.trials": trials,
            "solver.bisect.rejected": rejected}


def pick(metric_specs, values: dict) -> dict:
    """Metrics named in BENCHMARK.json. A `<span>.<calls|s|self_s>` name
    whose span never opened reads 0; any other missing name is an error."""
    out = {}
    for spec in metric_specs:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name.rsplit(".", 1)[-1] in ("calls", "s", "self_s") and known_span(
                name.rsplit(".", 1)[0]):
            value = 0
        else:
            raise KeyError(f"benchmark metric {name!r} is not produced by the runner")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def known_span(name: str) -> bool:
    from tracer import FUNCTION_TARGETS, TRANSFORM

    return name == TRANSFORM or any(name == span for _, _, span in FUNCTION_TARGETS)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED_THREADS)  # before numpy loads; children inherit it
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    try:
        import numpy as np
        import modnls
        import workloads
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(modnls.__file__).resolve().parent != (ROOT / "src" / "modnls").resolve():
        print(f"modnls imported from {modnls.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    seed = cls.acceptance_seed if args.seed is None else args.seed
    timed = not (args.trace or args.setup_only)
    setups = [timed_setup(args, seed) for _ in range(SETUP_REPEATS)] if timed else []
    wl = cls(args.size, out_root=ROOT / ".perfbench_out")
    wl.setup(seed)
    if args.setup_only:
        return 0
    out_dir = ROOT / ".perfbench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    gates = Gates()
    detail = {"workload": args.workload, "seed": seed, "size": args.size,
              "trace": args.trace, "environment": environment(np)}
    if args.trace:
        values = traced_run(wl, gates, out_dir, seed)
        detail["units_per_pass"] = wl.trace_units
    else:
        walls, cpus = timed_run(wl, args.seconds, gates)
        values = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
                  "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        detail.update(units=len(walls), unit_walls_s=walls, wall_s_high=high_percentile(walls),
                      setup_runs_s=setups, **wl.details())
    gates.add("final", wl.final_gates())
    values["fail_frac"] = len(gates.failed) / gates.attempted
    metrics = pick(spec["per_layer" if args.trace else "end_to_end"], values)
    detail.update(fail_frac=values["fail_frac"], failed_gates=gates.failed[:50])
    result = {"correct": not gates.failed, "attempted": gates.attempted,
              "failed": len(gates.failed), "metrics": metrics}
    (out_dir / f"result_seed{seed}_trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
