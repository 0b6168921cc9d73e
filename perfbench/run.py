"""gatefid benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload kwise-contract --seed 44230 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --out perfbench/results/BENCH_0.json

One invocation measures one workload for --seconds: it runs whole batches
(closed loop, one thread, BLAS pinned to one thread) until another batch
would overrun, checks every op's output, and prints the metrics. With
--trace 0 those are the end-to-end metrics, set-up time measured in fresh
processes and every time scaled to reference host speed (speed.py); with
--trace 1 untraced and traced batches alternate and the
per-layer metrics come from the traced ones. The last stdout line is the
JSON result. --workload all runs every workload, untraced then traced, each
in a fresh process, and with --out writes the whole record as a BENCH file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one thread in total

import numpy as np  # noqa: E402

import metrics  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

WORKLOAD_NAMES = ("kwise-contract", "estimate-mix", "certify")
SETUP_RUNS = 5  # fresh-process set-ups per run; setup_s is their median
SETUP_PROBES = 5  # speed probes each set-up process runs once it is set up
CHILD_TIMEOUT_S = 170


def _import_program():
    """Import gatefid from this checkout's src/, never from anywhere else."""
    try:
        import gatefid
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gatefid from {SRC}: {exc}")
    if SRC.resolve() not in Path(gatefid.__file__).resolve().parents:
        sys.exit(f"perfbench: gatefid was imported from {gatefid.__file__}, not {SRC}")


def _blas_threads():
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unqueried; OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "gatefid").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def header(workload: str, seed, seconds) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _child(args: list, timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def measure_setup(workload: str, seed: int) -> tuple:
    """Wall seconds from process start to inputs built and one op warmed up,
    raw and at reference speed (each child probes the host speed after)."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        started = time.perf_counter()
        done = _child(["--workload", workload, "--seed", str(seed), "--setup-only"], timeout=120)
        wall = time.perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed ({done.returncode}): {done.stderr[-2000:]}")
        probed = json.loads(done.stdout.splitlines()[-1])
        raw.append(wall - probed["after_setup_s"])
        scaled.append(raw[-1] * speed.REFERENCE_S / probed["probe_s"])
    return raw, scaled


def setup_only(cls, seed: int) -> None:
    cls(seed).warm_up()
    done = time.perf_counter()
    probe = speed.SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    print(json.dumps({"probe_s": probe.median(),
                      "after_setup_s": time.perf_counter() - done}))


class Run:
    """Batches of one workload: walls, op latencies, failures, ledgers."""

    def __init__(self, workload):
        self.workload = workload
        self.probe = speed.SpeedProbe()
        self.tracer = spans.Tracer(between_ops=self.probe)
        self.walls = {False: [], True: []}
        self.batch_spans = []  # (start, end, wall) of untraced batches
        self.op_spans = []  # (start, end, seconds) of untraced ops
        self.attempted = 0
        self.failed = 0
        self.ledgers = []
        self.first_outputs = None
        self.layer_rows = []
        self.absent = set()
        self.missing_sites = set()
        self.shares = []

    def batch(self, index: int, traced: bool) -> None:
        tracer = self.tracer
        tracer.reset()
        self.probe()
        probing = self.probe.spent
        if traced:
            with spans.installed(tracer) as missing:
                started = time.perf_counter()
                b = self.workload.run_batch(index, tracer)
                wall = time.perf_counter() - started
        else:
            started = time.perf_counter()
            b = self.workload.run_batch(index, tracer)
            wall = time.perf_counter() - started
        wall -= self.probe.spent - probing
        if traced:
            self._layers(tracer, missing, wall)
        self.walls[traced].append(wall)
        if not traced:
            whole = (started, time.perf_counter(), wall)
            self.batch_spans.append(whole)
            self.op_spans.extend([whole] if self.workload.batch_is_op
                                 else [(s, e, e - s) for s, e in b.ops])
        self.attempted += b.attempted
        self.failed += b.failed
        self.ledgers.extend(b.ledgers)
        if self.first_outputs is None:
            self.first_outputs = b.outputs

    def _layers(self, tracer, missing, wall) -> None:
        self.missing_sites |= missing
        self.absent = spans.absent_points(missing)
        agg = spans.aggregate(tracer.spans)
        self.layer_rows.append(metrics.layer_values(agg, self.absent))
        self.shares.append({name: a["self_s"] / wall for name, a in agg.items()})


def measure(workload, seconds: float, traced: bool) -> Run:
    """Whole batches until one more would overrun `seconds`; at least one
    (untraced) batch, or one untraced and one traced batch when tracing."""
    run = Run(workload)
    kinds = (False, True) if traced else (False,)
    started = time.perf_counter()
    index = 0
    while True:
        for kind in kinds:
            run.batch(index, kind)
            index += 1
        unit = sum(statistics.median(run.walls[k]) for k in kinds)
        if time.perf_counter() - started + unit > seconds:
            return run


def e2e_metrics(run: Run, setup_raw: list, setup_scaled: list) -> tuple:
    probe = run.probe
    n = len(run.op_spans)
    tail = metrics.tail_percentile(n)
    op_ms = [v * 1e3 for _, _, v in run.op_spans]
    scaled_op_ms = [probe.scaled(s, e, v) * 1e3 for s, e, v in run.op_spans]
    raw = {
        "setup_s": statistics.median(setup_raw),
        "wall_s": statistics.median(run.walls[False]),
        "op_p50_ms": metrics.nearest_rank(op_ms, 50),
        "op_p95_ms": metrics.nearest_rank(op_ms, tail),
    }
    values = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(probe.scaled(*b) for b in run.batch_spans),
        "op_p50_ms": metrics.nearest_rank(scaled_op_ms, 50),
        "op_p95_ms": metrics.nearest_rank(scaled_op_ms, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ledger_bits": statistics.fmean(run.ledgers) if run.ledgers else 0.0,
    }
    out = {name: {"value": values[name], "unit": unit} for name, unit, _ in metrics.END_TO_END}
    return out, {"op_samples": n, "op_tail_percentile": tail, "setup_samples": setup_raw,
                 "raw": raw, "probe_median_s": probe.median(),
                 "probe_samples": len(probe.samples)}


def layer_metrics(run: Run) -> dict:
    out = {}
    for name, unit, _, _, _ in metrics.PER_LAYER:
        value = metrics.median_or_none([row[name] for row in run.layer_rows])
        if value is not None:
            out[name] = {"value": value, "unit": unit}
    name, unit, _ = metrics.TRACE_OVERHEAD
    overhead = statistics.median(run.walls[True]) - statistics.median(run.walls[False])
    out[name] = {"value": overhead, "unit": unit}
    return out


def _print_table(title: str, metric_map: dict) -> None:
    print(f"# {title}")
    for name, m in metric_map.items():
        print(f"#   {name:<44} {m['value']:>16.6g} {m['unit']}")


def run_one(args) -> int:
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    if args.setup_only:
        setup_only(cls, seed)
        return 0
    head = header(args.workload, seed, args.seconds)
    print("# header " + json.dumps(head))
    setup_raw, setup_scaled = ([], []) if args.trace else measure_setup(args.workload, seed)
    workload = cls(seed)
    workload.warm_up()
    run = measure(workload, args.seconds, bool(args.trace))
    detail = {
        "batches": {"untraced": len(run.walls[False]), "traced": len(run.walls[True])},
        "batch_wall_s": {"untraced": run.walls[False], "traced": run.walls[True]},
        "failed_frac": run.failed / max(run.attempted, 1),
        "output_digest": workloads.digest(run.first_outputs),
    }
    if args.trace:
        metric_map = layer_metrics(run)
        detail["absent"] = sorted(run.absent)
        detail["missing_sites"] = sorted(f"{p} @ {s}" for p, s in run.missing_sites)
        shares = {k: statistics.median(s.get(k, 0.0) for s in run.shares)
                  for k in {k for s in run.shares for k in s}}
        detail["self_share_of_traced_wall"] = dict(
            sorted(shares.items(), key=lambda kv: -kv[1])[:8])
    else:
        metric_map, extra = e2e_metrics(run, setup_raw, setup_scaled)
        detail.update(extra)
    _print_table(f"{args.workload} seed={seed} trace={args.trace}", metric_map)
    print(f"#   {'failed_frac':<44} {detail['failed_frac']:>16.6g} "
          f"({run.failed} of {run.attempted} ops)")
    for name in detail.get("absent", []):
        print(f"#   {name + ' (absent)':<44} {'-':>16}")
    print("# detail " + json.dumps(detail))
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metric_map}
    if args.out:
        Path(args.out).write_text(json.dumps({"header": head, "detail": detail,
                                              "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    record = {"seconds": args.seconds, "workloads": {}}
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        entry = {}
        for trace in (0, 1):
            argv = ["--workload", name, "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                argv += ["--seed", str(args.seed)]
            done = _child(argv)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"perfbench: {name} trace={trace} exited {done.returncode}", file=sys.stderr)
                return 1
            print("\n".join(line for line in lines[:-1] if not line.startswith("# detail ")))
            result = json.loads(lines[-1])
            tagged = {line[2:].partition(" ")[0]: json.loads(line[2:].partition(" ")[2])
                      for line in lines if line.startswith(("# header ", "# detail "))}
            entry["trace" if trace else "e2e"] = {**tagged, "result": result}
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{name}:{k}": v for k, v in result["metrics"].items()})
        record["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                        help="workload seed; defaults to the matching acceptance test's")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write header, detail and result as JSON here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_program()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
