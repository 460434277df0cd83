"""Benchmark of chordwigner: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload wigner_map --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up its workload, then executes seeded ops one
after another for ``--seconds`` seconds, checking every op against a
closed-form reference.  It stops at the end of a schedule cycle, so it
always measures whole cycles, at least one.  It prints one
human-readable line per metric and, as its last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload in turn, each in its own process.  A record of each run
(metrics, input properties, environment, every op's verdict and, when
traced, every span) is written under ``.perfbench_out/``.

"""
import os
import time

_T_START = time.perf_counter()
# one single-threaded process: pin BLAS/OpenMP before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MAX_OPS = 5000             # bounds a run's record once ops get fast
CHILD_TIMEOUT = 170.0


def _kernel_age() -> float:
    """Seconds since this process started, by the kernel's clock-tick
    start time; 0 where /proc is not available."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE_AT_START = _kernel_age()


def process_age() -> float:
    """Seconds since this process started: the interpreter's start-up,
    read once from the kernel at a clock tick's resolution, plus the
    script's own time on the high-resolution clock."""
    return _AGE_AT_START + time.perf_counter() - _T_START


def import_package():
    """Import chordwigner from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "chordwigner" / "__init__.py").is_file():
        raise SystemExit(f"error: no chordwigner package under {src}")
    sys.path.insert(0, str(src))
    import chordwigner
    import chordwigner.cli  # noqa: F401  (cli is not imported by the package)
    if Path(chordwigner.__file__).resolve().parent != src / "chordwigner":
        raise SystemExit("error: chordwigner was imported from elsewhere")
    return chordwigner


def tail(latencies: List[float]):
    """(latency, percentile, ops beyond): the highest percentile that
    leaves at least ten ops above it.  With ten ops or fewer no such
    percentile exists, and the maximum is reported with 0 beyond."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def env_record() -> Dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    lines = 0
    for path in sorted((ROOT / "src" / "chordwigner").glob("*.py")):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_lines": lines,
    }


def child(args, workload: str, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """The child's standard output, once it has ended (killed at the
    timeout)."""
    try:
        return proc.communicate(timeout=timeout)[0]
    finally:
        proc.kill()
        proc.wait()


def untraced_ops_per_s(args) -> float:
    """ops_per_s of an untraced run of the same inputs, for the tracing
    overhead."""
    proc = child(args, args.workload, 0)
    out = finish(proc, CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("untraced companion run failed")
    return json.loads(out.strip().splitlines()[-1])["metrics"][
        "ops_per_s"]["value"]


def run_ops(wl, args, tracer=None) -> List[Dict]:
    """The closed loop: one op at a time, in whole schedule cycles, until
    --seconds have passed.  Each kind of op then weighs the same in every
    run, however fast the code is."""
    import inputs
    import reference
    records = []
    cycle = inputs.CYCLE[args.workload]
    start = time.perf_counter()
    k = 0
    while True:
        spec = inputs.op_spec(args.workload, args.seed, k)
        wl.prepare(spec)
        if tracer is not None:
            tracer.op_id = k
        error: Optional[str] = None
        t0 = time.perf_counter()
        try:
            out = wl.run(spec)
        except Exception as exc:   # a raising op is a failed op
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if error is None:
            try:
                verdict = wl.check(spec, out)
            except Exception as exc:
                verdict = reference.Verdict(
                    misses=[f"output not checkable: {exc!r}"])
        else:
            verdict = reference.Verdict(misses=[error])
        records.append({"k": k, "kind": spec["kind"], "latency_s": latency,
                        "passed": verdict.passed,
                        "max_err": verdict.max_err,
                        "misses": verdict.misses,
                        "known_defect": verdict.known_defect,
                        "spec": spec})
        k += 1
        if k % cycle == 0 and (time.perf_counter() - start >= args.seconds
                               or k >= MAX_OPS):
            return records


END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "pass_ratio": "ratio",
                    "peak_rss_mb": "MB"}


def end_to_end(records: List[Dict], setup_s: float) -> Dict:
    lat = [r["latency_s"] for r in records]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail(lat)[0],
        "pass_ratio": sum(r["passed"] for r in records) / len(records),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def accuracy(records: List[Dict]) -> Dict:
    """The accuracy companion of the timings: worst relative error against
    the closed-form references, and the share of failed ops."""
    errs = [r["max_err"] for r in records if r["max_err"] < float("inf")]
    return {"accuracy.max_err": max(errs, default=0.0),
            "accuracy.fail_ratio": sum(not r["passed"] for r in records)
            / len(records)}


def run_all(args) -> int:
    """Every workload in turn, each as its own untraced run."""
    import inputs
    failed = []
    for workload in inputs.WORKLOADS:
        proc = child(args, workload, 0)
        out = finish(proc, 2 * CHILD_TIMEOUT)
        for line in out.strip().splitlines()[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0:
            failed.append(workload)
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import inputs
    import workloads
    from tracing import Tracer
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOAD_TYPES:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(inputs.WORKLOADS)} or all")

    ops_untraced = untraced_ops_per_s(args) if args.trace else None

    scratch = OUT / f"work-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOAD_TYPES[args.workload](args.seed, scratch)
        wl.setup()
        setup_s = process_age()

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        try:
            records = run_ops(wl, args, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    props = inputs.properties(args.workload, [r["spec"] for r in records])
    e2e = end_to_end(records, setup_s)
    acc = accuracy(records)
    _, pct, beyond = tail([r["latency_s"] for r in records])
    failed = [r for r in records if not r["passed"]]
    unexpected = [r for r in failed if r["known_defect"] is None]

    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}
    else:
        per_layer = tracer.metrics()
        per_layer.update(wl.counts)
        per_layer.update(acc)
        per_layer["input.repeat_share"] = props.get("repeat_share", 0.0)
        per_layer["input.inside_share"] = props.get("inside_share", 0.0)
        per_layer["input.ladder_dim_max"] = props.get("ladder_dim_max", 0)
        per_layer["trace.ops_per_s_untraced"] = ops_untraced
        per_layer["trace.ops_per_s_traced"] = e2e["ops_per_s"]
        per_layer["trace.overhead_share"] = (
            ops_untraced / e2e["ops_per_s"] - 1.0)
        per_layer["trace.spans"] = len(tracer.spans)
        units = {m["name"]: m["unit"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {k: {"value": per_layer.get(k, 0.0), "unit": u}
                   for k, u in units.items()}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "end_to_end": e2e, "accuracy": acc,
              "tail": {"percentile": pct, "ops_beyond": beyond},
              "metrics": metrics, "inputs": props, "env": env_record(),
              "ops": records}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write_spans(f"{stem}-spans.jsonl")

    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops, "
          f"{len(failed)} failed ({len(failed) - len(unexpected)} from known "
          f"defects)")
    for r in failed:
        print(f"  failed op {r['k']} ({r['kind']}): "
              f"{'; '.join(r['misses'])}"
              + (f" [known defect: {r['known_defect']}]"
                 if r["known_defect"] else ""))
    print(f"timings over {len(records) // inputs.CYCLE[args.workload]} "
          f"whole schedule cycles; op_tail_s is the p{pct:.1f} latency, "
          f"{beyond} of {len(records)} ops beyond it")
    print(f"accuracy: max_err = {acc['accuracy.max_err']:.6g} rel, "
          f"fail_ratio = {acc['accuracy.fail_ratio']:.6g}")
    print(f"inputs {json.dumps(props, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
