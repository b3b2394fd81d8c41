#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the phimp command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload consistency --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

A run is a closed loop: one process runs one job at a time through
``phimp.cli.main``, in-process and exactly as a user would, until --seconds
have passed, and checks every job's output files. With --trace 0 it reports
the end-to-end metrics. With --trace 1 each job is followed by a replay
through the public function of each layer, one span per call, which gives the
per-layer metrics; the spans are written to .perfbench/spans/ when the run
ends. The second-to-last line of standard output holds the run's metadata and
the last line the result: {"correct", "attempted", "failed", "metrics"}.

Inputs come from --seed alone. Outputs are gated against
perfbench/reference/<workload>-seed<n>.json when that file exists; every run
also writes its outputs to .perfbench/outputs/ in the same format, so a run of
one commit on a fresh seed can be copied into perfbench/reference/ to gate
another commit.
"""

from __future__ import annotations

import argparse
import copy
import gc
import importlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

WORKLOADS = ("consistency", "select_file", "active_icost", "xent_mc")
END_TO_END = {"setup_s": "s", "job_p50_s": "s", "scored_symbols_per_s": "1/s",
              "peak_rss_mb": "MB"}
# span name -> the metric holding the count each span carries
LAYER_COUNTS = {
    "sources.sample": ("sources.sample_symbols", "count"),
    "active.rollout": ("active.rollout_events", "count"),
    "estimation.count": ("estimation.count_symbols", "count"),
    "estimation.codelen": ("estimation.codelen_symbols", "count"),
    "sources.forward": ("sources.forward_steps", "count"),
    "sequences.read": ("sequences.read_bytes", "bytes"),
    "fmaps.enumerate": ("fmaps.enumerate_maps", "count"),
}
PER_LAYER = {f"{span}_s": "s" for span in LAYER_COUNTS}
PER_LAYER.update(dict(LAYER_COUNTS.values()))
PER_LAYER.update({"selection.candidates_scored": "count", "cli.other_s": "s",
                  "trace.overhead_s": "s"})
SETUP_REPEATS = 3
BENCH_DIR = Path(__file__).resolve().parent


def import_program(root: Path):
    """Import phimp from the checkout's own sources, never from elsewhere."""
    src = root / "src"
    if not (src / "phimp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no phimp sources under {src}; run from the "
                         "repository root")
    sys.path.insert(0, str(src))
    phimp = importlib.import_module("phimp")
    importlib.import_module("phimp.cli")
    if Path(phimp.__file__).resolve().parent != (src / "phimp").resolve():
        raise SystemExit(f"perfbench: imported phimp from {phimp.__file__}, not {src}")


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run from a plain copy, which has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: Path, workload, job, jobs: int, seed: int) -> dict:
    kernels = importlib.import_module("phimp._kernels")
    import numpy

    try:
        numba = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba = "absent"
    return {"workload": workload.name, "seed": seed,
            "backend": "numba" if kernels.NUMBA_ENABLED else "pure",
            "numba": numba, "numpy": numpy.__version__,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git_revision": git_revision(root),
            "n": job.n, "candidates": len(job.states), "jobs": jobs}


def run_job(cli_main, workload, job) -> tuple[float, dict | None, str]:
    """Time one CLI job and read its outputs; returns (wall, result, error)."""
    job.files["out"].unlink(missing_ok=True)
    argv = [str(a) for a in job.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    start = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(argv)
    except (Exception, SystemExit) as exc:  # a job that raises is a failed job
        return perf_counter() - start, None, f"raised {exc!r}"
    wall = perf_counter() - start
    if code != 0:
        return wall, None, f"exit {code}: {stderr.getvalue().strip()}"
    try:
        return wall, workload.parse(job, stdout.getvalue()), ""
    except (OSError, ValueError, KeyError) as exc:
        return wall, None, f"unreadable output: {exc!r}"


def layer_metrics(spans: list[dict], wall: float) -> dict:
    """Per-layer sums over one job's replay spans; ``wall`` is the untraced
    job's time."""
    out = {}
    for name, (count_name, _unit) in LAYER_COUNTS.items():
        layer = [s for s in spans if s["name"] == name]
        out[f"{name}_s"] = sum((s["end"] - s["start"] for s in layer), 0.0)
        out[count_name] = sum(s["count"] for s in layer)
    replay = next(s for s in spans if s["name"] == "job")
    out["cli.other_s"] = wall - sum(out[f"{name}_s"] for name in LAYER_COUNTS)
    out["trace.overhead_s"] = (replay["end"] - replay["start"]) - wall
    return out


def run_workload(args, root: Path) -> int:
    start = perf_counter()
    import_program(root)
    import_s = perf_counter() - start
    from phimp.cli import main as cli_main
    from workloads import WORKLOADS as DEFINED, Tracer, compare

    workload = DEFINED[args.workload]
    work = root / ".perfbench" / f"{workload.name}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        job = workload.setup(work, args.seed)
        setup_times.append(perf_counter() - start)

    reference_path = BENCH_DIR / "reference" / f"{workload.name}-seed{args.seed}.json"
    expected = (json.loads(reference_path.read_text())["result"]
                if reference_path.is_file() else None)
    first = None

    def gate(result: dict) -> list[str]:
        # the reference when there is one, else the run's first output
        return workload.check(job, result) + compare(expected or first or result, result)

    tracer = Tracer() if args.trace else None
    walls, layers, failures = [], [], []
    deadline = perf_counter() + args.seconds
    while not walls or perf_counter() < deadline:
        job_id = len(walls)
        wall, result, error = run_job(cli_main, workload, job)
        walls.append(wall)
        problems = [error] if error else gate(result)
        first = first or result
        if tracer is not None:
            tracer.job = job_id
            with tracer.span("job"):
                replayed = workload.replay(job, tracer)
            layers.append(layer_metrics([s for s in tracer.spans if s["job"] == job_id],
                                        wall))
            if result is not None:
                problems += [f"replay {p}" for p in compare(replayed, result)]
        if problems:
            failures.append(job_id)
            print(f"perfbench: {workload.name} job {job_id} failed: "
                  + "; ".join(problems[:5]), file=sys.stderr)

    # The gate must reject an altered output, or no pass of it means anything.
    self_test = True
    if first is not None:
        altered = copy.deepcopy(first)
        key = next(iter(altered["values"]))
        altered["values"][key] = altered["values"][key] * (1 + 1e-6) + 1e-6
        self_test = bool(gate(altered))
        if not self_test:
            print("perfbench: the output gate accepted an altered output", file=sys.stderr)

    meta = metadata(root, workload, job, len(walls), args.seed)
    outputs = root / ".perfbench" / "outputs" / f"{workload.name}-seed{args.seed}.json"
    outputs.parent.mkdir(parents=True, exist_ok=True)
    if first is not None:
        outputs.write_text(json.dumps({"meta": meta, "result": first}, indent=1,
                                      sort_keys=True) + "\n")
    if expected is None:
        print(f"perfbench: no reference for {workload.name} seed {args.seed}; outputs "
              f"written to {outputs.relative_to(root)}", file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "job_p50_s": statistics.median(walls),
            "scored_symbols_per_s": len(walls) * job.scored_symbols / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["selection.candidates_scored"] = job.scored
        units = PER_LAYER
        spans_path = root / ".perfbench" / "spans" / f"{workload.name}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted(tracer.spans, key=lambda s: s["start"])
        origin = spans[0]["start"]
        spans = [{**s, "start": s["start"] - origin, "end": s["end"] - origin} for s in spans]
        spans_path.write_text(json.dumps({"meta": meta, "spans": spans}) + "\n")

    for name in units:
        print(f"{workload.name} {name} {values[name]!r} {units[name]}", file=sys.stderr)
    print(f"{workload.name} failed_ratio {len(failures) / len(walls)!r} fraction",
          file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures and self_test,
        "attempted": len(walls),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(f"{'workload':14} {'metric':28} {'value':>14} unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:14} {metric:28} {entry['value']:14.6g} {entry['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{name:14} {'failed_ratio':28} {ratio:14.6g} fraction")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, Path.cwd())


if __name__ == "__main__":
    sys.exit(main())
