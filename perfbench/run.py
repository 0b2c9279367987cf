"""Benchmark of ``morphcomplex run-all`` on seeded synthetic treebanks.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]

``--trace 0`` times ``run-all`` child processes from outside for S seconds
and reports the end-to-end metrics; ``--trace 1`` makes two untraced and two
traced in-process runs with ``jobs = 1`` and reports the per-layer metrics.
Every run's outputs are checked.  The last line of standard output is one
JSON object; the metric names and units come from ``BENCHMARK.json``.
``--report`` runs every workload once and prints each end-to-end metric by
name and unit.  Workload and metric rationale is in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import synth
from hostspeed import HostSpeed
from synth import GREEK, TreebankSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 170.0  # the whole benchmark run, generation included
SETUP_REPEATS = 5

BASE_FILES = (
    "measures.tsv", "treebanks.tsv", "run_meta.json", "ia_params.json",
    "correlations.tsv", "analyze_meta.json", "measures.svg",
)
ANALYSIS_FILES = ("pca.tsv", "pca_scores.tsv", "ridge.tsv", "pca.svg", "wals_error.svg")
SAMPLE_MEASURES = "ttr,ws,wh,lh,msp,is,mfh"


@dataclass(frozen=True)
class Workload:
    specs: tuple[TreebankSpec, ...]
    config: dict[str, object]
    script_exclude: tuple[str, ...] = ()
    # A WALS CSV is generated, and PCA, ridge and their plots must all run.
    analysis: bool = False


def _many_treebanks() -> Workload:
    """30 treebanks shaped like a UD release; fixed shapes, seeded content."""
    shape = np.random.default_rng(2204_05056)
    specs = []
    for i in range(30):
        specs.append(TreebankSpec(
            id=f"tb{i:02d}",
            lang=f"l{i % 24:02d}",  # six languages have two treebanks
            n_tokens=int(np.exp(shape.uniform(np.log(2000), np.log(8000)))),
            n_lemmas=int(shape.integers(300, 2000)),
            zipf=float(shape.uniform(0.8, 1.4)),
            nominal_keys=int(shape.integers(0, 7)),
            verbal_keys=int(shape.integers(1, 9)),
            cells=int(shape.integers(2, 9)),
            classes=int(shape.integers(1, 3)),
            irregular=float(shape.uniform(0.0, 0.04)),
            sent_len=float(shape.uniform(8, 25)),
        ))
    # One treebank below the 3-feature-key threshold, one in a non-Latin script.
    specs[7] = TreebankSpec("tb07", "l07", 5000, 800, 1.0, 1, 1, 6, 2, 0.05, 12.0)
    specs[13] = TreebankSpec("tb13", "l13", 6000, 900, 1.1, 3, 5, 12, 3, 0.05, 14.0, GREEK)
    return Workload(
        specs=tuple(specs),
        config={"target_tokens": 300, "repetitions": 2, "seed": 0, "ia_draws": 1, "jobs": 2},
        script_exclude=("tb13",),
        analysis=True,
    )


WORKLOADS: dict[str, Workload] = {
    "sample-measures": Workload(
        specs=(TreebankSpec("smp", "xa", 60000, 3000, 1.1, 5, 6, 30, 4, 0.03, 14.0),),
        config={"target_tokens": 20000, "repetitions": 12, "seed": 0,
                "measures": SAMPLE_MEASURES, "jobs": 1},
    ),
    "many-treebanks": _many_treebanks(),
}


# -- inputs ------------------------------------------------------------------

def expected_na(workload: Workload, measures: list[str]) -> set[tuple[str, str]]:
    """(treebank, measure) cells the exclusion rules must leave as NA."""
    out = set()
    for spec in workload.specs:
        keys = set(synth.NOMINAL_KEYS[: spec.nominal_keys]) | set(synth.VERBAL_KEYS[: spec.verbal_keys])
        dropped = set()
        if len(keys) < 3:
            dropped |= {"is", "mfh", "neg_ia"}
        if spec.id in workload.script_exclude:
            dropped.add("ws")
        out |= {(spec.id, m) for m in measures if m in dropped}
    return out


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- one child process -----------------------------------------------------------

@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_child(argv: list[str], log_path: str, deadline: float) -> ChildRun:
    """Run ``argv`` to completion; resources come from ``wait4`` on it.

    ``wait4`` covers the child and every descendant it waited for (the
    measure stage's pool workers), and only this child, unlike
    ``getrusage(RUSAGE_CHILDREN)``, which accumulates over the benchmark.
    At ``deadline`` (``time.monotonic``) the child's process group is killed.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=child_env(),
                                start_new_session=True)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        exit_code=proc.returncode,
    )


# -- output checks ---------------------------------------------------------------

@dataclass
class Checked:
    treebanks: int
    failed_treebanks: int
    tokens_scored: int
    ia_accuracy: float | None
    digest: str
    problems: list[str] = field(default_factory=list)


def _tsv_rows(path: str) -> list[list[str]]:
    """Data rows of a program TSV: metadata comments and the header dropped."""
    with open(path, encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip() and not ln.startswith("#")]
    return [ln.split("\t") for ln in lines[1:]]


def check_outputs(workload: Workload, out_dir: str, exit_code: int) -> Checked:
    """Check one run-all output directory and count what it scored.

    Unreadable or malformed outputs are a failed check, not a crash.
    """
    n_treebanks = len(workload.specs)
    problems = [f"exit code {exit_code}"] if exit_code != 0 else []
    expected = BASE_FILES + (ANALYSIS_FILES if workload.analysis else ())
    missing = [f for f in expected if not os.path.exists(os.path.join(out_dir, f))]
    if missing:
        problems.append(f"missing outputs {missing}")
    else:
        try:
            return _check_files(workload, out_dir, problems)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"malformed outputs: {exc!r}")
    return Checked(n_treebanks, n_treebanks, 0, None, "", problems)


def _check_files(workload: Workload, out_dir: str, problems: list[str]) -> Checked:
    n_treebanks = len(workload.specs)
    with open(os.path.join(out_dir, "measures.tsv"), "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    with open(os.path.join(out_dir, "run_meta.json"), encoding="utf-8") as f:
        meta = json.load(f)
    with open(os.path.join(out_dir, "ia_params.json"), encoding="utf-8") as f:
        ia = json.load(f)["treebanks"]

    tb_rows = _tsv_rows(os.path.join(out_dir, "treebanks.tsv"))
    ok = [r[0] for r in tb_rows if r[2] == "ok"]
    failed = n_treebanks - len(ok)
    if sorted(r[0] for r in tb_rows) != sorted(s.id for s in workload.specs):
        problems.append("treebanks.tsv does not list the manifest's treebanks")

    measures = meta["measures"]
    na = expected_na(workload, measures)
    rows = _tsv_rows(os.path.join(out_dir, "measures.tsv"))
    cells = {(r[0], r[1]): r for r in rows}
    for tb in ok:
        for m in measures:
            row = cells.get((tb, m))
            if row is None:
                problems.append(f"no row for {tb}/{m}")
            elif (tb, m) in na:
                if row[2] != "NA" or row[5] != "false":
                    problems.append(f"{tb}/{m} should be NA")
            elif row[5] != "true" or not all(math.isfinite(float(v)) for v in row[2:4]):
                problems.append(f"{tb}/{m} is not available and finite")

    if workload.analysis:
        with open(os.path.join(out_dir, "analyze_meta.json"), encoding="utf-8") as f:
            skipped = json.load(f)["errors"]
        if skipped:
            problems.append(f"skipped analyses {sorted(skipped)}")
    accuracy = statistics.fmean(t["mean_accuracy"] for t in ia.values()) if ia else None
    if accuracy is not None and not 0 < accuracy < 1:
        problems.append(f"ia_accuracy {accuracy} not in (0, 1)")

    sample_names = set(measures) - {"neg_ia"}
    tokens = sum(
        (meta["repetitions"] * meta["target_tokens"] if sample_names else 0)
        + (meta["target_tokens"] if tb in ia else 0)
        for tb in ok
    )
    if problems:
        failed = n_treebanks
    return Checked(n_treebanks, failed, tokens, accuracy, digest, problems)


# -- the two kinds of run ------------------------------------------------------------

def measure_setup(config_path: str, deadline: float) -> tuple[float | None, str | None]:
    """Wall time of a fresh interpreter that imports the CLI and loads config and manifest.

    A failed or overdue interpreter is a failed check, not a crash.
    """
    code = (
        "import sys, morphcomplex.cli as cli\n"
        "from morphcomplex.conllu import read_manifest\n"
        "read_manifest(cli.load_config(sys.argv[1]).manifest)\n"
    )
    start = time.perf_counter()
    try:
        subprocess.run([sys.executable, "-c", code, config_path], check=True, cwd=ROOT, env=child_env(),
                       stdout=subprocess.DEVNULL, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.CalledProcessError as exc:
        return None, f"set-up interpreter exited with code {exc.returncode}"
    except subprocess.TimeoutExpired:
        return None, "set-up interpreter did not finish before the deadline"
    return time.perf_counter() - start, None


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    digests: list[str]
    notes: dict[str, object] = field(default_factory=dict)


def end_to_end(workload: Workload, work: str, config_path: str, seconds: float, deadline: float) -> Outcome:
    """Time set-up and ``run-all`` children within ``seconds``, scaled by host speed.

    The run makes ``SETUP_REPEATS`` set-up timings, then starts children
    back to back while the last child and reference block still fit in the
    budget (at least one child runs).  A block of reference loops
    (``hostspeed``) runs before the set-ups, after them and after every
    child; each timing is multiplied by the host-speed scale of the blocks
    on either side of it.  Every metric is the median over the run.  The
    median, unlike the fastest child, does not move with the number of
    children a run has room for.  Raw medians and scales are recorded.
    """
    speed = HostSpeed()
    start = time.perf_counter()
    speed.block()
    setup: list[float] = []
    problems: list[str] = []
    for _ in range(SETUP_REPEATS):
        setup_s, problem = measure_setup(config_path, deadline)
        if problem:
            problems.append(problem)
        else:
            setup.append(setup_s)
    speed.block()

    runs: list[tuple[ChildRun, Checked]] = []
    scales: list[float] = []
    while True:
        out = os.path.join(work, f"out{len(runs)}")
        child = run_child(
            [sys.executable, "-m", "morphcomplex.cli", "run-all", "--config", config_path, "--out", out],
            os.path.join(work, f"log{len(runs)}.txt"),
            deadline,
        )
        runs.append((child, check_outputs(workload, out, child.exit_code)))
        shutil.rmtree(out, ignore_errors=True)
        block_start = time.perf_counter()
        speed.block()
        block_s = time.perf_counter() - block_start
        scales.append(speed.scale(len(speed.blocks) - 2))
        if time.perf_counter() - start + child.wall_s + block_s > seconds:
            break

    children = [c for c, _ in runs]
    checked = [k for _, k in runs]
    accuracies = [k.ia_accuracy for k in checked if k.ia_accuracy is not None]
    metrics = {
        "wall_s": statistics.median(c.wall_s * k for c, k in zip(children, scales)),
        "cpu_s": statistics.median(c.cpu_s * k for c, k in zip(children, scales)),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
        "tokens_per_s": statistics.median(
            checks.tokens_scored / (c.wall_s * k) for (c, checks), k in zip(runs, scales)
        ),
    }
    if setup:
        metrics["setup_s"] = statistics.median(setup) * speed.scale(0)
    return Outcome(
        metrics=metrics,
        attempted=sum(k.treebanks for k in checked),
        failed=sum(k.failed_treebanks for k in checked),
        problems=problems + [p for k in checked for p in k.problems],
        digests=[k.digest for k in checked],
        notes={
            "children": len(runs),
            "child_wall_s": [round(c.wall_s, 4) for c in children],
            "child_scale": [round(k, 4) for k in scales],
            "setup_runs_s": [round(t, 4) for t in setup],
            "setup_scale": round(speed.scale(0), 4),
            "raw_wall_s": round(statistics.median(c.wall_s for c in children), 4),
            "raw_setup_s": round(statistics.median(setup), 4) if setup else None,
            "failed_frac": sum(k.failed_treebanks for k in checked) / sum(k.treebanks for k in checked),
            "ia_accuracy": accuracies[0] if accuracies else None,
        },
    )


LAYERS = ("config", "conllu", "sampling", "measures", "inflection", "analysis", "wals", "svgplot", "pipeline")


COUNT_SPAN = "trace.count"  # the tracer's own counting, not program time


def span_metrics(spans: list[list], run_s: float) -> dict[str, float]:
    """Busy time per span name, self time per span name and per layer, layer shares.

    Busy time counts a span only when no ancestor has the same name; self
    time is a span's duration minus its direct children's durations.  The
    tracer's counting spans are left out of every figure: they are removed
    from their ancestors' busy time, from their parents' self time, and from
    the traced wall time that shares are taken of.
    """
    child_time = [0.0] * len(spans)
    counting = [0.0] * len(spans)  # counting time inside each span
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
        if name == COUNT_SPAN:
            p = parent
            while p >= 0:
                counting[p] += end - start
                p = spans[p][3]
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if name == COUNT_SPAN:
            continue
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] = busy.get(name, 0.0) + (end - start) - counting[i]
    program_s = run_s - sum(end - start for name, start, end, _ in spans if name == COUNT_SPAN)
    out = {f"{name}.s": value for name, value in busy.items()}
    out.update({f"{name}.self_s": value for name, value in self_s.items()})
    for layer in LAYERS:
        total = sum(v for name, v in self_s.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_s"] = total
        out[f"{layer}.share"] = total / program_s
    return out


def traced(workload: Workload, work: str, config_path: str, deadline: float) -> Outcome:
    """Untraced and traced in-process runs, alternating, two of each, ``jobs = 1``.

    Per-layer figures come from the faster traced run; the overhead compares
    the faster of each kind, the one less slowed by other load on the host.
    """
    results: dict[str, list[dict]] = {"plain": [], "traced": []}
    checked = []
    for i, mode in enumerate(("plain", "traced", "plain", "traced")):
        out = os.path.join(work, f"out{i}")
        result_path = os.path.join(work, f"result{i}.json")
        argv = [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py")]
        argv += ["--plain"] if mode == "plain" else []
        argv += [result_path, "--", "run-all", "--config", config_path, "--out", out, "--jobs", "1"]
        child = run_child(argv, os.path.join(work, f"log{i}.txt"), deadline)
        status = child.exit_code
        if status == 0:
            with open(result_path, encoding="utf-8") as f:
                results[mode].append(json.load(f))
            status = results[mode][-1]["status"]
        checked.append(check_outputs(workload, out, status))
        shutil.rmtree(out, ignore_errors=True)

    problems = [p for k in checked for p in k.problems]
    metrics: dict[str, float] = {}
    if len(results["plain"]) == len(results["traced"]) == 2:
        t = min(results["traced"], key=lambda r: r["run_s"])
        plain_s = min(r["run_s"] for r in results["plain"])
        metrics = span_metrics(t["spans"], t["run_s"])
        metrics.update(t["counters"])
        metrics["import.s"] = t["import_s"]
        metrics["trace.wall_s"] = t["run_s"]
        metrics["trace.overhead"] = t["run_s"] / plain_s - 1.0
        metrics["inflection.accuracy"] = checked[1].ia_accuracy or 0.0
    else:
        problems.append("a tracer run did not finish")
    return Outcome(
        metrics=metrics,
        attempted=sum(k.treebanks for k in checked),
        failed=sum(k.failed_treebanks for k in checked),
        problems=problems,
        digests=[k.digest for k in checked],
    )


def design_check(name: str, m: dict[str, float]) -> str:
    """Whether the traced shares match what each workload was built to stress."""
    share = {layer: m.get(f"{layer}.share", 0.0) for layer in LAYERS}
    if name == "sample-measures":
        ok = share["sampling"] + share["measures"] > 0.5 and m.get("inflection.self_s", 0.0) == 0.0
        text = "sampling + measures > 50% of traced wall, no inflection spans"
    else:
        io_layers = share["conllu"] + share["analysis"] + share["pipeline"]
        rest = sum(v for k, v in share.items() if k not in ("conllu", "analysis", "pipeline", "inflection"))
        ok = io_layers > rest
        text = "conllu + analysis + pipeline self time > other non-inflection layers"
    return f"design check {'ok' if ok else 'MISMATCH'}: {text}"


# -- environment ------------------------------------------------------------------

def environment() -> dict[str, object]:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    src_lines += sum(1 for _ in f)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: v for k, v in os.environ.items()
                             if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "git_commit": commit,
        "src_loc": src_lines,
    }


# -- entry points -------------------------------------------------------------------

def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> tuple[dict, dict]:
    """Generate inputs, run, check; return the result object and the full record."""
    workload = WORKLOADS[name]
    spec = load_benchmark()["per_layer" if trace else "end_to_end"]
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        config = dict(workload.config)
        if workload.script_exclude:
            config["script_exclude"] = ",".join(workload.script_exclude)
        config_path = synth.write_inputs(os.path.join(work, "in"), list(workload.specs), seed, config,
                                         workload.analysis)
        if trace:
            outcome = traced(workload, work, config_path, deadline)
        else:
            outcome = end_to_end(workload, work, config_path, seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(outcome.problems)
    if len(set(outcome.digests)) != 1:
        problems.append(f"measures.tsv differs between runs: {sorted(set(outcome.digests))}")
    metrics = {}
    for m in spec:
        if m["name"] in outcome.metrics:
            metrics[m["name"]] = {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
        elif trace and outcome.metrics:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}  # no span or count of that name
        else:
            problems.append(f"metric {m['name']} not measured")

    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "measures_sha256": outcome.digests[0] if outcome.digests else None,
        "problems": problems, "notes": outcome.notes, "env": environment(),
        "metrics": metrics,
    }
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "results.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {name} seed {seed} trace {int(trace)}")
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    print(f"measures.tsv sha256 {record['measures_sha256']}")
    for key, value in outcome.notes.items():
        print(f"{key} {value}")
    if trace:
        print(design_check(name, outcome.metrics))
    for p in problems:
        print(f"check failed: {p}")
    result = {
        "correct": not problems,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if not problems else max(outcome.failed, 1),
        "metrics": metrics,
    }
    return result, record


def report(seed: int, seconds: float) -> int:
    """Run every workload once and print each end-to-end metric with its unit."""
    rows = []
    for name in WORKLOADS:
        rows.append((name, *run_workload(name, seed, seconds, False, time.monotonic() + RUN_LIMIT_S)))
    print()
    for name, result, record in rows:
        print(f"{name}: correct={result['correct']} measures.tsv sha256 {record['measures_sha256']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric} = {v['value']:.6g} {v['unit']}")
        print(f"  failed_frac = {result['failed'] / result['attempted']:.6g} ratio")
        accuracy = record["notes"]["ia_accuracy"]
        print(f"  ia_accuracy = {'NA (no neg_ia)' if accuracy is None else f'{accuracy:.6g} ratio'}")
    return 0 if all(r["correct"] for _, r, _ in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload once, untraced")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "morphcomplex")):
        print(f"error: no program source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    deadline = time.monotonic() + RUN_LIMIT_S
    result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
