"""End-to-end benchmark of the ``paulidfs`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's job list (see ``inputs.py``) is drawn from the seed.  Each
job is one ``paulidfs`` CLI run with ``--json``, started as a subprocess;
jobs run one at a time, a closed loop with a single client.  A pass runs
the whole list, and passes repeat while another one still fits in
``--seconds``.  Every job's output is checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` (median wall time of a child that only imports
``paulidfs.cli``), ``wall_s`` (median pass time, the batch's time to
solution) and ``peak_rss_mb`` (largest resident set of any CLI child, from
``wait4``).  ``--trace 1`` runs every pass twice, untraced and through
``traced_cli.py``, and reports the per-layer metrics: self time and counts
per layer from the spans, CPU time of the untraced pass and the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit and the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
from traced_cli import LAYERS, SPAN_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Timed spawns of the import-only child; setup_s is their median.
SETUP_SPAWNS = 15
IMPORT_ONLY = ["-c", "import paulidfs.cli"]
#: Longest a single CLI job may run before it is killed and counted failed.
JOB_TIMEOUT_S = 60.0
#: No pass starts that would end later than this after the start ...
RUN_LIMIT_S = 120.0
#: ... and every job is killed by this time, so the run ends within 180 s.
KILL_LIMIT_S = 170.0
#: BLAS threads per CLI child.  One, below the core count: on a small
#: shared machine a second BLAS thread doubled the spread of repeated
#: dense runs, which would hide changes of the size the bounds allow.
BLAS_THREADS = "1"

_INFO_SCRIPT = """
import ctypes, json, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for line in open("/proc/self/maps"):
    if "openblas" in line and ".so" in line:
        lib = ctypes.CDLL(line.split()[-1])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = getattr(lib, symbol)()
                break
        break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}))
"""


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    timed_out: bool


class Launcher:
    """Starts children through ``launcher.py``, which was itself started
    while this process was small, so their peak RSS is their own."""

    def __init__(self, env: dict):
        self._socket, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self._process = subprocess.Popen(
                [sys.executable, str(HERE / "launcher.py"), str(theirs.fileno())],
                pass_fds=[theirs.fileno()],
                cwd=ROOT,
                env=env,
            )

    def run(self, args: list[str], timeout: float) -> ChildResult:
        """Run ``python3 ARGS`` to completion and collect its output."""
        request = json.dumps({"cmd": [sys.executable, *args], "timeout": timeout})
        out_read, out_write = os.pipe()
        err_read, err_write = os.pipe()
        buffers: dict[str, bytes] = {}

        def drain(key: str, pipe):
            buffers[key] = pipe.read()

        with open(out_read, "rb") as out, open(err_read, "rb") as err:
            try:
                socket.send_fds(self._socket, [request.encode()], [out_write, err_write])
            finally:
                os.close(out_write)
                os.close(err_write)
            readers = [
                threading.Thread(target=drain, args=item) for item in (("out", out), ("err", err))
            ]
            for reader in readers:
                reader.start()
            reply = self._socket.recv(1 << 16)
            for reader in readers:
                reader.join()
        if not reply:
            raise RuntimeError("the launcher process exited")
        result = json.loads(reply)
        return ChildResult(
            code=result["code"],
            stdout=buffers["out"],
            stderr=buffers["err"],
            wall_s=result["wall_s"],
            cpu_s=result["cpu_s"],
            max_rss_mb=result["max_rss_kb"] * 1024 / 1e6,
            timed_out=result["timed_out"],
        )

    def close(self):
        self._socket.close()
        self._process.wait()


@dataclass
class PassResult:
    """One run of the whole job list."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    stdout_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    spans: list[list[dict]] = field(default_factory=list)


def _problems(job: inputs.Job, result: ChildResult, traced: bool) -> tuple[list[str], list[dict]]:
    """Output check of one job; also returns the job's spans when traced."""
    if result.timed_out:
        return ["killed at its time limit"], []
    spans: list[dict] = []
    if traced:
        stderr = result.stderr.decode(errors="replace")
        marker = stderr.rfind(SPAN_MARKER)
        if marker < 0:
            return ["traced run wrote no spans"], []
        spans = json.loads(stderr[marker + len(SPAN_MARKER):])
    if result.code != 0:
        tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return [f"exit status {result.code}: {tail}"], spans
    try:
        report = json.loads(result.stdout)
    except json.JSONDecodeError as error:
        return [f"stdout is not JSON: {error}"], spans
    return checks.check(job, report), spans


def run_pass(
    launcher: Launcher, jobs: list[inputs.Job], traced: bool, kill_at: float
) -> PassResult:
    result = PassResult()
    for index, job in enumerate(jobs):
        if traced:
            args = [str(HERE / "traced_cli.py"), f"{index}:{job.name}", *job.argv]
        else:
            args = ["-m", "paulidfs.cli", *job.argv]
        timeout = max(1.0, min(JOB_TIMEOUT_S, kill_at - time.perf_counter()))
        child = launcher.run(args, timeout)
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.peak_rss_mb = max(result.peak_rss_mb, child.max_rss_mb)
        result.stdout_bytes += len(child.stdout)
        result.attempted += 1
        problems, spans = _problems(job, child, traced)
        result.spans.append(spans)
        if problems:
            result.failed += 1
            print(f"FAILED {job.name}: {'; '.join(problems)}", file=sys.stderr)
    return result


def layer_metrics(traced: PassResult, untraced: PassResult) -> dict[str, float]:
    """Per-layer self time and counts of one traced pass.

    A span's self time is its duration minus the durations of the spans
    it called directly; a layer's self time sums that over its spans.
    """
    self_s = {name: 0.0 for _, _, name, _ in LAYERS}
    calls: Counter = Counter()
    counts: Counter = Counter()
    reseeds = 0
    for spans in traced.spans:
        for span in spans:
            duration = span["end"] - span["start"]
            self_s[span["name"]] += duration
            if span["parent"] is not None:
                self_s[spans[span["parent"]]["name"]] -= duration
            calls[span["name"]] += 1
            counts[span["name"]] += span["count"] or 0
            if span["error"] == "DegenerateKrausError":
                reseeds += 1
    metrics = {f"{name}.self_s": value for name, value in self_s.items()}
    metrics.update(
        {
            "subgroup.characters.count": counts["subgroup.characters"],
            "subgroup.order": counts["subgroup.closure"],
            "dfs.multiplicity.calls": calls["dfs.multiplicity"],
            "dfs.basis_vectors": counts["dfs.dfs_basis"],
            "dfs.verify_dfs.trials": counts["dfs.verify_dfs"],
            "channels.random_group_algebra_kraus.calls": calls["channels.random_group_algebra_kraus"],
            "channels.reseeds": reseeds,
            "cli.stdout_mb": traced.stdout_bytes / 1e6,
            "process.cpu_s": untraced.cpu_s,
            "process.trace_overhead_s": traced.wall_s - untraced.wall_s,
        }
    )
    return metrics


def inclusive_times(spans: list[dict]) -> dict[str, float]:
    """Wall time per layer in one job, child spans included; a span inside
    another span of the same layer is not counted twice."""
    totals: Counter = Counter()
    for span in spans:
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != span["name"]:
            parent = spans[parent]["parent"]
        if parent is None:
            totals[span["name"]] += span["end"] - span["start"]
    return dict(totals)


def child_env() -> dict:
    env = dict(os.environ)
    # Children keep the bytecode cache, so that after the warm-up setup_s
    # times imports and not compilation, whatever the caller's settings.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


def loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def measure(launcher: Launcher, args: argparse.Namespace, started: float) -> tuple[dict, dict]:
    """Run the workload; returns metric values and the run record."""
    record: dict = {"loadavg_before": loadavg()}
    # Untimed warm-up: fails fast without the package and leaves the
    # bytecode cache written before anything is timed.
    warm = launcher.run(IMPORT_ONLY, JOB_TIMEOUT_S)
    info = launcher.run(["-c", _INFO_SCRIPT], JOB_TIMEOUT_S)
    if warm.code != 0 or info.code != 0:
        sys.stderr.write((warm.stderr + info.stderr).decode(errors="replace"))
        raise RuntimeError("cannot import paulidfs.cli and numpy")
    record.update(json.loads(info.stdout), blas_threads_requested=int(BLAS_THREADS))

    values: dict[str, float] = {}
    if not args.trace:
        setup = [launcher.run(IMPORT_ONLY, JOB_TIMEOUT_S).wall_s for _ in range(SETUP_SPAWNS)]
        values["setup_s"] = statistics.median(setup)
    jobs = inputs.jobs_for(args.workload, args.seed)
    measure_start = time.perf_counter()
    stop_at = min(measure_start + args.seconds, started + RUN_LIMIT_S)
    kill_at = started + KILL_LIMIT_S
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    while True:
        pass_start = time.perf_counter()
        untraced.append(run_pass(launcher, jobs, False, kill_at))
        if args.trace:
            traced.append(run_pass(launcher, jobs, True, kill_at))
        now = time.perf_counter()
        if now + (now - pass_start) > stop_at:
            break
    if args.trace:
        per_pass = [layer_metrics(t, u) for t, u in zip(traced, untraced)]
        values.update({name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]})
        record["job_layer_s"] = {
            job.name: inclusive_times(spans) for job, spans in zip(jobs, traced[0].spans)
        }
    else:
        values["wall_s"] = statistics.median(p.wall_s for p in untraced)
        values["peak_rss_mb"] = max(p.peak_rss_mb for p in untraced)
    record.update(
        attempted=sum(p.attempted for p in untraced + traced),
        failed=sum(p.failed for p in untraced + traced),
        loadavg_after=loadavg(),
        jobs=[job.name for job in jobs],
        passes=len(untraced),
        pass_wall_s=[p.wall_s for p in untraced],
        measured_s=time.perf_counter() - measure_start,
    )
    return values, record


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "paulidfs" / "cli.py").is_file():
        print(f"no paulidfs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    launcher = Launcher(child_env())
    try:
        values, record = measure(launcher, args, started)
    finally:
        launcher.close()
    record.update(
        vars(args),
        nproc=len(os.sched_getaffinity(0)),
        platform=platform.platform(),
        total_s=time.perf_counter() - started,
    )
    metrics = {}
    for metric in spec["per_layer"] if args.trace else spec["end_to_end"]:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:45s} {value!r} {metric['unit']}")
    # Reported here and through the result's failed/attempted fields, not
    # as a bounded metric: it is 0 on a correct run.
    print(f"{'failed_ratio':45s} {record['failed'] / record['attempted']!r} ratio")
    print("record " + json.dumps(record))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
