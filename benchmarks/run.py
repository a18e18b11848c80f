"""Benchmark of the recoilspec command line, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Run from the root of a recoilspec source tree; the package is imported
from src/ and nothing is installed.  Workloads are defined in
workloads.py and described in README.md.

--trace 0 (end to end): sets the workload up once to warm the page cache,
then SETUP_REPEATS times in fresh interpreters, and reports the median
(setup_s).  Then it runs the workload's
command again and again, each run a separate process, until S seconds have
passed (at least once), and reports the median wall time, signal points per
second, CPU time of the command and its workers, and peak resident set.

--trace 1 (per layer): runs rounds, until S seconds have passed, of the
command under traced.py, once with only scan_fit.readout_spectrum timed
(the untraced reference) and once with every layer function wrapped.  The
per-layer metrics come from the spans of the second; the difference of the
two wall times is the tracing overhead.  For mg-spectrum-serial each round
also runs the scan at the cli's default worker count, for the parallel
efficiency of scan_fit.readout_spectrum.

Every operation's outputs go through check.py.  An operation fails on an
exit code other than 0 or 3 (the cli's leak code, outputs written), on a
missing output, or on a failed check.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.

This file uses the standard library only, so that the process which
spawns and times the commands stays small: a child's peak resident set as
the kernel reports it can include its parent's at the time of the spawn.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import EXIT_LEAK, WORKLOADS  # noqa: E402

OUT = HERE / "out"
SETUP_REPEATS = 5
# a run must end within 180 s: commands stop by 150 s, the check gets 25 s
COMMANDS_DEADLINE_S = 150.0
CHECK_TIMEOUT_S = 25.0
OK_EXIT_CODES = (0, EXIT_LEAK)
SIGNAL_FUNCTIONS = ("readout.fluorescence_probability",
                    "readout.two_pulse_fluorescence")
FIT_FUNCTIONS = ("scan_fit.fit_lorentzian", "scan_fit.numeric_fwhm_depth")
EVOLVE_FUNCTIONS = ("rate_engine.evolve", "rate_engine.evolve_series")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "points_per_s": "1/s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "presets.build_s": "s",
    "coupling.xi_mode_table_s": "s",
    "coupling.xi_mode_table_calls": "count",
    "radiation.emission_coefficients_s": "s",
    "radiation.base_rate_s": "s",
    "radiation.base_rate_calls": "count",
    "rate_engine.build_rate_matrix_s": "s",
    "rate_engine.build_rate_matrix_calls": "count",
    "rate_engine.evolve_s": "s",
    "rate_engine.propagations": "count",
    "rate_engine.propagations_per_point": "ratio",
    "rate_engine.rhs_evals": "count",
    "rate_engine.lu_decomps": "count",
    "rate_engine.retained_mb": "MB",
    "readout.signal_s": "s",
    "readout.signal_calls": "count",
    "scan_fit.readout_spectrum_self_s": "s",
    "scan_fit.fit_s": "s",
    "scan_fit.parallel_efficiency": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run or cannot judge the outputs."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv, log_path, timeout):
    """Run argv to its end; returns (exit code, wall s, CPU s, peak RSS MB).

    CPU time and peak RSS come from wait4 and so cover the process and
    every descendant it waited for (the worker pool of a scan).  A process
    group still running after `timeout` seconds is killed.
    """
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(timeout, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:  # reap anything the command left behind in its group
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    cpu = usage.ru_utime + usage.ru_stime
    return code, wall, cpu, usage.ru_maxrss * 1024 / 1e6


def cli_argv(args, prefix):
    return [sys.executable, "-m", "recoilspec.cli", *args, "-o", str(prefix)]


def traced_argv(mode, args, prefix):
    return [sys.executable, str(HERE / "traced.py"), "--mode", mode,
            "--spans", f"{prefix}_spans.json", "--", *args, "-o", str(prefix)]


def setup_seconds(workload, timeout):
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload["preset"],
            repr(workload["first_detuning_hz"])]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def check_outputs(name, seed, operations):
    """check.py's list of errors per (prefix, exit code)."""
    argv = [sys.executable, str(HERE / "check.py"), name, "--seed", str(seed),
            *(f"{prefix}:{code}" for prefix, code in operations)]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHECK_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"output check failed to run:\n{proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  machine: {json.dumps(report['machine'])}", flush=True)
    return report["errors"]


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

class Spans:
    """Spans of one traced run, as traced.py writes them."""

    def __init__(self, spans):
        self.spans = spans          # [name, layer, start, end, parent index]
        self.child_time = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent is not None:
                self.child_time[parent] += end - start

    def _has_ancestor(self, index, match):
        parent = self.spans[index][4]
        while parent is not None:
            if match(self.spans[parent]):
                return True
            parent = self.spans[parent][4]
        return False

    def inclusive(self, match):
        """Time inside matching spans, a nested match counted once."""
        return sum(s[3] - s[2] for i, s in enumerate(self.spans)
                   if match(s) and not self._has_ancestor(i, match))

    def self_time(self, match):
        """Time inside matching spans minus the time of their child spans."""
        return sum(s[3] - s[2] - self.child_time[i]
                   for i, s in enumerate(self.spans) if match(s))

    def calls(self, match):
        return sum(1 for s in self.spans if match(s))


def named(*names):
    return lambda span: span[0] in names


def layer(name):
    return lambda span: span[1] == name


def layer_metrics(trace, points, overhead, parallel_efficiency):
    spans = Spans(trace["spans"])
    counts = trace["counts"]
    retained = 0.0
    if trace["heap_before_first"] is not None:
        retained = (trace["heap_after_last"] - trace["heap_before_first"]) / 1e6
    return {
        "presets.build_s": spans.inclusive(layer("presets")),
        "coupling.xi_mode_table_s": spans.inclusive(named("coupling.xi_mode_table")),
        "coupling.xi_mode_table_calls": spans.calls(named("coupling.xi_mode_table")),
        "radiation.emission_coefficients_s":
            spans.inclusive(named("radiation.emission_coefficients")),
        "radiation.base_rate_s": spans.inclusive(named("radiation.base_rate")),
        "radiation.base_rate_calls": spans.calls(named("radiation.base_rate")),
        "rate_engine.build_rate_matrix_s":
            spans.inclusive(named("rate_engine.build_rate_matrix")),
        "rate_engine.build_rate_matrix_calls":
            spans.calls(named("rate_engine.build_rate_matrix")),
        "rate_engine.evolve_s": spans.self_time(named(*EVOLVE_FUNCTIONS)),
        "rate_engine.propagations": counts["propagations"],
        "rate_engine.propagations_per_point": counts["propagations"] / points,
        "rate_engine.rhs_evals": counts["rhs_evals"],
        "rate_engine.lu_decomps": counts["lu_decomps"],
        "rate_engine.retained_mb": retained,
        "readout.signal_s": spans.inclusive(named(*SIGNAL_FUNCTIONS)),
        "readout.signal_calls": spans.calls(named(*SIGNAL_FUNCTIONS)),
        "scan_fit.readout_spectrum_self_s":
            spans.self_time(named("scan_fit.readout_spectrum")),
        "scan_fit.fit_s": spans.inclusive(named(*FIT_FUNCTIONS)),
        "scan_fit.parallel_efficiency": parallel_efficiency,
        "cli.self_s": spans.self_time(layer("cli")),
        "trace.overhead_s": overhead,
    }


def spectrum_seconds(prefix):
    """Time inside scan_fit.readout_spectrum in a traced.py run."""
    trace = json.loads(Path(f"{prefix}_spans.json").read_text())
    return Spans(trace["spans"]).inclusive(named("scan_fit.readout_spectrum"))


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

class Operations:
    """Commands run so far in this benchmark run, with how each ended."""

    def __init__(self, out):
        self.out = out
        self.deadline = time.perf_counter() + COMMANDS_DEADLINE_S
        self.done = []      # dicts: prefix, code, wall, cpu, rss
        self.failed = 0

    def time_left(self):
        return max(self.deadline - time.perf_counter(), 1.0)

    def run(self, argv_for_prefix):
        prefix = self.out / f"op{len(self.done)}"
        code, wall, cpu, rss = run_process(argv_for_prefix(prefix),
                                           f"{prefix}.log", self.time_left())
        op = {"prefix": prefix, "code": code, "wall": wall, "cpu": cpu,
              "rss": rss}
        self.done.append(op)
        print(f"  {prefix.name}: exit {code}, {wall:.3f} s wall, "
              f"{cpu:.3f} s CPU, {rss:.1f} MB peak", flush=True)
        return op

    def judge(self, name, seed):
        """Check every output; returns the operations that did not fail."""
        errors = check_outputs(name, seed,
                               [(op["prefix"], op["code"]) for op in self.done])
        passed = []
        for op, errs in zip(self.done, errors):
            if op["code"] not in OK_EXIT_CODES:
                errs = [f"exit code {op['code']}"] + errs
            for err in errs:
                print(f"  FAIL {op['prefix'].name}: {err}", flush=True)
            if not errs:
                passed.append(op)
        self.failed = len(self.done) - len(passed)
        return passed


def end_to_end(name, workload, seed, seconds, ops):
    setup_seconds(workload, ops.time_left())    # warm-up: page cache, bytecode
    setups = [setup_seconds(workload, ops.time_left())
              for _ in range(SETUP_REPEATS)]
    start = time.perf_counter()
    while not ops.done or time.perf_counter() - start < seconds:
        ops.run(lambda prefix: cli_argv(workload["argv"], prefix))
    passed = ops.judge(name, seed) or ops.done
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(op["wall"] for op in passed),
        "points_per_s": statistics.median(workload["points"] / op["wall"]
                                          for op in passed),
        "cpu_s": statistics.median(op["cpu"] for op in passed),
        "peak_rss_mb": statistics.median(op["rss"] for op in passed),
    }


def per_layer(name, workload, seed, seconds, ops):
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        reference = ops.run(lambda p: traced_argv("spectrum", workload["argv"], p))
        efficiency = 0.0
        if "parallel_argv" in workload:
            parallel = ops.run(
                lambda p: traced_argv("spectrum", workload["parallel_argv"], p))
            workers = os.cpu_count() or 1
            parallel_s = spectrum_seconds(parallel["prefix"])
            if parallel_s > 0:
                efficiency = (spectrum_seconds(reference["prefix"])
                              / (workers * parallel_s))
        traced = ops.run(lambda p: traced_argv("full", workload["argv"], p))
        trace = json.loads(Path(f"{traced['prefix']}_spans.json").read_text())
        rounds.append(layer_metrics(trace, workload["points"],
                                    traced["wall"] - reference["wall"],
                                    efficiency))
    ops.judge(name, seed)
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}


def run_workload(name, seed, seconds, trace):
    """One benchmark run of one workload; returns the result object."""
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = Operations(out)
    workload = WORKLOADS[name]
    print(f"workload {name} (seed {seed}, trace {trace})", flush=True)
    if trace:
        values = per_layer(name, workload, seed, seconds, ops)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(name, workload, seed, seconds, ops)
        units = END_TO_END_UNITS
    for key, value in values.items():
        print(f"  {key} = {value!r} {units[key]}", flush=True)
    print(f"  attempted {len(ops.done)}, failed {ops.failed}", flush=True)
    return {"correct": ops.failed == 0, "attempted": len(ops.done),
            "failed": ops.failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in values.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/recoilspec/cli.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: not in a recoilspec source tree ({', '.join(missing)} "
              f"missing under {ROOT})", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names}
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "workloads": results}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
