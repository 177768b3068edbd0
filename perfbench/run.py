"""c2spider benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness is a closed loop with one
client: it runs the workload's job list in a fresh child interpreter
(``perfbench/child.py``), one child at a time, each with its own temporary
cache root.  Repetitions fill a window of ``--seconds``: one more starts
only while the longest so far would still end inside it (at least one
runs).  Every job's output is checked
against an independent oracle outside the timed region (see
``workloads.py``).

``--trace 0`` reports the end-to-end metrics (medians over repetitions):

* ``wall_s``: wall time of the whole job list, set-up excluded;
* ``setup_s``: child start until c2spider is imported, the relation table
  loaded and the clasp context and cache built (also timed in set-up-only
  children);
* ``peak_rss_mb``: peak resident memory of a child.

The two times are given at a fixed reference speed.  The shared machine's
speed drifts by up to 1.8x over seconds to minutes, and a run of the same
code would read that drift.  So each untraced child times a short, fixed
piece of exact arithmetic that uses no package code every 0.05 s while it
works (``child.Sampler``).  The time spent in those samples is taken out, and
the rest is multiplied by ``REFERENCE_SAMPLE_S`` over their mean time.  Wall
times as measured are printed beside them.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of ``tracer.py``.  The last stdout line is the result JSON;
the lines before it print every metric by name and unit, the oracle outcome
(``fail_frac`` with its known-defect breakdown) and the machine-speed probe.
All scratch files live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import COUNT_SUFFIXES, EXERCISED, PER_LAYER, unit_of  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")
SETUP_CHILDREN = 5         # set-up-only children before each repetition
# time of one child.Sampler sample at the reference speed (about the speed
# of a 2-vCPU shared host under moderate load, with Python 3.11)
REFERENCE_SAMPLE_S = 0.001
DEADLINE_S = 170.0          # the whole run must end within 180 s


class BenchError(RuntimeError):
    pass


def at_reference(seconds, speed):
    """A time measured in a sampled child, with the samples taken out,
    rescaled to the reference speed."""
    return (seconds - speed["inside_s"]) * REFERENCE_SAMPLE_S / speed["sample_s"]


class Run:
    def __init__(self, workload, seed, run_dir, deadline):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0

    def child(self, mode, template=None, cache_root=None):
        """Start one child, time it to ``ready``, and return (setup_s, report);
        setup_s is at the reference speed when the child sampled it."""
        self.count += 1
        base = os.path.join(self.run_dir, f"child{self.count}")
        if cache_root is None:
            cache_root = os.path.join(base, "cache")
            if template:
                shutil.copytree(template, cache_root)
        for sub in ("home", "xdg"):
            os.makedirs(os.path.join(base, sub))
        env = dict(os.environ, PYTHONPATH=SRC, PERFBENCH_SRC=SRC, PERFBENCH_BASE=base,
                   C2SPIDER_CACHE=cache_root, HOME=os.path.join(base, "home"),
                   XDG_CACHE_HOME=os.path.join(base, "xdg"))
        cmd = [sys.executable, CHILD, mode, self.workload, str(self.seed)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
        try:
            if not select.select([proc.stdout], [], [], self._left())[0]:
                raise subprocess.TimeoutExpired(cmd, self._left())
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=self._left())
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        word, _, speed = first.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise BenchError(f"{mode} child exited with {proc.returncode}")
        speed = json.loads(speed)
        if speed:
            setup_s = at_reference(setup_s, speed)
        lines = rest.strip().splitlines()
        return setup_s, (json.loads(lines[-1]) if lines else None)

    def _left(self):
        return max(1.0, self.deadline - time.monotonic())


def measure(args, run):
    template = None
    if args.workload == "networks-warm":
        # P_2..P_4 written to a disk cache by a separate child, before timing;
        # each repetition gets a fresh copy of it as its own cache root
        template = os.path.join(run.run_dir, "warm")
        run.child("prep", cache_root=template)
    setups = []
    reports = {"run": [], "trace": []}
    modes = ("run", "trace") if args.trace else ("run",)
    start = time.monotonic()
    longest = 0.0
    while True:
        begun = time.monotonic()
        if not args.trace:
            # set-up samples are spread over the run, not taken in one burst
            setups += [run.child("setup")[0] for _ in range(SETUP_CHILDREN)]
        for mode in modes:
            setup_s, report = run.child(mode, template)
            reports[mode].append(report)
            if mode == "run":
                setups.append(setup_s)
        now = time.monotonic()
        longest = max(longest, now - begun)
        if now - start + longest > args.seconds:
            break
    return setups, reports


def summarize(args, setups, reports):
    problems = []
    every = reports["run"] + reports["trace"]
    if len({r["digest"] for r in every}) != 1:
        problems.append("job outputs differ between repetitions")
    for r in every:
        problems += r["failures"] + r["isolation_errors"]
    known = every[0]["known"]
    if any(r["known"] != known for r in every):
        problems.append("known-defect counts differ between repetitions")
    attempted = every[0]["attempted"]
    failed = len(every[0]["failures"])
    raw_walls = [r["wall_s"] - r["speed"]["inside_s"] for r in reports["run"]]
    walls = [at_reference(r["wall_s"], r["speed"]) for r in reports["run"]]

    lines = [f"workload {args.workload} seed {args.seed}: "
             f"{len(reports['run'])} untraced and {len(reports['trace'])} traced "
             f"repetitions, {len(setups)} set-ups",
             "probe_s " + " ".join(f"{r['probe_s']:.4f}" for r in every)
             + " s (machine-speed probe, not a metric)",
             "wall_s per repetition " + " ".join(f"{w:.3f}" for w in walls)
             + " s at the reference speed; as measured " + " ".join(f"{w:.3f}" for w in raw_walls)
             + " s"]
    if not args.trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports["run"]), "MB"),
        }
    else:
        traces = [r["trace"] for r in reports["trace"]]
        for t in traces:
            problems += t["coverage_errors"]
        first = traces[0]["metrics"]
        for name, value in first.items():
            if name.endswith(COUNT_SUFFIXES) and any(t["metrics"][name] != value for t in traces):
                problems.append(f"{name} differs between traced repetitions")
        traced_walls = [r["wall_s"] for r in reports["trace"]]
        merged = {}
        for name in PER_LAYER:
            if name == "trace.overhead_frac":
                value = statistics.median(traced_walls) / statistics.median(raw_walls) - 1
            elif name == "trace.unaccounted_frac":
                value = statistics.median(1 - t["jobs_self_s"] / r["wall_s"]
                                          for t, r in zip(traces, reports["trace"]))
            elif name.endswith(COUNT_SUFFIXES):
                value = first[name]       # equal in every traced repetition
            else:
                value = statistics.median(t["metrics"][name] for t in traces)
            merged[name] = (value, unit_of(name))
        metrics = merged
        lines.append("traced wall_s per repetition "
                     + " ".join(f"{w:.3f}" for w in traced_walls) + " s")
        lines.append("top self time (s, name, calls): " + json.dumps(traces[0]["top"]))

    problems = list(dict.fromkeys(problems))
    fail_frac = (failed + sum(known.values())) / attempted
    lines.append(f"fail_frac {fail_frac:.4f} frac ({failed} failed, "
                 f"{sum(known.values())} known defects, {attempted} jobs)")
    for defect, n in sorted(known.items()):
        lines.append(f"  known defect x{n}: {defect}")
    for p in problems:
        lines.append(f"PROBLEM: {p}")
    lines.append(f"digest {every[0]['digest']}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value} {unit}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(EXERCISED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "c2spider", "__init__.py")):
        sys.stderr.write(f"no c2spider sources under {SRC}; run from a checkout root\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        run = Run(args.workload, args.seed, run_dir, deadline)
        setups, reports = measure(args, run)
        lines, result = summarize(args, setups, reports)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
