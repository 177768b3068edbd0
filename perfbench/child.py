"""One benchmark repetition in a fresh interpreter, as a CLI user's process.

    python3 perfbench/child.py MODE WORKLOAD SEED

MODE is ``setup`` (stop once ready), ``prep`` (write the P_2..P_4 expansions
to the disk cache), ``run`` or ``trace`` (run the workload, untraced or
traced).  The child prints ``ready`` as soon as c2spider is imported, the
relation table is loaded and the clasp context and cache exist, followed by
the set-up's speed samples as JSON; the parent times set-up up to that line.
In ``run`` and ``trace`` modes the last line is a JSON report: job-list wall
time, peak RSS, output digest, oracle verdicts and, when traced, the
per-layer table.

Untraced children also report the machine's speed while they worked: a
timer interrupts the child every ``SAMPLE_PERIOD_S`` and times a fixed
piece of exact arithmetic (see ``Sampler``).  The parent rescales set-up
and job-list times by it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

PROBE_ITERATIONS = 1_000_000
SAMPLE_PERIOD_S = 0.05
SETUP_SAMPLE_PERIOD_S = 0.02
# The speed sample squares a fixed 13-term polynomial with Fraction
# coefficients.  Like the package's exact arithmetic it allocates many small
# objects, hashes into dicts and takes integer gcds, so it slows down with the
# machine the way the workloads do; it runs no package code, so a change to
# the package cannot change it.
SAMPLE_POLY = {i: Fraction(7 * i + 3, i * i + 2) for i in range(-6, 7)}


def _probe() -> float:
    """Machine-speed probe before the jobs, recorded beside the metrics."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def _sample() -> float:
    start = time.perf_counter()
    square = {}
    for a, ca in SAMPLE_POLY.items():
        for b, cb in SAMPLE_POLY.items():
            square[a + b] = square.get(a + b, 0) + ca * cb
    return time.perf_counter() - start


class Sampler:
    """Times the speed sample on every SIGALRM of a periodic wall-clock
    timer.  The sample runs on the same CPU, interleaved with the work, so the
    mean of its times tracks the machine's speed over a stretch of work.  The
    time spent in it is reported, so that it can be taken out of the
    measured time."""

    def __init__(self):
        self.times = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum=None, frame=None):
        self.times.append(_sample())

    def start(self, period_s):
        self.times = []
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)

    def stop(self) -> dict:
        """Mean sample time, and the sample time spent inside the stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        inside_s = sum(self.times)
        if not self.times:       # a stretch shorter than one period
            self._tick()
        return {"sample_s": sum(self.times) / len(self.times), "inside_s": inside_s}


def _isolation_errors(ctx):
    """The package comes from the checkout, caches and home point into this
    child's own directory, and no in-process memo is warm before the jobs."""
    import c2spider
    from c2spider import cat, clasp, engine
    src, base = os.environ["PERFBENCH_SRC"], os.environ["PERFBENCH_BASE"]
    errors = []
    if not os.path.abspath(c2spider.__file__).startswith(src + os.sep):
        errors.append(f"c2spider imported from {c2spider.__file__}, not {src}")
    for what, path in (("cache root", ctx.cache.root), ("home", os.path.expanduser("~"))):
        if not os.path.abspath(path).startswith(base + os.sep):
            errors.append(f"{what} {path} is outside {base}")
    modular_data = cat.modular_data
    while not hasattr(modular_data, "cache_info"):   # under the tracer's wrapper
        modular_data = modular_data.__wrapped__
    if clasp._MEMO or any(engine._EVAL_MEMO.values()) or modular_data.cache_info().currsize:
        errors.append("an in-process memo was warm before the jobs")
    return errors


def main():
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sampler = Sampler() if mode in ("setup", "run") else None
    if sampler:
        sampler.start(SETUP_SAMPLE_PERIOD_S)
    import c2spider.cli  # noqa: F401  (imports every layer, as the CLI does)
    from c2spider import cache, clasp, rules
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    table = rules.default_table()
    ctx = clasp.ClaspContext(table, cache.ClaspCache(table_hash=table.table_hash()))
    if tracer:
        tracer.enabled = False
    setup_speed = sampler.stop() if sampler else {}
    print("ready " + json.dumps(setup_speed), flush=True)
    if mode == "setup":
        return
    if mode == "prep":
        from workloads import WARM_CLASPS
        for n in WARM_CLASPS:
            clasp.clasp_expand(n, "single", ctx)
        return

    import workloads
    isolation_errors = _isolation_errors(ctx)
    probe_s = _probe()
    jobs = workloads.build(workload, seed)
    env = workloads.Env(table, ctx)
    outputs = []
    if tracer:
        self_before = tracer.total_self()
        tracer.enabled = True
    if sampler:
        sampler.start(SAMPLE_PERIOD_S)
    start = time.perf_counter()
    for job in jobs:
        try:
            out = job.run(env)
        except Exception as exc:   # recorded as the job's outcome and judged below
            out = exc
        env.state[job.name] = out
        outputs.append(out)
    speed = sampler.stop() if sampler else None
    wall_s = time.perf_counter() - start
    report = {"wall_s": wall_s, "probe_s": probe_s, "speed": speed,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.enabled = False
        report["trace"] = {
            "metrics": tracer.snapshot(),
            "jobs_self_s": tracer.total_self() - self_before,
            "coverage_errors": tracer.coverage_errors(workload),
            "top": sorted(((s["self_s"], name, s["calls"])
                           for name, s in tracer.table().items()), reverse=True)[:15],
        }

    digest = hashlib.sha256()
    failures, known = [], {}
    for job, out in zip(jobs, outputs):
        digest.update(json.dumps([job.name, workloads.plain(out)],
                                 sort_keys=True).encode())
        verdict = job.check(out, env)
        if verdict == workloads.OK:
            continue
        kind, detail = verdict
        if kind == "known":
            known[detail] = known.get(detail, 0) + 1
        else:
            failures.append(f"{job.name}: {detail}")
    report.update({
        "digest": digest.hexdigest(),
        "attempted": len(jobs),
        "failures": failures,
        "known": known,
        "isolation_errors": isolation_errors,
    })
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
