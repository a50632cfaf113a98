"""End-to-end benchmark: the figure experiments and the live service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 15 --trace 0

Workloads: ``fig7``, ``fig12``, ``service_rekey``, ``service_maintenance``
(see ``perfbench/README.md`` for why each exists).  ``--seconds`` sets a
fixed number of passes (``passes_per_s`` in ``workloads.py``).  With
``--trace 0`` the run measures end-to-end metrics; with ``--trace 1`` it
measures half of the passes untraced, then the same passes on a fresh
set-up with every layer wrapped, and reports per-layer metrics.  The
last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the lines before it print every
metric by name with its unit, and the run environment.  Exit status is
0 only when every output check passed.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The environment every workload runs under.  Any other ``REPRO_*``
#: variable is removed, so the caller's shell cannot change a workload.
PINNED_ENV = {
    "REPRO_SCALE": "small",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: A measured loop starts no new pass after this many seconds, however
#: many ``--seconds`` asked for (a run must end within 180 s).
WALL_CAP_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
}


def _pin_environment(argv):
    """Re-execute this script under :data:`PINNED_ENV` unless already."""
    stray = [k for k in os.environ if k.startswith("REPRO_") and k not in PINNED_ENV]
    if not stray and all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: small groups, for the benchmark's own tests",
    )
    parser.add_argument(
        "--canary", action="store_true",
        help="corrupt the first pass's output; the run must then fail",
    )
    return parser.parse_args(argv)


def peak_rss_mib():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def tail(samples):
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, n)``, or None with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Loop:
    """The closed loop: pass after pass, each started when the previous
    one returned.  Output checks run between passes, outside the timed
    region, and count failed operations into ``failed``."""

    def __init__(self, workload, canary, speed):
        self.workload = workload
        self.canary = canary
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.first = None  # OpResult of pass 0, re-checked by ``verify``

    def run(self, state, passes, tracer=None):
        """Check ``state``, run passes ``0 .. passes-1`` on it (fewer if
        :data:`WALL_CAP_S` runs out), and check it again.

        ``walls`` are the measured pass times and ``scaled`` the same
        times at the host's full speed (``hostspeed``)."""
        workload = self.workload
        self.failed += workload.pre_check(state)
        walls, scaled, latencies, frames, intervals = [], [], [], [], []
        loop_started = time.perf_counter()
        for i in range(passes):
            if i and time.perf_counter() - loop_started > WALL_CAP_S:
                break
            if tracer is not None:
                tracer.op = i
                tracer.enabled = True
            mark = self.speed.mark()
            if tracer is None:
                result = workload.op(state, i)
            else:
                result = tracer.call("bench.op", workload.op, state, i)
            wall, at_full_speed = self.speed.since(mark)
            if tracer is not None:
                tracer.enabled = False
            walls.append(wall)
            scaled.append(at_full_speed)
            latencies.append(wall if result.latency_s is None else result.latency_s)
            frames.append(result.frames)
            intervals.append(result.interval_s)
            if self.first is None:
                self.first = result
                if self.canary:
                    workload.corrupt(state, result)
            self.attempted += workload.units
            self.failed += workload.check(state, result)
        self.failed += workload.final_check(state)
        return {
            "walls": walls,
            "scaled": scaled,
            "latencies": latencies,
            "frames": frames,
            "intervals": intervals,
        }


def end_to_end(workload, phase, setup_s):
    walls, latencies = phase["walls"], phase["latencies"]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(phase["scaled"]),
        "peak_rss_mib": peak_rss_mib(),
    }
    total = sum(walls)
    lines = [
        f"measured_phase_s = {total:.6f} s ({len(walls)} passes)",
        _p50_line("pass_p50_ms", walls),
    ]
    if workload.name == "service_rekey":
        intervals = phase["intervals"]
        lines.append(f"intervals_per_s = {len(intervals) / sum(intervals):.6f} 1/s")
        lines.append(_p50_line("interval_p50_ms", intervals))
        lines.append(_tail_line("interval_tail_ms", intervals))
        lines.append(_p50_line("rekey_delivery_p50_ms", latencies))
        lines.append(_tail_line("rekey_delivery_tail_ms", latencies))
    if workload.name == "service_maintenance":
        lines.append(_p50_line("round_p50_ms", latencies))
        lines.append(_tail_line("round_tail_ms", latencies))
    if workload.name.startswith("service_"):
        lines.append(f"frames_per_s = {sum(phase['frames']) / total:.3f} 1/s")
        lines.append(f"frames_per_pass = {statistics.median(phase['frames'])} count")
    return metrics, lines


def _p50_line(name, samples_s):
    return f"{name} = {1e3 * statistics.median(samples_s):.6f} ms (n={len(samples_s)})"


def _tail_line(name, samples_s):
    t = tail(samples_s)
    if t is None:
        return f"{name} = n/a ms (n={len(samples_s)}; a tail needs at least 11 samples)"
    value, pct, n = t
    return f"{name} = {1e3 * value:.6f} ms (p{pct:.1f}, n={n}, 10 samples beyond)"


def describe_environment(workload_name, size):
    import platform

    import numpy
    from repro.compute import default_backend

    return {
        "workload": workload_name,
        "size": size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)),
        "repro_compute_default": default_backend().name,
        "env": {k: os.environ.get(k) for k in sorted(PINNED_ENV)},
        "traffic": "loopback (127.0.0.1) sockets inside this process"
        if workload_name.startswith("service_")
        else "none (in-process experiment)",
    }


def main(argv):
    _pin_environment(argv)
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import hostspeed

    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        return measure(args, speed)
    finally:
        speed.stop()


def measure(args, speed):
    """One run of ``args.workload``; returns the exit status."""
    before_imports = time.perf_counter() - _STARTED
    mark = speed.mark()
    import layers
    import report
    import workloads
    from tracer import Tracer

    import_s = before_imports + speed.since(mark)[1]
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.size)
    print("env " + json.dumps(describe_environment(workload.name, args.size)))

    tracer = Tracer() if args.trace else None
    loop = Loop(workload, args.canary, speed)
    seconds = args.seconds if tracer is None else args.seconds / 2.0
    passes = max(1, round(seconds * workload.passes_per_s))
    state = None
    try:
        setups = []
        for _ in range(workload.setup_repeats if tracer is None else 1):
            if state is not None:
                workload.close(state)
                state = None
            mark = speed.mark()
            state = workload.setup(args.seed)
            setups.append(speed.since(mark)[1])
        setup_s = import_s + statistics.median(setups)
        plain = loop.run(state, passes)
        loop.failed += workload.verify(state, 0, loop.first)
        if tracer is not None:
            # The traced half runs the same passes on a fresh set-up from
            # the same seed, so both halves measure the same inputs (the
            # service groups grow pass by pass).  Set-up is traced at the
            # topology layer only: its other layers (admission,
            # convergence) would add millions of spans.  A host-speed
            # sample inside a pass would land in its spans, so the traced
            # half takes only the samples around each pass.
            speed.stop()
            workload.close(state)
            state = None
            layers.install(tracer, only=("net",))
            try:
                state = tracer.call("bench.setup", workload.setup, args.seed)
            finally:
                tracer.restore()
            tracer.counters.clear()
            local_before = workload.local_deliveries(state)
            layers.install(tracer)
            try:
                traced = loop.run(state, len(plain["walls"]), tracer=tracer)
            finally:
                tracer.restore()
            tracer.counters["transport.local_deliveries"] = (
                workload.local_deliveries(state) - local_before
            )
    finally:
        if state is not None:
            workload.close(state)

    if tracer is None:
        metrics, lines = end_to_end(workload, plain, setup_s)
        units = END_TO_END_UNITS
    else:
        path = Path(".perfbench") / f"spans-{workload.name}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(str(path))
        metrics, units, lines = report.per_layer(tracer, plain, traced)
        lines.append(f"spans written to {path} ({len(tracer.spans)} spans)")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6f} {units[name]}")
    ratio = loop.failed / loop.attempted
    print(f"ops_failed_ratio = {ratio:.6f} ratio (failed {loop.failed} of {loop.attempted} attempted)")
    correct = loop.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
