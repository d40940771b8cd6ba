"""Set-up, measured passes, checks and the result line of one benchmark run.

``pass_s`` is in nominal seconds: each pass's program time is scaled by
the median of the ``speed.yardstick_s`` times taken around its calls, and
the median over passes is reported (see speed.py and README.md). Set-up
times and per-layer span times are raw seconds.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import speed
import workloads

SETUP_SAMPLES = 3   # this process's set-up plus two fresh processes
MIN_PASSES = 3      # per timing mode, however short --seconds is
SUBPROCESS_TIMEOUT_S = 150


@dataclass
class PassResult:
    seconds: float = 0.0    # program time, raw
    yardsticks: list = field(default_factory=list)  # yardstick times around the calls
    failed: int = 0
    wrong: int = 0

    @property
    def nominal(self) -> float:
        return speed.nominal_seconds(self.seconds, self.yardsticks)


def run_pass(workload, measured: bool) -> PassResult:
    """Run every step once.

    Only the program's calls are timed. In a measured pass the speed
    yardstick runs right before and right after each call, and the outputs are
    checked. A step fails when its call raises or exits non-zero, or when
    its output misses a check; the last kind also counts as wrong.
    """
    result = PassResult()
    for step in workload.steps:
        if measured:
            result.yardsticks.append(speed.yardstick_s())
        try:
            started = time.perf_counter()
            output = step.run()
            took = time.perf_counter() - started
        except Exception as exc:  # noqa: BLE001 -- one failed step must not end the run
            result.failed += 1
            print(f"chordbench: {step.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        result.seconds += took
        if measured:
            result.yardsticks.append(speed.yardstick_s())
        try:
            output = step.read(output)
            problems = step.check(output) if measured else []
        except Exception as exc:  # noqa: BLE001 -- an unreadable output is a wrong one
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            result.failed += 1
            result.wrong += 1
            for problem in problems:
                print(f"chordbench: {step.name}: {problem}", file=sys.stderr)
    return result


def extra_setup_samples(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, run one after the other."""
    command = [sys.executable, str(Path(__file__).with_name("run.py")), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--threads", str(args.threads)]
    samples = []
    for _ in range(count):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run(args, root: Path, started: float) -> int:
    import_s = time.perf_counter() - started
    scratch = root / ".chordbench_out"
    out = scratch / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        # set-up: imports (above), construction and an untimed warm-up pass
        warm_started = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](root, out, args.seed)
        tracer = None
        if args.trace:
            tracer = layers.Tracer()
            tracer.install([workloads])
        warm = run_pass(workload, measured=False)
        warmup_s = time.perf_counter() - warm_started
        setup_s = import_s + warmup_s
        if warm.failed:
            # the measured passes count the failures; the run goes on
            print(f"chordbench: {warm.failed} step(s) failed in the warm-up pass",
                  file=sys.stderr)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:
            tracer.uninstall()
        print(f"chordbench: {args.workload}, seed {args.seed}, {args.threads} BLAS "
              f"thread(s), set-up {setup_s:.2f} s", file=sys.stderr)

        # closed loop: passes back to back; in the traced run untraced and
        # traced passes alternate, so the two timings share conditions
        modes = (False, True) if args.trace else (False,)
        passes = {mode: [] for mode in modes}
        measure_started = time.perf_counter()
        while (time.perf_counter() - measure_started < args.seconds
               or min(len(p) for p in passes.values()) < MIN_PASSES):
            for traced in modes:
                if traced:
                    tracer.phase = len(passes[True])
                    tracer.install([workloads])
                try:
                    passes[traced].append(run_pass(workload, measured=True))
                finally:
                    if traced:
                        tracer.uninstall()

        every = [p for mode in modes for p in passes[mode]]
        attempted = len(every) * len(workload.steps)
        failed = sum(p.failed for p in every)
        wrong = sum(p.wrong for p in every)

        def pass_s(mode):
            return statistics.median(p.nominal for p in passes[mode])

        if args.trace:
            yardsticks = [t for p in every for t in p.yardsticks]
            metrics = layers.per_layer_metrics(
                tracer, len(passes[True]), pass_s(True), pass_s(False), import_s, warmup_s, out,
                speed_factor=statistics.median(yardsticks) / speed.NOMINAL_S)
            (scratch / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "threads": args.threads,
                "pass_s": [p.seconds for p in passes[True]],
                "untraced_pass_s": [p.seconds for p in passes[False]],
                "yardstick_s": yardsticks, **tracer.dump()}))
        else:
            setups = [setup_s] + extra_setup_samples(args, SETUP_SAMPLES - 1)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "pass_s": {"value": pass_s(False), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
            print(f"chordbench: set-up {json.dumps(setups)}; passes "
                  f"{json.dumps([dict(vars(p), nominal=p.nominal) for p in passes[False]])}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
