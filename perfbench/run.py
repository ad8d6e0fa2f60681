"""Benchmark of the latent-lens pipeline: train, analyze and MIDI in/out.

    python3 perfbench/run.py --workload train-2bar --seed 1 --seconds 20 --trace 0

runs one workload in this process and prints its metrics, the last line
being one JSON object {"correct", "attempted", "failed", "metrics"}.  Without
``--workload`` every workload runs in turn, each in a fresh process.  With
``--trace 1`` the per-layer metrics of a traced run are printed instead of
the end-to-end ones.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # noqa: E402  (set-up time counts from here on)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
RUNS = HERE / "runs"
WORKLOADS = ("train-2bar", "analyze-2bar", "midi-io")

# One BLAS thread and one ingest worker: with the main thread, two threads.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LATENT_LENS_THREADS": "1",
}

# glibc's malloc raises its mmap threshold to the size of each large block
# freed, after which blocks below that size come from the heap and stay
# resident once freed, depending on where they landed.  Left so, the peak RSS
# of one analyze-2bar round ranged over 191-236 MB from run to run.  A fixed
# threshold (which also stops the raising) hands every block of 1 MiB or more
# back to the OS when freed; the peak then read 191.5-191.7 MB.  That costs
# analyze about 5% of its time; at 256 KiB the cost was 15%.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 1 << 20


def fix_mmap_threshold() -> int | None:
    """Fix malloc's mmap threshold; the threshold set, or None where the C
    library has no mallopt (it is glibc's)."""
    try:
        ok = ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    except (OSError, AttributeError):
        return None
    return MMAP_THRESHOLD if ok == 1 else None


def process_age_s() -> float:
    """Seconds since this process started, from /proc (0 where unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return max(0.0, age)


_AGE_AT_T0 = process_age_s()


def setup_clock() -> float:
    return _AGE_AT_T0 + time.perf_counter() - _T0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args) -> int:
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    mmap_threshold = fix_mmap_threshold()
    # One CPU for the whole workload.  Ingest's worker thread and the main
    # thread pass the GIL to each other for every file; across two vCPUs each
    # pass waits on a cross-CPU wake-up whose cost follows the host's load
    # (ingest ran 30% slower unpinned in a busy hour, and as fast as ever
    # pinned).  The work is GIL-bound, so a second CPU gives it no parallelism.
    # Where the pin is refused the workload runs unpinned; machine_facts
    # records the CPUs it ran on.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as err:
        print(f"running unpinned: {err}", file=sys.stderr)
    # Explicitly, since under -P or PYTHONSAFEPATH the script's directory is
    # not on the path.
    sys.path[:0] = [str(HERE), str(REPO / "src")]
    import bench

    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = RUNS / stem
    work.mkdir()
    try:
        result = bench.run(args.workload, work, args.seed, args.seconds,
                           bool(args.trace), setup_clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts = bench.machine_facts(REPO)
    facts["malloc_mmap_threshold"] = mmap_threshold
    units = bench.END_TO_END | bench.PER_LAYER
    for name, value in result.metrics.items():
        print(f"{args.workload:13s} {name:34s} {value:14.6g} {units[name]}")
    for name, (value, unit) in result.named.items():
        print(f"{args.workload:13s} {name:34s} {value:14.6g} {unit}")
    print(f"{args.workload:13s} attempted {result.attempted} failed {result.failed} "
          f"{json.dumps(result.errors)}")
    for failure in result.failures:
        print(f"{args.workload:13s} INCORRECT {failure}")
    print("machine " + json.dumps(facts))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "named": result.named,
              "errors": result.errors, "failures": result.failures,
              "result": json.loads(bench.result_json(result)), "spans": result.spans}
    (RUNS / f"{stem}.json").write_text(json.dumps(record))
    print(bench.result_json(result), flush=True)
    return 0  # the result line carries the verdict in "correct"


def run_all(args) -> int:
    """Each workload in a fresh process; a summary object on the last line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary), flush=True)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "latent_lens" / "__init__.py").is_file():
        print(f"no latent_lens sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
