#!/usr/bin/env python3
"""sumprobe benchmark: cold and resumed CLI runs on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload local_ci --seed 1 --seconds 36 --trace 0

One client, closed loop: a single `sumprobe` command is in flight at a time.
Each run generates its workload from --seed, then for --seconds repeats a
cycle of one cold run into an empty output directory, one rerun over the
directory the cold run filled, and a few timed fresh-process set-ups.
Every operation's outputs are checked. With --trace 1 one more
cycle runs under the span tracer (tracing.py) and per-layer metrics are
printed instead of the end-to-end ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workload as wl  # noqa: E402

DEFAULT_SEED = 1
# Every process the benchmark starts must end this many seconds after it
# starts, so a whole run stays within three minutes.
TIME_LIMIT_S = 170.0
# Fewest fresh-process set-ups timed after each cycle. One launch takes
# about 0.2 s and varies by 25% or more with the machine's slow and fast
# stretches, so they are spread over the whole timed loop, like the cycles.
SETUP_PER_CYCLE = 3
WORK_DIR = ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    kind: str  # "pipeline" or "input_bias"
    scheme: str | None
    jobs: int
    sizes: dict[str, wl.Size]


# Sizes keep one cold run to a few seconds on a 2-core machine, so that a
# 36-second run holds at least two cycles. local_ci runs 16k replicates
# (1000 x 4 measures x 2 axes x 2 systems) of 8 originals' records, ~7 s;
# at this size the per-replicate costs that do not grow with the records
# (derive_rng among them) are ~5% of the bootstrap, against under 1% on
# the roadmap's 200 originals. global_dist's 250 originals give ~4.5k
# inputs per system.
WORKLOADS = {
    "local_ci": Workload(
        "pipeline", "gender_local", 1,
        {"full": wl.Size(originals=8), "smoke": wl.Size(originals=3, replicates=40)},
    ),
    "global_dist": Workload(
        "pipeline", "gender_global", 2,
        {"full": wl.Size(originals=250), "smoke": wl.Size(originals=4, replicates=40)},
    ),
    "input_bias": Workload(
        "input_bias", None, 1,
        {"full": wl.Size(originals=0, synthetic_docs=1500),
         "smoke": wl.Size(originals=0, synthetic_docs=120)},
    ),
}


@dataclass
class Op:
    """One timed operation: one or more CLI commands run back to back."""

    wall: float = 0.0
    rss_kb: int = 0
    stdout: str = ""
    problems: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, root: Path, name: str, seed: int, size: str):
        self.root = root
        self.spec = WORKLOADS[name]
        self.size = self.spec.sizes[size]
        self.seed = seed
        self.work = root / WORK_DIR / name
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self._launches = 0
        pins = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        self.pins = (pins["workloads"].get(name, {})
                     if seed == pins["seed"] and size == "full" else {})

    def rel(self, path: Path) -> str:
        return path.relative_to(self.root).as_posix()

    # -- processes ----------------------------------------------------------

    def launch(self, argv: list[str]) -> tuple[int, float, int, str, str]:
        """Run `python3 argv...` in the repository root; returns exit code,
        wall seconds, peak RSS in KiB (the process and the children it
        waited for), stdout and stderr. Killed at the run's time limit."""
        self._launches += 1
        logs = self.work / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        out_path, err_path = logs / f"{self._launches}.out", logs / f"{self._launches}.err"
        with out_path.open("w+b") as out, err_path.open("w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (code, wall, usage.ru_maxrss, out.read().decode("utf-8", "replace"),
                    err.read().decode("utf-8", "replace"))

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def operation(self, commands: list[list[str]], spans: Path | None = None) -> Op:
        op = Op()
        for k, argv in enumerate(commands):
            if spans is None:
                prefix = ["-m", "sumprobe.cli"]
            else:
                prefix = [self.rel(HERE / "tracing.py"), "--spans", self.rel(spans.with_suffix(f".{k}.json")),
                          "--run-id", spans.stem, "--"]
            code, wall, rss, out, err = self.launch(prefix + argv)
            op.wall += wall
            op.rss_kb = max(op.rss_kb, rss)
            op.stdout = out
            if code != 0:
                tail = err.strip().splitlines()[-1:] or ["no stderr"]
                op.problems.append(f"`sumprobe {' '.join(argv)}` exited {code}: {tail[0]}")
                break
        return op

    # -- workload -----------------------------------------------------------

    def prepare(self) -> None:
        """Generate the inputs; records how many records one run scores."""
        shutil.rmtree(self.work, ignore_errors=True)
        if self.spec.kind == "pipeline":
            self.config = wl.write_pipeline_workload(
                self.root, self.work, self.spec.scheme, self.size, self.seed, self.spec.jobs)
            systems = json.loads(self.config.read_text(encoding="utf-8"))["summaries"]
            with (self.root / systems["faithful"]).open(encoding="utf-8") as fh:
                self.records = sum(1 for _ in fh) * len(systems)
        else:
            self.corpus = wl.write_synthetic_corpus(self.work, self.size, self.seed)
            self.records = self.size.synthetic_docs

    def setup_time(self) -> float | None:
        """One fresh-process set-up (probe_setup.py), in seconds."""
        argv = [self.rel(HERE / "probe_setup.py")]
        if self.spec.kind == "pipeline":
            argv += ["--config", self.rel(self.config), "--out-dir", self.rel(self.work / "probe")]
        code, _, _, out, err = self.launch(argv)
        try:
            value = float(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            value = None
        ok = self.record("set-up", [f"exit {code}: {err.strip()[-200:]}"] if code or value is None else [])
        return value if ok else None

    def commands(self, out: Path) -> list[list[str]]:
        if self.spec.kind == "pipeline":
            return [["run", "--config", self.rel(self.config), "--out-dir", self.rel(out)]]
        corpus = self.rel(self.corpus)
        return [
            ["simulate-baselines", "--corpus", corpus, "--seed", str(self.seed),
             "--out", self.rel(out / "sim")],
            ["analyze-input-bias", "--corpus", corpus, "--out", self.rel(out / "fw")],
        ]

    def outputs(self, op: Op, out: Path) -> tuple[Path | None, tuple[str, ...]]:
        if self.spec.kind == "input_bias":
            return out, checks.INPUT_BIAS_OUTPUTS
        lines = op.stdout.strip().splitlines()
        return (self.root / lines[-1] if lines else None), checks.PIPELINE_OUTPUTS

    def check(self, target: Path) -> list[str]:
        if self.spec.kind == "input_bias":
            return checks.check_input_bias_run(target)
        return checks.check_pipeline_run(target, self.spec.scheme)

    def cycle(self, index: int, traced: bool = False) -> tuple[Op, Op | None, Path]:
        """A cold run into an empty directory, then a rerun over it."""
        out = self.work / "runs" / str(index)
        out.mkdir(parents=True)
        commands = self.commands(out)
        spans = self.work / "spans"
        spans.mkdir(exist_ok=True)
        cold = self.operation(commands, spans / "cold" if traced else None)
        target, names = self.outputs(cold, out)
        if not cold.problems:
            if target is None or not target.is_dir():
                cold.problems.append("the command did not report its output directory")
            else:
                found = checks.digests(target, names)
                cold.problems += self.check(target) + checks.check_pins(found, self.pins)
        label = "traced " if traced else ""
        if not self.record(f"{label}cold run {index}", cold.problems):
            return cold, None, out
        resume = self.operation(commands, spans / "resume" if traced else None)
        if not resume.problems:
            again, _ = self.outputs(resume, out)
            if again != target:
                resume.problems.append(f"rerun wrote to {again}, cold run to {target}")
            resume.problems += checks.check_same(found, checks.digests(target, names))
        self.record(f"{label}rerun {index}", resume.problems)
        return cold, resume, out

    def spans(self) -> list[dict]:
        return [json.loads(p.read_text(encoding="utf-8"))
                for p in sorted((self.work / "spans").glob("*.json"))]


# --- reporting --------------------------------------------------------------------


def supported_percentile(n: int) -> int | None:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    fits = [p for p in (75, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    return fits[-1] if fits else None


def describe(name: str, values: list[float], unit: str) -> str:
    p = supported_percentile(len(values))
    tail = (f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}" if p
            else "no percentile above the median has 10 samples beyond it")
    return (f"{name}: median {statistics.median(values):.4f} {unit}, min {min(values):.4f}, "
            f"max {max(values):.4f}, n={len(values)}; {tail}")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def environment(root: Path, seed: int) -> dict:
    import numpy

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# --- main -------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sumprobe" / "cli.py").is_file():
        print("perfbench: src/sumprobe/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    bench = Bench(root, args.workload, args.seed, args.size)
    start = time.perf_counter()
    bench.prepare()
    print(f"workload {args.workload}: {bench.records} records, generated in "
          f"{time.perf_counter() - start:.1f} s", flush=True)

    # The first cycle's time sets how many cycles fit in --seconds. After
    # each cycle, set-up launches fill the time up to that cycle's share of
    # the run, so they are spread over it as evenly as the cycles are, and
    # the run ends near --seconds rather than up to a cycle past it.
    colds: list[Op] = []
    resumes: list[Op] = []
    setup: list[float] = []
    measured = time.perf_counter()
    cycles = 0
    index = 0
    while True:
        began = time.perf_counter()
        cold, resume, out = bench.cycle(index)
        shutil.rmtree(out, ignore_errors=True)
        if resume is None or resume.problems:
            break
        colds.append(cold)
        resumes.append(resume)
        index += 1
        times = [bench.setup_time() for _ in range(SETUP_PER_CYCLE)]
        took = time.perf_counter() - began
        cycles = cycles or max(1, round(args.seconds / took))
        share_end = measured + args.seconds * index / cycles
        while None not in times and time.perf_counter() < share_end:
            times.append(bench.setup_time())
        if None in times:
            break
        setup += times
        reserve = 3 * took if args.trace else took
        if index >= cycles or time.monotonic() + reserve > bench.deadline:
            break

    metrics: dict[str, float] = {}
    lines: list[str] = []
    if colds:
        runs = [op.wall for op in colds]
        series = {
            "run_s": (runs, "s"),
            "resume_s": ([op.wall for op in resumes], "s"),
            "setup_s": (setup, "s"),
            "records_per_s": ([bench.records / w for w in runs], "1/s"),
            "peak_rss_mb": ([op.rss_kb / 1024 for op in colds], "MB"),
        }
        for name, (values, unit) in series.items():
            if values:
                metrics[name] = (statistics.median(values), unit)
                lines.append(describe(name, values, unit))

    if args.trace and colds:
        cold, resume, out = bench.cycle(index, traced=True)
        if resume is not None and not resume.problems:
            per_layer = tracing.layer_metrics(bench.spans())
            per_layer["pipeline.artifact_bytes"] = sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file()
            ) if bench.spec.kind == "pipeline" else 0
            per_layer["trace.overhead_s"] = cold.wall - metrics["run_s"][0]
            per_layer["trace.resume_overhead_s"] = resume.wall - metrics["resume_s"][0]
            metrics = {k: (v, unit_of(k)) for k, v in sorted(per_layer.items())}
            lines = [f"{k}: {v:.6g} {u}" for k, (v, u) in metrics.items()]
        else:
            metrics = {}
        shutil.rmtree(out, ignore_errors=True)

    env = environment(root, args.seed)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_dir = root / WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "failures": bench.failures,
                    "samples": {"run_s": [op.wall for op in colds],
                                "resume_s": [op.wall for op in resumes], "setup_s": setup},
                    **result}, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(bench.work, ignore_errors=True)

    for line in lines:
        print(line)
    for failure in bench.failures:
        print(f"FAILED {failure}")
    print(f"failed_ratio: {len(bench.failures)}/{bench.attempted}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
