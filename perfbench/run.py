"""Benchmark of the triscar command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout (BENCHMARK.json sets 60 s runs); the commands run `src/triscar` of
that checkout (`python -m triscar.cli ...`), each in a fresh process, one
after another, with nothing else running.  Inputs come from the seed.  Every
command's outputs are checked; a command that exits non-zero, times out or
fails a check counts as failed.

With `--trace 0` a run reports the end-to-end metrics; with `--trace 1` it
alternates untraced pipelines with pipelines run through `traced_cli.py` and
reports the per-layer metrics, the per-command figures of the untraced
pipelines, and the tracing overhead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; a fuller
record (seed, environment, samples, span coverage) goes to
`.perfbench-work/results/`.  `--smoke` runs every workload at tiny sizes and
checks that every metric named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import COMMANDS, LAYERS, PER_LAYER_UNITS, layer_metrics
from workloads import WORKLOADS, Step

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

END_TO_END_UNITS = {"pipeline_s": "s", "first_result_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0       # a run never starts work that could end past this
# one BLAS thread: steady figures on a small shared machine, and the plain
# single-threaded baseline of the solver
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

clock = time.perf_counter


@dataclass
class Outcome:
    """One finished command."""

    command: str
    wall_s: float
    rss_mb: float
    problems: list[str]


@dataclass
class Pipeline:
    wall_s: float
    outcomes: list[Outcome]
    complete: bool
    dumps: list[dict] = field(default_factory=list)
    bytes_written: int = 0
    files_written: int = 0

    @property
    def ok(self) -> bool:
        return self.complete and not any(o.problems for o in self.outcomes)


class Runner:
    def __init__(self, limit_s: float):
        self.limit_at = clock() + limit_s
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **{var: "1" for var in THREAD_VARS})

    def spawn(self, argv: list[str], log: Path) -> tuple[int | None, float, float]:
        """Run one command to its end; returns (exit code or None on timeout,
        wall seconds, peak RSS in MB)."""
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, self.limit_at - clock()))
        fired = threading.Event()
        with open(log, "wb") as out:
            t0 = clock()
            proc = subprocess.Popen(argv, cwd=WORK, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=subprocess.STDOUT,
                                    start_new_session=True)

            def kill():
                fired.set()
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (None if fired.is_set() else proc.returncode), wall, usage.ru_maxrss / 1024.0

    def python(self, args: list[str], log: Path) -> tuple[int | None, float, float]:
        return self.spawn([sys.executable, *args], log)

    def environment(self) -> dict:
        log = WORK / "logs" / "envprobe.log"
        code, _, _ = self.python([str(HERE / "envprobe.py")], log)
        if code != 0:
            raise RuntimeError(f"cannot import triscar from {ROOT / 'src'}:\n{log.read_text()}")
        env = json.loads(log.read_text().splitlines()[-1])
        if Path(env["triscar_path"]) != ROOT / "src" / "triscar":
            raise RuntimeError(f"triscar imported from {env['triscar_path']}, not this checkout")
        return env

    def setup_probe(self) -> float:
        log = WORK / "logs" / "setup.log"
        code, wall, _ = self.python(["-c", "import triscar.cli"], log)
        if code != 0:
            raise RuntimeError(f"importing triscar.cli failed:\n{log.read_text()}")
        return wall

    def pipeline(self, steps: list[Step], traced: bool) -> Pipeline:
        for step in steps:
            shutil.rmtree(step.out, ignore_errors=True)
        spans = [WORK / "spans" / f"{i}-{s.command}.json" for i, s in enumerate(steps)]
        for path in spans:
            path.unlink(missing_ok=True)
        outcomes: list[Outcome] = []
        t0 = clock()
        for step, span_path in zip(steps, spans):
            if traced:
                args = [str(HERE / "traced_cli.py"), str(span_path), *step.args]
            else:
                args = ["-m", "triscar.cli", *step.args]
            code, wall, rss = self.python(args, WORK / "logs" / f"{step.command}.log")
            problem = ([] if code == 0 else
                       ["timed out"] if code is None else [f"exit code {code}"])
            outcomes.append(Outcome(step.command, wall, rss, problem))
            if problem:
                break
        pipe = Pipeline(clock() - t0, outcomes, len(outcomes) == len(steps))
        # checks and trace files are read after the timed region
        for step, outcome, span_path in zip(steps, outcomes, spans):
            if not outcome.problems:
                outcome.problems = step.verify()
            files = [p for p in step.out.rglob("*") if p.is_file()] if step.out.is_dir() else []
            pipe.files_written += len(files)
            pipe.bytes_written += sum(p.stat().st_size for p in files)
            if traced and span_path.is_file():
                pipe.dumps.append(json.loads(span_path.read_text()))
        return pipe


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _command_figures(pipe: Pipeline) -> dict[str, float]:
    """Wall time summed over, and peak RSS maximal over, each command's runs."""
    m = {}
    for command in COMMANDS:
        runs = [o for o in pipe.outcomes if o.command == command]
        m[f"{command}.wall_s"] = sum(o.wall_s for o in runs)
        m[f"{command}.peak_rss_mb"] = max((o.rss_mb for o in runs), default=0.0)
    return m


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    workload = WORKLOADS[name]
    runner = Runner(RUN_LIMIT_S)
    base = WORK / name
    for sub in ("inputs", "runs"):
        (base / sub).mkdir(parents=True, exist_ok=True)
    steps = workload.make(random.Random(seed), smoke, base / "inputs", base / "runs")
    env = runner.environment()

    deadline = clock() + seconds
    setup = [] if trace else [runner.setup_probe() for _ in range(SETUP_PROBES)]
    plain: list[Pipeline] = []
    traced: list[Pipeline] = []
    while True:
        t0 = clock()
        plain.append(runner.pipeline(steps, traced=False))
        if trace:
            traced.append(runner.pipeline(steps, traced=True))
        if clock() + (clock() - t0) > min(deadline, runner.limit_at):
            break

    pipelines = plain + traced
    attempted = sum(len(p.outcomes) for p in pipelines)
    failed = sum(1 for p in pipelines for o in p.outcomes if o.problems)
    problems = sorted({f"{o.command}: {msg}" for p in pipelines for o in p.outcomes
                       for msg in o.problems})
    timed = [p for p in plain if p.ok] or plain
    coverage = {}
    if trace:
        traced_ok = [p for p in traced if p.ok] or traced
        per_pipe = []
        missing: set[str] = set()
        for pipe in traced_ok:
            m, gone = layer_metrics(pipe.dumps)
            m["cli.bytes_written"] = pipe.bytes_written
            m["cli.files_written"] = pipe.files_written
            per_pipe.append(m)
            missing.update(gone)
        per_pipe_cmd = [_command_figures(p) for p in timed]
        values = {k: _median(m[k] for m in per_pipe) for k in per_pipe[0]}
        values.update({k: _median(m[k] for m in per_pipe_cmd) for k in per_pipe_cmd[0]})
        values["tracing.overhead_s"] = (_median(p.wall_s for p in traced_ok)
                                        - _median(p.wall_s for p in timed))
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}
        spans = {layer: values[f"{layer}.spans"] for layer in LAYERS}
        coverage = {
            "spans": spans,
            "flagged": [layer for layer in workload.layers if not spans[layer]],
            "missing_functions": sorted(missing),
            "observer_errors": sorted({e for p in traced_ok for d in p.dumps
                                       for e in d["observer_errors"]}),
        }
    else:
        values = {
            # means, i.e. measured time over pipelines done: on a shared host
            # the speed drifts over tens of seconds, and on coulomb3d the mean
            # of a run's few long pipelines spreads less across runs than
            # their median
            "pipeline_s": statistics.fmean(p.wall_s for p in timed),
            "first_result_s": statistics.fmean(p.outcomes[0].wall_s for p in timed),
            "setup_s": _median(setup),
            "peak_rss_mb": _median(max(o.rss_mb for o in p.outcomes) for p in timed),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "environment": env,
        "samples": {"pipelines": len(plain), "traced_pipelines": len(traced),
                    "setup_probes": len(setup),
                    "pipeline_s": [p.wall_s for p in plain],
                    "traced_pipeline_s": [p.wall_s for p in traced],
                    "first_result_s": [p.outcomes[0].wall_s for p in plain],
                    "setup_s": setup},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems,
        "coverage": coverage, "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = path
    return record


def print_record(rec: dict) -> None:
    name = rec["workload"]
    samples = rec["samples"]
    print(f"{name}: seed {rec['seed']}, trace {rec['trace']}, {samples['pipelines']} pipelines"
          f" (+{samples['traced_pipelines']} traced), {samples['setup_probes']} setup probes;"
          f" pipeline_s and first_result_s are means, the rest medians, over those counts")
    print(f"{name}: environment {json.dumps(rec['environment'], sort_keys=True)}")
    for metric, entry in rec["metrics"].items():
        print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"{name}: failed_frac = {rec['failed_frac']:.6g} ratio"
          f" ({rec['failed']} of {rec['attempted']} commands)")
    for problem in rec["problems"]:
        print(f"{name}: FAILED {problem}")
    cov = rec["coverage"]
    if cov:
        print(f"{name}: span coverage " + ", ".join(f"{k} {v:g}" for k, v in cov["spans"].items()))
        for layer in cov["flagged"]:
            print(f"{name}: FLAGGED layer {layer} is expected on {name} but recorded 0 spans")
        for fn in cov["missing_functions"]:
            print(f"{name}: FLAGGED traced function {fn} no longer exists; its metric reads 0")
        for err in cov["observer_errors"]:
            print(f"{name}: FLAGGED observer error {err}")
    print(f"{name}: record {rec['path'].relative_to(ROOT)}")


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's own")
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rec = run_workload(name, seed=1, seconds=1, trace=trace, smoke=True)
            print_record(rec)
            for want in spec[key]:
                got = rec["metrics"].get(want["name"])
                if got is None or got["unit"] != want["unit"]:
                    problems.append(f"{name} trace {trace}: {want['name']} [{want['unit']}] "
                                    f"printed as {got}")
            problems += [f"{name} trace {trace}: {p}" for p in rec["problems"]]
            if rec["coverage"] and (rec["coverage"]["flagged"]
                                    or rec["coverage"]["missing_functions"]):
                problems.append(f"{name}: span coverage flagged {rec['coverage']}")
    for problem in problems:
        print(f"smoke: FAILED {problem}")
    print("smoke: OK" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; check every BENCHMARK.json metric is printed")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "triscar" / "cli.py").is_file():
        print(f"error: no triscar sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for sub in ("logs", "spans"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print_record(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
