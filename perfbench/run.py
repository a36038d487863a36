"""Benchmark of grrr's public API, end to end and layer by layer.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a source checkout; the program is imported from
``src/``. One run measures set-up over several cold starts, then repeats
whole rounds of the workload's operations (see ``workloads.py``) for
``--seconds``, checks every output against ``checks.py`` and prints one
JSON object as its last line of standard output. ``--trace 1`` alternates
untraced and traced rounds, reports per-layer figures instead of the
end-to-end ones and writes the spans under ``perfbench_out/``. ``--quick``
runs one round of every workload with every check and prints a summary.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
SETUP_STARTS = 5

sys.path.insert(0, str(HERE))
from tracing import NullTracer, Tracer, import_times  # noqa: E402
from workloads import ROUNDS  # noqa: E402

_SETUP_CODE = ("import sys, grrr.cli, workloads; "
               "workloads.ROUNDS[sys.argv[1]](int(sys.argv[2]))")


def child_env() -> dict:
    """Environment of the fresh interpreters: the program from this
    checkout's sources, nothing else on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
    return env


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports grrr.cli and
    builds the workload's inputs. The median also drops the one start of
    a fresh checkout that writes the bytecode caches."""
    cmd = [sys.executable, "-c", _SETUP_CODE, workload, str(seed)]
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL)
        # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would round every start up to the next step.
        killer = threading.Timer(120, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(times)


def import_program():
    if not (SRC / "grrr" / "cli.py").is_file():
        raise SystemExit(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import grrr.cli as cli
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"grrr imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, analysis, tracer):
    """One operation as ``grrr analyze`` does it, once per model: CSV text
    -> parse_dataset -> run_analysis -> emit_report bytes."""
    outputs, restarts = {}, {}
    for model in analysis.models:
        dataset_hash = analysis.sha256
        with tracer.span("cli.parse"):
            tables = cli.parse_dataset(io.StringIO(analysis.csv))
        config = cli.AnalysisConfig(model=model, variance=analysis.variance)
        with tracer.span("cli.run_analysis"):
            report = cli.run_analysis(config, tables, dataset_hash=dataset_hash)
        for fmt in analysis.formats:
            with tracer.span("cli.emit"):
                outputs[model, fmt] = cli.emit_report(report, fmt, model=model)
            tracer.count("cli.report_bytes", len(outputs[model, fmt]))
        restarts[model] = report.fit.restart_thetas
    return outputs, restarts


class Runner:
    """Runs whole rounds, keeps the first outputs of every input and checks
    that every later operation on it returns the same bytes."""

    def __init__(self, cli, round_):
        self.cli = cli
        self.round = round_
        self.ops = []          # dicts: input, traced, ok, error, wall, studies
        self.first = {}        # input name -> (outputs, restart thetas)
        self.problems = []

    def run_round(self, tracer) -> None:
        for analysis in self.round:
            tracer.op = len(self.ops)
            t0 = time.perf_counter()
            try:
                outputs, restarts = run_op(self.cli, analysis, tracer)
                error = None
            except Exception as exc:   # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            tracer.flush()
            self.ops.append({"input": analysis.name, "traced": tracer is not NULL,
                             "ok": error is None, "error": error, "wall": wall,
                             "studies": analysis.n_studies})
            if error is not None:
                if analysis.expect_error is None or not error.startswith(analysis.expect_error + ":"):
                    self.problems.append(f"{analysis.name}: unexpected failure: {error}")
                continue
            if analysis.name not in self.first:
                self.first[analysis.name] = (outputs, restarts)
            elif outputs != self.first[analysis.name][0]:
                self.problems.append(f"{analysis.name}: report bytes differ between operations")

    def check(self) -> int:
        """Independent checks on the first outputs of every input. The
        checks (mpmath, scipy.stats) are imported here, after the timed
        rounds, so that they are not part of ``peak_rss_mb``."""
        import checks
        n = 0
        for analysis in self.round:
            if analysis.name not in self.first:
                continue
            outputs, restarts = self.first[analysis.name]
            try:
                n += checks.check_outputs(analysis, outputs, restarts)
            except checks.CheckError as exc:
                self.problems.append(f"{analysis.name}: {exc}")
        return n

    def end_to_end(self, traced: bool = False) -> dict:
        ops = [o for o in self.ops if o["traced"] == traced]
        ok = [o for o in ops if o["ok"]]
        if not ok:
            self.problems.append("no operation succeeded")
            ok = [{"wall": 0.0, "studies": 0}]
        return {"analysis_s": statistics.median(o["wall"] for o in ok),
                "studies_per_s": sum(o["studies"] for o in ok) / sum(o["wall"] for o in ops)}


NULL = NullTracer()


def timed_run(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(cli, ROUNDS[workload](seed))
    tracer = Tracer() if trace else None
    t_end = time.perf_counter() + seconds
    traced_next = False
    while True:
        if traced_next:
            with tracer.patched():
                runner.run_round(tracer)
        else:
            runner.run_round(NULL)
        if trace:
            traced_next = not traced_next
        if time.perf_counter() >= t_end and not traced_next:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_checks = runner.check()
    attempted = len(runner.ops)
    failed = sum(not o["ok"] for o in runner.ops)
    plain = runner.end_to_end(False)
    if trace:
        traced_ops = [o for o in runner.ops if o["traced"]]
        metrics = {**import_times(child_env()), **tracer.layer_metrics(len(traced_ops))}
        metrics["trace.overhead_s"] = (runner.end_to_end(True)["analysis_s"]
                                       - plain["analysis_s"])
        tracer.write(OUT / f"trace-{workload}-seed{seed}.json",
                     {"workload": workload, "seed": seed, "ops": runner.ops})
    else:
        metrics = {**plain, "peak_rss_mb": peak_rss_mb}
    for p in runner.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{workload}: {attempted} operations, {failed} failed, {n_checks} checks, "
          f"{len(runner.problems)} problems", file=sys.stderr)
    return {"correct": not runner.problems and n_checks > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def quick() -> int:
    """One round of every workload, every check on; the benchmark's smoke
    test."""
    cli = import_program()
    summary = {}
    for workload in ROUNDS:
        runner = Runner(cli, ROUNDS[workload](0))
        runner.run_round(NULL)
        n = runner.check()
        summary[workload] = {"operations": len(runner.ops),
                             "failed": [o["error"] for o in runner.ops if not o["ok"]],
                             "checks": n, "problems": runner.problems}
    print(json.dumps(summary, indent=1))
    ok = all(not s["problems"] and s["checks"] > 0 for s in summary.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "grrr" / "cli.py").is_file():
        raise SystemExit(f"no program sources under {SRC}")
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    cli = import_program()
    result = timed_run(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    if setup_s is not None:
        result["metrics"]["setup_s"] = setup_s
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in sorted(result["metrics"].items())}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
