"""Benchmark of the twistlat command line, run in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of `twistlat` commands on the bundled
inputs.  The benchmark calls `twistlat.cli.main(argv)` with `--json`,
repeats passes over the list until the next pass would end after S
seconds (a pass is never cut), checks every output (see checks.py), and
prints one JSON object as the last line of standard output.

With `--trace 0` that object holds the end-to-end metrics.  With
`--trace 1` the run makes the same untraced passes, then as many passes
again with spans recorded at the module boundaries (see spans.py), and
reports the per-layer metrics and the tracing overhead.

The inputs are the bundled files only; `--seed` is recorded and changes
nothing.  Details of each run go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans as spanlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Fresh imports of the package measured for `setup_s`; the median is reported.
SETUPS = 9

PIN = ("--fixed-builtin", "u-placement")


def _min_genus(name, *extra):
    return ("realize", "min-genus", "--builtin", name, *extra)


def _realize_check(name, genus, *extra):
    return ("realize", "check", "--builtin", name, "--genus", str(genus), *extra)


# workload -> (thread count, [(argv, check)]); a check is called as
# check(facts, exit_code, json_output) and raises checks.CheckFailed.
WORKLOADS = {
    "verify-paper": (1, [
        (("verify-paper",), lambda f, c, o: f.verify_paper(c, o)),
    ]),
    "min-genus": (1, [
        (_min_genus("curves11"), lambda f, c, o: f.min_genus_exact("curves11", c, o)),
        (_min_genus("curves12"), lambda f, c, o: f.min_genus_exact("curves12", c, o)),
    ]),
    "pinned-exhaust": (1, [
        (_realize_check("curves11", 5, *PIN), lambda f, c, o: f.exceeds("curves11", 5, c, o)),
        (_min_genus("curves12", "--budget", "5", *PIN),
         lambda f, c, o: f.exceeds("curves12", 5, c, o)),
        (_realize_check("curves11", 6, *PIN), lambda f, c, o: f.pinned_control("curves11", 6, c, o)),
        (_realize_check("curves12", 6, *PIN), lambda f, c, o: f.pinned_control("curves12", 6, c, o)),
    ]),
    "parallel-t2": (2, [
        (_min_genus("curves11"), lambda f, c, o: f.min_genus_exact("curves11", c, o)),
        (_realize_check("curves11", 5, *PIN), lambda f, c, o: f.exceeds("curves11", 5, c, o)),
    ]),
}


class NodeTap:
    """Records `nodes_explored` of every search the CLI runs.

    It wraps `twistlat.cli.min_genus` and `twistlat.cli.is_realizable` with
    a pass-through that keeps the count from the returned result and times
    nothing, so `nodes` is known for commands whose output does not print
    every search's count (verify-paper runs three searches)."""

    def __init__(self, cli):
        self.nodes: list[int] = []
        for attr in ("min_genus", "is_realizable"):
            setattr(cli, attr, self._tap(getattr(cli, attr)))

    def _tap(self, fn):
        def tapped(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.nodes.append(res.nodes_explored)
            return res

        return tapped


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    worker_cpu_s: float
    nodes: int
    command_wall_s: list[float]
    outputs: list[tuple[int, str]] = field(repr=False)
    failures: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list, repr=False)

    def summary(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "worker_cpu_s": self.worker_cpu_s,
            "nodes": self.nodes,
            "command_wall_s": self.command_wall_s,
            "traced": bool(self.spans),
        }


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Bench:
    def __init__(self, tw, facts, workload: str):
        self.tw = tw
        self.facts = facts
        self.threads, self.commands = WORKLOADS[workload]
        self.tap = NodeTap(tw.cli)
        self.attempted = 0

    def run_pass(self, threads: int, tracer=None, reference=None) -> Pass:
        """One run through the command list, timed, then checked."""
        gc.collect()
        self.tap.nodes.clear()
        if tracer:
            tracer.take()  # drop spans recorded outside a pass
        outputs, walls = [], []
        cpu0, child0 = time.process_time(), _children_cpu()
        for argv, _ in self.commands:
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.tw.cli.main(["--json", *argv, "--threads", str(threads)])
            except Exception:  # a crash is a failed command, not a failed run
                traceback.print_exc()
                code = None
            walls.append(time.perf_counter() - t0)
            outputs.append((code, buf.getvalue()))
        worker_cpu = _children_cpu() - child0
        cpu = time.process_time() - cpu0 + worker_cpu
        p = Pass(
            wall_s=sum(walls),
            cpu_s=cpu,
            worker_cpu_s=worker_cpu,
            nodes=sum(self.tap.nodes),
            command_wall_s=walls,
            outputs=outputs,
            spans=tracer.take() if tracer else [],
        )
        self.attempted += len(self.commands)
        for i, ((argv, check), (code, text)) in enumerate(zip(self.commands, outputs)):
            try:
                out = json.loads(text)
                check(self.facts, code, out)
                if reference is not None:
                    checks.same_as_reference(out, json.loads(reference.outputs[i][1]))
            except Exception as exc:  # a malformed output fails its check too
                p.failures.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
        return p

    def measure(self, seconds: float, count=None, tracer=None, reference=None):
        """Passes until the next would end after `seconds`, or `count` passes."""
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(self.run_pass(self.threads, tracer, reference))
            if count is not None:
                if len(passes) == count:
                    return passes
            elif time.perf_counter() - t0 + passes[-1].wall_s > seconds:
                return passes


def set_up() -> float:
    """Import twistlat afresh and load the bundled patterns and u-placement."""
    for name in [m for m in sys.modules if m == "twistlat" or m.startswith("twistlat.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("twistlat.cli")
    builtin = sys.modules["twistlat.builtin"]
    for name in builtin.builtin_pattern_names():
        builtin.load_pattern(name)
    builtin.load_structure("u-placement")
    return time.perf_counter() - t0


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = SRC / "twistlat"
    for path in sorted(pkg.rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(untraced, setups, peak_rss_mb) -> dict:
    med = statistics.median
    return {
        "wall_s": metric(med(p.wall_s for p in untraced), "s"),
        "cpu_s": metric(med(p.cpu_s for p in untraced), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(med(setups), "s"),
        "nodes": metric(untraced[0].nodes, "count"),
    }


def per_layer(untraced, traced, reference) -> dict:
    """Span metrics from the traced passes; worker CPU, speed-up and the
    tracing overhead from the untraced passes of the same run."""
    med = statistics.median
    per_pass = [spanlib.layer_metrics(p.spans, p.nodes) for p in traced]
    metrics = {
        name: metric((statistics.median_low if unit == "count" else med)(
            m[name] for m in per_pass), unit)
        for name, unit in spanlib.LAYER_UNITS.items()
    }
    untraced_wall = med(p.wall_s for p in untraced)
    metrics["search.worker_cpu_s"] = metric(med(p.worker_cpu_s for p in untraced), "s")
    # 0 on workloads that run no pool: nothing to compare
    speedup = reference.wall_s / untraced_wall if reference else 0.0
    metrics["search.parallel_speedup"] = metric(speedup, "ratio")
    metrics["trace.overhead_s"] = metric(med(p.wall_s for p in traced) - untraced_wall, "s")
    return metrics


def run_workload(args) -> int:
    if not (SRC / "twistlat" / "cli.py").is_file():
        print(f"twistlat sources not found under {SRC}", file=sys.stderr)
        return 2
    # searches started by the CLI would otherwise checkpoint after every branch
    os.environ.pop("TWISTLAT_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))

    setups = [set_up() for _ in range(SETUPS)]
    tw = sys.modules["twistlat"]
    if SRC not in Path(tw.__file__).resolve().parents:
        print(f"twistlat was imported from {tw.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    problems = []
    facts = checks.Facts(tw)
    try:
        facts.check_inputs()
        if args.workload == "verify-paper":
            facts.check_gram()
    except checks.CheckFailed as exc:
        problems.append(str(exc))

    bench = Bench(tw, facts, args.workload)
    reference = None
    if bench.threads > 1:
        # the same commands at one thread: the outputs every pass must equal
        reference = bench.run_pass(1)
    untraced = bench.measure(args.seconds, reference=reference)
    traced = []
    if args.trace:
        tracer = spanlib.Tracer()
        tracer.install(tw)
        try:
            traced = bench.measure(
                args.seconds, count=len(untraced), tracer=tracer, reference=reference
            )
        finally:
            tracer.uninstall()
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_rss_mb = (self_ru.ru_maxrss + child_ru.ru_maxrss) / 1024

    everything = ([reference] if reference else []) + untraced + traced
    for p in everything:
        problems.extend(p.failures)
    node_counts = sorted({p.nodes for p in everything})
    if len(node_counts) != 1:
        problems.append(f"node counts differ between passes: {node_counts}")
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(untraced, traced, reference)
    else:
        metrics = end_to_end(untraced, setups, peak_rss_mb)
    env = environment(args)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "environment": env,
        "setup_s": setups,
        "passes": [p.summary() for p in untraced + traced],
        "reference_threads_1": reference.summary() if reference else None,
        "spans": spanlib.summarize([s for p in traced for s in p.spans]),
        "problems": problems,
        "metrics": metrics,
    }, indent=1) + "\n")
    print(json.dumps({"environment": env, "passes": len(untraced), "details": str(out.relative_to(ROOT))}))
    print(json.dumps({
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": sum(len(p.failures) for p in everything),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print(lines[-2])
        result = json.loads(lines[-1])
        for key in ("attempted", "failed"):
            total[key] += result[key]
        total["correct"] = total["correct"] and result["correct"]
        for metric_name, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric_name}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
