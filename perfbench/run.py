"""Seeded benchmark of the mbang pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-cell --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn, each in its own process, and
exits non-zero if any of them did.

Each workload is a closed loop driven by one client in one process.  Set-up
turns the seed into a fixed list of cases; the loop then runs them in order,
cycle after cycle, until ``--seconds`` have been spent in ops, at least two
cycles are done and at least 100 ops succeeded (ten samples beyond p90).
Accuracy is scored once per case, over the first cycle, so it does not depend
on how many ops fit in the time.  Every repetition of a case must give the
same output digest as its first run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  This
process then only starts fresh interpreters: SETUP_STARTS of them run
set-up, and the last of these goes on to run the workload.  Each signals its
first op on stdout, and ``setup_s`` is the median time from starting the
interpreter to that signal: imports, models, data and input files.  With
``--trace 1`` untraced and traced passes alternate for ``--seconds``; the last
line carries the per-layer metrics of the traced passes (see layers.py) and
the spans are written to ``.perfbench_out/``.  The lines before the last are a
readable report.  The exit code is 0 for a correct run, 1 when an output check
failed and 2 for bad arguments or a checkout without the mbang sources.
"""

import os

# One client on a 2-core machine: BLAS worker threads would only compete with
# it for the cores, and they make op times swing more from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_STARTS = 3
FIRST_OP = "perfbench: first op\n"
MIN_OK = 100
MIN_CYCLES = 2
HARD_STOP_S = 140.0
# Printed in the report but not in the result line: both read 0 on some
# workloads, and the result line carries only metrics that never do.
REPORT_ONLY = {"graph_exact_rate": "ratio", "failed_ratio": "ratio"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Seeded benchmark of the mbang pipeline.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # "measure" starts the interpreters below; "setup" stops at the first op.
    ap.add_argument("--role", choices=("measure", "setup", "run"), default="measure", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


class Tally:
    """Results of the ops run so far, and the output checks."""

    def __init__(self, cases):
        self.cases = cases
        self.latencies = []  # seconds, successful ops only
        self.busy = 0.0  # seconds spent in ops, failed ones included
        self.attempted = 0
        self.ok = 0
        self.refused = Counter()  # (type, message) -> ops
        self.failed = Counter()
        self.digests = {}  # case index -> digest of its first run
        self.first = {}  # case index -> Outcome of its first run, None if it raised
        self.truths = {}  # case index -> ground truth of its first run, None if unknown
        self.problems = []

    def add(self, i, case, dt, result, exc):
        self.attempted += 1
        self.busy += dt
        outcome = None
        if exc is None:
            try:
                outcome = case.finish(result)
            except Exception as err:  # a failure the program reported, or unreadable output
                exc = err
        if exc is not None:
            kind = getattr(exc, "kind", type(exc).__name__)
            bucket = self.refused if case.refused(exc) else self.failed
            bucket[(kind, f"{case.key}: {exc}")] += 1
            digest = f"raised {kind}"
        else:
            self.ok += 1
            self.latencies.append(dt)
            digest = outcome.digest()
        if i not in self.digests:
            self.digests[i] = digest
            self.first[i] = outcome
            truth = outcome.truth if outcome is not None else getattr(exc, "truth", None)
            self.truths[i] = case.truth if truth is None else truth
            if outcome is not None:
                self.problems += [f"{case.key}: {p}" for p in outcome.problems + self._verify(case, outcome)]
            elif self.truths[i] is None:
                self.problems.append(f"{case.key}: the op failed before its ground truth was known")
        elif self.digests[i] != digest:
            self.problems.append(f"{case.key}: a repetition gave a different output")

    @staticmethod
    def _verify(case, outcome):
        if case.verify is None:
            return []
        try:
            return case.verify(outcome)
        except Exception as err:
            return [f"the output could not be verified: {type(err).__name__}: {err}"]

    def accuracy(self):
        """graph_exact_rate, edge_recovery_rate and the population oracle's
        edge recovery (None when not run), each case counted once; a failed
        case's true edges count as not recovered."""
        exact = correct = total = pop_correct = 0
        population = False
        for i in range(len(self.cases)):
            o, truth = self.first[i], self.truths[i]
            if truth is None:
                continue
            total += len(truth.multi)
            if o is None:
                continue
            exact += o.graph == truth
            correct += len(o.graph.multi & truth.multi)
            if o.population is not None:
                population = True
                pop_correct += len(o.population.multi & truth.multi)
        edge_rate = correct / total if total else 0.0
        pop_rate = pop_correct / total if population and total else None
        return exact / len(self.cases), edge_rate, pop_rate

    def outputs_digest(self):
        """One digest over the first output of every case, in case order, to
        compare the outputs of two commits for the same seed."""
        blob = "\n".join(self.digests[i] for i in range(len(self.cases)))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def drive(cases, tally, seconds, tracer=None, one_pass=False):
    """Run whole cycles over the cases until the stop rule holds."""
    start = time.perf_counter()
    cycles = 0
    while True:
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.op = tally.attempted
                root = tracer.enter("harness.op")
            t = time.perf_counter()
            try:
                result, exc = case.run(), None
            except Exception as err:  # failures are recorded, never abort the run
                result, exc = None, err
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.exit(root)
                tracer.op = None
            tally.add(i, case, dt, result, exc)
        cycles += 1
        if one_pass or time.perf_counter() - start >= HARD_STOP_S:
            return
        if tally.busy >= seconds and cycles >= MIN_CYCLES and tally.ok >= MIN_OK:
            return


def end_to_end(tally):
    """Every end-to-end metric but setup_s, which the measuring process takes."""
    lat = tally.latencies
    exact_rate, edge_rate, _ = tally.accuracy()
    return {
        "ops_per_s": tally.ok / tally.busy if tally.busy else 0.0,
        "op_ms.p50": 1000.0 * statistics.median(lat) if lat else 0.0,
        "op_ms.p90": 1000.0 * statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else 0.0,
        "edge_recovery_rate": edge_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "graph_exact_rate": exact_rate,
        "failed_ratio": (sum(tally.refused.values()) + sum(tally.failed.values())) / tally.attempted,
    }


def report_outcomes(tally, latency=True):
    print(f"  ops: {tally.attempted} attempted, {tally.ok} succeeded, "
          f"{sum(tally.refused.values())} refused (accepted output), {sum(tally.failed.values())} failed")
    if latency and tally.ok < MIN_OK:
        print(f"  warning: only {tally.ok} successful ops, fewer than ten samples beyond p90")
    for title, bucket in (("refused", tally.refused), ("failed", tally.failed)):
        for (kind, message), count in sorted(bucket.items()):
            print(f"  {title} x{count}: {kind}: {message}")
    for problem in tally.problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  outputs digest: {tally.outputs_digest()}")


def result_line(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def plain_run(wl, args, workdir, why, units):
    """One interpreter of ``measure``: set up, signal the first op, then run
    the workload unless it only measures set-up."""
    cases = wl.setup(args.seed, workdir)
    sys.stdout.write(FIRST_OP)
    sys.stdout.flush()
    if args.role == "setup":
        return 0
    tally = Tally(cases)
    drive(cases, tally, args.seconds)
    values = end_to_end(tally)
    print(f"workload {wl.name} seed {args.seed}: {why}")
    print(f"  closed loop, 1 client, {len(cases)} cases, {len(tally.latencies)} latency samples")
    shown = {name: unit for name, unit in units.items() if name != "setup_s"}
    for name, unit in {**shown, **REPORT_ONLY}.items():
        print(f"  {name:<20} {values[name]:>14.6g} {unit}")
    report_outcomes(tally)
    correct = not tally.problems and tally.ok > 0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in shown.items()}
    return result_line(correct, tally.attempted, sum(tally.failed.values()), metrics)


def measure(args):
    """Start SETUP_STARTS fresh interpreters, the last of which runs the
    workload; setup_s is the median time from start to their first op."""
    starts = []
    for role in ["setup"] * (SETUP_STARTS - 1) + ["run"]:
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--role", role]
        t = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            started, lines = None, []
            for line in child.stdout:
                if started is None and line == FIRST_OP:
                    started = time.perf_counter() - t
                else:
                    lines.append(line)
            code = child.wait()
        if started is None or (role == "setup" and code != 0):
            sys.stdout.writelines(lines)
            print(f"perfbench: the {role} interpreter exited with code {code}"
                  + ("" if started else " before its first op"), file=sys.stderr)
            return code or 1
        starts.append(started)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.writelines(lines)
        print(f"perfbench: the run interpreter exited with code {code} without a result", file=sys.stderr)
        return code or 1
    sys.stdout.writelines(lines[:-1])
    setup_s = statistics.median(starts)
    print(f"  {'setup_s':<20} {setup_s:>14.6g} s  (median of {len(starts)} starts: "
          + ", ".join(f"{s:.4f}" for s in starts) + ")")
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    result_line(result["correct"], result["attempted"], result["failed"], metrics)
    return code


def traced_run(wl, args, workdir, why, units):
    import layers
    import tracing

    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    hooks.install()
    try:
        cases = wl.setup(args.seed, workdir)
    finally:
        hooks.remove()
    drive(cases, Tally(cases), 0, one_pass=True)  # warm-up: lazy caches fill untimed
    plain, traced = Tally(cases), Tally(cases)
    start = time.perf_counter()
    while True:
        drive(cases, plain, 0, one_pass=True)
        hooks.install()
        try:
            drive(cases, traced, 0, tracer=tracer, one_pass=True)
        finally:
            hooks.remove()
        if time.perf_counter() - start >= min(args.seconds, HARD_STOP_S):
            break

    untraced_problems = plain.problems + [
        f"{cases[i].key}: tracing changed the output"
        for i in plain.digests
        if plain.digests[i] != traced.digests[i]
    ]
    _, _, pop_rate = traced.accuracy()
    extra = {} if pop_rate is None else {"population_edge_recovery_rate": pop_rate}
    ops = traced.attempted
    metrics, missing = layers.derive(wl.name, tracer.ops, ops, extra, hooks.span_names, units)

    print(f"workload {wl.name} seed {args.seed} (traced): {why}")
    op_ms = 1000.0 * tracer.ops.total_s["harness.op"] / ops
    print(f"  {ops} traced ops, {op_ms:.3f} ms per op; self time per op by layer:")
    for layer, ms in sorted(layers.layer_self_ms(tracer.ops, ops).items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<14} {ms:>10.3f} ms  {100.0 * ms / op_ms:>5.1f}%")
    setup_ms = layers.layer_self_ms(tracer.setup, 1)
    setup_ms = [f"{layer} {ms:.1f} ms" for layer, ms in sorted(setup_ms.items(), key=lambda kv: -kv[1]) if ms]
    print("  set-up self time by layer: " + (", ".join(setup_ms) or "none traced"))
    plain_rate = plain.ok / plain.busy if plain.busy else 0.0
    traced_rate = traced.ok / traced.busy if traced.busy else 0.0
    overhead = plain_rate / traced_rate - 1.0 if traced_rate else float("nan")
    print(f"  tracing overhead: ops_per_s {plain_rate:.4g} untraced vs {traced_rate:.4g} traced "
          f"({100.0 * overhead:+.1f}%)")
    print("  per-layer metrics (per op), with the end-to-end metric each should move:")
    for m in layers.METRICS:
        if m.name in metrics:
            shown = f"{metrics[m.name]['value']:.6g} {units[m.name]}"
        else:
            shown = f"MISSING ({missing[m.name]})"
        print(f"    {m.name:<42} {shown:<28} -> {m.moves}")
    for target in hooks.missing:
        print(f"  hook target missing: {target}")
    report_outcomes(traced, latency=False)
    for problem in untraced_problems:
        print(f"  CHECK FAILED: {problem}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.csv"
    tracer.write_spans(spans_path)
    print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    correct = not untraced_problems and not traced.problems and traced.ok > 0
    failed = sum(plain.failed.values()) + sum(traced.failed.values())
    return result_line(correct, plain.attempted + traced.attempted, failed, metrics)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mbang" / "__init__.py").is_file():
        print(f"perfbench: no mbang sources under {src}; run it from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mbang

    if Path(mbang.__file__).resolve().parent != (src / "mbang").resolve():
        print(f"perfbench: imported mbang from {mbang.__file__}, not from {src}", file=sys.stderr)
        return 2
    import layers
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    mismatch = [
        f"{what}: only in BENCHMARK.json {sorted(want - have)}, only in {where} {sorted(have - want)}"
        for what, where, want, have in (
            ("workloads", "workloads.py", {w["name"] for w in declared["workloads"]}, set(workloads.WORKLOADS)),
            ("per_layer", "layers.py", {m["name"] for m in declared["per_layer"]}, {m.name for m in layers.METRICS}),
        )
        if want != have
    ]
    if mismatch:
        print("perfbench: BENCHMARK.json and the code disagree; " + "; ".join(mismatch), file=sys.stderr)
        return 2

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not args.trace and args.role == "measure":
        return measure(args)
    why = next(w["why"] for w in declared["workloads"] if w["name"] == wl.name)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    workdir = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            return traced_run(wl, args, workdir, why, units)
        return plain_run(wl, args, workdir, why, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
