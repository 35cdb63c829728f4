"""One traced pass over every case of the benchmark's four workloads at seed 1.

Run as a script, from any directory:

    python tests/seed1_pass.py

It prints one JSON object mapping each workload to its outputs digest (the
digest ``perfbench/run.py`` reports), to the per-layer metrics that
``perfbench/layers.py`` would report as missing, and to the value of every
per-layer metric counted in ``count`` or ``bytes``.  Those values and the
digests do not depend on timing, so the output of two trees can be diffed to
compare their work.  The tests run it in a fresh interpreter with BLAS pinned
to one thread, as ``run.py`` does, so that the digests do not depend on the
thread count.
"""

import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1


def main() -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import layers
    import run
    import tracing
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        tracer = tracing.Tracer()
        hooks = tracing.Hooks(tracer)
        with tempfile.TemporaryDirectory() as workdir:
            cases = wl.setup(SEED, pathlib.Path(workdir))
            tally = run.Tally(cases)
            hooks.install()
            try:
                run.drive(cases, tally, 0, tracer=tracer, one_pass=True)
            finally:
                hooks.remove()
        metrics, missing = layers.derive(name, tracer.ops, tally.attempted, {}, hooks.span_names, units)
        out[name] = {
            "digest": tally.outputs_digest(),
            "missing": missing,
            "problems": tally.problems,
            "work": {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "bytes")},
        }
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
