"""Run one workload of the outflow benchmark and print its metrics.

    python3 perfbench/run.py --workload relax_sym --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout that holds `src/outflow`; the program is
imported from there.  With `--trace 0` the workload repeats whole rounds
(set-up, run, checks) for about `--seconds` seconds, at least three, and
reports the end-to-end metrics `setup_s`, `run_s` and `peak_rss_mb`.  Times
are the least disturbed sample: the fastest import of the program in a fresh
interpreter, the fastest set-up, and for each stage of the run its fastest
round (see README.md for why).  With `--trace 1` it plays one untraced and
one traced round and reports the per-layer metrics of the traced one; the
spans are written to `.perfbench_out/`.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("relax_sym", "relax_axi", "cli_pipeline")
MIN_ROUNDS = 3
IMPORT_PROBES = 5  # fresh interpreters timing the import of the program

_PROBE = ("import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
          "t = time.perf_counter(); [importlib.import_module(m) for m in sys.argv[2:]]; "
          "print(time.perf_counter() - t)")


def _probe_import(modules) -> float:
    out = subprocess.run([sys.executable, "-c", _PROBE, SRC, *modules],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _measure(workload, seconds: float, play, modules) -> tuple[list, list]:
    """Whole rounds for about `seconds`, at least MIN_ROUNDS, and import probes.

    The probes are spread between the rounds so that they sample the
    machine over the whole run rather than in one burst.
    """
    rounds, import_s = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(play(workload))
        took = time.perf_counter() - t0
        r = rounds[-1]
        print(f"# round {len(rounds)}: setup {r.setup_s:.4f} s, run {r.run_s:.4f} s",
              flush=True)
        if len(import_s) < IMPORT_PROBES:
            import_s.append(_probe_import(modules))
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + took > seconds:
            break
    while len(import_s) < IMPORT_PROBES:
        import_s.append(_probe_import(modules))
    return rounds, import_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "outflow", "__init__.py")):
        print(f"error: no program source at {SRC}/outflow; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import workloads  # imports numpy, so only once the program is there

    cls = workloads.WORKLOADS[args.workload]
    for name in cls.modules:
        importlib.import_module(name)
    workdir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = cls(workloads.Inputs.draw(args.seed), workdir)
    print(f"# {args.workload} seed {args.seed}: {wl.inputs}", flush=True)

    if args.trace:
        import tracer as tracing

        importlib.import_module("outflow.cli")  # every module the tracer patches
        base = workloads.play(wl)
        tracer = tracing.Tracer()
        traced = workloads.play(wl, tracer)
        rounds = [base, traced]
        metrics, absent = tracing.layer_metrics(tracer, {
            "cli.bytes_written": traced.bytes_written,
            "trace.overhead_s": traced.run_s - base.run_s,
        })
        tracer.write(os.path.join(workdir, "trace.json"))
        if absent:
            print(f"# absent layers: {', '.join(absent)}")
    else:
        rounds, import_s = _measure(wl, args.seconds, workloads.play, cls.modules)
        done = [r for r in rounds if r.stages]
        if not done:
            print("error: no round of the workload completed", file=sys.stderr)
            return 1
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": min(import_s) + min(r.setup_s for r in done), "unit": "s"},
            "run_s": {"value": sum(min(r.stages[k] for r in done) for k in done[0].stages),
                      "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
        print(f"# import samples (s): {', '.join(f'{t:.4f}' for t in import_s)}")

    ops = [op for r in rounds for op in r.ops]
    for name, status, detail in ops:
        if status != "ok":
            print(f"# {status.upper()} {name}: {detail}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(status != "wrong" for _, status, _ in ops),
        "attempted": len(ops),
        "failed": sum(status != "ok" for _, status, _ in ops),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
