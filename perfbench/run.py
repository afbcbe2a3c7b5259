"""gridsplit benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Set-up (fresh import of the package, input generation, warm-up) is
repeated a few times and timed. Then the workload's rounds run back to back
until the next one would overrun ``--seconds``. Every operation's output is
checked; failures are counted against the operations attempted.

With ``--trace 0`` the last stdout line carries the end-to-end metrics listed
in BENCHMARK.json. With ``--trace 1`` untraced and traced rounds alternate:
the traced ones record spans around each layer boundary and give the
per-layer metrics, and the difference between the two kinds of round gives
the tracing overhead. Spans and a result record are written to
``perfbench/out/``.
"""

import os

# Pinned before numpy loads: pivot counts repeat exactly only with one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 5
FRESH_MODULES = ("gridsplit", "feeders", "workloads")


def blas_info() -> dict:
    """numpy and OpenBLAS versions plus the thread count OpenBLAS reports."""
    info = {"numpy": numpy.__version__, "blas_threads_env":
            os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    bundled = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(bundled.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def fresh_workload(name: str, seed: int, tmp: Path):
    """Import the package anew, generate the inputs and warm up, timed."""
    for mod in list(sys.modules):
        if mod.split(".", 1)[0] in FRESH_MODULES:
            del sys.modules[mod]
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    w = workloads.WORKLOADS[name](seed, tmp)
    w.warm_up()
    return w, time.perf_counter() - t0


def pick(spec: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gridsplit" / "__init__.py").is_file():
        print(f"error: no gridsplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"--workload must be one of "
                 f"{[w['name'] for w in spec['workloads']]}")

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        return measure(args, spec, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, spec: dict, tmp: Path) -> int:
    setup = []
    for _ in range(SETUP_REPS):
        w, dt = fresh_workload(args.workload, args.seed, tmp)
        setup.append(dt)

    tracer = None
    if args.trace:
        from tracer import Tracer, per_layer
        tracer = Tracer()

    rounds, traced = [], []
    start = time.perf_counter()
    while True:
        # Plain rounds run with no wrapper in place, so the overhead covers
        # the wrappers as well as the spans they record.
        on = tracer is not None and len(rounds) % 2 == 1
        if on:
            tracer.install()
            w.tracer = tracer
        t0 = time.perf_counter()
        try:
            r = w.round()
        finally:
            if on:
                w.tracer = None
                tracer.uninstall()
        last = time.perf_counter() - t0
        rounds.append(r)
        traced.append(on)
        need_traced = tracer is not None and not any(traced)
        if not need_traced and time.perf_counter() - start + last > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = w.finish()

    plain = [r for r, on in zip(rounds, traced) if not on]
    hot = [r for r, on in zip(rounds, traced) if on]
    attempted = sum(r.attempted for r in rounds) + extra.attempted
    failed = sum(r.failed for r in rounds) + extra.failed
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": len(rounds),
            "op_samples": sum(len(r.op_s) for r in plain),
            "core_samples": sum(len(r.core_s) for r in plain),
            "attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted, "setup_samples_s": setup,
            **w.figures(plain), **blas_info()}

    if tracer is None:
        values = {
            "op_s_p50": statistics.median(x for r in plain for x in r.op_s),
            "core_s_p50": statistics.median(x for r in plain for x in r.core_s),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = pick(spec["end_to_end"], values)
    else:
        base = statistics.median(sum(r.op_s) for r in plain)
        with_spans = statistics.median(sum(r.op_s) for r in hot)
        values = per_layer(tracer.spans, sum(r.attempted for r in hot),
                           with_spans / base - 1.0)
        values.update(w.layer_figures(rounds))
        metrics = pick(spec["per_layer"], values)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "info": info}, indent=2) + "\n")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
