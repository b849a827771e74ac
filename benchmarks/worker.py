"""One workload process of the benchmark; run.py starts several in turn.

    python3 benchmarks/worker.py <workload> <csv path> <until> <trace 0|1>

A fresh interpreter imports stochgp first, so the import pays for numpy and
scipy, and times it (``import_s``). Its first operation is a ``minimax``
run whose first optimizer step is stamped with ``time.monotonic()``
(``first_step``, comparable with the parent's clock on Linux); the stamp
hook then puts the real step back, so the run goes on unwrapped. The
worker then repeats rounds of one ``run_experiment`` call per step rule,
timing each, until ``time.monotonic()`` passes ``until``; with trace 1,
every other round runs under the layer tracer. It prints one JSON line:
the timings, a digest of every record, the first record of each step rule
in full, its peak resident memory, and the per-layer summary when traced.
"""

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

_t0 = time.perf_counter()
import stochgp  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import stochgp.harness  # noqa: E402
import stochgp.optim  # noqa: E402

sys.path.insert(0, HERE)
from workloads import OPTIMIZERS, WORKLOADS  # noqa: E402

STEP_NAMES = ("minimax_step", "scgd_step", "bsgd_step")


def stamp_first_step() -> dict:
    """Wrap every step rule at the names the harness and optim look up.

    The first call through any of them stores the time in the returned
    dict and restores every original before stepping.
    """
    stamp = {}
    originals = [
        (module, name, getattr(module, name))
        for module in (stochgp.harness, stochgp.optim)
        for name in STEP_NAMES
        if hasattr(module, name)
    ]

    def restore():
        for module, name, fn in originals:
            setattr(module, name, fn)

    for module, name, fn in originals:

        def first(*args, _fn=fn, **kwargs):
            stamp.setdefault("first_step", time.monotonic())
            restore()
            return _fn(*args, **kwargs)

        setattr(module, name, first)
    return stamp


def record_digest(doc: dict) -> str:
    """Digest of a record without its wall-clock column."""
    doc = dict(doc, epochs=[{k: v for k, v in e.items() if k != "wall_ms"} for e in doc["epochs"]])
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def main(workload: str, csv_path: str, until: float, trace: bool) -> None:
    configs = {opt: WORKLOADS[workload].config(csv_path, opt) for opt in OPTIMIZERS}
    run = stochgp.harness.run_experiment
    out = {
        "import_s": IMPORT_S,
        "times": {opt: [] for opt in OPTIMIZERS},
        "digests": {opt: [] for opt in OPTIMIZERS},
        "reference": {},
        "plain_s": 0.0,
        "traced_s": 0.0,
        "traced_rounds": 0,
    }

    def op(opt, timed):
        t0 = time.perf_counter()
        doc = run(configs[opt]).to_json_dict()
        dt = time.perf_counter() - t0
        out["digests"][opt].append(record_digest(doc))
        out["reference"].setdefault(opt, doc)
        if timed:
            out["times"][opt].append(dt)
        return dt

    stamp = stamp_first_step()
    op("minimax", timed=False)
    if "first_step" not in stamp:
        sys.exit("a minimax run ended without calling a step rule")
    out["first_step"] = stamp["first_step"]

    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
    while True:
        plain = sum(op(opt, timed=True) for opt in OPTIMIZERS)
        if tracer is not None:
            out["plain_s"] += plain
            tracer.install()
            try:
                out["traced_s"] += sum(op(opt, timed=False) for opt in OPTIMIZERS)
            finally:
                tracer.uninstall()
            out["traced_rounds"] += 1
        if time.monotonic() >= until:
            break
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        import layertrace

        out["layers"] = layertrace.summarize(tracer.spans, out["traced_rounds"])
        out["missing"] = tracer.missing
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1")
