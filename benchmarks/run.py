"""Training benchmark: each step rule on one workload, timed and checked.

    python3 benchmarks/run.py --workload small-batch --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is found in ``src/`` and need
not be installed. The script writes the workload's CSV from ``--seed``
(deleted again at the end), then starts WORKERS fresh workload processes
(worker.py) one after another, sharing ``--seconds`` between them. Each
one gives a set-up sample (interpreter start to first optimizer step) and
times rounds of one ``run_experiment`` call per step rule; each call is
one operation. Spreading the samples over several processes matters on
this kind of machine: one process can run 10-15% slower than the next for
its whole life.

The first record of each step rule is checked against the benchmark's own
kernel-form computations (check.py), and every other record, from any
process, must equal it. With ``--trace 0`` the last line of stdout is a
JSON object holding the end-to-end metrics (medians over all samples);
with ``--trace 1`` the workers alternate untraced and traced rounds and it
holds the per-layer metrics of layertrace.py plus the tracing overhead,
also written with their sample counts to ``benchmarks/out/``. See README.md.
"""

import os

# one BLAS thread, pinned before numpy loads here or in any child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKERS = 5
WORKER_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_workers(workload: str, csv_path: Path, seconds: float, trace: int) -> list:
    """Start WORKERS processes in turn; each gets an equal share of the time."""
    start = time.monotonic()
    results = []
    for i in range(WORKERS):
        until = start + seconds * (i + 1) / WORKERS
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(csv_path), repr(until), str(trace)],
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError("workload process failed:\n" + proc.stderr)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["setup_s"] = doc["first_step"] - spawned
        results.append(doc)
    return results


def check_runs(workload, csv_path: Path, workers: list):
    """(attempted, failed, correct, error lines) over every operation.

    A diverged run, or one that fails a check, is a failed operation; a
    failed check or a record that differs from the first one of its step
    rule also makes the result incorrect.
    """
    import check

    reference = workers[0]["reference"]
    cfg = workload.config(str(csv_path), "minimax")
    problem = check.Problem(str(csv_path), cfg.train_fraction, cfg.split_seed)
    phi = check.FeatureMap(cfg)
    init_nll = check.start_nll(cfg, problem, phi)
    attempted = failed = 0
    correct, errors = True, []
    for opt, first in reference.items():
        errs = check.check_record(first, problem, phi, init_nll, opt in workload.uphill)
        errors += ["%s: %s" % (opt, e) for e in errs]
        correct = correct and (not errs or first["diverged"])
        want = workers[0]["digests"][opt][0]
        for w in workers:
            digests = w["digests"][opt]
            attempted += len(digests)
            failed += sum(1 for d in digests if errs or d != want)
            if any(d != want for d in digests):
                correct = False
                errors.append("%s: a repeated run's record differs from the first" % opt)
    return attempted, failed, correct, errors


def merge_layers(workers: list, per_layer) -> dict:
    """Per-layer figures over all workers: median of their medians, samples summed."""
    out = {}
    for name, _ in per_layer:
        if name == "stochgp.import_s":
            out[name] = (statistics.median(w["import_s"] for w in workers), len(workers))
        elif name == "trace.overhead_pct":
            traced = sum(w["traced_s"] for w in workers)
            plain = sum(w["plain_s"] for w in workers)
            out[name] = (100.0 * (traced / plain - 1.0), sum(w["traced_rounds"] for w in workers))
        else:
            out[name] = (
                statistics.median(w["layers"][name][0] for w in workers),
                sum(w["layers"][name][1] for w in workers),
            )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stochgp" / "__init__.py").is_file():
        print("error: no stochgp package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, write_inputs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("error: unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    csv_path = OUT / ("%s-seed%d.csv" % (workload.name, args.seed))
    write_inputs(workload, args.seed, str(csv_path))
    workers = run_workers(workload.name, csv_path, args.seconds, args.trace)

    attempted, failed, correct, errors = check_runs(workload, csv_path, workers)
    csv_path.unlink()
    for line in errors:
        print("FAILED %s" % line)

    if not args.trace:
        figures = {"setup_s": (statistics.median(w["setup_s"] for w in workers), len(workers), "s")}
        for opt in workers[0]["times"]:
            times = [t for w in workers for t in w["times"][opt]]
            figures["%s_run_s" % opt] = (statistics.median(times), len(times), "s")
        figures["peak_rss_mb"] = (max(w["rss_mb"] for w in workers), len(workers), "MB")
    else:
        import layertrace

        layers = merge_layers(workers, layertrace.PER_LAYER)
        figures = {name: layers[name] + (unit,) for name, unit in layertrace.PER_LAYER}
        missing = sorted({m for w in workers for m in w["missing"]})
        for name in missing:
            print("not traced: %s is gone from the program" % name)
        report = {
            "workload": workload.name,
            "seed": args.seed,
            "missing_names": missing,
            "metrics": {k: {"value": v, "samples": n, "unit": u} for k, (v, n, u) in figures.items()},
        }
        (OUT / ("trace-%s-seed%d.json" % (workload.name, args.seed))).write_text(
            json.dumps(report, indent=1) + "\n"
        )

    for name, (value, samples, unit) in figures.items():
        print("%-36s %14.6g %-5s  samples %d" % (name, value, unit, samples))
    metrics = {k: {"value": v, "unit": u} for k, (v, _, u) in figures.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
