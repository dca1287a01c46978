"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload algo1_resnet20_t5 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones from a separate traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it starts with
``info`` and carries provenance, digests of the outputs and the raw
timings. ``--smoke`` shrinks every problem size for tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workloads that run their GEMMs on one BLAS thread. On a 2-vCPU shared
# host the default 2-thread OpenBLAS pool spin-waits on the core that the
# replica, the dispatcher or another tenant needs, and contention then
# swings pass times and serving latency by up to 2x. The sweep keeps the
# environment's setting: its two workers oversubscribing BLAS is what it
# measures.
ONE_BLAS_THREAD = ("algo1_resnet20_t5", "serve_open_t5")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return parser.parse_args(argv)


def metric_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload in ONE_BLAS_THREAD:
        # Read by OpenBLAS when it loads, that is when numpy is imported.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"

    import layers
    import workloads
    from provenance import provenance

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    if args.trace:
        outcome = layers.run_traced(args.workload, args.seed, args.seconds, sizes)
    else:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, sizes)
        outcome.metrics["peak_rss_mb"] = workloads.peak_rss_mb()

    units = metric_units(bool(args.trace))
    if set(outcome.metrics) != set(units):
        print(f"perfbench: measured {sorted(outcome.metrics)} but BENCHMARK.json "
              f"declares {sorted(units)}", file=sys.stderr)
        return 3
    if not all(math.isfinite(v) for v in outcome.metrics.values()):
        print(f"perfbench: non-finite metric in {outcome.metrics}", file=sys.stderr)
        return 3
    if outcome.info.get("generator_bound"):
        # The load generator, not the server, set the latencies.
        print("perfbench: dispatcher lag over the bound; latencies not reported",
              file=sys.stderr)
        return 4
    info = {"workload": args.workload, "seed": args.seed, "provenance": provenance(ROOT)}
    print("info " + json.dumps({**info, **outcome.info}, default=float))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
