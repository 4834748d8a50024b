"""The tracking service's benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload http-sharded --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``http-sharded`` — ``repro gateway --shards 2 --shard-workers process``
  driven over one keep-alive HTTP connection (:mod:`http_sharded`).
* ``cluster-lockstep`` — sites in a ``repro site`` subprocess, the
  coordinator hub as ``Cluster(transport="tcp", site_addresses=...)`` in
  this process (:mod:`cluster`).
* ``cluster-windowed`` — the same with ``relaxed=True, window=64``.

Every workload is a closed loop from one process: the next call is sent
only after the previous reply.  Inputs derive from ``--seed`` alone.  The
program is imported from the checkout's ``src`` directory; every answer
is checked (see each workload module) and each wrong answer or failed
call counts in ``failed``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
of five set-ups per run; rates and per-call latencies over repeats of
identical work take the lower quartile of the repeats
(:func:`common.calm`), because a shared host only ever slows a repeat.
Measurement stops at the first repeat boundary past ``--seconds`` of
wall time, so a run lasts its set-up plus about ``--seconds``.

``--trace 1`` spends half of ``--seconds`` untraced and half with layer
wrappers installed (:mod:`layers`), and prints the per-layer metrics,
the ledger's ``unattributed_share`` and ``trace_overhead_pct`` (traced
vs untraced ``events_per_s``).

Human-readable lines (provenance, every metric with its unit, checks,
teardown) go first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("http-sharded", "cluster-lockstep", "cluster-windowed")


def declared_metrics():
    """``(end_to_end, per_layer)`` name -> unit maps from BENCHMARK.json,
    the one list of metric names this program must print."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple(
        {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


def _versions():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _typical_pct(by_kind, q):
    """The ``q``-th latency percentile of a typical call.

    ``by_kind`` maps each kind of call (a family, or one query of a
    round) to its latencies, one list per repeat of identical work.  Per
    kind, each call position keeps its calm latency over the repeats
    (:func:`common.calm_positions`) and the percentile is taken over
    those, by the median-unbiased estimator (Hyndman and Fan's type 8),
    which on the 8 to 30 positions of a kind moves less with the inputs
    than linear interpolation; the result is the geometric mean over
    kinds.  Kinds differ in
    cost by up to 20x: a percentile of pooled calls would sit on the
    boundary between two kinds and jump with it, and an arithmetic mean
    would follow the costliest kind alone.
    """
    from common import calm_positions, pct

    values = [
        pct(calm_positions(repeats), q, "median_unbiased")
        for repeats in by_kind.values() if any(repeats)
    ]
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(result):
    return {
        "events_per_s": result["events_per_s"],
        "ingest_p50_ms": _typical_pct(result["ingest_ms"], 50),
        "ingest_p90_ms": _typical_pct(result["ingest_ms"], 90),
        "query_p50_ms": _typical_pct(result["query_ms"], 50),
        "query_p90_ms": _typical_pct(result["query_ms"], 90),
        "msgs_per_kevent": result["msgs_per_kevent"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(base, traced, declared):
    """Every declared per-layer metric; a layer this workload bypasses
    (no calls into it) reads 0."""
    computed = dict(traced["layers"])
    ledger = computed.pop("ledger")
    sim_rates = computed.pop("simulation_rates")
    family_rates = computed.pop("family_rates", {})
    out = {name: 0.0 for name in declared}
    out.update(computed)
    per_layer_s, unattributed, wall = ledger
    for layer, seconds in per_layer_s.items():
        out[f"share.{layer}"] = seconds / wall if wall else 0.0
    out["unattributed_share"] = unattributed / wall if wall else 0.0
    for family, rate in sim_rates.items():
        out[f"simulation.events_per_s.{family}"] = rate
        if family in family_rates:
            out[f"cluster.frac_of_sim.{family}"] = family_rates[family] / rate
    for family, value in traced["family_msgs_per_kevent"].items():
        out[f"site.msgs_per_kevent.{family}"] = value
    for family, value in traced["err_over_eps_n"].items():
        out[f"err_over_eps_n.{family}"] = value
    base_rate = base["events_per_s"]
    out["trace_overhead_pct"] = (
        100.0 * (base_rate - traced["events_per_s"]) / base_rate
        if base_rate else 0.0
    )
    out["teardown.tracebacks"] = float(
        base["teardown"].tracebacks + traced["teardown"].tracebacks
    )
    out["teardown.nonzero_exits"] = float(
        base["teardown"].nonzero_exits + traced["teardown"].nonzero_exits
    )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    from common import WORK

    if args.workload == "http-sharded":
        import http_sharded as workload

        config = dict(workload.CONFIG)
        measure = workload.measure
    else:
        import cluster as workload

        windowed = args.workload == "cluster-windowed"
        config = workload.config(windowed)

        def measure(seed, seconds, traced, setups):
            return workload.measure(windowed, seed, seconds, traced, setups)

    end_to_end_units, layer_units = declared_metrics()
    try:
        if args.trace:
            half = args.seconds / 2
            phases = [
                measure(args.seed, half, False, 1),
                measure(args.seed, half, True, 1),
            ]
            metrics = per_layer(*phases, layer_units)
            units = layer_units
        else:
            phases = [measure(args.seed, args.seconds, False, 5)]
            metrics = end_to_end(phases[0])
            units = end_to_end_units
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass  # another run still uses it

    if set(metrics) != set(units):
        raise KeyError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    problems = [msg for p in phases for msg in p["problems"]]
    provenance = dict(
        _versions(), workload=args.workload, seed=args.seed,
        seconds=args.seconds, trace=args.trace, config=config,
    )
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for p in phases:
        samples = {
            kind: sum(len(ms) for repeats in p[kind].values() for ms in repeats)
            for kind in ("ingest_ms", "query_ms")
        }
        print(
            f"phase: {p['events']} events, {p['attempted']} calls "
            f"({samples['ingest_ms']} ingest and {samples['query_ms']} query "
            "latency samples), "
            f"{p['failed']} failed, teardown exits {p['teardown'].exits}, "
            f"{p['teardown'].tracebacks} stderr tracebacks"
        )
        errs = ", ".join(
            f"{family}={value:.3f}"
            for family, value in sorted(p["err_over_eps_n"].items())
        )
        print(f"err_over_eps_n (reported, not gated): {errs}")
    for msg in problems[:20]:
        print(f"CHECK FAILED: {msg}")
    print(f"ops_failed_frac {failed / max(attempted, 1):.6g} fraction")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
