"""Workloads ``cluster-lockstep`` and ``cluster-windowed``: the TCP cluster.

The sites of every run live in one ``repro site`` subprocess; the
coordinator hub is ``Cluster(transport="tcp", site_addresses=[...])`` in
this process, since ``Cluster`` is the public entry.  k = 8.  The four
families run back to back, each on its own ``family_events``-event stream
in a fresh ``Cluster``, with a ``Cluster.query`` after every ``ingest``
call.  One such round takes about 3 s (windowed) to 8 s (lockstep) on a
2-vCPU x86-64 VM, so a 40 s run repeats every family's segment about 14
(windowed) or 5 (lockstep) times on identical inputs.

The traffic shape comes from the program's own load sources: ingest
batches of 2048 events and Zipf(1.2) items over 600 values are the
defaults of ``examples/load_gen.py``; k = 8 and eps = 0.02 are those of
``benchmarks/bench_net.py``.  Site ids come from
``repro.workloads.bursty_sites`` with bursts of 16 events, so one ingest
carries about 112 site runs: more than the 64-run credit window, which
``cluster-windowed`` must therefore actually use.

* Lockstep: every protocol message is an acked RPC across two thread hops
  and a TCP hop, so per-message cost dominates; HTTP, the exec plane and
  the merge plane are bypassed.  Answers after every ingest and the
  message ledger must equal ``Simulation``'s on the same seed.
* Windowed (``relaxed=True, window=64``): coalesced super-runs, credit
  windows and streamed uplinks (deterministic count) move the cost into
  frame packing and the vectorized ``Site.on_elements``.  Deterministic
  count must still equal ``Simulation``; randomized answers are reported
  as ``err_over_eps_n`` against the exact answer and do not pass or fail
  a run (the paper promises eps*n only with constant probability).
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import (
    RANDOMIZED,
    WORK,
    Launched,
    Teardown,
    calm,
    family_of,
    make_stream,
    median,
    read_hwm_kb,
    scheme_of,
    simulate,
    truth_error,
)

FAMILIES = [
    ("count/deterministic", None, ()),
    ("count/randomized", None, ()),
    ("frequency/randomized", "heavy_hitters", (0.02,)),
    ("rank/randomized", "quantile", (0.5,)),
]


def config(windowed):
    return {
        "k": 8,
        "eps": 0.02,
        "family_events": 16_384,
        "batch": 2048,
        "burst": 16,
        "zipf_a": 1.2,
        "universe": 600,
        "relaxed": windowed,
        "window": 64 if windowed else None,
        "families": [
            f"{spec} then {method or 'estimate'}{list(args)}"
            for spec, method, args in FAMILIES
        ],
    }


def make_inputs(cfg, seed):
    """The run's segments, one per family:
    ``(family index, batches, protocol seed, items)``."""
    rng = np.random.default_rng([seed, 2])
    n = cfg["family_events"]
    b = cfg["batch"]
    segments = []
    for j in range(len(FAMILIES)):
        stream_seed, protocol_seed = (int(x) for x in rng.integers(1, 2**31, 2))
        site_ids, items = make_stream(
            n, cfg["k"], cfg["burst"], cfg["zipf_a"], cfg["universe"],
            stream_seed,
        )
        batches = [
            (site_ids[i:i + b].tolist(), items[i:i + b].tolist())
            for i in range(0, n, b)
        ]
        segments.append((j, batches, protocol_seed, items))
    return segments


def reference(cfg, segments):
    """Per segment: ``Simulation`` answers after every batch, its message
    ledger, and its seconds."""
    out = []
    for j, batches, seed, _ in segments:
        spec, method, args = FAMILIES[j]
        out.append(simulate(
            spec, cfg["eps"], cfg["k"], seed, batches, method, args,
            range(len(batches)),
        ))
    return out


def _open_cluster(cfg, spec, seed, address):
    from repro.net import Cluster

    return Cluster(
        scheme_of(spec, cfg["eps"]), cfg["k"], seed=seed, transport="tcp",
        site_addresses=[address], record_transcript=False,
        relaxed=cfg["relaxed"], window=cfg["window"],
    )


def _start_sites(cfg, trace, teardown):
    """Launch a site host; return it, its address and the seconds from
    launch to the first ingest a cluster placed on it accepted."""
    launched = Launched(
        ["site", "--listen", "127.0.0.1:0"],
        spans_dir=None if trace is None else trace.dir, tag="site",
    )
    try:
        address = launched.address_line("site host listening on").split()[-1]
        probe = _open_cluster(cfg, "count/deterministic", 1, address)
        try:
            probe.ingest([0], [1])
            seconds = time.perf_counter() - launched.started
        finally:
            probe.close()
    except BaseException:
        teardown.stop(launched)
        raise
    return launched, address, seconds


def _run_segment(cfg, segment, want, address, exact, out):
    """One segment in a fresh ``Cluster``; appends latencies, the
    segment's window and transport/dispatch counters to ``out`` and
    returns ``(answers, comm snapshot)``."""
    j, batches, fam_seed, _ = segment
    spec, method, args = FAMILIES[j]
    answers_want, comm_want, _ = want
    family = family_of(spec)
    cluster = _open_cluster(cfg, spec, fam_seed, address)
    answers = []
    ingest_ms, query_ms = [], []
    out["ingest_ms"][family].append(ingest_ms)
    out["query_ms"][family].append(query_ms)
    try:
        t_start = time.perf_counter()
        for i, (site_ids, items) in enumerate(batches):
            out["attempted"] += 2
            t0 = time.perf_counter()
            cluster.ingest(site_ids, items)
            t1 = time.perf_counter()
            got = cluster.query(method, *args)
            t2 = time.perf_counter()
            ingest_ms.append((t1 - t0) * 1e3)
            query_ms.append((t2 - t1) * 1e3)
            answers.append(got)
            if exact and got != answers_want[i]:
                out["problems"].append(
                    f"{family} batch {i}: {got!r} != {answers_want[i]!r}"
                )
        t_end = time.perf_counter()
        comm = cluster.comm.snapshot()
        if exact and comm != comm_want:
            out["problems"].append(
                f"{family} ledger {comm} != simulation {comm_want}"
            )
        wire = cluster.wire_stats
        stats = cluster.dispatch_stats()
    finally:
        cluster.close()
    out["windows"].append((t_start, t_end))
    out["family_windows"][family].append((t_start, t_end))
    totals = out["totals"]
    totals["frames"] += wire["frames_sent"] + wire["frames_received"]
    totals["bytes"] += wire["bytes_sent"] + wire["bytes_received"]
    totals["frames_posted"] += stats["frames_posted"]
    totals["runs_posted"] += stats["runs_posted"]
    totals["window_stalls"] += stats["window_stalls"]
    totals["inflight_peak"] = max(
        totals["inflight_peak"], stats["max_inflight_runs"]
    )
    return answers, comm


def measure(windowed, seed, seconds, traced, setups):
    """One measurement phase; see ``run.py`` for the result fields.

    The segments take turns, each in a fresh ``Cluster``, until every
    segment ran once and ``seconds`` of wall time passed.  A segment's
    repeats see identical inputs, so ``events_per_s`` sums the calm
    (lower-quartile) duration of each segment's repeats (ingest and query
    calls only), and messages take the median count."""
    cfg = config(windowed)
    n = cfg["family_events"]
    segments = make_inputs(cfg, seed)
    expected = reference(cfg, segments)
    teardown = Teardown()
    trace = patches = None
    if traced:
        import layers

        trace = layers.Trace(WORK)

    setup_times = []
    for i in range(setups):
        launched, address, took = _start_sites(cfg, trace, teardown)
        setup_times.append(took)
        if i < setups - 1:
            teardown.stop(launched)

    if traced:
        patches = layers.Patches(trace.recorder)
        layers.install_hub(patches)

    families = [family_of(spec) for spec, _, _ in FAMILIES]
    out = {
        "attempted": 0, "problems": [],
        "ingest_ms": {f: [] for f in families},
        "query_ms": {f: [] for f in families},
        "windows": [], "family_windows": {f: [] for f in families},
        "totals": {"frames": 0, "bytes": 0, "frames_posted": 0,
                   "runs_posted": 0, "window_stalls": 0, "inflight_peak": 0},
    }
    seg_seconds = [[] for _ in segments]
    messages = [[] for _ in segments]
    errors = {family: [] for family in RANDOMIZED}
    peak_kb = 0
    # The hub runs in this process, next to the inputs and reference
    # answers made above: only its growth past this point is counted.
    base_kb = read_hwm_kb(os.getpid())
    try:
        deadline = time.perf_counter() + seconds
        turn = 0
        while time.perf_counter() < deadline or turn < len(segments):
            s = turn % len(segments)
            family = families[segments[s][0]]
            exact = not windowed or family not in RANDOMIZED
            out["attempted"] += 1
            answers, comm = _run_segment(
                cfg, segments[s], expected[s], address, exact, out,
            )
            start, end = out["windows"][-1]
            seg_seconds[s].append(end - start)
            messages[s].append(comm["total_messages"])
            if family in RANDOMIZED:
                errors[family].append(
                    _final_error(cfg, family, answers, segments[s][3])
                )
            turn += 1
        peak_kb = launched.peak_rss_kb() + max(
            read_hwm_kb(os.getpid()) - base_kb, 0
        )
    except (OSError, RuntimeError, ValueError) as exc:
        out["problems"].append(f"{type(exc).__name__}: {exc}")
    finally:
        if patches is not None:
            patches.undo()
        teardown.stop(launched)

    complete = all(seg_seconds)
    typical_s = sum(calm(d) for d in seg_seconds)
    family_msgs = {
        families[j]: median(m) for (j, _, _, _), m in zip(segments, messages)
    }
    result = {
        "attempted": out["attempted"],
        "failed": len(out["problems"]),
        "problems": out["problems"],
        "events": n * len(out["windows"]),
        "setup_s": median(setup_times),
        "events_per_s": n * len(segments) / typical_s if complete else 0.0,
        "ingest_ms": out["ingest_ms"],
        "query_ms": out["query_ms"],
        "msgs_per_kevent": (
            1000.0 * sum(family_msgs.values()) / (n * len(segments))
            if complete else 0.0
        ),
        "peak_rss_mb": peak_kb / 1024.0,
        "teardown": teardown,
        "err_over_eps_n": {
            family: sum(v) / len(v) for family, v in errors.items() if v
        },
        "family_msgs_per_kevent": {
            family: 1000.0 * m / n for family, m in family_msgs.items()
        } if complete else {},
    }
    if traced:
        result["layers"] = _layer_metrics(
            windowed, trace.ledger(out["windows"]), out, n,
            {families[j]: n / took
             for (j, _, _, _), (_, _, took) in zip(segments, expected)},
        )
    return result


def _final_error(cfg, family, answers, items):
    """Error of the answer after the family's last ingest (n = all)."""
    counts = np.bincount(items, minlength=cfg["universe"] + 1)
    return truth_error(family, answers[-1], counts, len(items), cfg["eps"])


def _layer_metrics(windowed, ledger, out, n, sim_rates):
    durations = ledger.durations
    totals = out["totals"]
    frames = totals["frames"]
    events = n * len(out["windows"])
    runs = durations("actors.run")
    if windowed:
        rtt = ledger.samples.get("actors.run_rtt", [])
        runs_per_frame = (
            totals["runs_posted"] / totals["frames_posted"]
            if totals["frames_posted"] else 0.0
        )
    else:
        # Lockstep posts each run as its own frame and waits for it.
        rtt = runs
        runs_per_frame = 1.0 if runs else 0.0
    metrics = {
        "actors.uplink_ack_us_p50": 1e6 * median(durations("actors.uplink")),
        "actors.run_rtt_ms_p50": 1e3 * median(rtt),
        "transport.frames_per_kevent": 1000.0 * frames / events,
        "transport.bytes_per_event": totals["bytes"] / events,
        "wire.encode_us_per_frame": 1e6 * sum(durations("wire.encode")) / frames,
        "wire.decode_us_per_frame": 1e6 * sum(durations("wire.decode")) / frames,
        "dispatch.runs_per_frame": runs_per_frame,
        "dispatch.window_stalls": float(totals["window_stalls"]),
        "dispatch.inflight_peak": float(totals["inflight_peak"]),
    }
    family_rates = {}
    for family, fam_windows in out["family_windows"].items():
        fam_events = len(fam_windows) * n
        apply_s = sum(durations("site.apply", use_self=True,
                                windows=fam_windows))
        metrics[f"site.apply_us_per_kevent.{family}"] = 1e9 * apply_s / fam_events
        family_rates[family] = n / calm(
            [end - start for start, end in fam_windows]
        )
    metrics["simulation_rates"] = sim_rates
    metrics["family_rates"] = family_rates
    metrics["ledger"] = ledger.summary()
    return metrics
