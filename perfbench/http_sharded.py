"""Workload ``http-sharded``: the path service users hit.

``repro gateway -k 32 --shards 2 --shard-workers process`` serves four
jobs.  One keep-alive HTTP connection drives a closed loop: POST
``/v1/ingest`` batches of bursty site ids with Zipf items, and after
every ``query_every`` ingests a query round (both count estimates,
``heavy_hitters(phi)`` and ``quantile(0.5)``).  The time goes to
HTTP/JSON, the ingest queue, the router split, process-pipe IPC, the hub
apply and the cross-shard merge on reads; ``net.actors`` is never used.

The traffic shape is that of ``examples/load_gen.py``, the program's own
gateway load generator: passes of 60k events (61,440 here, a whole
number of batches), ingest batches of 2048 events, Zipf(1.2) items over
600 values.  Site ids come from ``repro.workloads.bursty_sites`` with
bursts of 16 events, as on the cluster workloads.  A query round follows
every third ingest, so a pass makes 30 ingest calls and 40 queries.

Work is organised in passes into freshly registered jobs with fixed
seeds, so every pass repeats the same protocol run: answers are checked
against one in-process replay
(``ShardedTrackingService(executor="inline")``) and messages per event
do not depend on how many passes a run completes.
"""

from __future__ import annotations

import http.client
import json
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
    scheme_of,
    simulate,
    truth_error,
)

CONFIG = {
    "k": 32,
    "shards": 2,
    "shard_workers": "process",
    "eps": 0.02,
    "pass_events": 61_440,
    "batch": 2048,
    "query_every": 3,
    "phi": 0.02,
    "burst": 16,
    "zipf_a": 1.2,
    "universe": 600,
    "jobs": [
        "count/deterministic",
        "count/randomized",
        "frequency/randomized",
        "rank/randomized",
    ],
}


def _job_names():
    return [family_of(spec) for spec in CONFIG["jobs"]]


def _query_round():
    """The queries of one round: (job, method, args)."""
    cd, cr, fr, rr = _job_names()
    return [
        (cd, None, []),
        (cr, None, []),
        (fr, "heavy_hitters", [CONFIG["phi"]]),
        (rr, "quantile", [0.5]),
    ]


class Client:
    """One keep-alive connection; JSON in, JSON out."""

    def __init__(self, url, recorder=None):
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port), timeout=120)
        self.recorder = recorder
        self.body_bytes = 0

    def call(self, method, path, obj=None):
        clock = time.perf_counter
        t0 = clock()
        body = None if obj is None else json.dumps(obj).encode()
        t1 = clock()
        self.conn.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self.conn.getresponse()
        raw = response.read()
        t2 = clock()
        payload = json.loads(raw) if raw else None
        t3 = clock()
        if self.recorder is not None:
            self.recorder.add("client.encode", t0, t1)
            self.recorder.add("client.decode", t2, t3)
        if body is not None and path == "/v1/ingest":
            self.body_bytes += len(body)
        if response.status >= 300:
            raise RuntimeError(f"{method} {path} -> HTTP {response.status}: {payload}")
        return payload

    def close(self):
        self.conn.close()


def make_inputs(seed):
    rng = np.random.default_rng([seed, 1])
    site_ids, items = make_stream(
        CONFIG["pass_events"], CONFIG["k"], CONFIG["burst"],
        CONFIG["zipf_a"], CONFIG["universe"], int(rng.integers(1, 2**31)),
    )
    b = CONFIG["batch"]
    batches = [
        (site_ids[i:i + b].tolist(), items[i:i + b].tolist())
        for i in range(0, len(site_ids), b)
    ]
    job_seeds = [int(x) for x in rng.integers(1, 2**31, size=len(CONFIG["jobs"]))]
    return batches, job_seeds, items


def _query_points(num_batches):
    every = CONFIG["query_every"]
    return [
        i for i in range(num_batches)
        if (i + 1) % every == 0 or i == num_batches - 1
    ]


def reference(batches, job_seeds):
    """Answers and messages of an in-process inline replay."""
    from repro import ShardedTrackingService
    from repro.net.gateway import jsonable

    service = ShardedTrackingService(
        num_sites=CONFIG["k"], num_shards=CONFIG["shards"], seed=0,
        executor="inline",
    )
    for name, spec, seed in zip(_job_names(), CONFIG["jobs"], job_seeds):
        service.register(name, scheme_of(spec, CONFIG["eps"]), seed=seed)
    answers = {}
    points = set(_query_points(len(batches)))
    for i, (site_ids, items) in enumerate(batches):
        service.ingest(site_ids, items)
        if i in points:
            answers[i] = [
                json.loads(json.dumps(jsonable(
                    service.query(job, method, *args)
                )))
                for job, method, args in _query_round()
            ]
    status = service.status()
    messages = {
        name: status["jobs"][name]["comm"]["total_messages"]
        for name in _job_names()
    }
    service.close()
    return answers, messages


def simulation_rates(batches, job_seeds):
    """The in-process simulator's events/s per family on the same stream
    and query points (the ceiling the service is measured against)."""
    points = set(_query_points(len(batches)))
    n = sum(len(s) for s, _ in batches)
    rates = {}
    for (_, method, args), spec, seed in zip(
        _query_round(), CONFIG["jobs"], job_seeds
    ):
        _, _, seconds = simulate(
            spec, CONFIG["eps"], CONFIG["k"], seed, batches, method, args,
            points,
        )
        rates[family_of(spec)] = n / seconds
    return rates


def _final_errors(answers, items):
    """|answer - truth| / (eps n) per randomized family after the pass's
    last ingest (n = the whole pass)."""
    counts = np.bincount(items, minlength=CONFIG["universe"] + 1)
    return {
        family: truth_error(family, answer, counts, len(items), CONFIG["eps"])
        for family, answer in zip(_job_names(), answers)
        if family in RANDOMIZED
    }


def _start_gateway(trace, teardown):
    """Launch a gateway and block until it accepted its first ingest.

    Returns ``(launched, client, seconds)``: set-up time runs from
    process launch to the first accepted ingest."""
    argv = [
        "gateway", "--listen", "127.0.0.1:0", "-k", str(CONFIG["k"]),
        "--shards", str(CONFIG["shards"]),
        "--shard-workers", CONFIG["shard_workers"],
        "--no-default-jobs",
    ]
    launched = Launched(
        argv, spans_dir=None if trace is None else trace.dir, tag="gateway"
    )
    try:
        line = launched.address_line("gateway listening on")
        url = line.split()[3]
        client = Client(url)
        client.call("POST", "/v1/jobs", {
            "name": "setup-probe", "spec": "count/deterministic",
            "seed": 1,
        })
        client.call("POST", "/v1/ingest", {"site_ids": [0], "items": [1]})
        seconds = time.perf_counter() - launched.started
        client.call("DELETE", "/v1/jobs/setup-probe")
    except BaseException:
        teardown.stop(launched)
        raise
    return launched, client, seconds


def _metric_messages(client):
    """Protocol messages so far, fleet-wide (a counter over all jobs)."""
    metrics = client.call("GET", "/v1/metrics")
    samples = metrics["repro_service_comm_messages_total"]["samples"]
    return sum(s["value"] for s in samples)


def measure(seed, seconds, traced, setups):
    """One measurement phase; see ``run.py`` for the result fields.

    Passes repeat until ``seconds`` of wall time passed;
    ``events_per_s`` uses the calm (lower-quartile) pass duration (ingest
    and query calls only)."""
    batches, job_seeds, all_items = make_inputs(seed)
    points = _query_points(len(batches))
    expected, expected_msgs = reference(batches, job_seeds)
    expected_total = sum(expected_msgs.values())
    n_pass = CONFIG["pass_events"]

    teardown = Teardown()
    trace = None
    if traced:
        import layers

        trace = layers.Trace(WORK)

    setup_times = []
    for i in range(setups):
        launched, client, took = _start_gateway(trace, teardown)
        setup_times.append(took)
        if i < setups - 1:
            client.close()
            teardown.stop(launched)

    attempted = failed = 0
    problems = []
    ingest_ms = {"ingest": []}
    query_ms = {q: [] for q in range(len(_query_round()))}
    pass_seconds, windows = [], []
    worst = {}
    msgs_seen = []
    healthz = None
    trace_merge = []
    peak_kb = 0
    client.recorder = None if trace is None else trace.recorder
    names = _job_names()
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not windows:
            for name, spec, job_seed in zip(names, CONFIG["jobs"], job_seeds):
                attempted += 1
                client.call("POST", "/v1/jobs", {
                    "name": name, "spec": f"{spec}:{CONFIG['eps']}",
                    "seed": job_seed,
                })
            for lists in (ingest_ms, query_ms):
                for per_pass in lists.values():
                    per_pass.append([])
            msgs_before = _metric_messages(client)
            answers = {}
            t_pass = time.perf_counter()
            next_point = 0
            for i, (site_ids, items) in enumerate(batches):
                attempted += 1
                t0 = time.perf_counter()
                reply = client.call(
                    "POST", "/v1/ingest",
                    {"site_ids": site_ids, "items": items},
                )
                ingest_ms["ingest"][-1].append((time.perf_counter() - t0) * 1e3)
                if reply.get("ingested") != len(site_ids):
                    failed += 1
                    problems.append(f"batch {i}: ingested {reply.get('ingested')}")
                if next_point < len(points) and points[next_point] == i:
                    next_point += 1
                    got = []
                    for q, (job, method, args) in enumerate(_query_round()):
                        attempted += 1
                        t0 = time.perf_counter()
                        got.append(client.call("POST", "/v1/query", {
                            "job": job, "method": method, "args": args,
                        })["result"])
                        query_ms[q][-1].append((time.perf_counter() - t0) * 1e3)
                    answers[i] = got
                    for q, (want, have) in enumerate(zip(expected[i], got)):
                        if want != have:
                            failed += 1
                            problems.append(
                                f"batch {i} query {q}: {have!r} != {want!r}"
                            )
            t_end = time.perf_counter()
            windows.append((t_pass, t_end))
            pass_seconds.append(t_end - t_pass)
            msgs = _metric_messages(client) - msgs_before
            msgs_seen.append(msgs)
            if msgs != expected_total:
                problems.append(
                    f"/v1/metrics messages {msgs} != replay {expected_total}"
                )
                failed += 1
            for name in names:
                attempted += 1
                client.call("DELETE", f"/v1/jobs/{name}")
            if not worst:
                worst = _final_errors(answers[points[-1]], all_items)
        healthz = client.call("GET", "/healthz")
        if traced:
            trace_merge = client.call(
                "GET", "/v1/trace?name=merge&limit=512"
            )["spans"]
        peak_kb = launched.peak_rss_kb()
    except (OSError, RuntimeError, http.client.HTTPException, ValueError) as exc:
        failed += 1
        problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        client.close()
        teardown.stop(launched)

    events = n_pass * len(pass_seconds)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "events": events,
        "setup_s": median(setup_times),
        "events_per_s": n_pass / calm(pass_seconds) if pass_seconds else 0.0,
        "ingest_ms": ingest_ms,
        "query_ms": query_ms,
        "msgs_per_kevent": (
            1000.0 * median(msgs_seen) / (n_pass * len(names))
            if msgs_seen else 0.0
        ),
        "peak_rss_mb": peak_kb / 1024.0,
        "teardown": teardown,
        "err_over_eps_n": worst,
        "family_msgs_per_kevent": {
            name: 1000.0 * m / n_pass for name, m in expected_msgs.items()
        },
    }
    if traced:
        result["layers"] = _layer_metrics(
            trace.ledger(windows), client, healthz, trace_merge,
            batches, job_seeds, events,
        )
    return result


def _layer_metrics(ledger, client, healthz, trace_merge, batches,
                   job_seeds, events):
    durations = ledger.durations
    shard_totals = np.zeros(CONFIG["shards"])
    for sizes in ledger.extras("router.split"):
        shard_totals[:len(sizes)] += sizes
    skew = (
        float(shard_totals.max() / shard_totals.mean())
        if shard_totals.sum() else 0.0
    )
    queue = healthz["queue"] if healthz else {}
    rounds = queue.get("engine_calls", 0)
    candidates = [
        s["attrs"]["candidates"] for s in trace_merge
        if "candidates" in s.get("attrs", {})
    ]
    polls = durations("fleet.poll")
    out = {
        "gateway.request_ms_p50": 1e3 * median(
            durations("gateway.route", "ingest")
        ),
        "gateway.body_bytes_per_event": client.body_bytes / max(events, 1),
        "async_ingest.wait_ms_p50": 1e3 * median(
            durations("async_ingest.submit", use_self=True)
        ),
        "async_ingest.requests_per_round": (
            queue.get("submitted_requests", 0) / rounds if rounds else 0.0
        ),
        "router.split_us_per_kevent": (
            1e9 * sum(durations("router.split")) / max(events, 1)
        ),
        "router.shard_skew": skew,
        "exec.dispatch_ms_p50": 1e3 * median(durations("exec.dispatch")),
        "exec.hub_ingest_ms_p50": 1e3 * median(durations("exec.hub_ingest")),
        "exec.ipc_wait_ms_p50": 1e3 * median(
            durations("exec.dispatch", use_self=True)
        ),
        "merge.candidates_p50": median(candidates),
        "fleet.polls": float(len(polls)),
        "fleet.poll_ms_p50": 1e3 * median(polls),
    }
    for method in ("estimate", "heavy_hitters", "quantile"):
        out[f"merge.query_ms_p50.{method}"] = 1e3 * median(
            durations("merge.query", method)
        )
    out["simulation_rates"] = simulation_rates(batches, job_seeds)
    out["ledger"] = ledger.summary()
    return out
