"""Layer spans recorded from outside the program, and the ledger built on them.

The benchmark never edits the code under test.  It times calls into each
layer's public functions by wrapping them: in its own process (the load
generator and, on the cluster workloads, the coordinator hub), and in the
subprocesses it starts through ``launch.py``, which installs the same
wrappers before handing control to ``repro.cli.main``.

A span is ``(layer, start, end, extra)`` with ``start``/``end`` read from
``time.perf_counter()``, which on Linux is CLOCK_MONOTONIC and therefore
comparable across the processes of one machine.  Each process keeps its
spans in memory and writes them to one JSON file when it exits (forked
shard workers write their own file when their command loop ends).

The ledger attributes every instant of the measured wall time to exactly
one layer: the active span that started last.  Along one call chain that
is the innermost call, also when the chain crosses processes (a site's
apply starts after the hub's run post that caused it) and when it
re-enters (a deliver handler that reports again).  A layer's self time is
the time so attributed to it; wall time covered by no span is
``unattributed`` (socket hops, event-loop and thread hand-offs).  The
wall time is the sum of the load generator's own timed windows; self
times plus unattributed time add up to it by construction, so the
ledger reports shares of it and no separate reconciliation.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import json
import os
import shutil
import time


class SpanRecorder:
    """In-memory span sink for one process."""

    def __init__(self):
        self.spans = []
        self.samples = {}
        self.pid = os.getpid()

    def add(self, layer, start, end, extra=None):
        self.spans.append((layer, start, end, extra))

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def reset_after_fork(self):
        self.spans = []
        self.samples = {}
        self.pid = os.getpid()

    def dump(self, directory, role):
        path = os.path.join(directory, f"spans-{role}-{self.pid}.json")
        with open(path, "w") as f:
            json.dump(
                {"role": role, "spans": self.spans, "samples": self.samples}, f
            )


def load_dumps(directory):
    """Every span and sample written under ``directory``."""
    spans, samples = [], {}
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("spans-") and name.endswith(".json")):
            continue
        with open(os.path.join(directory, name)) as f:
            data = json.load(f)
        spans.extend(tuple(s) for s in data["spans"])
        for key, values in data["samples"].items():
            samples.setdefault(key, []).extend(values)
    return spans, samples


class Trace:
    """One traced phase as seen from the benchmark process.

    Subprocesses dump their spans into :attr:`dir`; this process records
    into :attr:`recorder`.  :meth:`ledger` merges both and attributes
    the wall time of ``windows``."""

    def __init__(self, work):
        self.dir = os.path.join(work, f"spans-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.recorder = SpanRecorder()

    def ledger(self, windows):
        spans, samples = load_dumps(self.dir)
        spans.extend(self.recorder.spans)
        for key, values in self.recorder.samples.items():
            samples.setdefault(key, []).extend(values)
        shutil.rmtree(self.dir, ignore_errors=True)
        return Ledger(spans, samples, windows)


class Ledger:
    """Every span of a traced phase, attributed over its timed windows.

    ``per_layer`` maps a layer to its self seconds; ``unattributed`` and
    ``wall`` are seconds."""

    def __init__(self, spans, samples, windows):
        self.spans = spans
        self.samples = samples
        self.inside = within(spans, windows)
        self.self_times, self.unattributed, self.wall = attribute(
            spans, windows
        )
        self.per_layer = {}
        for (layer, _, _, _), t in zip(spans, self.self_times):
            self.per_layer[layer] = self.per_layer.get(layer, 0.0) + t

    def summary(self):
        return (self.per_layer, self.unattributed, self.wall)

    def durations(self, layer, extra=None, use_self=False, windows=None):
        """Seconds of each ``layer`` span that starts inside ``windows``
        (default: all timed windows), optionally only those whose extra
        field equals ``extra``; ``use_self`` gives self times."""
        out = []
        indices = self.inside if windows is None else within(
            self.spans, windows
        )
        for i in indices:
            name, start, end, x = self.spans[i]
            if name == layer and (extra is None or x == extra):
                out.append(self.self_times[i] if use_self else end - start)
        return out

    def extras(self, layer):
        """The extra field of each ``layer`` span inside the windows."""
        return [self.spans[i][3] for i in self.inside
                if self.spans[i][0] == layer]


# -- wrappers ----------------------------------------------------------------


def _wrap_sync(recorder, layer, fn, extra_of=None):
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
        recorder.add(
            layer, start, end,
            None if extra_of is None else extra_of(args, result),
        )
        return result

    return wrapper


def _wrap_async(recorder, layer, fn, extra_of=None):
    clock = time.perf_counter

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        start = clock()
        result = None
        try:
            result = await fn(*args, **kwargs)
        finally:
            end = clock()
            recorder.add(
                layer, start, end,
                None if extra_of is None else extra_of(args, result),
            )
        return result

    return wrapper


class Patches:
    """Wrappers installed on classes and modules; ``undo`` restores them."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def wrap(self, owner, attr, layer, extra_of=None, is_async=False):
        original = getattr(owner, attr)
        make = _wrap_async if is_async else _wrap_sync
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(self.recorder, layer, original, extra_of))

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _route_kind(args, _result):
    path = args[2]
    return "ingest" if path.endswith("/ingest") else "query" if (
        path.endswith("/query")
    ) else "other"


def _split_sizes(_args, parts):
    return [len(local_ids) for _, local_ids, _ in parts]


def _batch_len(args, _result):
    return len(args[1])


def _query_method(args, _result):
    return args[2] if len(args) > 2 and args[2] else "estimate"


def install_gateway(patches, spans_dir):
    """Wrap the HTTP gateway's layers (gateway process and forked hubs)."""
    from repro.exec import local
    from repro.net.gateway import Gateway
    from repro.obs.fleet import FleetMonitor
    from repro.service.async_ingest import AsyncBatchIngestor
    from repro.service.service import TrackingService
    from repro.shard.router import ShardRouter
    from repro.shard.service import ShardedTrackingService

    recorder = patches.recorder
    patches.wrap(Gateway, "_route", "gateway.route", _route_kind, True)
    patches.wrap(Gateway, "_respond", "gateway.respond", None, True)
    patches.wrap(
        AsyncBatchIngestor, "submit", "async_ingest.submit", _batch_len, True
    )
    patches.wrap(ShardedTrackingService, "ingest", "exec.dispatch", _batch_len)
    patches.wrap(ShardRouter, "split", "router.split", _split_sizes)
    patches.wrap(ShardedTrackingService, "query", "merge.query", _query_method)
    patches.wrap(FleetMonitor, "_poll_hub", "fleet.poll")
    # Runs only inside the forked shard workers: the hub's apply.
    patches.wrap(TrackingService, "ingest", "exec.hub_ingest", _batch_len)

    worker_main = local._worker_main

    def traced_worker_main(conn, spec):
        try:
            worker_main(conn, spec)
        finally:
            recorder.dump(spans_dir, "hub")

    patches.set(local, "_worker_main", traced_worker_main)
    os.register_at_fork(after_in_child=recorder.reset_after_fork)


def install_site(patches):
    """Wrap a ``repro site`` host's layers (site process)."""
    from repro.net import actors

    recorder = patches.recorder
    clock = time.perf_counter
    patches.wrap(actors.SiteWorker, "uplink", "actors.uplink")
    patches.wrap(actors.SiteWorker, "_deliver", "site.deliver")
    _install_wire(patches, actors)
    spawn = actors.SiteWorker._spawn

    def traced_spawn(worker, command):
        spawn(worker, command)
        apply = worker.site.on_elements

        def on_elements(chunk):
            start = clock()
            try:
                return apply(chunk)
            finally:
                recorder.add("site.apply", start, clock(), len(chunk))

        worker.site.on_elements = on_elements

    patches.set(actors.SiteWorker, "_spawn", traced_spawn)


def install_hub(patches):
    """Wrap the coordinator hub's layers (the benchmark process)."""
    from repro.net import actors

    recorder = patches.recorder
    clock = time.perf_counter
    hub = actors.CoordinatorHub
    patches.wrap(hub, "_ingest_sync", "hub.ingest", _batch_len)
    patches.wrap(hub, "query", "hub.query", None, True)
    patches.wrap(hub, "_run_sync", "actors.run")
    patches.wrap(hub, "_service_one", "dispatch.collect")
    patches.wrap(hub, "_uplink_sync", "hub.cascade")
    patches.wrap(hub, "_deliver_sync", "hub.deliver")
    _install_wire(patches, actors)

    post_run = hub._post_run
    note_done = hub._note_run_done

    def traced_post_run(self, site_id, chunk, weight=1):
        start = clock()
        try:
            return post_run(self, site_id, chunk, weight)
        finally:
            end = clock()
            recorder.add("dispatch.post", start, end, len(chunk))
            self.__dict__.setdefault("_bench_posted", {}).setdefault(
                site_id, []
            ).append(end)

    def traced_note_done(self, site_id, message):
        posted = self.__dict__.get("_bench_posted", {}).get(site_id)
        if posted and message.get("e") == self._run_epoch:
            recorder.sample("actors.run_rtt", clock() - posted.pop(0))
        return note_done(self, site_id, message)

    patches.set(hub, "_post_run", traced_post_run)
    patches.set(hub, "_note_run_done", traced_note_done)


def _install_wire(patches, actors):
    from repro.net import transport

    for name in ("encode_chunk", "encode_message"):
        patches.wrap(actors, name, "wire.encode")
    for name in ("decode_chunk", "decode_message"):
        patches.wrap(actors, name, "wire.decode")
    patches.wrap(transport, "encode_payload", "wire.encode")
    patches.wrap(transport, "decode_payload", "wire.decode")


# -- the ledger ---------------------------------------------------------------


def attribute(spans, windows):
    """Exclusive self time of every span inside ``windows``.

    ``windows`` are disjoint ``(start, end)`` intervals of measured wall
    time.  Returns ``(self_times, unattributed, wall)`` where
    ``self_times[i]`` belongs to ``spans[i]``.
    """
    events = []
    for i, (_, start, end, _) in enumerate(spans):
        if end > start:
            events.append((start, 1, i))
            events.append((end, 0, i))
    for start, end in windows:
        events.append((start, 3, -1))
        events.append((end, 2, -1))
    events.sort()
    self_times = [0.0] * len(spans)
    unattributed = 0.0
    active = []  # max-heap on start time: (-start, index)
    ended = set()
    in_window = False
    last = None
    for t, kind, i in events:
        if last is not None and in_window and t > last:
            while active and active[0][1] in ended:
                heapq.heappop(active)
            if active:
                self_times[active[0][1]] += t - last
            else:
                unattributed += t - last
        last = t
        if kind == 1:
            heapq.heappush(active, (-spans[i][1], i))
        elif kind == 0:
            ended.add(i)
        elif kind == 3:
            in_window = True
        else:
            in_window = False
    wall = sum(end - start for start, end in windows)
    return self_times, unattributed, wall


def within(spans, windows):
    """Indices of spans that start inside one of the disjoint ``windows``."""
    bounds = sorted(windows)
    starts = [lo for lo, _ in bounds]
    out = []
    for i, (_, start, _, _) in enumerate(spans):
        j = bisect.bisect_right(starts, start) - 1
        if j >= 0 and start < bounds[j][1]:
            out.append(i)
    return out
