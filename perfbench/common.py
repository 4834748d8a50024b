"""Inputs, statistics and subprocess handling shared by the workloads."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch space of one run, inside the checkout (listed in .gitignore)
WORK = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")

#: seconds a subprocess gets to print its address / to exit
START_DEADLINE = 60.0
EXIT_DEADLINE = 20.0


def make_stream(n, k, burst, zipf_a, universe, seed):
    """``n`` events from the program's own generators: site ids from
    ``repro.workloads.bursty_sites`` (a uniformly chosen site takes
    ``burst`` events in a row), items from ``repro.workloads.zipf_items``
    (Zipf(``zipf_a``) over ``0..universe-1``, as ``examples/load_gen.py``
    draws them).  Returns two int64 arrays."""
    from repro.workloads import bursty_sites, with_items, zipf_items

    stream = list(with_items(
        bursty_sites(n, k, burst=burst, seed=seed),
        zipf_items(universe, zipf_a, seed=seed + 1),
    ))
    site_ids = np.fromiter((s for s, _ in stream), np.int64, len(stream))
    items = np.fromiter((v for _, v in stream), np.int64, len(stream))
    return site_ids, items


def pct(values, q, method="linear"):
    """The ``q``-th percentile (0..100) by numpy's ``method``; 0 if empty."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q,
                               method=method))


def median(values):
    return float(statistics.median(values)) if values else 0.0


def calm(values):
    """The lower quartile of a timing over repeats of identical work.

    Other tenants of a shared host only ever slow a repeat down, for
    seconds at a time; the lower quartile is what a repeat takes when
    the host is calm, and it stays put while up to three quarters of
    the repeats are disturbed."""
    return pct(values, 25)


def calm_positions(repeats):
    """The calm latency of each call position over repeats of identical
    work: ``repeats`` holds one list of call latencies per repeat, the
    ``i``-th entries of all repeats being the same call on the same
    inputs.  Percentiles of the result describe one undisturbed repeat,
    with as many samples as a repeat makes calls."""
    longest = max((len(r) for r in repeats), default=0)
    return [calm([r[i] for r in repeats if len(r) > i]) for i in range(longest)]


def family_of(spec):
    """``count/randomized:0.02`` -> ``count_randomized``."""
    return spec.split(":")[0].replace("/", "_")


def scheme_of(spec, eps):
    """The tracking scheme of a job spec such as ``rank/randomized``."""
    from repro.service.jobspec import parse_job_spec

    return parse_job_spec(f"job={spec}", eps)[2]


def simulate(spec, eps, k, seed, batches, method, args, query_at):
    """The in-process ``Simulation`` of one job over ``batches``, queried
    after each batch index in ``query_at``: the reference answers, the
    message ledger and the seconds taken (the ceiling the distributed
    paths are measured against)."""
    from repro import Simulation
    from repro.service.job import resolve_query

    scheme = scheme_of(spec, eps)
    started = time.perf_counter()
    sim = Simulation(scheme, k, seed=seed)
    query = resolve_query(sim.coordinator, method)
    answers = []
    for i, (site_ids, items) in enumerate(batches):
        sim.run_batched(site_ids, items)
        if i in query_at:
            answers.append(query(*args))
    return answers, sim.comm.snapshot(), time.perf_counter() - started


RANDOMIZED = ("count_randomized", "frequency_randomized", "rank_randomized")


def truth_error(family, answer, counts, n, eps):
    """|answer - truth| / (eps n) for one query of a randomized family.

    ``counts[v]`` is the exact frequency of item ``v`` among the first
    ``n`` events.  Count answers are estimates of ``n``; frequency
    answers are ``heavy_hitters`` dicts (worst listed item); a rank
    answer is the value returned by ``quantile(0.5)``, whose exact rank
    range is ``[#items < x, #items <= x]``.
    """
    scale = eps * n
    if family == "count_randomized":
        return abs(answer - n) / scale
    if family == "frequency_randomized":
        return max(
            (abs(est - counts[int(item)]) / scale
             for item, est in answer.items()),
            default=0.0,
        )
    x = int(answer)
    below = int(counts[:x].sum())
    upto = below + int(counts[x])
    target = 0.5 * n
    miss = 0.0 if below <= target <= upto else min(
        abs(below - target), abs(upto - target)
    )
    return miss / scale


def read_hwm_kb(pid):
    """VmHWM (peak resident set) of ``pid`` in KiB, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids(pid):
    """Direct children of ``pid`` (from /proc/<pid>/task/*/children)."""
    out = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out.extend(int(p) for p in f.read().split())
        except OSError:
            pass
    return out


class Launched:
    """One ``repro`` subcommand started through ``launch.py``.

    Standard error goes to a file in the run's scratch directory; it is
    echoed to this process's standard error at teardown (never
    suppressed) and its tracebacks are counted.
    """

    def __init__(self, argv, spans_dir=None, tag="proc"):
        os.makedirs(WORK, exist_ok=True)
        self.started = time.perf_counter()
        self.stderr_path = os.path.join(
            WORK, f"{tag}-{os.getpid()}-{time.monotonic_ns()}.stderr"
        )
        cmd = [sys.executable, os.path.join(HERE, "launch.py")]
        if spans_dir is not None:
            cmd += ["--spans-dir", spans_dir]
        cmd += ["--"] + list(argv)
        self._stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        self.exit_code = None
        self.tracebacks = 0

    def address_line(self, marker):
        """The first stdout line containing ``marker`` (the bound address)."""
        deadline = time.monotonic() + START_DEADLINE
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if marker in line:
                return line.strip()
        raise RuntimeError(
            f"subprocess did not report {marker!r}; exit code "
            f"{self.proc.poll()}; stderr: {self._stderr_text()[-2000:]}"
        )

    def peak_rss_kb(self):
        """Summed VmHWM of the process and its children."""
        pid = self.proc.pid
        return read_hwm_kb(pid) + sum(read_hwm_kb(c) for c in child_pids(pid))

    def _stderr_text(self):
        if not self._stderr.closed:
            self._stderr.flush()
        with open(self.stderr_path) as f:
            return f.read()

    def stop(self):
        """SIGTERM, wait under a deadline (SIGKILL past it), record the exit
        code and the tracebacks printed to standard error."""
        if self.exit_code is not None:
            return self.exit_code
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(EXIT_DEADLINE)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(EXIT_DEADLINE)
        self.exit_code = self.proc.returncode
        self.proc.stdout.close()
        self._stderr.close()
        text = self._stderr_text()
        self.tracebacks = text.count("Traceback (most recent call last)")
        if text.strip():
            sys.stderr.write(text)
        os.unlink(self.stderr_path)
        return self.exit_code


class Teardown:
    """Exit codes and stderr tracebacks of every subprocess of a run."""

    def __init__(self):
        self.exits = []
        self.tracebacks = 0

    def stop(self, launched):
        self.exits.append(launched.stop())
        self.tracebacks += launched.tracebacks

    @property
    def nonzero_exits(self):
        return sum(1 for code in self.exits if code != 0)
