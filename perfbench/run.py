"""Wall-clock benchmark of the directory service, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload hot-cache --seed 1 --seconds 10 --trace 0

``--workload`` is ``hot-cache``, ``cold-scan`` or ``write-mix`` (see
``perfbench/README.md``).  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it prints the per-layer table and metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` shrinks
the directories for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Ladder the tail percentile is taken from.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Timed operations over which the traced run's counts are taken, so they
#: repeat exactly for a seed however long the run.
COUNT_PREFIX = {"hot-cache": 5000, "cold-scan": 60, "write-mix": 400}
SETUPS = 3
#: The speed probe: iterations of a fixed pure-Python loop, how often it
#: runs between timed operations, and its time on the reference machine.
PROBE_ITERATIONS = 20_000
PROBE_EVERY_S = 0.2
REFERENCE_PROBE_MS = 2.0

#: The benchmark's modules, imported once the program's source is on the path.
W = checks = layers = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hot-cache", "cold-scan", "write-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small directories (the benchmark's own tests)")
    return parser.parse_args(argv)


def fixed_hash_seed(argv) -> None:
    """Re-run under a fixed string-hash seed: set and dict iteration order
    then repeat from process to process, so a seed always asks the
    program for the same work."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + list(argv), env)


def probe_ms() -> float:
    """Milliseconds of a fixed pure-Python loop: the machine's speed now."""
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - started) * 1e3


class Speed:
    """Tracks the machine's speed with the probe loop, run between
    operations (never inside one).  Times are scaled to the reference
    speed as ``t * REFERENCE_PROBE_MS / probe``, with ``probe`` the median
    of the samples taken over the interval they were measured in."""

    def __init__(self):
        self.samples = []
        self._next = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(probe_ms())

    def tick(self) -> None:
        """Take a sample if the last one is older than ``PROBE_EVERY_S``."""
        now = time.perf_counter()
        if now >= self._next:
            self.samples.append(probe_ms())
            self._next = time.perf_counter() + PROBE_EVERY_S

    def factor(self, since: int = 0) -> float:
        """Scale for times measured while samples ``since``.. were taken."""
        return REFERENCE_PROBE_MS / statistics.median(self.samples[since:])

    def median_ms(self) -> float:
        return statistics.median(self.samples)


def tail(samples, guaranteed):
    """(percentile, value): the highest ladder percentile with at least
    ten samples beyond it in every run -- judged on the ``guaranteed``
    sample count, so that all runs of a workload report the same
    percentile -- taken by nearest rank over ``samples``."""
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        if guaranteed * (100.0 - pct) / 100.0 >= 10:
            rank = max(1, -(-pct * len(ordered) // 100))
            return pct, ordered[int(rank) - 1]
    raise ValueError("fewer than eleven samples guaranteed")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one pass over the stream ------------------------------------------------------


class Pass:
    """The client loop: operations, their latencies and their answers."""

    def __init__(self, inputs, svc, speed, tracer=None):
        self.inputs = inputs
        self.svc = svc
        self.speed = speed
        self.tracer = tracer
        self.stream = inputs.stream()
        #: (op, ok, entries) in order: every write, and each search whose
        #: (query, directory version) had not been answered before
        self.records = []
        #: first answer per (pool index, acknowledged writes so far)
        self.answers = {}
        self.version = 0
        #: queries whose answer changed without a write in between
        self.mismatches = []
        #: timed latencies in seconds, as measured
        self.latency = {"search": [], "write": []}
        self.timed = []
        #: the write probe's latencies, as measured
        self.probe = []
        self.failed = 0
        self.sent = 0

    def send(self, op, timed=True):
        kind = "search" if op[0] == "search" else "write"
        self.speed.tick()
        with self.tracer.operation(kind) if self.tracer else nullcontext():
            started = time.perf_counter()
            ok, entries = W.call(self.svc, op, self.inputs.texts)
            elapsed = time.perf_counter() - started
        self.sent += 1
        if timed:
            self.latency[kind].append(elapsed)
            self.timed.append(elapsed)
        if not ok:
            self.failed += 1
        if kind == "write":
            self.version += ok
            self.records.append((op, ok, entries))
            return elapsed
        key = (op[1], self.version)
        first = self.answers.get(key)
        if first is None:
            self.answers[key] = entries
            self.records.append((op, ok, entries))
        elif not (len(first) == len(entries)
                  and all(a is b or a.dn == b.dn for a, b in zip(first, entries))):
            self.mismatches.append(self.inputs.texts[op[1]])
        return elapsed

    def warm(self):
        """Fill the cache: every pool query once, then the warm-up rounds."""
        if self.inputs.spec.skew is None:
            return
        for index in range(len(self.inputs.pool)):
            self.send(("search", index), timed=False)
        for _ in range(self.inputs.spec.warm_rounds):
            for op in self.stream.round():
                self.send(op, timed=False)

    def run(self, seconds, ops, on_op=None):
        """Whole rounds until ``seconds`` passed and ``ops`` operations ran."""
        self.speed.sample(3)
        deadline = time.perf_counter() + seconds
        done = 0
        while done < ops or time.perf_counter() < deadline:
            for op in self.stream.round():
                self.send(op)
                done += 1
                if on_op is not None:
                    on_op(done)
        self.speed.sample(3)

    def probe_writes(self):
        """The write probe of a read-only workload: adds, modifies and
        deletes, timed on their own; after each burst one untimed search
        (the set-up query) folds them in."""
        for burst in self.stream.probe():
            for op in burst:
                self.probe.append(self.send(op, timed=False))
            folded = self.svc.search(W.render(W.SETUP_QUERY))
            self.sent += 1
            self.failed += folded.code != W.ResultCode.SUCCESS


# -- the two modes ----------------------------------------------------------------


def make_setups(inputs, workdir, count, speed):
    """``count`` set-ups, each closed before the next; returns the last
    one and every set-up time (as measured, and scaled by the probe
    samples taken just before and after it)."""
    raw, scaled = [], []
    setup = None
    for index in range(count):
        if setup is not None:
            setup.close()
            setup = None
            W.gc.collect()
        since = len(speed.samples)
        speed.sample(5)
        setup = W.Setup(inputs, workdir, index)
        speed.sample(5)
        raw.append(setup.total_s)
        scaled.append(setup.total_s * speed.factor(since))
    return setup, raw, scaled


def end_to_end(inputs, seconds, workdir, report):
    speed = Speed()
    setup, setup_raw, setup_times = make_setups(inputs, workdir, SETUPS, speed)
    run = Pass(inputs, setup.svc, speed)
    read_only = inputs.spec.write_every == 0
    if read_only:
        # Before the warm-up: writes on the freshly loaded service.
        W.settle()
        since = len(speed.samples)
        speed.sample(5)
        run.probe_writes()
        speed.sample(5)
        probe_scale = speed.factor(since)
        W.thaw()
    run.warm()
    W.settle()
    since = len(speed.samples)
    started = time.perf_counter()
    run.run(seconds, inputs.spec.min_ops)
    wall = time.perf_counter() - started
    scale = speed.factor(since)
    W.thaw()
    attempted = SETUPS + run.sent
    checked, problems, model = checks.check_pass(
        inputs, run.records, run.mismatches, replay_all=inputs.spec.durable)
    if inputs.spec.durable:
        extra, more = checks.durable_checks(inputs, setup, model)
        attempted += extra
        problems += more
    else:
        setup.close()

    spec = inputs.spec
    share = spec.write_every / 10.0
    searches = run.latency["search"]
    writes = run.probe if read_only else run.latency["write"]
    timed = searches + writes if share else searches
    search_pct, search_tail = tail(searches, spec.min_ops * (1 - share))
    write_pct, write_tail = tail(
        writes, spec.min_ops * share if share
        else 1 + 3 * W.PROBE_ROUNDS * W.PROBE_BURSTS)
    # name: (as measured, scaled, unit, samples, note)
    found = {
        "setup_s": (statistics.median(setup_raw), statistics.median(setup_times),
                    "s", SETUPS, "median of %d set-ups" % SETUPS),
        "search_p50_ms": (statistics.median(searches) * 1e3, None, "ms",
                          len(searches), "p50"),
        "search_tail_ms": (search_tail * 1e3, None, "ms", len(searches),
                           "p%g" % search_pct),
        "write_p50_ms": (statistics.median(writes) * 1e3, None, "ms", len(writes), "p50"),
        "write_tail_ms": (write_tail * 1e3, None, "ms", len(writes), "p%g" % write_pct),
        "ops_per_s": (len(timed) / sum(timed), None, "1/s", len(timed),
                      "operations over their summed latency"),
        "peak_rss_mb": (peak_rss_mb(), None, "MB", 1, "max resident set of the process"),
    }
    metrics = {}
    for name, (measured, scaled, unit, n, note) in found.items():
        factor = probe_scale if read_only and name.startswith("write") else scale
        if scaled is None:
            scaled = (measured if unit == "MB" else
                      measured / factor if unit == "1/s" else measured * factor)
        metrics[name] = (scaled, measured, unit, n, note)
    report("timed phase: %.2f s wall, %d searches, %d writes%s" % (
        wall, len(searches), len(writes),
        "" if inputs.spec.write_every else " (writes: the probe before the warm-up)"))
    report("speed probe: median %.3f ms over the timed phase, %d samples in all "
           "(reference %.3f ms); times are scaled to the reference speed, "
           "as measured in brackets" % (REFERENCE_PROBE_MS / scale, len(speed.samples),
                                        REFERENCE_PROBE_MS))
    for name, (value, measured, unit, n, note) in metrics.items():
        report("%-16s %12.4f %-3s n=%-7d %s [%.4f]" % (name, value, unit, n, note, measured))
    report("answers checked: %d distinct, problems: %d" % (checked, len(problems)))
    for problem in problems[:10]:
        report("  PROBLEM " + problem)
    return (not problems, attempted, run.failed,
            {name: {"value": value, "unit": unit}
             for name, (value, _, unit, _, _) in metrics.items()})


PER_LAYER_UNITS = {
    "query.parse_us": "us", "cache.fingerprint_us": "us", "cache.lookup_us": "us",
    "cache.put_us": "us", "cache.rejected_per_miss": "ratio",
    "cache.hit_ratio": "ratio", "cache.maintain_us": "us",
    "engine.plan_us": "us", "engine.execute_ms": "ms",
    "engine.stats_collect_ms": "ms", "engine.stats_delta_us": "us",
    "storage.pages_per_search": "pages", "storage.buffer_hit_rate": "ratio",
    "storage.compact_ms": "ms", "storage.compactions_per_write": "ratio",
    "storage.write_us": "us", "txn.wal_us": "us", "model.ldif_load_ms": "ms",
    "storage.load_ms": "ms", "security.acl_us": "us",
    "security.acl_checks_per_search": "count", "obs.observe_us": "us",
    "obs.observe_share": "ratio", "server.self_us": "us",
}


def count_snapshot(tracer, svc):
    cache = svc.cache.stats
    return {
        "searches": tracer.layer_calls("server", "search"),
        "writes": tracer.layer_calls("server", "write"),
        "misses": tracer.layer_calls("engine.execute", "search"),
        "acl": tracer.layer_calls("security.acl", "search"),
        "logical": tracer.exec_pages[0] + tracer.exec_pages[2],
        "logical_reads": tracer.exec_pages[0],
        "physical_reads": tracer.exec_pages[1],
        "hits": cache.hits, "lookups": cache.hits + cache.misses,
        "rejected": cache.rejected,
        "compactions": svc.directory.compactions,
    }


def delta(after, before):
    return {key: after[key] - before[key] for key in after}


def ratio(num, den):
    return num / den if den else 0.0


def traced(inputs, seconds, workdir, report):
    # Untraced pass: the reference for the tracing overhead.
    speed = Speed()
    setup, _, _ = make_setups(inputs, workdir, 1, speed)
    plain = Pass(inputs, setup.svc, speed)
    plain.warm()
    W.settle()
    since = len(speed.samples)
    plain.run(seconds / 2.0, 0)
    plain_scale = speed.factor(since)
    W.thaw()
    plain_lat = plain.timed
    failed = plain.failed
    attempted = 1 + plain.sent
    setup.close()
    del plain, setup
    W.gc.collect()

    prefix = COUNT_PREFIX[inputs.spec.name]
    with layers.LayerTracer() as tracer:
        setup = W.Setup(inputs, workdir, 1)
        collect_s = tracer.layer_seconds("engine.stats_collect", "setup")
        run = Pass(inputs, setup.svc, speed, tracer)
        run.warm()
        tracer.reset()
        W.settle()
        since = len(speed.samples)
        marks = {"start": count_snapshot(tracer, setup.svc)}

        def mark(done):
            if done == prefix:
                marks["prefix"] = count_snapshot(tracer, setup.svc)

        run.run(0.0, max(len(plain_lat), prefix), on_op=mark)
        traced_scale = speed.factor(since)
        marks["probe"] = count_snapshot(tracer, setup.svc)
        if inputs.spec.write_every == 0:
            run.probe_writes()
        marks["end"] = count_snapshot(tracer, setup.svc)
        W.thaw()
    attempted += 1 + run.sent
    failed += run.failed
    checked, problems, model = checks.check_pass(
        inputs, run.records, run.mismatches, replay_all=inputs.spec.durable)
    if inputs.spec.durable:
        extra, more = checks.durable_checks(inputs, setup, model)
        attempted += extra
        problems += more
    else:
        setup.close()

    # Counts over the fixed prefix plus the write probe: exact per seed.
    counts = delta(marks["prefix"], marks["start"])
    for key, value in delta(marks["end"], marks["probe"]).items():
        counts[key] += value
    # Times over every traced operation.
    search_lat, write_lat = run.latency["search"], run.latency["write"] + run.probe
    n_search, n_write = len(search_lat), len(write_lat)
    n_ops = n_search + n_write
    n_miss = tracer.layer_calls("engine.execute", "search")

    def per(layer, kind, n, scale):
        return ratio(tracer.layer_seconds(layer, kind), n) * scale

    metrics = {
        "query.parse_us": per("query.parse", "search", n_search, 1e6),
        "cache.fingerprint_us": per("cache.fingerprint", "search", n_search, 1e6),
        "cache.lookup_us": per("cache.lookup", "search", n_search, 1e6),
        "cache.put_us": per("cache.put", "search", n_miss, 1e6),
        "cache.rejected_per_miss": ratio(counts["rejected"], counts["misses"]),
        "cache.hit_ratio": ratio(counts["hits"], counts["lookups"]),
        "cache.maintain_us": per("cache.maintain", "write", n_write, 1e6),
        "engine.plan_us": per("engine.plan", "search", n_miss, 1e6),
        "engine.execute_ms": per("engine.execute", "search", n_miss, 1e3),
        "engine.stats_collect_ms": collect_s * 1e3,
        "engine.stats_delta_us": per("engine.stats_delta", "write", n_write, 1e6),
        "storage.pages_per_search": ratio(counts["logical"], counts["misses"]),
        "storage.buffer_hit_rate": 1.0 - ratio(counts["physical_reads"],
                                               counts["logical_reads"]),
        "storage.compact_ms": ratio(tracer.layer_seconds("storage.compact"),
                                    tracer.layer_calls("storage.compact")) * 1e3,
        "storage.compactions_per_write": ratio(counts["compactions"], counts["writes"]),
        "storage.write_us": per("storage.write", "write", n_write, 1e6),
        "txn.wal_us": per("txn.wal", "write", n_write, 1e6),
        "model.ldif_load_ms": setup.ldif_s * 1e3,
        "storage.load_ms": setup.construct_s * 1e3,
        "security.acl_us": per("security.acl", "search", n_search, 1e6),
        "security.acl_checks_per_search": ratio(counts["acl"], counts["searches"]),
        "obs.observe_us": per("obs.observe", None, n_ops, 1e6),
        "obs.observe_share": ratio(tracer.layer_seconds("obs.observe", "search"),
                                   sum(search_lat)),
        "server.self_us": per("server", None, n_ops, 1e6),
    }

    mean_us = sum(tracer.op_s.values()) / n_ops * 1e6
    names = sorted({name for name, _ in tracer.self_s},
                   key=lambda name: -tracer.layer_seconds(name))
    covered = sum(tracer.layer_seconds(name) for name in names)
    report("traced: %d operations (%d searches, %d misses, %d writes); counts over "
           "the first %d timed operations%s" % (
               n_ops, n_search, n_miss, n_write, prefix,
               " plus the write probe" if inputs.spec.write_every == 0 else ""))
    report("%-22s %12s %8s" % ("layer (self time)", "us/op", "share"))
    spine, acc = [], 0.0
    for name in names:
        seconds_ = tracer.layer_seconds(name)
        share = seconds_ / covered
        if acc < 0.7:
            spine.append(name)
        acc += share
        report("%-22s %12.2f %7.1f%%" % (name, seconds_ / n_ops * 1e6, share * 100))
    report("%-22s %12.2f  (traced mean operation time %.2f us; difference %.3g us)" % (
        "sum", covered / n_ops * 1e6, mean_us, covered / n_ops * 1e6 - mean_us))
    report("cost spine (layers holding > 70%% of operation time): %s" % ", ".join(spine))
    same = min(len(plain_lat), len(run.timed))
    plain_mean = statistics.fmean(plain_lat[:same]) * plain_scale
    traced_mean = statistics.fmean(run.timed[:same]) * traced_scale
    report("speed probe: median %.3f ms over %d samples (reference %.3f ms); the "
           "overhead compares times scaled to the reference speed; layer times are "
           "as measured" % (speed.median_ms(), len(speed.samples), REFERENCE_PROBE_MS))
    report("tracing overhead: traced %.2f us/op vs untraced %.2f us/op over the same "
           "%d operations (%+.1f%%)" % (traced_mean * 1e6, plain_mean * 1e6, same,
                                        (traced_mean / plain_mean - 1) * 100))
    for name, value in metrics.items():
        report("%-32s %14.4f %s" % (name, value, PER_LAYER_UNITS[name]))
    report("answers checked: %d distinct, problems: %d" % (checked, len(problems)))
    for problem in problems[:10]:
        report("  PROBLEM " + problem)
    return (not problems, attempted, failed,
            {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
             for name, value in metrics.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source at %s" % SRC, file=sys.stderr)
        return 2
    fixed_hash_seed(argv)
    sys.path.insert(0, SRC)
    global W, checks, layers
    import checks
    import layers
    import workloads as W

    workdir = os.path.join(HERE, ".work", "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    lines = []

    def report(line):
        lines.append(line)
        print(line)

    try:
        inputs = W.Inputs(args.workload, args.seed, smoke=args.smoke)
        report("workload %s seed %d: %d entries, %d distinct queries" % (
            args.workload, args.seed, len(inputs.model.entries), len(inputs.pool)))
        mode = traced if args.trace else end_to_end
        correct, attempted, failed, metrics = mode(inputs, args.seconds, workdir, report)
        report("operations attempted %d, failed %d" % (attempted, failed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, ".work"))
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
