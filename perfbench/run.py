#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mul12 --seed 1 --seconds 30 --trace 0

It builds pb_call (perfbench/CMakeLists.txt) under .bench_build/perfbench,
generates the workload's inputs from --seed, and measures for about
--seconds: first the engine calls on the workload's input, each engine in a
fresh process per sample and all engines interleaved round-robin, then the
serve job stream through one warm TrialScheduler. Every result is checked;
every engine call and serve job counts as one attempted operation. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, spans are recorded around every public call and written
as Chrome trace-event JSON under .bench_build/perfbench/traces/. See
perfbench/README.md for the workloads, metrics and known failures.
"""

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 4
ENGINES = ["seq", "hj", "partitioned", "timewarp"]

# Engine inputs. Sizes put the slowest engine's call near 0.2-0.7 s on a
# 4-core host (README.md has the rates they were sized from). The per-call
# deadline is fixed per workload at several times the slowest good call.
WORKLOADS = {
    "mul12": {
        "input": ["--circuit", "gen:mul12", "--vectors", "2", "--interval", "1000"],
        # timewarp does not finish mul12 (README.md, known failures).
        "engines": ["seq", "hj", "partitioned"],
        "deadline_s": 5.0,
    },
    "phold-la1": {
        "input": ["--model", "phold", "--params",
                  "lps=64,pop=2,remote=80,lookahead=1,spread=32,end=40000"],
        "engines": ENGINES,
        "deadline_s": 8.0,
    },
}

# Tiny sizes for the smoke test: same code paths, milliseconds per call.
SMOKE_INPUTS = {
    "mul12": ["--circuit", "gen:mul6", "--vectors", "2", "--interval", "1000"],
    "phold-la1": ["--model", "phold", "--params",
                  "lps=16,pop=2,remote=80,lookahead=1,spread=32,end=400"],
}


def serve_jobs(seed, smoke):
    """The serve stream: one packed replication job, one packed sweep, one
    model job that is never packed. Job seeds derive from --seed."""
    circuit = "gen:mul6" if smoke else "gen:mul12"
    end = 200 if smoke else 4000
    return [
        {"id": "packed", "circuit": circuit, "replications": 256,
         "seed": seed * 1000 + 1, "vectors": 1, "interval": 1000},
        {"id": "sweep", "circuit": circuit, "replications": 4,
         "seed": seed * 1000 + 300, "sweep_vectors": [1, 2, 3, 4],
         "sweep_intervals": [250, 500, 750, 1000]},
        {"id": "model", "model": "phold", "replications": 16,
         "seed": seed * 1000 + 600,
         "model_params": "lps=256,pop=4,remote=50,lookahead=4,spread=16,"
                         f"end={end}"},
    ]


SERVE_DEADLINE_S = 60.0
# Timed calls per parallel-engine process, after one warm-up call.
CHILD_BUDGET_MS = 300
CHILD_MIN_CALLS = 2

END_TO_END = {
    **{f"{e}.events_per_s": "1/s" for e in ENGINES[:3]},
    **{f"{e}.peak_rss_mb": "MiB" for e in ENGINES[:3]},
    "serve.packed_trials_per_s": "1/s",
    "serve.sweep_trials_per_s": "1/s",
    "serve.model_trials_per_s": "1/s",
    "serve.peak_rss_mb": "MiB",
    "setup_s": "s",
}

LAYERS = ["harness", "circuit", "model", "part", "des", "serve", "check"]

PER_LAYER = {
    "circuit.build_s": "s",
    "model.build_s": "s",
    "part.partition_s": "s",
    "part.cut_edges": "count",
    "part.imbalance_ppm": "ppm",
    "part.cut_events": "count",
    "part.null_ratio_ppm": "ppm",
    "part.channel_full_stalls": "count",
    # No timewarp.cpu_s: timewarp is not called on mul12, where a time would
    # read a constant 0; timewarp.cpu_util carries its CPU use.
    **{f"{e}.{m}": u for e in ENGINES for m, u in [
        ("cpu_s", "s"), ("cpu_util", "ratio"), ("events", "count"),
        ("null_messages", "count"), ("rounds", "count"),
        ("events_per_round", "count")] if (e, m) != ("timewarp", "cpu_s")},
    "hj.tasks_spawned": "count",
    "hj.spawn_skips": "count",
    "hj.lock_failures": "count",
    "hj.lock_fail_ratio": "ratio",
    "timewarp.events_per_s": "1/s",
    "timewarp.peak_rss_mb": "MiB",
    "timewarp.speculative_events": "count",
    "timewarp.rollbacks": "count",
    "timewarp.anti_messages": "count",
    "timewarp.gvt_sweeps": "count",
    "timewarp.checkpoints": "count",
    "timewarp.efficiency": "ratio",
    "serve.submit_s": "s",
    "serve.first_job_s": "s",
    "serve.trial_ms_mean": "ms",
    "serve.packed_share": "ratio",
    "serve.lanes_per_pass": "count",
    "serve.worker_busy_share": "ratio",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.overhead": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values, default=0.0):
    return statistics.median(values) if values else default


class Deadline(Exception):
    pass


class Crash(Exception):
    pass


class Spans:
    """Parent-side spans, merged with the ones each traced child prints."""

    def __init__(self, on):
        self.on = on
        self.items = []  # [name, layer, start_ns, end_ns, parent, op, pid]

    def open(self, name, layer, op):
        if not self.on:
            return -1
        self.items.append([name, layer, time.monotonic_ns(), 0, -1, op, 0])
        return len(self.items) - 1

    def close(self, i):
        if i >= 0:
            self.items[i][3] = time.monotonic_ns()

    def merge_child(self, spans, parent, pid):
        base = len(self.items)
        for name, layer, start, end, par, op in spans:
            self.items.append([name, layer, start, end,
                               parent if par < 0 else base + par, op, pid])

    def self_times(self):
        """Span duration minus the union of its direct children, per layer."""
        children = {}
        for i, s in enumerate(self.items):
            children.setdefault(s[4], []).append(i)
        out = {layer: 0.0 for layer in LAYERS}
        for i, (_, layer, start, end, _, _, _) in enumerate(self.items):
            covered, cursor = 0, start
            for c in sorted(children.get(i, []), key=lambda c: self.items[c][2]):
                lo, hi = max(self.items[c][2], cursor), min(self.items[c][3], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[layer] = out.get(layer, 0.0) + max(0, end - start - covered) / 1e9
        return out

    def write_chrome(self, path, meta):
        events = [{"name": n, "cat": layer, "ph": "X", "ts": s / 1e3,
                   "dur": (e - s) / 1e3, "pid": pid, "tid": 0,
                   "args": {"op": op, "parent": par}}
                  for n, layer, s, e, par, op, pid in self.items]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "otherData": meta}))


class Child:
    """One pb_call process whose stdout lines are read under a deadline."""

    def __init__(self, bench, cmd, stdin=False):
        self.bench = bench
        # A long-lived (stdin-driven) process idles between requests, so only
        # short-lived ones get a spawn span of their own.
        self.spawn = -1 if stdin else bench.spans.open("spawn", "harness",
                                                       bench.children)
        self.id = bench.children
        bench.children += 1
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL)
        self.buf = b""

    def send(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def next(self, deadline_s):
        """The next record; None at a clean exit. Raises Deadline when it is
        more than deadline_s late, Crash when the process exits nonzero."""
        fd = self.proc.stdout.fileno()
        until = time.monotonic() + deadline_s
        while b"\n" not in self.buf:
            remaining = until - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise Deadline()
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                if self.proc.wait() != 0:
                    raise Crash(f"exit code {self.proc.returncode}")
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        rec = json.loads(line)
        if rec["kind"] == "spans":
            self.bench.spans.merge_child(rec["spans"], self.spawn, self.proc.pid)
            return self.next(deadline_s)
        rec["child"] = self.id
        rec["t"] = time.monotonic() - self.bench.start
        self.bench.records.append(rec)
        return rec

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            if f:
                f.close()
        self.bench.spans.close(self.spawn)


class Bench:
    def __init__(self, args, binary):
        self.args = args
        self.binary = binary
        self.attempted = 0
        self.failed = 0
        self.spans = Spans(args.trace == 1)
        self.children = 0
        self.records = []  # every child record, kept in runs/ for analysis
        self.start = time.monotonic()

    def check(self, bad, what, repro):
        """Count one attempted operation; bad is None or why it failed."""
        self.attempted += 1
        if bad:
            self.failed += 1
            log(f"FAILED: {what}: {bad}")
            log(f"  reproduce: {' '.join(repro)}")
        return not bad

    # ---- engine calls --------------------------------------------------

    def engine_round(self, st):
        """One fresh process per engine, in round-robin order; seq first, so
        its first good call is the reference every other call must match.
        In a traced run, every other round's processes record spans."""
        traced = self.spans.on and st.rounds % 2 == 0
        st.rounds += 1
        # seq opens and closes the round: its single-threaded calls are the
        # most exposed to the speed of whichever cores are fast at the time.
        for engine in [*st.engines, "seq"]:
            if engine in st.skipped:
                continue
            cmd = [str(self.binary), "engine", "--engine", engine,
                   "--seed", str(self.args.seed), "--workers", str(WORKERS),
                   *st.inputs]
            repro = [os.path.relpath(self.binary, ROOT), *cmd[1:],
                     "--min-calls", "1", "--budget-ms", "0"]
            if engine == "seq":
                # Two timed calls pinned to each CPU (pb_call --rotate-cpus).
                cmd += ["--budget-ms", "0", "--min-calls",
                        str(2 * len(os.sched_getaffinity(0))), "--rotate-cpus"]
            else:
                cmd += ["--budget-ms", str(CHILD_BUDGET_MS),
                        "--min-calls", str(CHILD_MIN_CALLS)]
            if traced:
                cmd.append("--trace")
            if self.args.inject and engine == "hj":
                cmd += ["--inject", self.args.inject]
            walls = []
            child = Child(self, cmd)
            try:
                while (rec := child.next(st.deadline)) is not None:
                    if rec["kind"] == "partition":
                        st.partitions.append(rec)
                        continue
                    c = self.spans.open("check", "check", self.attempted)
                    if engine == "seq" and st.reference is None and not rec["error"]:
                        st.reference = (rec["events"], rec["digest"])
                    got = (rec["events"], rec["digest"])
                    bad = rec["error"] or (
                        None if got == st.reference
                        else f"events/digest {got} != seq reference {st.reference}")
                    self.spans.close(c)
                    if not self.check(bad, f"{st.name} {engine}", repro):
                        break
                    st.succeeded.add(engine)
                    st.samples[engine]["setup"].append(rec["setup_s"])
                    if not rec["warmup"]:
                        st.samples[engine]["calls"].append(rec)
                        walls.append(rec["wall_s"])
            except Deadline:
                self.check(f"no result within the {st.deadline:g} s deadline",
                           f"{st.name} {engine}", repro)
            except Crash as e:
                self.check(f"crashed ({e})", f"{st.name} {engine}", repro)
            finally:
                child.close()
            if engine not in st.succeeded:
                st.skipped.add(engine)
            if walls:
                st.samples[engine]["procs"].append(statistics.fmean(walls))
                st.samples[engine]["traced"].append(traced)


class EngineState:
    def __init__(self, name, inputs, smoke):
        wl = WORKLOADS[name]
        self.name = name
        self.inputs = inputs
        self.engines = wl["engines"]
        self.deadline = 5.0 if smoke else wl["deadline_s"]
        self.samples = {e: {"procs": [], "calls": [], "setup": [], "traced": []}
                        for e in ENGINES}
        self.partitions = []
        self.reference = None  # (events, digest) of the first good seq call
        self.skipped = set()
        self.succeeded = set()
        self.rounds = 0


class Serve:
    """The serve job stream: one warm TrialScheduler in one process, driven
    one stream at a time so streams interleave with the engine rounds."""

    def __init__(self, bench):
        self.bench = bench
        self.deadline = 10.0 if bench.args.smoke else SERVE_DEADLINE_S
        cmd = [str(bench.binary), "serve", "--seed", str(bench.args.seed),
               "--workers", str(WORKERS), "--setups", "9"]
        jobs = serve_jobs(bench.args.seed, bench.args.smoke)
        for job in jobs:
            cmd += ["--job", json.dumps(job, separators=(",", ":"))]
        if bench.spans.on:
            cmd.append("--trace")
        self.repro = [os.path.relpath(bench.binary, ROOT), *cmd[1:]]
        self.njobs = len(jobs)
        self.setup, self.jobs, self.rss = [], [], None
        self.totals = {}
        self.child = Child(bench, cmd, stdin=True)
        # Set-up lines, then the untimed warm-up stream.
        for _ in range(self.njobs):
            if not self.read(until_job=True):
                break

    def read(self, until_job):
        try:
            while (rec := self.child.next(self.deadline)) is not None:
                if rec["kind"] == "setup":
                    self.setup.append(rec["setup_s"])
                elif rec["kind"] == "serve_end":
                    self.rss = rec["rss_mb"]
                elif rec["kind"] == "job":
                    self.job(rec)
                    if until_job:
                        return True
            return False
        except Deadline:
            why = f"no result within the {self.deadline:g} s deadline"
        except Crash as e:
            why = f"crashed ({e})"
        self.bench.check(why, "serve", self.repro)
        self.close()
        return False

    def job(self, rec):
        c = self.bench.spans.open("check", "check", self.bench.attempted)
        # A job's event total repeats exactly across streams.
        expected = self.totals.setdefault(rec["id"], rec["total_events"])
        bad = rec["error"] or (
            None if expected == rec["total_events"]
            else f"total events {rec['total_events']} != {expected}")
        self.bench.spans.close(c)
        if self.bench.check(bad, f"serve {rec['id']}", self.repro):
            self.jobs.append(rec)

    def stream(self, warmup=False):
        if self.child is None:
            return
        self.child.send("warmup" if warmup else "stream")
        for _ in range(self.njobs):
            if not self.read(until_job=True):
                return

    def finish(self):
        if self.child is None:
            return
        self.child.send("end")
        self.read(until_job=False)
        self.close()

    def close(self):
        if self.child is not None:
            self.child.close()
            self.child = None


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = ROOT / target / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cfg = subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, cwd=ROOT)
        if cfg.returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    made = subprocess.run(["cmake", "--build", str(build_dir), "--target",
                           "pb_call", "-j", str(WORKERS)],
                          stdout=sys.stderr, cwd=ROOT)
    if made.returncode != 0:
        sys.exit("perfbench: build failed")
    return build_dir


def host_info(binary):
    info = json.loads(subprocess.run([str(binary), "info"], capture_output=True,
                                     text=True, check=True).stdout)
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info.update(nproc=os.cpu_count(), cpu_model=cpu)
    return info


def engine_metrics(samples, partitions):
    m = {}
    for e in ENGINES:
        s = samples[e]
        calls = s["calls"]
        events = calls[0]["events"] if calls else 0
        threads = 1 if e == "seq" else WORKERS

        def med(key, calls=calls):
            return median([c[key] for c in calls])

        def counter(key, calls=calls):
            return median([c["counters"].get(key, 0) for c in calls])

        m[f"{e}.events_per_s"] = median([events / w for w in s["procs"]])
        m[f"{e}.peak_rss_mb"] = med("rss_mb")
        m[f"{e}.cpu_s"] = med("cpu_s")
        m[f"{e}.cpu_util"] = median(
            [c["cpu_s"] / (c["wall_s"] * threads) for c in calls])
        m[f"{e}.events"] = events
        m[f"{e}.null_messages"] = med("null_messages")
        rounds = med("rounds")
        m[f"{e}.rounds"] = rounds
        m[f"{e}.events_per_round"] = events / rounds if rounds else 0.0
        if e == "hj":
            for k in ("tasks_spawned", "spawn_skips", "lock_failures"):
                m[f"hj.{k}"] = counter(k)
            m["hj.lock_fail_ratio"] = median(
                [c["counters"].get("lock_failures", 0) /
                 max(1, c["counters"].get("tasks_spawned", 0)) for c in calls])
        if e == "timewarp":
            for k in ("speculative_events", "rollbacks", "anti_messages",
                      "gvt_sweeps", "checkpoints"):
                m[f"timewarp.{k}"] = counter(k)
            spec = m["timewarp.speculative_events"]
            m["timewarp.efficiency"] = events / spec if spec else 0.0
        if e == "partitioned":
            for k in ("cut_events", "null_ratio_ppm", "channel_full_stalls"):
                m[f"part.{k}"] = counter(k)
    m["part.partition_s"] = median([p["partition_s"] for p in partitions])
    m["part.cut_edges"] = median([p["cut_edges"] for p in partitions])
    m["part.imbalance_ppm"] = median([p["imbalance_ppm"] for p in partitions])

    # Tracing overhead: traced against untraced processes of each engine.
    ratios = []
    for s in samples.values():
        on = [w for w, t in zip(s["procs"], s["traced"]) if t]
        off = [w for w, t in zip(s["procs"], s["traced"]) if not t]
        if on and off:
            ratios.append(median(on) / median(off) - 1.0)
    m["trace.overhead"] = median(ratios)
    return m


def serve_metrics(serve):
    m = {}
    timed = [j for j in serve.jobs if not j["warmup"]]
    for kind in ("packed", "sweep", "model"):
        m[f"serve.{kind}_trials_per_s"] = median(
            [j["trials"] / j["elapsed_s"] for j in timed if j["id"] == kind])
    m["serve.peak_rss_mb"] = serve.rss or 0.0
    m["serve.submit_s"] = median([j["submit_s"] for j in timed])
    m["serve.first_job_s"] = next(
        (j["elapsed_s"] for j in serve.jobs if j["warmup"]), 0.0)
    trials = sum(j["completed"] for j in timed)
    packed = sum(j["packed_trials"] for j in timed)
    passes = sum(j["packed_passes"] for j in timed)
    busy_ms = sum(j["trial_ms_sum"] for j in timed)
    elapsed = sum(j["elapsed_s"] for j in timed)
    m["serve.trial_ms_mean"] = busy_ms / trials if trials else 0.0
    m["serve.packed_share"] = packed / trials if trials else 0.0
    m["serve.lanes_per_pass"] = packed / passes if passes else 0.0
    m["serve.worker_busy_share"] = (
        busy_ms / 1e3 / (elapsed * WORKERS) if elapsed else 0.0)
    return m, median(serve.setup)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and deadlines (perfbench/test_smoke.py)")
    ap.add_argument("--inject", choices=["corrupt", "overrun"],
                    help="harness-side fault in the hj processes (tests only)")
    args = ap.parse_args()
    # On SIGTERM, unwind through the finally blocks that stop the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0 or args.seed > 10**9:
        sys.exit("perfbench: --seed must be in [0, 1e9]")

    binary = build() / "pb_call"
    info = host_info(binary)
    log(f"perfbench: {info}")
    if info["check"] or info["fault"] or info["sanitize"]:
        sys.exit("perfbench: refusing to time an instrumented build "
                 "(HJDES_CHECK / HJDES_FAULT / HJDES_SANITIZE)")

    bench = Bench(args, binary)
    inputs = SMOKE_INPUTS[args.workload] if args.smoke \
        else WORKLOADS[args.workload]["input"]
    st = EngineState(args.workload, inputs, args.smoke)
    serve = Serve(bench)
    try:
        # Engine rounds and serve streams alternate over the whole run, so
        # both sample the same stretch of host time. The first stream after
        # an engine round is a second warm-up: the streams right after the
        # first rounds ran slower. A round expected to end past --seconds is
        # not started, so a slow host shortens a run instead of lengthening it.
        rounds, loop_start = 0, time.monotonic()
        while True:
            now = time.monotonic()
            per_round = (now - loop_start) / rounds if rounds else 0.0
            if rounds >= 3 and now - bench.start + per_round > args.seconds:
                break
            bench.engine_round(st)
            serve.stream(warmup=rounds == 0)
            rounds += 1
        serve.finish()
    finally:
        serve.close()

    metrics = engine_metrics(st.samples, st.partitions)
    serve_m, sched_setup = serve_metrics(serve)
    metrics.update(serve_m)
    # Set-up is the engine input's build plus the scheduler's construction.
    # The per-layer build times also count the standalone serve checks'
    # builds, so each layer has samples on every workload.
    input_builds = [x for s in st.samples.values() for x in s["setup"]]
    metrics["setup_s"] = median(input_builds) + sched_setup
    layer = "circuit" if inputs[0] == "--circuit" else "model"
    builds = {"circuit": [], "model": [], layer: input_builds}
    for j in serve.jobs:
        if j["build_s"] > 0:
            builds[j["build_layer"]].append(j["build_s"])
    metrics["circuit.build_s"] = median(builds["circuit"])
    metrics["model.build_s"] = median(builds["model"])
    if bench.spans.on:
        for layer, secs in bench.spans.self_times().items():
            metrics[f"self_s.{layer}"] = secs
        trace = binary.parent / "traces" / f"{args.workload}-seed{args.seed}.json"
        bench.spans.write_chrome(trace, {**info, "workload": args.workload,
                                         "seed": args.seed})
        log(f"perfbench: trace written to {trace}")
        log("perfbench: self time by layer: " + ", ".join(
            f"{layer} {metrics[f'self_s.{layer}']:.3f} s" for layer in LAYERS))
        log(f"perfbench: tracing overhead {metrics['trace.overhead']:+.3%} "
            "(traced vs untraced engine processes)")

    runs = binary.parent / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in bench.records))

    names = PER_LAYER if args.trace else END_TO_END
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in names.items()}
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()
