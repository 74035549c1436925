#!/usr/bin/env python3
"""One benchmark for the whole stack: drives the real `awbserve serve`
binary over keep-alive HTTP with a seeded workload, checks every
response against an independent reference, and prints the metrics as
one JSON line (see README.md in this directory).

    python3 perfbench/run.py --workload generate --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics. --trace 1 runs the same open
loop with client spans, then replays the run's first requests through
each layer in-process (perfbench/replay/pb.ml) and prints the per-layer
metrics; spans are written to perfbench/.work/spans-WORKLOAD-SEED.jsonl.
Exits non-zero when any response fails its reference check.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import records  # noqa: E402
import server as srv  # noqa: E402
import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = HERE.parent
CONNS = min(2, os.cpu_count() or 1)
SETUPS = 5  # setup_s is the median of this many spawn-to-ready set-ups
WARMUP_LIMIT_S = 30.0
OPEN_SHARE = 0.7  # of --seconds; the closed loop gets the rest
REPLAY_MAX = {"generate": 120, "query": 300, "ingest": 600, "ingest_repl": 300}
REPLAY_TIMEOUT_S = 90
BEHIND_MS = 5.0  # generator lateness p99 above this flags the run
TAIL_WINDOW = 500  # samples per window for the windowed p99
TAIL_WINDOWS_MIN = 3

now = loadgen.now


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    targets = ["bin/awbserve.exe", "perfbench/replay/pb.exe"]
    r = subprocess.run([dune, "build", "--root", ".", *targets], cwd=ROOT,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("build failed")
    return [ROOT / "_build" / "default" / t for t in targets]


def pct(values, q):
    s = sorted(values)
    if not s:
        return 0.0
    k = (len(s) - 1) * q / 100
    f = int(k)
    c = min(f + 1, len(s) - 1)
    return s[f] + (s[c] - s[f]) * (k - f)


def tail_pct(values, q, window=TAIL_WINDOW):
    """The q-th percentile; from TAIL_WINDOWS_MIN full windows of [window]
    consecutive samples on, the median of the windows' percentiles, so
    one stall does not decide the run."""
    k = len(values) // window
    if k < TAIL_WINDOWS_MIN:
        return pct(values, q)
    return statistics.median(pct(values[i * window:(i + 1) * window], q) for i in range(k))


def ratio(num, den):
    return num / den if den else 0.0


class Run:
    def __init__(self, args, awbserve, pb, work):
        self.args, self.awbserve, self.pb, self.work = args, awbserve, pb, work
        self.cfg = wl.WORKLOADS[args.workload]
        self.attempted = self.failed = 0
        self.pool = None
        if args.workload in ("generate", "query"):
            self.pool = work / "pool.bin"
            r = subprocess.run([str(pb), "gen", args.workload, str(args.seed), str(self.pool),
                                str(ROOT / "examples" / "templates")],
                               stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                die("reference computation failed (engines disagree?)")
            self.source = wl.PoolSource(args.workload, self.pool, args.seed)
        else:
            self.source = wl.IngestSource(args.seed, CONNS)

    def tally(self, results):
        self.attempted += len(results)
        self.failed += sum(1 for r in results if not r.ok)

    def setup(self):
        """Spawn-to-ready plus corpus preload, SETUPS times on fresh state;
        the last server is kept."""
        times = []
        for k in range(SETUPS):
            shutil.rmtree(self.work / "store", ignore_errors=True)
            t0 = now()
            server = srv.Server(str(self.awbserve), self.work, self.cfg)
            client = loadgen.Client(server.port, CONNS)
            preload = [client.request(0, req) for req in self.source.corpus]
            times.append(now() - t0)
            self.tally(preload)
            if k < SETUPS - 1:
                client.close()
                server.stop()
        return server, client, statistics.median(times)

    def measure(self):
        args = self.args
        server, client, setup_s = self.setup()
        try:
            self.tally(client.closed_loop(self.source, WARMUP_LIMIT_S, self.cfg["warmup"])[0])
            m0 = client.scrape(0, srv.parse_metrics)
            cpu0 = server.cpu_s()
            open_s = args.seconds * OPEN_SHARE
            if args.trace:
                # Untraced then traced halves: their p50 ratio is the
                # tracing overhead.
                plain, plain_s = client.open_loop(self.source, self.cfg["rate"], open_s / 2)
                traced, traced_s = client.open_loop(self.source, self.cfg["rate"], open_s / 2)
                opened, opened_s = plain + traced, plain_s + traced_s
            else:
                opened, opened_s = client.open_loop(self.source, self.cfg["rate"], open_s)
            cpu1 = server.cpu_s()
            m1 = client.scrape(0, srv.parse_metrics)
            closed, closed_s = client.closed_loop(self.source, args.seconds - open_s)
            rss = server.peak_rss_mb()
            sent = client.sent
        finally:
            client.close()
            server.stop()
        self.tally(opened)
        self.tally(closed)
        lat = [r.latency * 1000 for r in opened]
        late = [(r.enqueued - r.due) * 1000 for r in opened]
        e2e = {
            "setup_s": (setup_s, "s"),
            "p50_ms": (pct(lat, 50), "ms"),
            "p99_ms": (tail_pct(lat, 99), "ms"),
            "goodput_rps": (sum(r.ok for r in opened) / opened_s, "1/s"),
            "sat_rps": (sum(r.ok for r in closed) / closed_s, "1/s"),
            "peak_rss_mb": (rss, "MB"),
            "cpu_ms_per_op": ((cpu1 - cpu0) * 1000 / max(1, len(opened)), "ms"),
        }
        if pct(late, 99) > BEHIND_MS:
            print(f"perfbench: WARNING the load generator fell behind "
                  f"(lateness p99 {pct(late, 99):.2f} ms)", file=sys.stderr)
        if not args.trace:
            return e2e
        layer = self.client_layer(opened, late, m0, m1)
        layer["trace.overhead_ratio"] = (
            ratio(pct([r.latency for r in traced], 50), pct([r.latency for r in plain], 50)),
            "ratio")
        layer.update(self.replay(sent, traced, pct([r.latency for r in plain], 50) * 1000))
        return layer

    def client_layer(self, opened, late, m0, m1):
        def delta(name):
            return m1.get(name, 0.0) - m0.get(name, 0.0)

        def hit_ratio(cache):
            hits = delta(f"lopsided_service_{cache}_cache_hits_total")
            return ratio(hits, hits + delta(f"lopsided_service_{cache}_cache_misses_total"))

        def latency_ms(kind, q):
            if not self.args.workload.startswith("ingest"):
                return 0.0
            return tail_pct([r.latency * 1000 for r in opened if r.req.kind == kind], q)

        user_bytes = sum(len(r.req.raw) - r.req.raw.index(b"\r\n\r\n") - 4
                         for r in opened if r.ok and r.req.method == "PUT")
        shed = delta("lopsided_server_shed_total")
        store_writes = delta("lopsided_store_ingests_total") + delta("lopsided_store_deletes_total")
        return {
            "fail_frac": (ratio(self.failed, self.attempted), "fraction"),
            "write_p50_ms": (latency_ms("write", 50), "ms"),
            "write_p99_ms": (latency_ms("write", 99), "ms"),
            "read_p50_ms": (latency_ms("read", 50), "ms"),
            "read_p99_ms": (latency_ms("read", 99), "ms"),
            "write_amp": (ratio(delta("lopsided_store_appended_bytes_total"), user_bytes), "ratio"),
            "client.late_p50_ms": (pct(late, 50), "ms"),
            "client.late_p99_ms": (pct(late, 99), "ms"),
            "server.shed_frac": (ratio(shed, delta("lopsided_server_accepted_total") + shed),
                                 "fraction"),
            "service.model_hit_ratio": (hit_ratio("model"), "ratio"),
            "service.template_hit_ratio": (hit_ratio("template"), "ratio"),
            "service.query_hit_ratio": (hit_ratio("query"), "ratio"),
            "service.evictions": (delta("lopsided_service_evictions_total"), "count"),
            "store.fsyncs_per_write": (ratio(delta("lopsided_store_fsyncs_total"), store_writes),
                                       "count"),
            "store.segments_rotated": (max(0.0, delta("lopsided_store_segments")), "count"),
            "replica.quorum_failures": (delta("lopsided_store_repl_quorum_failures_total"),
                                        "count"),
        }

    def replay(self, sent, traced, untraced_p50_ms):
        """Replay the run's first requests layer by layer; per-layer metrics."""
        args = self.args
        requests = self.work / "replay.bin"
        with open(requests, "wb") as out:
            for r in sent[:REPLAY_MAX[args.workload]]:
                records.write(out, "Q", [r.req.raw])
        spans_out = self.work / "replay-spans.jsonl"
        # Its own process group: the replay spawns replica backends.
        proc = subprocess.Popen([str(self.pb), "replay", args.workload, str(requests),
                                 str(self.pool) if self.pool else "-", str(self.cfg["cache"]),
                                 str(spans_out)],
                                cwd=self.work, env=dict(os.environ, TMPDIR="."),
                                stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
        try:
            rc = proc.wait(timeout=REPLAY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = None
        srv.kill_group(proc)
        if rc != 0:
            die("traced replay failed")
        spans, counts = sp.load(spans_out)
        # The whole trace: client spans of the traced open-loop half (ns,
        # client clock) followed by the replay's layer spans.
        keep = HERE / ".work" / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(keep, "w") as f:
            for i, t in enumerate(traced):
                f.write(json.dumps({"id": -1 - i, "name": "client.request",
                                    "start": int(t.due * 1e9), "send": int(t.enqueued * 1e9),
                                    "end": int(t.done * 1e9), "parent": -1, "req": i,
                                    "ok": t.ok}) + "\n")
            with open(spans_out) as src:
                shutil.copyfileobj(src, f)
        selft = sp.self_times(spans)
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)

        def p50(name, scale, self_time=False):
            xs = [(selft[s["id"]] if self_time else s["end"] - s["start"]) for s in by_name.get(name, ())]
            return pct(xs, 50) / scale

        US, MS = 1e3, 1e6
        counted = {}
        for c in counts:
            counted.setdefault(c["count"], []).append(c["value"])

        def cp50(name):
            return pct(counted.get(name, []), 50)

        # Per-request layer sum: the non-probe root spans, i.e. the calls
        # the server itself makes for that request.
        per_req = {}
        for s in spans:
            if s["parent"] < 0 and not s["probe"] and s["req"] >= 0:
                per_req[s["req"]] = per_req.get(s["req"], 0) + s["end"] - s["start"]
        layer_sum_ms = pct(list(per_req.values()), 50) / MS
        out = {
            "trace.replayed": (len(per_req), "count"),
            "trace.spans": (len(spans), "count"),
            "server.overhead_ms": (untraced_p50_ms - layer_sum_ms, "ms"),
            "http.read_us": (p50("http.read", US), "us"),
            "http.write_us": (p50("http.write", US), "us"),
            "http.req_kb": (cp50("http.req_kb"), "KiB"),
            "service.run_ms": (p50("service.run", MS), "ms"),
            "service.template_ms": (cp50("service.template_ms"), "ms"),
            "service.model_ms": (cp50("service.model_ms"), "ms"),
            "service.generate_ms": (cp50("service.generate_ms"), "ms"),
            "service.serialize_ms": (cp50("service.serialize_ms"), "ms"),
            "service.run_query_ms": (p50("service.run_query", MS), "ms"),
            "awb.import_ms": (p50("awb.import", MS), "ms"),
            "docgen.host_ms": (p50("docgen.host", MS), "ms"),
            "docgen.functional_ms": (p50("docgen.functional", MS), "ms"),
            "docgen.xq_ms": (p50("docgen.xq", MS), "ms"),
            "docgen.queries_per_doc": (cp50("docgen.queries_per_doc"), "count"),
            "awb_query.native_us": (p50("awb_query.native", US), "us"),
            "awb_query.xquery_ms": (p50("awb_query.xquery", MS), "ms"),
            "awb_query.mismatches": (sum(counted.get("awb_query.mismatches", [])), "count"),
            "xquery.compile_ms": (p50("xquery.compile", MS), "ms"),
            "xquery.run_ms": (p50("xquery.run", MS, self_time=True), "ms"),
            "xquery.run_minor_kw": (cp50("xquery.run_minor_kw"), "kwords"),
            "xquery.result_items": (cp50("xquery.result_items"), "count"),
            "xml_base.parse_ms": (p50("xml_base.parse", MS), "ms"),
            "xml_base.serialize_ms": (p50("xml_base.serialize", MS), "ms"),
            "store.put_us": (p50("store.put", US), "us"),
            "store.delete_us": (p50("store.delete", US), "us"),
            "store.get_us": (p50("store.get", US), "us"),
            "store.checkpoint_ms": (p50("store.checkpoint", MS), "ms"),
            "replica.put_ms": (p50("replica.put", MS), "ms"),
            "replica.get_us": (p50("replica.get", US), "us"),
        }
        # Where the replayed time went: each layer's self time over all
        # non-probe spans (the server's own call path), as a share.
        layer_self = {}
        for s in spans:
            if not s["probe"]:
                layer = s["name"].split(".", 1)[0]
                layer_self[layer] = layer_self.get(layer, 0) + selft[s["id"]]
        total = sum(layer_self.values())
        for layer in ("http", "service", "xml_base", "store", "replica"):
            out[f"share.{layer}"] = (ratio(layer_self.get(layer, 0), total), "fraction")
        return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    awbserve, pb = build()
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args, awbserve, pb, work)
        metrics = run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    if not correct:
        print(f"perfbench: {run.failed} of {run.attempted} responses failed their check",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
