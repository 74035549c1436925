"""Seeded request sources for the four workloads.

Everything a run sends is a pure function of the workload name and the
seed: the generate and query pools come from `pb gen` (which also
computes their reference responses), ingest traffic from a per-connection
RNG here. Each request carries the check its response must pass.
"""

import math
import random

import records

# Per-workload open-loop rate (requests/s across both connections),
# warm-up length (requests, a fixed count so every run's measured window
# starts at the same place in the schedule) and server flags. Rates sit
# well under the closed-loop capacity on a 2-core x86 VM, so the open
# loop measures service latency plus modest queueing, not overload.
WORKLOADS = {
    "generate": {"rate": 8.0, "warmup": 32, "cache": 8, "store": False, "replicas": 0},
    "query": {"rate": 20.0, "warmup": 48, "cache": 128, "store": True, "replicas": 0},
    "ingest": {"rate": 700.0, "warmup": 200, "cache": 128, "store": True, "replicas": 0},
    "ingest_repl": {"rate": 100.0, "warmup": 100, "cache": 128, "store": True, "replicas": 3},
}

INGEST_KEYS_PER_CONN = 64
INGEST_WRITE_SHARE = 0.60
INGEST_DELETE_SHARE = 0.15  # of writes
INGEST_MIN_BYTES = 200
INGEST_MAX_BYTES = 16 * 1024


class Request:
    __slots__ = ("method", "path", "raw", "check", "kind")

    def __init__(self, method, path, body=b"", headers=(), check=None, kind="read"):
        head = [b"%s %s HTTP/1.1" % (method.encode(), path.encode()), b"Host: bench"]
        head += [b"%s: %s" % (k.encode(), v.encode()) for k, v in headers]
        head.append(b"Content-Length: %d" % len(body))
        self.method, self.path, self.kind = method, path, kind
        self.raw = b"\r\n".join(head) + b"\r\n\r\n" + body
        self.check = check


def expect(status, body=None):
    """A check: the status must match, and the body too when given."""
    def check(got_status, got_body):
        return got_status == status and (body is None or got_body == body)
    return check


class PoolSource:
    """Seeded draws from the pool `pb gen` wrote (generate or query).

    Requests are dealt from a deck that is reshuffled each pass: each
    query program once per pass; each model equally often, with each of
    its host templates twice plus one functional and one xq request where
    the pool has them. The seed picks every model and document (and so
    every body); the order in which deck positions are dealt is the same
    for every seed, so run-to-run spread measures the program, not how
    often a heavy request happened to land behind another.
    """

    def __init__(self, workload, pool_path, seed):
        self.rng = random.Random(f"{workload}:schedule")
        self.corpus = []
        self.deck = []
        by_model = {}
        for tag, fields in records.read(pool_path):
            if tag == "C":
                path, body = fields
                self.corpus.append(Request("PUT", path.decode(), body, check=expect(200),
                                           kind="write"))
                continue
            method, path, engine, body, expected, meta = fields
            headers = [("X-Engine", engine.decode())] if engine else []
            req = Request(method.decode(), path.decode(), body, headers,
                          check=expect(200, expected))
            if workload == "query":
                self.deck.append(req)
            else:
                m = dict(kv.split("=") for kv in meta.decode().split())
                by_model.setdefault(int(m["model"]), {}).setdefault(engine.decode(), []).append(req)
        for k in sorted(by_model):
            engines = by_model[k]
            host = engines["host"]
            self.deck += host + host
            for extra in ("functional", "xq"):
                self.deck.append(self.rng.choice(engines.get(extra) or host))
        self.dealt = len(self.deck)

    def next(self, conn):
        if self.dealt == len(self.deck):
            self.rng.shuffle(self.deck)
            self.dealt = 0
        self.dealt += 1
        return self.deck[self.dealt - 1]


class IngestSource:
    """Writes and reads on per-connection key spaces.

    Each connection owns its keys and the server answers one
    connection's requests in order, so the connection's own ledger of
    writes is the reference for every GET it sends.
    """

    def __init__(self, seed, conns):
        self.rngs = [random.Random(f"ingest:{seed}:{c}") for c in range(conns)]
        self.ledgers = [{} for _ in range(conns)]
        self.serial = [0] * conns
        self.corpus = []

    def body(self, rng, conn, key):
        self.serial[conn] += 1
        size = int(math.exp(rng.uniform(math.log(INGEST_MIN_BYTES), math.log(INGEST_MAX_BYTES))))
        head = b'<doc key="%s" n="%d"><payload>' % (key.encode(), self.serial[conn])
        tail = b"</payload></doc>"
        fill = max(0, size - len(head) - len(tail))
        word = b"%08x " % rng.getrandbits(32)
        return head + (word * (fill // len(word) + 1))[:fill] + tail

    def next(self, conn):
        rng, ledger = self.rngs[conn], self.ledgers[conn]
        path = "/collections/ingest/docs/c%d-k%d"
        if ledger and rng.random() >= INGEST_WRITE_SHARE:
            key = rng.choice(sorted(ledger))
            return Request("GET", path % (conn, key), check=expect(200, ledger[key]))
        key = rng.randrange(INGEST_KEYS_PER_CONN)
        if key in ledger and rng.random() < INGEST_DELETE_SHARE:
            del ledger[key]
            return Request("DELETE", path % (conn, key), check=expect(200, b"deleted\n"),
                           kind="write")
        body = self.body(rng, conn, f"c{conn}-k{key}")
        ledger[key] = body
        return Request("PUT", path % (conn, key), body, check=expect(200), kind="write")
