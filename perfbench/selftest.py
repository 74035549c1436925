#!/usr/bin/env python3
"""Self-tests of the benchmark itself:

    python3 perfbench/selftest.py

- the same seed gives a byte-identical request schedule and corpus;
- the reference checker rejects a deliberately altered response;
- span self-time arithmetic handles nested and overlapping children.
"""

import hashlib
import socket
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SCHEDULE_LEN = 400


def schedule_digest(source):
    h = hashlib.sha256()
    for req in source.corpus:
        h.update(req.raw)
    for i in range(SCHEDULE_LEN):
        h.update(source.next(i % run.CONNS).raw)
    return h.hexdigest()


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pb = run.build()[1]
        (HERE / ".work").mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=HERE / ".work")

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def pool(self, workload, seed, name):
        path = Path(self.tmp.name) / name
        subprocess.run([str(self.pb), "gen", workload, str(seed), str(path),
                        str(run.ROOT / "examples" / "templates")], check=True)
        return path

    def test_pools_and_schedules_repeat(self):
        for workload in ("generate", "query"):
            a = self.pool(workload, 7, f"{workload}-a")
            b = self.pool(workload, 7, f"{workload}-b")
            c = self.pool(workload, 8, f"{workload}-c")
            self.assertEqual(a.read_bytes(), b.read_bytes(), workload)
            self.assertNotEqual(a.read_bytes(), c.read_bytes(), workload)
            self.assertEqual(schedule_digest(wl.PoolSource(workload, a, 7)),
                             schedule_digest(wl.PoolSource(workload, b, 7)), workload)

    def test_ingest_schedule_repeats(self):
        self.assertEqual(schedule_digest(wl.IngestSource(7, run.CONNS)),
                         schedule_digest(wl.IngestSource(7, run.CONNS)))
        self.assertNotEqual(schedule_digest(wl.IngestSource(7, run.CONNS)),
                            schedule_digest(wl.IngestSource(8, run.CONNS)))


def serve_once(body, status=200):
    """A one-connection HTTP server that answers every request with
    [status] and [body]; returns its port."""
    lst = socket.socket()
    lst.bind(("127.0.0.1", 0))
    lst.listen(1)

    def loop():
        conn, _ = lst.accept()
        lst.close()
        buf = b""
        with conn:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buf += chunk
                while b"\r\n\r\n" in buf:
                    head, _, rest = buf.partition(b"\r\n\r\n")
                    length = 0
                    for line in head.split(b"\r\n")[1:]:
                        k, _, v = line.partition(b":")
                        if k.strip().lower() == b"content-length":
                            length = int(v)
                    if len(rest) < length:
                        break
                    buf = rest[length:]
                    conn.sendall(b"HTTP/1.1 %d X\r\nContent-Length: %d\r\n\r\n%s"
                                 % (status, len(body), body))

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    return lst.getsockname()[1], thread


class ReferenceCheck(unittest.TestCase):
    def answer(self, req, body, status=200):
        port, thread = serve_once(body, status)
        client = loadgen.Client(port, 1)
        try:
            return client.request(0, req).ok
        finally:
            client.close()
            thread.join(timeout=5)

    def test_exact_response_passes_altered_fails(self):
        expected = b"<document><p>alice</p></document>"
        req = wl.Request("POST", "/generate", b"<t/>", check=wl.expect(200, expected))
        self.assertTrue(self.answer(req, expected))
        self.assertFalse(self.answer(req, expected.replace(b"alice", b"alicf")))
        self.assertFalse(self.answer(req, expected[:-1]))
        self.assertFalse(self.answer(req, expected, status=500))

    def test_ingest_read_checks_the_ledger(self):
        source = wl.IngestSource(3, 1)
        get = next(r for r in (source.next(0) for _ in range(50)) if r.method == "GET")
        value = source.ledgers[0][int(get.path.rsplit("-k", 1)[1])]
        self.assertTrue(get.check(200, value))
        self.assertFalse(get.check(200, value[:-1] + b"!"))
        self.assertFalse(get.check(404, value))


class SelfTime(unittest.TestCase):
    def span(self, sid, start, end, parent=-1):
        return {"id": sid, "name": f"s{sid}", "start": start, "end": end,
                "parent": parent, "req": 0}

    def test_nested_and_overlapping_children(self):
        tree = [
            self.span(1, 0, 100),
            self.span(2, 10, 30, 1),
            self.span(3, 20, 50, 1),  # overlaps span 2: [10, 50) counted once
            self.span(4, 90, 120, 1),  # sticks out: clipped to [90, 100)
            self.span(5, 12, 18, 2),  # grandchild: only span 2 loses it
            self.span(6, 60, 60, 1),  # empty child
        ]
        st = spans.self_times(tree)
        self.assertEqual(st[1], 100 - 40 - 10)
        self.assertEqual(st[2], 20 - 6)
        self.assertEqual(st[3], 30)
        self.assertEqual(st[4], 30)
        self.assertEqual(st[5], 6)
        self.assertEqual(st[6], 0)

    def test_covered_union(self):
        self.assertEqual(spans.covered([]), 0)
        self.assertEqual(spans.covered([(0, 5), (5, 10)]), 10)
        self.assertEqual(spans.covered([(3, 4), (0, 10), (12, 13)]), 11)


if __name__ == "__main__":
    unittest.main()
