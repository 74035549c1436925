"""Open- and closed-loop HTTP/1.1 load over keep-alive connections, from
one process and one thread.

Open loop: request i is due at start + i/rate on connection i mod n and is
written the moment it is due, pipelined behind whatever that connection
still has in flight, so server-side queueing shows up as latency. Latency
is measured from the due time; the generator's own lateness (enqueue time
minus due time) is reported so a run where the client fell behind can be
told apart from one where the server did.

Closed loop: each connection sends its next request when the previous
response has arrived.
"""

import selectors
import socket
import time

from workloads import Request

now = time.perf_counter

RESPONSE_TIMEOUT_S = 30.0


class Result:
    __slots__ = ("req", "due", "enqueued", "done", "status", "ok")

    def __init__(self, req, due, enqueued):
        self.req, self.due, self.enqueued = req, due, enqueued
        self.done, self.status, self.ok = None, None, False

    @property
    def latency(self):
        return self.done - self.due


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inb = bytearray()
        self.pending = []  # Results awaiting responses, in send order
        self.head = None  # (status, content_length) of the response being read
        self.closed = False

    def enqueue(self, result):
        self.pending.append(result)
        self.out += result.req.raw
        self.flush()

    def flush(self):
        while self.out:
            try:
                n = self.sock.send(self.out)
            except BlockingIOError:
                return
            except OSError:
                self.closed = True
                return
            del self.out[:n]

    def on_readable(self, t):
        """Read what is there and complete the Results it answers."""
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self.closed = True
            return
        # Acknowledge at once (Linux resets this after a while, so it is
        # set on every read). awbserve leaves Nagle on: with delayed ACKs,
        # once a connection has pipelined, each later response waits for
        # the ACK riding on that connection's next request, and latency
        # reads the send interval instead of the server.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        self.inb += chunk
        while True:
            if self.head is None:
                end = self.inb.find(b"\r\n\r\n")
                if end < 0:
                    break
                lines = bytes(self.inb[:end]).split(b"\r\n")
                status = int(lines[0].split(b" ", 2)[1])
                length = 0
                for line in lines[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                del self.inb[:end + 4]
                self.head = (status, length)
            status, length = self.head
            if len(self.inb) < length:
                break
            body = bytes(self.inb[:length])
            del self.inb[:length]
            self.head = None
            r = self.pending.pop(0)
            r.done, r.status = t, status
            r.ok = 200 <= status < 300 and r.req.check(status, body)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class Client:
    def __init__(self, port, conns):
        self.conns = [Conn(port) for _ in range(conns)]
        # select(2) takes a microsecond timeout; epoll's millisecond one
        # would make every send up to 1 ms late.
        self.sel = selectors.SelectSelector()
        for i, c in enumerate(self.conns):
            self.sel.register(c.sock, selectors.EVENT_READ, i)
        self.sent = []  # every Result, in send order (the replay input)

    def _watch_writes(self):
        for i, c in enumerate(self.conns):
            ev = selectors.EVENT_READ | (selectors.EVENT_WRITE if c.out else 0)
            self.sel.modify(c.sock, ev, i)

    def _poll(self, timeout):
        """Wait up to [timeout] and handle whatever is ready."""
        for key, ev in self.sel.select(max(0.0, timeout)):
            c = self.conns[key.data]
            if ev & selectors.EVENT_WRITE:
                c.flush()
            if ev & selectors.EVENT_READ:
                c.on_readable(now())
        self._watch_writes()

    def _send(self, ci, req, due, record=True):
        r = Result(req, due, now())
        if record:
            self.sent.append(r)
        self.conns[ci].enqueue(r)
        return r

    def _finish(self, deadline):
        """Wait for outstanding responses until [deadline]; the rest fail."""
        while any(c.pending and not c.closed for c in self.conns) and now() < deadline:
            self._poll(min(0.05, deadline - now()))
        for c in self.conns:
            for r in c.pending:
                r.done, r.status, r.ok = now(), None, False
            c.pending.clear()

    def request(self, ci, req):
        """One request on connection [ci], waited for (set-up, scrapes);
        not part of the replayed traffic."""
        r = self._send(ci, req, now(), record=False)
        deadline = now() + RESPONSE_TIMEOUT_S
        while r.done is None and now() < deadline and not self.conns[ci].closed:
            self._poll(0.05)
        return r

    def scrape(self, ci, parse):
        """GET /metrics on a load connection, between phases."""
        body = {}

        def keep(status, b):
            body["text"] = b
            return status == 200

        r = self.request(ci, Request("GET", "/metrics", check=keep))
        if not r.ok:
            raise RuntimeError("metrics scrape failed")
        return parse(body["text"].decode())

    def open_loop(self, source, rate, seconds):
        n = max(1, int(rate * seconds))
        start = now() + 0.01
        results, i = [], 0
        while i < n:
            t = now()
            while i < n and start + i / rate <= t:
                ci = i % len(self.conns)
                results.append(self._send(ci, source.next(ci), start + i / rate))
                i += 1
            self._watch_writes()
            if i < n:
                self._poll(start + i / rate - now())
        self._finish(start + n / rate + RESPONSE_TIMEOUT_S)
        return results, max(r.done for r in results) - start

    def closed_loop(self, source, seconds, count=None):
        """Run for [seconds], or until [count] requests have been sent."""
        results = []
        start = now()
        stop = start + seconds
        more = lambda: now() < stop and (count is None or len(results) < count)  # noqa: E731
        for ci in range(len(self.conns)):
            if more():
                results.append(self._send(ci, source.next(ci), now()))
        self._watch_writes()
        while more():
            self._poll(stop - now())
            for ci, c in enumerate(self.conns):
                if not c.pending and not c.closed and more():
                    results.append(self._send(ci, source.next(ci), now()))
            self._watch_writes()
            if all(c.closed for c in self.conns):
                break
        self._finish(now() + RESPONSE_TIMEOUT_S)
        elapsed = max(r.done for r in results) - start
        return results, elapsed

    def close(self):
        for c in self.conns:
            self.sel.unregister(c.sock)
            c.close()
        self.sel.close()
