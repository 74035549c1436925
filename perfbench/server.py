"""The awbserve child process: spawn, readiness, /proc sampling, stop."""

import os
import re
import signal
import socket
import subprocess
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT_S = 60.0


class Server:
    def __init__(self, binary, workdir, cfg):
        args = [binary, "serve", "--port", "0", "--keepalive",
                "--max-inflight", "2", "--queue-cap", "256",
                "--max-conn-requests", "100000000", "--idle-timeout", "120",
                "--cache", str(cfg["cache"])]
        if cfg["store"]:
            args += ["--store", "store"]
        if cfg["replicas"]:
            args += ["--replicas", str(cfg["replicas"]), "--write-quorum", "2"]
        # Replica sockets go under TMPDIR; "." keeps them inside the work
        # directory and their paths short.
        env = dict(os.environ, TMPDIR=".")
        self.proc = subprocess.Popen(args, cwd=workdir, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, start_new_session=True)
        self.port = None
        deadline = time.monotonic() + READY_TIMEOUT_S
        for line in self.proc.stdout:
            m = re.search(rb"listening on [\d.]+:(\d+)", line)
            if m:
                self.port = int(m.group(1))
                break
            if time.monotonic() > deadline:
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("awbserve did not start")
        while not self._ready():
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("awbserve never became ready")
            time.sleep(0.002)

    def _ready(self):
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=5) as s:
                s.sendall(b"GET /readyz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
                data = b""
                while True:
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            return data.startswith(b"HTTP/1.1 200")
        except OSError:
            return False

    def pids(self):
        """The server and its direct children (replica backends)."""
        pids = [self.proc.pid]
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat") as f:
                        fields = f.read().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                if int(fields[1]) == self.proc.pid:
                    pids.append(int(entry))
        return pids

    def cpu_s(self):
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])  # utime + stime
        return total / CLK_TCK

    def peak_rss_mb(self):
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                continue
        return total / 1024

    def stop(self):
        """SIGTERM (graceful drain), then SIGKILL the whole group; wait
        until no process of it is left."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        kill_group(self.proc)
        self.proc.stdout.close()


def kill_group(proc):
    """SIGKILL what is left of [proc]'s process group (started with
    start_new_session) and wait until none of it remains."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def parse_metrics(text):
    """Prometheus text -> {name: value summed over label sets}."""
    out = {}
    for line in text.splitlines():
        if not line or line[0] == "#":
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        try:
            out[name] = out.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return out
