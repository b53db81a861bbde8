#!/usr/bin/env python3
"""End-to-end smoke test of janusd over its Unix socket.

Starts janusd on a temporary socket (--workers 2 --queue 8 --cache STORE)
and drives a seeded mix through it: tables, multi-output PLAs, malformed
lines and expired deadlines from four closed-loop clients (the second half
repeats the first half's functions), then a burst pipelined on one
connection. Fails unless every status matches its request kind, every size
equals `janus batch -p` on the same PLA, >= 30% of warm repeats come back
`from_cache`, the burst draws an `overloaded`, an over-long line draws
exactly one `bad_request` and the next line is still served, SIGTERM exits
0 with the store written, and a second janusd on that store answers a
repeated function `from_cache`.

Usage: python3 tools/janusd_smoke.py --janusd build/janusd --janus build/janus
Exits 0 when every check passes, 1 on the first failure.
"""

import argparse
import concurrent.futures
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

SEED = 0  # the workload below was validated at this seed only
NUM_TABLES, NUM_PLAS, BURST_COLD = 12, 2, 4
STREAM_N, BURST_N, CLIENTS = 160, 60, 4
MAX_LINE_BYTES = 1 << 20  # protocol_limits::max_line_bytes, janusd's default
MALFORMED = [
    '{"v":1,"op":"synth","id":"m"',  # truncated
    '{"v":1,"op":"synth","n":3,"table":"01"}',  # length mismatch
    "this is not a request",  # not JSON
]


class SmokeFailure(Exception):
    pass


def check(condition, why):
    if not condition:
        raise SmokeFailure(why)


# ---- workload ----------------------------------------------------------------

def random_table(rng, min_vars, seen):
    """A non-constant table not drawn before, as (n, bits)."""
    while True:
        n = rng.randint(min_vars, 4)
        bits = "".join(rng.choice("01") for _ in range(1 << n))
        if "0" in bits and "1" in bits and bits not in seen:
            seen.add(bits)
            return n, bits


def table_pla(n, bits):
    """One-output PLA listing the minterms; input column i is bit i."""
    rows = ["".join("1" if (m >> i) & 1 else "0" for i in range(n)) + " 1"
            for m, b in enumerate(bits) if b == "1"]
    return f".i {n}\n.o 1\n" + "\n".join(rows) + "\n.e\n"


def random_pla(rng):
    n, outputs = rng.randint(2, 4), rng.randint(1, 3)
    rows = ["".join(rng.choice("01-") for _ in range(n)) + " " +
            "".join(rng.choice("01") for _ in range(outputs))
            for _ in range(rng.randint(2, 6))]
    return f".i {n}\n.o {outputs}\n" + "\n".join(rows) + "\n.e\n"


def build_pool(rng):
    """Stream tables, then stream PLAs, then the burst's cold 4-var tables.
    Each entry is (request fields, PLA text)."""
    seen, pool = set(), []
    for _ in range(NUM_TABLES):
        n, bits = random_table(rng, 2, seen)
        pool.append(({"n": n, "table": bits}, table_pla(n, bits)))
    for _ in range(NUM_PLAS):
        pla = random_pla(rng)
        pool.append(({"pla": pla}, pla))
    for _ in range(BURST_COLD):
        n, bits = random_table(rng, 4, seen)
        pool.append(({"n": n, "table": bits}, table_pla(n, bits)))
    return pool


def reference_sizes(janus, pool, workdir):
    """Per-output switch counts from `janus batch -p`, one shared store."""
    store = os.path.join(workdir, "reference.store")
    sizes = []
    for k, (_, pla) in enumerate(pool):
        path = os.path.join(workdir, f"entry{k}.pla")
        with open(path, "w", encoding="utf-8") as f:
            f.write(pla)
        out = subprocess.run([janus, "batch", "-p", path, "--cache", store],
                             capture_output=True, text=True, check=True)
        sizes.append([int(parts[2]) for parts in map(str.split,
                                                     out.stdout.splitlines())
                      if len(parts) > 3 and parts[3] == "switches"])
    return sizes


def synth_line(fields, request_id, deadline_ms=None):
    request = {"v": 1, "op": "synth", "id": request_id, **fields}
    if deadline_ms is not None:
        request["deadline_ms"] = deadline_ms
    return json.dumps(request)


def build_workload(rng, pool, sizes):
    """(id, line, kind, warm, expected sizes) items: the stream, the burst."""
    stream_pool = len(pool) - BURST_COLD
    stream = []
    for k in range(STREAM_N):
        rid, mode = f"r{k}", rng.random()
        if mode < 0.90:
            pick = rng.randrange(NUM_TABLES if mode < 0.82 else stream_pool)
            item = (synth_line(pool[pick][0], rid), "ok", sizes[pick])
        elif mode < 0.95:
            item = (rng.choice(MALFORMED), "bad_request", [])
        else:
            pick = rng.randrange(stream_pool)
            item = (synth_line(pool[pick][0], rid, 0), "timeout", [])
        stream.append((rid, item[0], item[1], k >= STREAM_N // 2, item[2]))
    burst = []
    for k in range(BURST_N):
        # Cold functions first (they occupy the workers), then warm repeats.
        pick = stream_pool + k if k < BURST_COLD else rng.randrange(stream_pool)
        burst.append((f"b{k}", synth_line(pool[pick][0], f"b{k}"), "ok",
                      False, sizes[pick]))
    return stream, burst


# ---- the daemon and its clients ---------------------------------------------

class Client:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(120)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def send(self, *lines):
        self.sock.sendall("".join(line + "\n" for line in lines).encode())

    def recv(self):
        line = self.reader.readline()
        check(line.endswith(b"\n"), "connection closed by janusd")
        return json.loads(line)

    def call(self, line):
        self.send(line)
        return self.recv()

    def close(self):
        self.reader.close()
        self.sock.close()


def start_daemon(janusd, sock, store):
    proc = subprocess.Popen([janusd, "--socket", sock, "--cache", store,
                             "--workers", "2", "--queue", "8"])
    for _ in range(100):
        if os.path.exists(sock) or proc.poll() is not None:
            break
        time.sleep(0.1)
    if proc.poll() is None and os.path.exists(sock):
        return proc
    proc.kill()
    proc.wait()
    raise SmokeFailure(f"janusd did not come up on {sock}")


def stop_daemon(proc, store):
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=120)
    check(code == 0, f"janusd exited {code} on SIGTERM")
    check(os.path.isfile(store), "janusd did not write its store on drain")


class Tally:
    def __init__(self):
        self.lock = threading.Lock()
        self.warm_outputs = self.warm_hits = self.overloaded = 0


def account(item, response, in_burst, tally):
    rid, _, expected, warm, sizes = item
    status = response.get("status")
    if status == "error":
        status = response.get("error")
    if in_burst and status in ("overloaded", "timeout"):
        with tally.lock:
            tally.overloaded += status == "overloaded"
        return
    check(status == expected, f"{rid}: expected {expected}, got {response}")
    if status != "ok":
        return
    outputs = response.get("outputs", [])
    check([o.get("switches") for o in outputs] == sizes,
          f"{rid}: sizes differ from janus batch {sizes}: {response}")
    if warm and not in_burst:
        with tally.lock:
            tally.warm_outputs += len(outputs)
            tally.warm_hits += sum(o.get("from_cache") is True
                                   for o in outputs)


def drive_stream(sock, stream, tally):
    next_item, lock = iter(stream), threading.Lock()

    def client_loop():
        client = Client(sock)
        try:
            while True:
                with lock:
                    item = next(next_item, None)
                if item is None:
                    return
                account(item, client.call(item[1]), False, tally)
        finally:
            client.close()

    with concurrent.futures.ThreadPoolExecutor(CLIENTS) as clients:
        for done in [clients.submit(client_loop) for _ in range(CLIENTS)]:
            done.result()  # re-raises a client's failure


def drive_burst(sock, burst, tally):
    client = Client(sock)
    client.send(*(item[1] for item in burst))
    by_id = {item[0]: item for item in burst}
    for _ in burst:
        response = client.recv()
        item = by_id.pop(response.get("id"), None)
        check(item is not None, f"burst response with unknown id: {response}")
        account(item, response, True, tally)
    client.close()
    check(tally.overloaded >= 1, "the burst never tripped admission control")


def oversized_line(sock):
    client = Client(sock)
    client.send("{" + "x" * (MAX_LINE_BYTES + 4096),
                '{"v":1,"op":"ping","id":"after"}')
    first, second = client.recv(), client.recv()
    client.close()
    check(first.get("error") == "bad_request",
          f"over-long line drew {first}, not bad_request")
    check(second.get("id") == "after" and second.get("pong") is True,
          f"the line after an over-long one was not served: {second}")


def run(args, workdir):
    rng = random.Random(SEED)
    pool = build_pool(rng)
    sizes = reference_sizes(args.janus, pool, workdir)
    stream, burst = build_workload(rng, pool, sizes)
    sock = os.path.join(workdir, "janusd.sock")
    store = os.path.join(workdir, "janusd.store")

    daemon = start_daemon(args.janusd, sock, store)
    try:
        tally = Tally()
        drive_stream(sock, stream, tally)
        check(tally.warm_outputs > 0 and
              tally.warm_hits >= 0.30 * tally.warm_outputs,
              f"warm hit rate {tally.warm_hits}/{tally.warm_outputs} "
              "below 0.30")
        drive_burst(sock, burst, tally)
        oversized_line(sock)
        stop_daemon(daemon, store)

        daemon = start_daemon(args.janusd, sock, store)
        client = Client(sock)
        response = client.call(synth_line(pool[0][0], "restart"))
        client.close()
        check(response.get("status") == "ok" and
              all(o.get("from_cache") is True for o in response["outputs"]),
              f"warm restart missed the persisted store: {response}")
        stop_daemon(daemon, store)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    print(f"janusd_smoke: OK ({len(stream)} stream requests, warm hits "
          f"{tally.warm_hits}/{tally.warm_outputs}, burst "
          f"{tally.overloaded}/{len(burst)} overloaded)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--janusd", required=True, help="janusd binary")
    parser.add_argument("--janus", required=True, help="janus CLI binary")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="janusd_smoke") as workdir:
        try:
            run(args, workdir)
        except (SmokeFailure, OSError, ValueError,
                subprocess.SubprocessError) as e:
            print(f"janusd_smoke: FAIL: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
