#!/usr/bin/env python3
"""Serving benchmark of the LAC-128 / LWR-512 KEM handshake.

    python3 hsbench/run.py --workload W --seed N --seconds T --trace 0|1

Builds kem_server and the measuring binary from this checkout (Release,
under .bench_build/), starts a fresh `kem_server --listen 0 --workers 2`
(both schemes, all-RTL slot mix, prober on) and drives one workload from
a single-threaded client over 4 connections. Every reply is checked.

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced
layer-by-layer measurement and prints the per-layer metrics instead.
Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. A run that cannot build or
start exits nonzero without that line.
"""

import argparse
import json
import os
import platform
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hsbench"

WORKLOADS = ("lac-handshake", "lwr-handshake", "lac-open")
WARMUP_S = 1.0
# kem_server spawns per timed run; setup_s is their median.
SETUP_REPEATS = 21
# A run whose client used this much of a core, or (open loop) sent its
# requests this late at p99, measured the client rather than the server:
# it is marked invalid. A healthy lac-open run sends within 2-5 ms at p99
# on 4 vCPUs (a scheduler slice or two while the server fills the cores).
LATE_P99_LIMIT_US = 20000.0
GEN_CPU_LIMIT = 0.9
# How long after its first ping reply a kem_server is left before SIGTERM.
SIGNAL_GRACE_S = 0.05

# Golden-backend modeled cycles per op, as table2_kem_cycles --json prints
# them under "schemes". No host-only change may move them.
EXPECTED_CYCLES = {
    "model.lac128.encaps_cycles": 671456,
    "model.lac128.decaps_cycles": 845696,
    "model.lwr512.encaps_cycles": 224776,
    "model.lwr512.decaps_cycles": 242660,
}

END_TO_END = {
    "handshakes_per_s": "1/s",
    "handshake_p50_us": "us",
    "handshake_p995_us": "us",
    "success_share": "ratio",
    "server_cpu_us_per_handshake": "us",
    "server_peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units():
    """Every per-layer metric the traced run prints, with its unit."""
    names = [
        "net.ping_rtt_p50_us", "net.wire_overhead_p50_us",
        "trace.overhead_p50_us",
        "service.overhead_p50_us", "service.mean_batch_size",
        "service.batched_lane_share", "service.shed_share",
        "service.attempts_per_request",
        "fault.kat_sweep_us", "service.probe_busy_share",
    ]
    for s in ("lac128", "lwr512"):
        names += [f"lac.{s}.decaps_tampered_us"]
        for op in ("encaps", "decaps"):
            names += [f"lac.{s}.{op}_us", f"lac.{s}.{op}_batch8_lane_us",
                      f"lac.{s}.{op}.unattributed_share"]
            slots = ("mul_ter", "sha256", "chien") if s == "lac128" else \
                ("mul_ter", "sha256")
            for slot in slots:
                names += [f"slot.{s}.{op}.{slot}_us",
                          f"slot.{s}.{op}.{slot}_calls"]
        names += [f"pke.{s}.sample_us", f"pke.{s}.hash_us",
                  f"setup.{s}.keygen_us", f"setup.{s}.context_build_us",
                  f"model.{s}.encaps_cycles", f"model.{s}.decaps_cycles"]
    names += [
        "kernel.mul_ter.rtl_us", "kernel.mul_ter.modeled_us",
        "kernel.mul_ter.modeled_q256_us", "kernel.mul_ter.batch8_lane_us",
        "kernel.chien.rtl_us", "kernel.chien.modeled_us",
        "kernel.sha256.rtl_us", "kernel.sha256.sw_us",
        "bch.encode_us", "bch.decode_0err_us", "bch.decode_terr_us",
        "verify.lac128.shadow_encaps_us", "verify.lac128.shadow_decaps_us",
        "setup.service_ctor_us", "gen.late_p99_us", "gen.cpu_share",
    ]

    def unit(name):
        for suffix, u in (("_us", "us"), ("_share", "ratio"),
                          ("_calls", "count"), ("_cycles", "cycles")):
            if name.endswith(suffix):
                return u
        return {"service.mean_batch_size": "requests",
                "service.attempts_per_request": "attempts"}[name]

    return {n: unit(n) for n in names}


class BenchError(Exception):
    """The run could not be carried out (as opposed to a failed check)."""


def log(line=""):
    print(line, flush=True)


# ---- build ----------------------------------------------------------------

def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "kem_server", "hsbench"],
    ]
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(see {BUILD / 'build.log'})")


def build_type():
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


# ---- kem_server -------------------------------------------------------------

def ping_frame(request_id):
    # Request header: magic 'LQ', version 1, op 3 (ping), request id, key
    # id 0, payload length 0 (src/net/protocol.h).
    return struct.pack("<2sBBQII", b"LQ", 1, 3, request_id, 0, 0)


class Server:
    """One kem_server process; construction measures its set-up time."""

    def __init__(self, run_dir, index):
        self.port_file = run_dir / f"port{index}"
        self.log_path = run_dir / f"kem_server{index}.log"
        self.port_file.unlink(missing_ok=True)
        self.log_file = open(self.log_path, "w")
        cmd = [str(BUILD / "examples" / "kem_server"), "--listen", "0",
               "--workers", "2", "--port-file", str(self.port_file)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self.log_file,
                                     stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_port(t0)
            self._first_ping()
            self.ready_at = time.perf_counter()
            self.setup_s = self.ready_at - t0
        except BaseException:
            self.kill()
            raise

    def _wait_port(self, t0):
        while time.perf_counter() - t0 < 60:
            if self.proc.poll() is not None:
                raise BenchError("kem_server exited during start-up")
            try:
                text = self.port_file.read_text()
                if text.endswith("\n"):
                    return int(text)
            except (FileNotFoundError, ValueError):
                pass
            time.sleep(0.0001)
        raise BenchError("kem_server did not publish its port")

    def _first_ping(self):
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=30) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(ping_frame(1))
            reply = b""
            while len(reply) < 16:
                chunk = sock.recv(16 - len(reply))
                if not chunk:
                    raise BenchError("kem_server closed the ping connection")
                reply += chunk
        if reply[:2] != b"LQ" or reply[3] != 0:
            raise BenchError("kem_server answered the ping with an error")

    def stop(self):
        """SIGTERM, wait for the drain; return (exit code, counters)."""
        # kem_server publishes its port just before it installs its SIGTERM
        # handler; a signal inside that window kills it undrained.
        wait = self.ready_at + SIGNAL_GRACE_S - time.perf_counter()
        time.sleep(max(0.0, wait))
        self.proc.terminate()
        try:
            rc = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1, {}
        finally:
            self.log_file.close()
        counters = {}
        for line in self.log_path.read_text().splitlines():
            if line.startswith("kem-server: submitted "):
                for part in line[len("kem-server: "):].split(" | "):
                    words = part.split()
                    if len(words) >= 2 and words[1].isdigit():
                        counters[words[0]] = int(words[1])
        return rc, counters

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self.log_file.closed:
            self.log_file.close()


def hsbench(args, timeout):
    cmd = [str(BUILD / "hsbench")] + [str(a) for a in args]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"hsbench {args[0]} exited {done.returncode}")
    return json.loads(lines[-1])


# ---- runs -------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metadata(args, runs):
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except OSError:
        commit = ""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    btype = build_type()
    log(f"hsbench: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s window, trace {args.trace}")
    log(f"  commit {commit or 'unknown (not a git checkout)'}, build {btype}, "
        f"nproc {os.cpu_count()}, cpu {cpu}, {platform.system()} "
        f"{platform.release()}")
    log(f"  runs in this invocation: {runs}")
    if btype not in ("Release", "RelWithDebInfo", "MinSizeRel"):
        log(f"  WARNING: build type '{btype}' is not optimized; "
            "timings are not comparable")


class Gate:
    """The correctness checks of one run; any failure makes it incorrect."""

    def __init__(self):
        self.failures = []

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    def server(self, rc, counters, label):
        self.check(rc == 0, f"{label}: kem_server drained with exit {rc}")
        self.check("submitted" in counters and
                   counters.get("submitted") == counters.get("completed"),
                   f"{label}: submitted {counters.get('submitted')} != "
                   f"completed {counters.get('completed')}")

    def drive(self, d, label):
        o = d["outcomes"]
        self.check(o["key_mismatch"] == 0,
                   f"{label}: {o['key_mismatch']} honest key mismatches")
        self.check(o["tamper_same_key"] == 0,
                   f"{label}: {o['tamper_same_key']} tampered handshakes got "
                   "the honest key")
        self.check(o["protocol"] == 0 and d["reply_protocol_errors"] == 0,
                   f"{label}: protocol errors")
        self.check(d["attempted"] > 0, f"{label}: no handshake attempted")

    def model(self, cycles):
        for name, want in EXPECTED_CYCLES.items():
            self.check(cycles.get(name) == want,
                       f"{name} = {cycles.get(name)}, expected {want}")

    def generator(self, d, label):
        # gen_late_p99_us is 0 in the closed loops: they have no schedule
        # to fall behind.
        self.check(d["gen_late_p99_us"] <= LATE_P99_LIMIT_US and
                   d["gen_cpu_share"] <= GEN_CPU_LIMIT,
                   f"{label}: run invalid, the client lagged or saturated "
                   f"(late p99 {d['gen_late_p99_us']:.0f} us, "
                   f"cpu {d['gen_cpu_share']:.2f})")


def drive(server, args, window_s, extra=()):
    return hsbench(["drive", "--port", server.port,
                    "--workload", args.workload, "--seed", args.seed,
                    "--warmup-s", WARMUP_S, "--seconds", window_s,
                    "--server-pid", server.proc.pid, *extra],
                   timeout=window_s + WARMUP_S + 60)


def timed_run(args, run_dir, gate):
    """Untraced run: the end-to-end metrics."""
    setup = []
    server = None
    try:
        for i in range(SETUP_REPEATS):
            if server is not None:
                gate.server(*server.stop(), f"set-up spawn {i}")
            server = Server(run_dir, i)
            setup.append(server.setup_s)
        d = drive(server, args, args.seconds)
        gate.server(*server.stop(), "serving spawn")
    finally:
        if server is not None:
            server.kill()
    gate.drive(d, "wire")
    gate.generator(d, "wire")

    attempted = int(d["attempted"])
    failed = attempted - int(d["outcomes"]["ok"])
    done = d["handshakes_per_s"] * d["window_s"]
    metrics = {
        "handshakes_per_s": d["handshakes_per_s"],
        "handshake_p50_us": d["handshake_p50_us"],
        "handshake_p995_us": d["handshake_p995_us"],
        "success_share": (attempted - failed) / attempted if attempted else 0,
        "server_cpu_us_per_handshake":
            d["server_cpu_s"] * 1e6 / done if done else 0,
        "server_peak_rss_mb": d["server_vmhwm_kb"] / 1024,
        "setup_s": statistics.median(setup),
    }
    s_q = quartiles(setup)
    log(f"  setup_s over {len(setup)} spawns: median {s_q[1]:.4f}, "
        f"quartiles {s_q[0]:.4f} / {s_q[2]:.4f}")
    log(f"  host steal: {100 * d['steal_share']:.1f}% of CPU time over the "
        f"window, {100 * d['quiet_steal_share']:.1f}% over its "
        f"{int(d['quiet_slices'])} quiet one-second slices of "
        f"{int(d['slices'])}, which the rate and latencies come from")
    r_q = quartiles(d["quiet_slice_rates"])
    log(f"  handshakes_per_s over the quiet slices: median {r_q[1]:.1f}, "
        f"quartiles {r_q[0]:.1f} / {r_q[2]:.1f}")
    log(f"  whole window: handshakes_per_s {d['all_handshakes_per_s']:.1f}, "
        f"p50 {d['all_handshake_p50_us']:.0f} us, p99.5 "
        f"{d['all_handshake_p995_us']:.0f} us over "
        f"{int(d['all_latency_samples'])} samples")
    log(f"  latency: {int(d['latency_samples'])} honest samples; attempted "
        f"{attempted} ({int(d['tampered'])} tampered), failed {failed} "
        f"(failed_share {failed / attempted if attempted else 0:.4f}); "
        f"outcomes {d['outcomes']}")
    log(f"  generator: late p50 {d['gen_late_p50_us']:.0f} us, p99 "
        f"{d['gen_late_p99_us']:.0f} us, cpu share {d['gen_cpu_share']:.3f}")
    return attempted, failed, metrics, END_TO_END


def traced_run(args, run_dir, gate):
    """Traced run: four levels over the same seeded inputs."""
    # Per-layer metrics carry no bound, so each level gets a fifth of the
    # window: the traced run costs about as much as a timed one.
    level_s = max(2.0, 0.2 * args.seconds)
    server = Server(run_dir, 0)
    try:
        ping = ("--ping-us", 2000)
        plain = drive(server, args, level_s, ping)
        traced = drive(server, args, level_s,
                       ping + ("--spans", run_dir / "spans-wire.jsonl"))
        gate.server(*server.stop(), "traced spawn")
    finally:
        server.kill()
    for d, label in ((plain, "wire"), (traced, "wire traced")):
        gate.drive(d, label)
        gate.generator(d, label)
    layers = hsbench(["layers", "--workload", args.workload,
                      "--seed", args.seed,
                      "--service-s", level_s,
                      "--spans", run_dir / "spans-layers.jsonl"],
                     timeout=150)
    for failure in layers["failed_checks"]:
        gate.check(False, failure)

    metrics = dict(layers["metrics"])
    metrics["net.ping_rtt_p50_us"] = plain["ping_rtt_p50_us"]
    metrics["net.wire_overhead_p50_us"] = (
        plain["handshake_p50_us"] - layers["service_handshake_p50_us"])
    metrics["trace.overhead_p50_us"] = (
        traced["handshake_p50_us"] - plain["handshake_p50_us"])
    metrics["gen.late_p99_us"] = plain["gen_late_p99_us"]
    metrics["gen.cpu_share"] = plain["gen_cpu_share"]
    log(f"  wire: handshake p50 {plain['handshake_p50_us']:.1f} us untraced, "
        f"{traced['handshake_p50_us']:.1f} us traced; ping p50 over "
        f"{int(plain['ping_samples'])} pings; service "
        f"p50 {layers['service_handshake_p50_us']:.1f} us; "
        f"{int(traced['spans'] + layers['spans'])} spans in {run_dir}")
    log(f"  stage self time per op (us): {json.dumps(layers['breakdown'])}")
    attempted = int(plain["attempted"] + traced["attempted"])
    failed = attempted - int(plain["outcomes"]["ok"] + traced["outcomes"]["ok"])
    return attempted, failed, metrics, per_layer_units()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
        run_dir = BUILD / "runs" / f"{args.workload}-{args.seed}-t{args.trace}"
        run_dir.mkdir(parents=True, exist_ok=True)
        metadata(args, SETUP_REPEATS if args.trace == 0 else 1)
        gate = Gate()
        model = hsbench(["model"], timeout=60)
        gate.model(model)
        run = traced_run if args.trace else timed_run
        attempted, failed, metrics, units = run(args, run_dir, gate)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as e:
        print(f"hsbench: {e}", file=sys.stderr)
        return 1

    if args.trace:
        metrics.update(model)
    missing = [n for n in units if n not in metrics or metrics[n] is None]
    for name in missing:
        gate.check(False, f"metric {name} was not measured")
    for name, unit in units.items():
        if name not in missing:
            log(f"  {name} = {metrics[name]:.6g} {unit}")
    for failure in gate.failures:
        log(f"  CHECK FAILED: {failure}")
    log(f"  correctness gate: {'pass' if not gate.failures else 'FAIL'}")
    result = {
        "correct": not gate.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items() if n not in missing},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
