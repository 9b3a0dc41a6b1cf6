#!/usr/bin/env python3
"""perfbench: the mineq benchmark.

Run from the root of a mineq checkout:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The workloads (perfbench/workloads.json) run the real mineq_cli binary,
built here from source: serve_hot and serve_cold against a `mineq_cli
serve --jobs 1` daemon, offline as one-shot CLI processes and batch
jobs.  Every answer is compared with a reference pb_ref computes
in-process before the timed phases; a mismatch, an error response
(MINEQ-S004/S005 included), a transport failure or a non-zero exit is
a failure.

--trace 0 prints the end-to-end metrics, measured with no tracing.
--trace 1 replays the same inputs in-process under spans (pb_trace)
and prints the per-layer metrics.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import ctypes
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUN_ROOT = ".pb_run"
CLI = os.path.join(BUILD_DIR, "default", "bin", "mineq_cli.exe")
PB = os.path.join(BUILD_DIR, "default", "perfbench")
BOOTS = 21  # setup_s samples taken before the measured rounds
ROUNDS = (3, 20)  # serve rounds (fresh daemons) per run: at least, at most
PASSES = (2, 30)  # offline passes per run: at least, at most

with open(os.path.join(HERE, "workloads.json")) as fh:
    WORKLOADS = json.load(fh)["workloads"]
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


class BenchError(Exception):
    """The benchmark cannot produce a result (no sources, build failure,
    a daemon that never answers)."""


def log(msg):
    print(msg, flush=True)


# Build -----------------------------------------------------------------

def build(targets):
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/mineq_cli.ml")):
        raise BenchError("no mineq source tree in the current directory")
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD_DIR, "xdg-cache")))
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           *targets]
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       timeout=850)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        raise BenchError("build failed")


def provenance():
    """nproc, the OCaml version and the commit under test.  Outside a
    git repository the commit is a digest of the sources instead."""
    def out(argv):
        try:
            r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               timeout=30)
            return r.stdout.decode().strip() if r.returncode == 0 else None
        except OSError:
            return None
    commit = out(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None
    if commit is None:
        h = hashlib.md5()
        for path in ["dune-project"] + sorted(os.path.join(root, f) for top in ("bin", "lib")
                                              for root, _, files in os.walk(top)
                                              for f in files):
            h.update(path.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
        commit = "source-md5:" + h.hexdigest()
    return {"nproc": os.cpu_count(), "ocaml": out(["ocamlfind", "ocamlopt", "-version"]),
            "commit": commit}


# Statistics --------------------------------------------------------------

def pct(values, p):
    """Nearest-rank percentile of an unsorted list."""
    s = sorted(values)
    return s[min(len(s) - 1, int(p * (len(s) - 1) + 0.5))]


def median(values):
    return statistics.median(values)


# Answer checking ------------------------------------------------------------

def jb(v):
    return "true" if v else "false"


def serve_signature(resp):
    """The answer a serve response gives, in pb_ref's signature form, or
    None when the response is not an ok answer."""
    if resp.get("ok") is not True:
        return None
    op = resp.get("op")
    if op == "equiv":
        return f"equiv {resp['method']} {jb(resp['equivalent'])} {jb(resp['banyan'])}"
    if op == "banyan":
        return f"banyan {jb(resp['banyan'])}"
    if op == "lint":
        rep = resp["report"]
        return (f"lint {resp['errors']} {resp['warnings']} {resp['infos']} "
                f"{resp['exit_code']} {jb(rep['equivalent'])} {jb(rep['banyan'])}")
    if op == "blocking":
        if not resp["delta"]:
            return "blocking false"
        return "blocking true " + ";".join(f"{c['class']}={c['verdict']}"
                                           for c in resp["classes"])
    return None


def check_serve_response(payload, expected):
    """(ok, got) for one response payload against its expected
    signature."""
    try:
        got = serve_signature(json.loads(payload))
    except (ValueError, KeyError, TypeError) as e:
        return False, f"unparseable response ({e})"
    if got is None:
        return False, payload[:300]
    return got == expected, got


def lines_dict(text):
    out = {}
    for line in text.splitlines():
        if ":" in line:
            k, v = line.split(":", 1)
            out[k.strip()] = v.strip()
    return out


def offline_signature(kind, code, text):
    """The answer a one-shot or batch job printed, in pb_ref's
    signature form; None when the job failed outright."""
    d = lines_dict(text)
    yes = {"yes": True, "no": False}
    if kind == "iso":
        if code == 0 and text.startswith("isomorphic;") and "(verified: true)" in text:
            return "true"
        if code == 1 and text.strip() == "not isomorphic":
            return "false"
        return None
    if kind == "lint":
        if code not in (0, 1):
            return None
        rep = json.loads(text)
        s = rep["summary"]
        return (f"{code} {s['errors']} {s['warnings']} {s['infos']} "
                f"{jb(rep['equivalent'])} {jb(rep['banyan'])}")
    if code != 0:
        return None
    if kind == "equiv":
        return f"{d['equivalent']} {d['banyan']}"
    if kind == "check":
        banyan = yes[d["banyan"]]
        char = banyan and yes[d["P(1,j) for all j"]] and yes[d["P(i,n) for all i"]]
        return f"{jb(banyan)} {jb(char)}"
    if kind == "route":
        return d["port word"] if "port word" in d else ("none" if "no path" in text else None)
    if kind == "perm":
        return d.get("plan realizes the permutation")
    if kind == "census":
        m = re.search(r"streamed (\d+) \S+ specs at n=\d+: (\d+) isomorphism classes in "
                      r"(\d+) fingerprint buckets \((\d+) collisions\)", text)
        return " ".join(m.groups()) if m else None
    if kind == "churn":
        m = re.search(r"connects (\d+)\s+disconnects (\d+)", text)
        moved = re.search(r"moved per connect: ([0-9.]+) mean", text)
        if not (m and moved) or d.get("end-of-trial consistency failures") != "0":
            return None
        return f"{m.group(1)} {m.group(2)} {moved.group(1)}"
    if kind == "simulate":
        return f"{d['offered']} {d['injected']} {d['delivered']}"
    return None


def check_offline_output(kind, code, text, expected):
    try:
        got = offline_signature(kind, code, text)
    except (ValueError, KeyError, TypeError) as e:
        return False, f"unparseable output ({e})"
    if got is None:
        return False, f"exit {code}: {text[:300]}"
    return got == expected, got


class Tally:
    """Attempted/failed counts, printing the first few failures with
    their input."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what, expected, got):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                log(f"MISMATCH {what}\n  expected: {expected}\n  got:      {got}")


def checker_self_test():
    """The checks must count a flipped verdict, a shed (S005) response
    and a non-zero exit as failures; a run stops if they do not."""
    good = '{"id":3,"ok":true,"op":"equiv","method":"characterization",' \
           '"equivalent":true,"banyan":true,"detail":"x"}'
    cases = [
        (check_serve_response(good, "equiv characterization true true")[0], True),
        (check_serve_response(good.replace('"equivalent":true', '"equivalent":false'),
                              "equiv characterization true true")[0], False),
        (check_serve_response('{"id":3,"ok":false,"error":{"code":"MINEQ-S005",'
                              '"message":"overloaded"}}', "banyan true")[0], False),
        (check_offline_output("equiv", 0, "equivalent: true\nbanyan:     true\n",
                              "true true")[0], True),
        (check_offline_output("equiv", 1, "equivalent: true\nbanyan:     true\n",
                              "true true")[0], False),
        (check_offline_output("perm", 2, "", "true")[0], False),
    ]
    return all(got == want for got, want in cases)


# Processes -------------------------------------------------------------------

def vmhwm_kib(pid):
    """Peak resident set of a live process, from /proc; None once its
    memory is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def spawn_timed(argv, out_path, watch_rss=False):
    """Run one job to completion: (seconds from spawn to exit, exit
    code, peak RSS in KiB or None).  stdout goes to out_path.

    The peak comes from polling /proc while the job runs (watch_rss),
    not from wait4: a spawned child's ru_maxrss includes the memory of
    the process that spawned it."""
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
    peak = [None]
    done = threading.Event()

    def watch(pid):
        while not done.is_set():
            peak[0] = vmhwm_kib(pid) or peak[0]
            done.wait(0.002)
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    watcher = threading.Thread(target=watch, args=(pid,)) if watch_rss else None
    if watcher:
        watcher.start()
    try:
        _, status, _ = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        done.set()
        if watcher:
            watcher.join()
    t1 = time.perf_counter()
    return t1 - t0, os.waitstatus_to_exitcode(status), peak[0]


def frame(obj):
    payload = json.dumps(obj).encode()
    return struct.pack(">I", len(payload)) + payload


def read_frame(sock):
    def exactly(n):
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise BenchError("daemon closed the connection")
            buf += chunk
        return buf
    (n,) = struct.unpack(">I", exactly(4))
    return json.loads(exactly(n))


LIVE = []  # daemons to kill if a run is cut short

# With two or more CPUs the daemon and the load generator each get one
# of their own.  Left to the scheduler, a socket ping-pong pair often
# shares a core on one run and not on the next, which moves throughput
# by a third between otherwise identical runs.
_CPUS = sorted(os.sched_getaffinity(0))
DAEMON_CPU = {_CPUS[-1]} if len(_CPUS) >= 2 else None
CLIENT_CPU = {_CPUS[0]} if len(_CPUS) >= 2 else None


try:
    _PRCTL = ctypes.CDLL(None).prctl
except (OSError, AttributeError):
    _PRCTL = None


def pinned(cpus):
    """preexec_fn that pins the child to cpus (None: no pinning) and
    has the kernel kill it should this process die first."""
    def setup():
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
        if _PRCTL is not None:
            _PRCTL(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    return setup


# A vCPU with nothing to run halts, and waking it costs the hypervisor
# tens to hundreds of microseconds, more when the host is busy.  An
# open-loop request finds the daemon idle, so left alone its latency
# measured the host's wake-ups more than the program: serve_cold's p50
# moved by half between runs.  While a serve workload measures, every
# CPU gets a SCHED_IDLE busy loop -- what the kernel's idle=poll does:
# it runs only when nothing else can and gives way as soon as anything
# wakes.  offline runs without: with the loops, its one-shot calls
# doubled in time during busy phases of the host in two of three
# ten-run sets, against one of nine sets without them.
SPIN = "import os\nos.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\nwhile True: pass\n"


class IdleSpinners:
    def __enter__(self):
        self.procs = [subprocess.Popen([sys.executable, "-c", SPIN], stdin=subprocess.DEVNULL,
                                       preexec_fn=pinned({cpu}))
                      for cpu in _CPUS]
        return self

    def __exit__(self, *_):
        for p in self.procs:
            p.kill()
        for p in self.procs:
            p.wait()


class Daemon:
    """One `mineq_cli serve` process on a socket inside the run
    directory."""

    def __init__(self, sock_path, args, log_path):
        self.sock_path = sock_path
        self.args = args
        self.log_path = log_path
        self.proc = None
        self.sock = None

    def boot(self):
        """Spawn and wait for the first ok ping; returns the seconds
        from spawn to that answer."""
        if os.path.exists(self.sock_path):
            os.remove(self.sock_path)
        with open(self.log_path, "ab") as logf:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                [os.path.abspath(CLI), "serve", "--socket", self.sock_path, *self.args],
                stdout=subprocess.DEVNULL, stderr=logf, stdin=subprocess.DEVNULL,
                preexec_fn=pinned(DAEMON_CPU))
        LIVE.append(self)
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode} during boot")
            if time.perf_counter() - t0 > 30:
                raise BenchError("daemon did not answer a ping within 30 s")
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                time.sleep(0.0002)
                continue
            break
        s.settimeout(30)
        self.sock = s
        resp = self.call({"op": "ping"})
        t1 = time.perf_counter()
        if resp.get("ok") is not True:
            raise BenchError(f"ping answered {resp}")
        return t1 - t0

    def call(self, obj):
        self.sock.sendall(frame(obj))
        return read_frame(self.sock)

    def vmhwm_kib(self):
        kib = vmhwm_kib(self.proc.pid)
        if kib is None:
            raise BenchError("no VmHWM for the daemon")
        return kib

    def shutdown(self):
        """Ask the daemon to stop and wait for it; True when it exits 0."""
        if self.sock is None:  # it never answered: nothing to ask
            self.kill()
            return False
        try:
            self.call({"op": "shutdown"})
            self.sock.close()
            code = self.proc.wait(timeout=30)
        except (OSError, BenchError, subprocess.TimeoutExpired):
            self.kill()
            return False
        LIVE.remove(self)
        return code == 0

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self in LIVE:
            LIVE.remove(self)


# Serve workloads ---------------------------------------------------------------

def mix_arg(mix):
    return ",".join(f"{label}={share}" for label, share in mix.items())


def read_json_lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def run_load(mode, rundir, sock, requests, out, extra):
    argv = [os.path.join(PB, "pb_load.exe"), mode, "--socket", sock, "--requests",
            os.path.join(rundir, requests), "--out", os.path.join(rundir, out), *extra]
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
                       preexec_fn=pinned(CLIENT_CPU))
    if r.returncode != 0:
        log(f"pb_load {mode} exited {r.returncode}: {r.stderr.decode(errors='replace')[-500:]}")
        with open(os.path.join(rundir, "daemon.log"), errors="replace") as fh:
            log("daemon log tail: " + fh.read()[-1000:])
        return None
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def read_responses(path):
    """index -> (due_us, sent_us, recv_us, payload), plus the payloads
    whose id matched no request (index -1)."""
    out, stray = {}, []
    if not os.path.exists(path):
        return out, stray
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            idx, due, sent, recv, payload = line.rstrip("\n").split("\t", 4)
            if int(idx) < 0:
                stray.append(payload)
            else:
                out[int(idx)] = (float(due), float(sent), float(recv), payload)
    return out, stray


def check_phase(tally, path, requests, expects, phase):
    """Check every request of a phase; returns the responses and the set
    of ok indices."""
    responses, stray = read_responses(path)
    for payload in stray:
        tally.record(False, f"{phase} response with no matching request", "-", payload[:300])
    ok_idx = set()
    checked = {}
    for i, expected in enumerate(expects):
        r = responses.get(i)
        if r is None:
            tally.record(False, f"{phase} request {requests[i][:200]}", expected, "no response")
            continue
        # serve_hot repeats identical answers: check each distinct
        # (payload without id, expectation) once.
        key = (re.sub(r'"id":\d+,', "", r[3], count=1), expected)
        if key not in checked:
            checked[key] = check_serve_response(r[3], expected)
        ok, got = checked[key]
        tally.record(ok, f"{phase} request {requests[i][:200]}", expected, got)
        if ok:
            ok_idx.add(i)
    return responses, ok_idx


def prepare_serve_inputs(name, cfg, seed, rundir):
    """Inputs, references and daemon arguments of one serve run."""
    cl, ol = cfg["closed_loop"], cfg["open_loop"]
    subprocess.run([os.path.join(PB, "pb_ref.exe"), "serve", "--workload", name, "--seed",
                    str(seed), "--mix", mix_arg(cfg["op_mix"]), "--closed", str(cl["requests"]),
                    "--open", str(ol["requests"]), "--rate", str(ol["rate_per_s"]), "--out",
                    rundir], check=True, timeout=170)
    prep = {"sock": os.path.join(rundir, "d.sock"), "args": list(cfg["daemon"]["args"]),
            "log": os.path.join(rundir, "daemon.log"), "snapshot": None,
            "expects": {}, "requests": {}}
    for p in ("closed", "open"):
        prep["expects"][p] = read_json_lines(os.path.join(rundir, f"{p}.expect"))
        with open(os.path.join(rundir, f"{p}.jsonl")) as fh:
            prep["requests"][p] = fh.read().splitlines()
    return prep


def prepare_serve(name, cfg, seed, rundir):
    """prepare_serve_inputs, and for a snapshot workload the untimed
    priming pass whose shutdown snapshot warm-boots every measured
    daemon."""
    prep = prepare_serve_inputs(name, cfg, seed, rundir)
    if cfg["daemon"]["snapshot"]:
        prep["snapshot"] = os.path.join(rundir, "warm.snap")
        prep["args"] += ["--snapshot", prep["snapshot"]]
        d = Daemon(prep["sock"], prep["args"], prep["log"])
        d.boot()
        prime = run_load("closed", rundir, prep["sock"], "prime.jsonl", "prime.tsv",
                         ["--conns", "1", "--depth", "8"])
        if not d.shutdown() or prime is None:
            raise BenchError("snapshot priming pass failed")
    return prep


def new_daemon(prep):
    return Daemon(prep["sock"], prep["args"], prep["log"])


def serve_round(name, cfg, prep, rundir, k, tally):
    """One fresh daemon: boot, the closed-loop phase, the open-loop
    phase, stats and peak RSS, shutdown."""
    cl, ol = cfg["closed_loop"], cfg["open_loop"]
    sock = prep["sock"]
    d = new_daemon(prep)
    try:
        setup = d.boot()
        closed = run_load("closed", rundir, sock, "closed.jsonl", f"closed_{k}.tsv",
                          ["--conns", str(cl["connections"]), "--depth", str(cl["depth"])])
        closed_stats = d.call({"op": "stats"})
        opened = run_load("open", rundir, sock, "open.jsonl", f"open_{k}.tsv",
                          ["--conns", str(ol["connections"]), "--schedule",
                           os.path.join(rundir, "schedule.txt"), "--late-limit-us",
                           str(ol["late_limit_us"])])
        stats = d.call({"op": "stats"})
        rss = d.vmhwm_kib()
    finally:
        clean_exit = d.shutdown()
    tally.record(clean_exit, "daemon shutdown", "exit 0", "non-zero exit")
    log(f"{name}  round {k}: closed {closed}")
    log(f"{name}  round {k}: open {opened}")
    m = stats.get("metrics", {})
    for key in ("shed", "deadline_expired", "errors"):
        tally.record(m.get(key, 0) == 0, f"daemon stats {key}", 0, m.get(key))
    return {"setup": setup, "closed": closed, "open": opened, "closed_stats": closed_stats,
            "rss_kib": rss}


def serve_workload(name, cfg, seed, seconds, rundir, tally):
    cl, ol = cfg["closed_loop"], cfg["open_loop"]
    prep = prepare_serve(name, cfg, seed, rundir)
    requests, expects = prep["requests"], prep["expects"]
    setups = []
    for _ in range(BOOTS):
        d = new_daemon(prep)
        try:
            setups.append(d.boot())
        finally:
            tally.record(d.shutdown(), "daemon boot/shutdown", "exit 0", "non-zero exit")

    rounds = []
    start = time.perf_counter()
    while len(rounds) < ROUNDS[0] or (
            time.perf_counter() - start < seconds and len(rounds) < ROUNDS[1]):
        rounds.append(serve_round(name, cfg, prep, rundir, len(rounds), tally))
        setups.append(rounds[-1]["setup"])

    # Outside the timed window: check every answer of every round.
    # Throughput and latency are medians over fixed-size segments of
    # every round, so one stall of the machine moves one
    # segment, not the run's figure.
    seg, win = cl["segment"], ol["window"]
    rates, batch, p50s, p90s, p99s, late99, valid_rounds, samples = [], [], [], [], [], [], 0, 0
    for k, rd in enumerate(rounds):
        resp_c, ok_c = check_phase(tally, os.path.join(rundir, f"closed_{k}.tsv"),
                                   requests["closed"], expects["closed"], "closed")
        resp_o, ok_o = check_phase(tally, os.path.join(rundir, f"open_{k}.tsv"),
                                   requests["open"], expects["open"], "open")
        if rd["closed"] is not None:
            batch.append(rd["closed"]["elapsed_s"])
            done = sorted(resp_c[i][2] for i in ok_c)
            rates.extend(seg / ((done[j + seg] - done[j]) / 1e6)
                         for j in range(0, len(done) - seg, seg))
        if rd["open"] is not None:
            late99.append(rd["open"]["late_p99_us"])
            if rd["open"]["valid"]:
                valid_rounds += 1
                # Latency from the due time; a failed request has no
                # latency to report and already counts in failed.
                by_due = sorted(resp_o[i][:3] for i in ok_o)
                for j in range(0, len(by_due) - win + 1, win):
                    lat = [recv - due for due, _, recv in by_due[j:j + win]]
                    p50s.append(pct(lat, 0.50))
                    p90s.append(pct(lat, 0.90))
                    p99s.append(pct(lat, 0.99))
                    samples += len(lat)
    if not rates or not p99s:
        raise BenchError("no valid closed/open-loop round to report")
    p99 = median(p99s)
    return {
        "req_per_s": median(rates),
        "p50_us": median(p50s),
        "setup_s": median(setups),
        "peak_rss_mb": median(r["rss_kib"] for r in rounds) / 1024.0,
        "batch_s": median(batch),
    }, {
        "p90_us": median(p90s),
        "p99_us": p99,
        "p99_limit_us": ol["p99_limit_us"],
        "p99_limit_met": p99 <= ol["p99_limit_us"],
        "latency_windows": f"{len(p99s)} x {win} requests ({samples} samples)",
        "closed_segments": f"{len(rates)} x {seg} requests",
        "rounds": len(rounds),
        "valid_open_rounds": valid_rounds,
        "setup_samples": len(setups),
        "gen.late_p99_us": max(late99) if late99 else float("nan"),
    }


# Offline workload ---------------------------------------------------------------

def read_jobs(path):
    jobs = []
    with open(path) as fh:
        for line in fh:
            kind, expected, argv = line.rstrip("\n").split("\t")
            jobs.append((kind, json.loads(expected), argv.split("\x1f")))
    return jobs


def prepare_offline(cfg, seed, rundir):
    subprocess.run([os.path.join(PB, "pb_ref.exe"), "offline", "--seed", str(seed), "--mix",
                    mix_arg(cfg["op_mix"]), "--oneshots", str(cfg["oneshots"]), "--out",
                    rundir], check=True, timeout=170)
    return (read_jobs(os.path.join(rundir, "oneshots.tsv")),
            read_jobs(os.path.join(rundir, "batch.tsv")))


def job_runner(rundir, tally):
    """run(kind, expected, argv, watch_rss) -> (seconds, peak RSS KiB
    or None).  Answers are kept and checked by the returned check(),
    outside the timed loop."""
    cli = os.path.abspath(CLI)
    out = os.path.join(rundir, "job.out")
    answers = []

    def run(kind, expected, argv, watch_rss=False):
        if kind == "lint":
            argv = [*argv[:-1], os.path.join(rundir, argv[-1])]
        secs, code, rss = spawn_timed([cli, *argv], out, watch_rss)
        with open(out, encoding="utf-8", errors="replace") as fh:
            answers.append((kind, expected, argv, code, fh.read()))
        return secs, rss

    def check():
        for kind, expected, argv, code, text in answers:
            ok, got = check_offline_output(kind, code, text, expected)
            tally.record(ok, "mineq_cli " + " ".join(argv), expected, got)
        answers.clear()
    return run, check


def cli_starts(rundir, tally):
    """Seconds from exec to exit of `mineq_cli --version`, BOOTS times."""
    out = os.path.join(rundir, "job.out")
    setups = []
    for _ in range(BOOTS):
        secs, code, _ = spawn_timed([os.path.abspath(CLI), "--version"], out)
        tally.record(code == 0, "mineq_cli --version", "exit 0", f"exit {code}")
        setups.append(secs)
    return setups


def offline_workload(cfg, seed, seconds, rundir, tally):
    oneshots, batch = prepare_offline(cfg, seed, rundir)
    run, check = job_runner(rundir, tally)
    setups = cli_starts(rundir, tally)

    passes = []
    start = time.perf_counter()
    while len(passes) < PASSES[0] or (
            time.perf_counter() - start < seconds and len(passes) < PASSES[1]):
        t0 = time.perf_counter()
        shots = [run(*job) for job in oneshots]
        wall = time.perf_counter() - t0
        jobs = {job[0]: run(*job, watch_rss=True) for job in batch}
        passes.append({"shots": shots, "wall": wall, "batch": jobs})
        log(f"offline  pass {len(passes) - 1}: {len(shots)} one-shots in {wall:.3f} s; "
            + ", ".join(f"{k} {t:.3f} s peak {r / 1024:.1f} MB" for k, (t, r) in jobs.items()))
        check()
    lat = [s for p in passes for s, _ in p["shots"]]
    unit = {job[0]: job[2] for job in batch}
    census_specs = int(unit["census"][unit["census"].index("--specs") + 1])
    churn_ops = 4 * int(unit["churn"][unit["churn"].index("--churn") + 1].split(":")[0])
    sim_cycles = int(unit["simulate"][unit["simulate"].index("--cycles") + 1])
    return {
        "req_per_s": median(len(p["shots"]) / p["wall"] for p in passes),
        "p50_us": pct(lat, 0.50) * 1e6,
        "setup_s": median(setups),
        "peak_rss_mb": median(max(rss for _, rss in p["batch"].values()) for p in passes)
        / 1024.0,
        "batch_s": median(sum(s for s, _ in p["batch"].values()) for p in passes),
    }, {
        "cli_p50_ms": pct(lat, 0.50) * 1e3,
        "p90_us": pct(lat, 0.90) * 1e6,
        "p99_us": pct(lat, 0.99) * 1e6,
        "latency_samples": len(lat),
        "specs_per_s": census_specs / median(p["batch"]["census"][0] for p in passes),
        "churn_ops_per_s": churn_ops / median(p["batch"]["churn"][0] for p in passes),
        "sim_cycles_per_s": sim_cycles / median(p["batch"]["simulate"][0] for p in passes),
        "passes": len(passes),
        "setup_samples": len(setups),
    }


# Traced runs ---------------------------------------------------------------------

def spans_file(workload):
    """Where a traced run leaves its spans (the last run's, per
    workload)."""
    return os.path.join(RUN_ROOT, f"{workload}.spans.tsv")


def trace_figures(argv):
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace")[-2000:])
        raise BenchError(f"{os.path.basename(argv[0])} exited {r.returncode}")
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def serve_trace(name, cfg, seed, rundir, tally):
    """One measured round over the socket, the in-process replay of the
    same requests, and the join: the client round trip split into
    transport, queue wait, Proto and Service time."""
    prep = prepare_serve(name, cfg, seed, rundir)
    rd = serve_round(name, cfg, prep, rundir, 0, tally)
    resp_c, ok_c = check_phase(tally, os.path.join(rundir, "closed_0.tsv"),
                               prep["requests"]["closed"], prep["expects"]["closed"], "closed")
    check_phase(tally, os.path.join(rundir, "open_0.tsv"), prep["requests"]["open"],
                prep["expects"]["open"], "open")
    argv = [os.path.join(PB, "pb_trace.exe"), "serve", "--dir", rundir, "--spans",
            spans_file(name)]
    if prep["snapshot"]:
        argv += ["--snapshot", prep["snapshot"]]
    fig = trace_figures(argv)
    m = rd["closed_stats"]["metrics"]
    ops = {op: v for op, v in m["ops"].items() if op not in ("ping", "stats")}
    daemon = sum(v["p50_us"] * v["count"] for v in ops.values()) / sum(
        v["count"] for v in ops.values())
    rtt = pct([resp_c[i][2] - resp_c[i][1] for i in ok_c], 0.50)
    fig.update({
        "server.rtt_us": rtt,
        "server.daemon_us": daemon,
        "server.transport_us": rtt - daemon,
        "server.queue_wait_us": daemon - fig["service.handle_us"] - fig["proto.encode_us"],
        "server.unattributed_us": rtt - daemon - fig["proto.parse_us"],
        "server.batch_size": m["requests"] / max(1, m["batches"]),
        "server.shed": m["shed"],
        "server.deadline_expired": m["deadline_expired"],
        "server.calls": len(ok_c),
        "gen.late_p99_us": rd["open"]["late_p99_us"] if rd["open"] else float("nan"),
    })
    log(f"{name}  round trip p50 {rtt:.1f} us = socket/framing (unattributed) "
        f"{fig['server.unattributed_us']:.1f} + proto.parse {fig['proto.parse_us']:.1f} "
        f"+ queue wait {fig['server.queue_wait_us']:.1f} + service.handle "
        f"{fig['service.handle_us']:.1f} + proto.encode {fig['proto.encode_us']:.1f}")
    log(f"{name}  direct (in-process) {fig['direct_us']:.1f} us; socket - direct = "
        f"{rtt - fig['direct_us']:.1f} us, of which queue wait + unattributed = "
        f"{fig['server.queue_wait_us'] + fig['server.unattributed_us']:.1f} us")
    return fig


def offline_trace(cfg, seed, rundir, tally):
    """The CLI rows from one pass of one-shot processes, and the
    in-process replay of every job."""
    oneshots, _ = prepare_offline(cfg, seed, rundir)
    run, check = job_runner(rundir, tally)
    setups = cli_starts(rundir, tally)
    shots = [run(*job)[0] for job in oneshots]
    check()
    fig = trace_figures([os.path.join(PB, "pb_trace.exe"), "offline", "--seed", str(seed),
                         "--mix", mix_arg(cfg["op_mix"]), "--oneshots", str(cfg["oneshots"]),
                         "--spans", spans_file("offline")])
    start = median(setups)
    fig.update({
        "cli.startup_ms": start * 1e3,
        "cli.work_ms": (pct(shots, 0.50) - start) * 1e3,
        "cli.p95_ms": pct(shots, 0.95) * 1e3,
        "cli.calls": len(shots) + len(setups),
    })
    return fig


# Self-test -----------------------------------------------------------------------

def self_test():
    """Checks the benchmark itself: the same seed gives the same inputs
    and another seed other inputs; a flipped verdict, a shed (S005)
    answer and a non-zero exit each count as a failure; the layer map
    and workload file agree with BENCHMARK.json.  Returns the number of
    checks that failed."""
    bad = 0

    def expect(ok, what):
        nonlocal bad
        log(f"self-test  {'ok  ' if ok else 'FAIL'}  {what}")
        bad += 0 if ok else 1

    expect(checker_self_test(), "checker counts flipped verdicts, S005 and non-zero exits")
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)["layers"]
    mapped = {k: v for row in layers for k, v in row["metrics"].items()}
    expect(mapped == units("per_layer"), "layers.json lists every per-layer metric with its unit")
    expect(sorted(WORKLOADS) == sorted(w["name"] for w in BENCH["workloads"]),
           "workloads.json defines exactly BENCHMARK.json's workloads")

    root = os.path.join(RUN_ROOT, f"self-test-{os.getpid()}")

    def generate(workload, seed, tag):
        out = os.path.join(root, f"{workload}-{tag}")
        os.makedirs(out)
        cfg = WORKLOADS[workload]
        if cfg["kind"] == "serve":
            prepare_serve_inputs(workload, cfg, seed, out)
        else:
            prepare_offline(cfg, seed, out)
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        return files

    try:
        for w in sorted(WORKLOADS):
            a, b, c = generate(w, 5, "a"), generate(w, 5, "b"), generate(w, 6, "c")
            expect(a == b, f"{w}: seed 5 twice gives identical inputs ({len(a)} files)")
            expect(a != c, f"{w}: seeds 5 and 6 give different inputs")
        # Live faults against the real binary.
        tally = Tally()
        rundir = os.path.join(root, "live")
        os.makedirs(rundir)
        cfg = WORKLOADS["serve_cold"]
        prep = prepare_serve_inputs("serve_cold", cfg, 5, rundir)
        flipped = list(prep["expects"]["closed"])
        flipped[0] = flipped[0].replace("true", "TRUE").replace("false", "true").replace(
            "TRUE", "false")
        d = Daemon(os.path.join(rundir, "d.sock"), ["--jobs", "1", "--queue-cap", "1"],
                   os.path.join(rundir, "daemon.log"))
        d.boot()
        run_load("closed", rundir, d.sock_path, "closed.jsonl", "shed.tsv",
                 ["--conns", "2", "--depth", "8"])
        d.shutdown()
        before = tally.failed
        _, ok = check_phase(tally, os.path.join(rundir, "shed.tsv"),
                            prep["requests"]["closed"], flipped, "closed")
        with open(os.path.join(rundir, "shed.tsv")) as fh:
            shed = sum('"MINEQ-S005"' in line for line in fh)
        expect(shed > 0 and tally.failed - before >= shed,
               f"{shed} shed (S005) answers from a queue-cap-1 daemon count as failures")
        expect(0 not in ok, "a flipped reference verdict counts as a failure")
        before = tally.failed
        run, check = job_runner(rundir, tally)
        run("equiv", "true true", ["equiv", "no-such-network"])
        check()
        expect(tally.failed == before + 1, "a one-shot call exiting non-zero counts as a failure")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return bad


# Main -----------------------------------------------------------------------------

def units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


TIME_UNITS = ("s", "ms", "us")
# Units of the figures a run prints besides its metrics.
NOTE_UNITS = {"p90_us": "us", "p99_us": "us", "p99_limit_us": "us", "gen.late_p99_us": "us",
              "cli_p50_ms": "ms", "specs_per_s": "1/s", "churn_ops_per_s": "1/s",
              "sim_cycles_per_s": "1/s"}


def measured(v):
    return v is not None and v == v and v != 0


def traced(workload, seed, rundir, tally):
    cfg = WORKLOADS[workload]
    os.makedirs(rundir, exist_ok=True)
    if cfg["kind"] == "serve":
        with IdleSpinners():
            return serve_trace(workload, cfg, seed, rundir, tally)
    return offline_trace(cfg, seed, rundir, tally)


def fill_uncalled(fig, companions):
    """Give the layers fig's workload never calls the figures of the
    first companion replay that calls them; returns {what: companion}.

    A layer is the metric-name prefix before the first dot.  It is
    uncalled when its `<layer>.calls` is 0 (or, without a calls metric,
    when every metric of it is 0); then all its metrics come from the
    companion.  A time metric still 0 afterwards (a step of a called
    layer that this workload skips, such as service.resolve_us on
    inline specs) is taken the same way."""
    u = units("per_layer")
    layers = {}
    for m in u:
        layers.setdefault(m.split(".")[0], []).append(m)
    filled = {}
    for layer, names in layers.items():
        calls = f"{layer}.calls"

        def called(f):
            if calls in u:
                return measured(f.get(calls))
            return any(measured(f.get(m)) for m in names)
        if called(fig):
            continue
        for other, f in companions:
            if called(f):
                fig.update({m: f.get(m) for m in names})
                filled[layer] = other
                break
    for m, unit in u.items():
        if unit in TIME_UNITS and not measured(fig.get(m)):
            for other, f in companions:
                if measured(f.get(m)):
                    fig[m] = f[m]
                    filled[m] = other
                    break
    return filled


def measure(workload, seed, seconds, trace, rundir):
    cfg = WORKLOADS[workload]
    tally = Tally()
    if trace:
        # Every per-layer metric is a measurement: a layer this
        # workload never calls is measured on the replay (same seed) of
        # a workload that does, and the run says which.
        fig = traced(workload, seed, os.path.join(rundir, workload), tally)
        others = sorted((w for w in WORKLOADS if w != workload),
                        key=lambda w: (WORKLOADS[w]["kind"] != cfg["kind"], w))
        companions = [(w, traced(w, seed, os.path.join(rundir, w), tally)) for w in others]
        filled = fill_uncalled(fig, companions)
        u = units("per_layer")
        metrics = {}
        for k in u:
            v = fig.get(k)
            metrics[k] = 0.0 if v is None or v != v else float(v)
        notes = {"spans": " ".join(spans_file(w) for w in sorted(WORKLOADS))}
        for other in sorted(set(filled.values())):
            notes[f"measured on {other}"] = " ".join(
                sorted(k for k, w in filled.items() if w == other))
    else:
        if cfg["kind"] == "serve":
            with IdleSpinners():
                metrics, notes = serve_workload(workload, cfg, seed, seconds, rundir, tally)
        else:
            metrics, notes = offline_workload(cfg, seed, seconds, rundir, tally)
        u = units("end_to_end")
    for k, v in metrics.items():
        log(f"{workload}  {k:<28} {v:16.6f} {u[k]}")
    for k, v in notes.items():
        unit = NOTE_UNITS.get(k)
        log(f"{workload}  {k:<28} {v:16.6f} {unit}" if unit else f"{workload}  {k:<28} {v}")
    log(f"{workload}  {'fail_rate':<28} {tally.failed / max(1, tally.attempted):16.6f} "
        f"({tally.failed}/{tally.attempted})")
    return tally, {k: {"value": v, "unit": u[k]} for k, v in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    if not checker_self_test():
        raise BenchError("answer checker failed its self-test")
    targets = ["bin/mineq_cli.exe", "perfbench/pb_ref.exe", "perfbench/pb_load.exe"]
    if a.trace:
        targets.append("perfbench/pb_trace.exe")
    build(targets)
    if a.self_test:
        failed = self_test()
        log(f"self-test: {failed} check(s) failed")
        sys.exit(1 if failed else 0)
    seed = a.seed if a.seed is not None else WORKLOADS[a.workload]["seed"]
    log(f"{a.workload}  provenance {json.dumps(provenance())} seed {seed} trace {a.trace}")
    rundir = os.path.join(RUN_ROOT, f"{a.workload}-{seed}-{os.getpid()}")
    os.makedirs(rundir)

    def out_of_time(*_):
        raise BenchError("run exceeded its time limit")

    def stopped(*_):
        raise BenchError("run stopped by a signal")
    signal.signal(signal.SIGALRM, out_of_time)
    signal.signal(signal.SIGTERM, stopped)
    signal.alarm(170)
    try:
        tally, metrics = measure(a.workload, seed, a.seconds, a.trace, rundir)
    finally:
        signal.alarm(0)
        for d in list(LIVE):
            d.kill()
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
