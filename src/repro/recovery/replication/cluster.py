"""The replicated supervisor: real processes, real sockets, real SIGKILL.

``session.py`` proves the mechanism in one deterministic process; this
module is the harness that proves it against actual process death.  The
topology:

* the **worker** (``repro replicate --worker``) is the primary: it
  builds or resumes a :class:`RecoverableRun`, connects back to the
  supervisor over a loopback TCP socket, and streams protocol frames
  through a :class:`JournalStreamer`.  An injected
  :class:`ProcessCrash` becomes a hard ``os._exit`` — no buffered
  journal bytes, no atexit graces — and the supervisor's stall watchdog
  delivers genuine ``SIGKILL``;
* the **supervisor** holds the replicas.  Frames arriving on the socket
  pass through one :class:`ChaosLink` per replica (partition, drop,
  duplicate, reorder, lag) before installation, so the chaos campaign
  runs against the real byte stream;
* liveness is in-stream: any frame arrival restamps the worker's
  last-seen monotonic time, and heartbeat frames flow every interval.
  Silence beyond ``stall_timeout`` means SIGKILL — a hung primary is
  dead, it just does not know it yet;
* on worker death the supervisor's :class:`ReplicaGroup` elects (max
  durable LSN, lowest id on ties), promotes the winner's workdir to
  primary, and the worker is respawned there with ``--attempt N+1``,
  at once, up to ``max_attempts`` workers.  Promotion is
  :meth:`RecoverableRun.resume`, nothing else.

With ``n_replicas=0`` this is the single-node supervisor (``repro
supervise``): every failover resumes the primary's own workdir in
place.  A supervisor built without a spec continues an existing
cluster directory, so every worker it spawns resumes (attempt >= 1).

The worker socket is one-directional (worker -> supervisor); acks are
computed supervisor-side where the replicas live.  That keeps the
worker oblivious to replication — it cannot block on a slow replica,
which is the availability point of asynchronous primary-backup.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.common.io import atomic_write_text
from repro.faults.injector import ProcessCrash
from repro.recovery import runner
from repro.recovery.replication.group import ReplicaGroup
from repro.recovery.replication.protocol import FrameCorrupt, FrameDecoder, encode_frame
from repro.recovery.replication.session import JournalStreamer
from repro.recovery.runner import RecoverableRun, RunSpec

#: Worker exit code for an injected ProcessCrash (distinguishable from
#: tracebacks, SIGKILL, and clean exits in the supervisor's log).
CRASH_EXIT_CODE = 73


def run_primary_worker(workdir, attempt, connect):
    """Child-process entry for ``repro replicate --worker``.

    ``connect`` is ``host:port`` of the supervisor's frame listener.
    Builds the run (attempt 0) or resumes it, then streams it.  Returns
    the exit code; an injected crash becomes a hard ``os._exit`` so no
    buffered journal bytes sneak to disk on the way down — exactly what
    SIGKILL would do.
    """
    workdir = Path(workdir)
    host, _, port = connect.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=30.0)
    try:
        if attempt == 0:
            spec = RunSpec.from_json((workdir / "spec.json").read_text())
            run = RecoverableRun(spec, workdir, attempt=0)
        else:
            run = RecoverableRun.resume(workdir, attempt=attempt)

        def send(frame):
            sock.sendall(encode_frame(frame))

        streamer = JournalStreamer(run, send)
        try:
            streamer.stream_attempt()
        except ProcessCrash:
            os._exit(CRASH_EXIT_CODE)
        return 0
    finally:
        sock.close()


class ReplicatedSupervisor:
    """Spawns/watches primary workers; hosts replicas; fails over."""

    def __init__(self, clusterdir, spec=None, n_replicas=2, max_attempts=5,
                 stall_timeout=30.0, poll_interval=0.1):
        self.clusterdir = Path(clusterdir)
        self.primary_dir = self.clusterdir / "primary"
        self.primary_dir.mkdir(parents=True, exist_ok=True)
        if spec is not None:
            atomic_write_text(self.primary_dir / "spec.json", spec.to_json())
        self.spec = RunSpec.from_json(
            (self.primary_dir / "spec.json").read_text()
        )
        # Without a spec the directory holds a run to continue: starting
        # it over at attempt 0 would re-append journaled seqs and diverge.
        self.first_attempt = 0 if spec is not None else 1
        self.max_attempts = int(max_attempts)
        self.stall_timeout = float(stall_timeout)
        self.poll_interval = float(poll_interval)
        self.group = ReplicaGroup(self.spec, self.clusterdir, n_replicas)

    # Worker lifecycle --------------------------------------------------------------

    def _spawn(self, workdir, attempt, port):
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[3])
        parts = env.get("PYTHONPATH", "").split(os.pathsep)
        if src_root not in parts:
            env["PYTHONPATH"] = os.pathsep.join(
                [src_root] + [p for p in parts if p]
            )
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "replicate",
                "--worker", "--workdir", str(workdir),
                "--attempt", str(attempt),
                "--connect", f"127.0.0.1:{port}",
            ],
            env=env,
        )

    def _watch_attempt(self, workdir, attempt, listener):
        """One worker's lifetime; returns (exit_code, stalled)."""
        port = listener.getsockname()[1]
        proc = self._spawn(workdir, attempt, port)
        conn = None
        decoder = FrameDecoder()
        last_seen = time.monotonic()
        stalled = False
        try:
            while True:
                if conn is None:
                    listener.settimeout(self.poll_interval)
                    try:
                        conn, _addr = listener.accept()
                        conn.settimeout(self.poll_interval)
                        last_seen = time.monotonic()
                    except socket.timeout:
                        pass
                else:
                    try:
                        data = conn.recv(1 << 16)
                        if data:
                            last_seen = time.monotonic()
                            for frame in decoder.feed(data):
                                self.group.send(frame)
                        else:
                            conn.close()
                            conn = None
                            rc = proc.wait()
                            return rc, stalled
                    except socket.timeout:
                        pass
                rc = proc.poll()
                if rc is not None and conn is None:
                    return rc, stalled
                if rc is not None and conn is not None:
                    # Dead worker: drain whatever the kernel buffered
                    # before it died, then report.
                    conn.settimeout(0.5)
                    try:
                        while True:
                            data = conn.recv(1 << 16)
                            if not data:
                                break
                            for frame in decoder.feed(data):
                                self.group.send(frame)
                    except (socket.timeout, OSError, FrameCorrupt):
                        pass
                    conn.close()
                    conn = None
                    return rc, stalled
                if time.monotonic() - last_seen > self.stall_timeout:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait()
                    stalled = True
                    last_seen = time.monotonic()
        finally:
            if conn is not None:
                conn.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    # Main loop ---------------------------------------------------------------------

    def run(self, check_equivalence=False):
        outcome = {
            "completed": False,
            "attempts": 0,
            "crashes": 0,
            "stalls_killed": 0,
            "exit_codes": [],
            "result": None,
            "equivalence": None,
        }
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            for attempt in range(self.first_attempt,
                                 self.first_attempt + self.max_attempts):
                outcome["attempts"] += 1
                rc, stalled = self._watch_attempt(
                    self.primary_dir, attempt, listener
                )
                outcome["exit_codes"].append(rc)
                if rc == 0:
                    outcome["completed"] = True
                    break
                if stalled:
                    outcome["stalls_killed"] += 1
                else:
                    outcome["crashes"] += 1
                self.primary_dir = self.group.promote(
                    self.primary_dir, time.monotonic()
                )
        finally:
            listener.close()
        self.group.close()
        outcome.update(self.group.report())
        outcome["final_workdir"] = str(self.primary_dir)
        if outcome["completed"]:
            outcome["result"] = json.loads(
                (self.primary_dir / "result.json").read_text()
            )
            if check_equivalence:
                outcome["equivalence"] = runner.check_equivalence(
                    self.spec, outcome["result"],
                    self.clusterdir / "_reference",
                )
        atomic_write_text(
            self.clusterdir / "outcome.json",
            json.dumps(outcome, sort_keys=True, indent=2),
        )
        return outcome
