"""Loopback cluster: real worker processes on one machine.

The distributed subsystem's tests, CI smoke job and benchmarks need an
actual cluster — separate processes, real sockets, killable workers —
without a second machine.  :class:`LoopbackCluster` spawns N
``python -m repro.cli serve --port 0`` subprocesses, reads the bound
port each prints, and exposes the ``host:port,…`` list every consumer
(``--hosts``, ``REPRO_HOSTS``, :class:`DistributedEvaluator`) accepts.
``kill(i)`` SIGKILLs one worker mid-run — the worker-loss path the
determinism tests exercise.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time

import repro


class LoopbackClusterError(RuntimeError):
    pass


class SmokeObjective:
    """Picklable toy objective for loopback tests and benchmarks.

    A pure quadratic bowl with an optional per-call ``delay`` so tests
    can manufacture stragglers.  Lives in the package (not in tests/)
    because worker subprocesses must be able to unpickle it with only
    ``src`` on their path.
    """

    def __init__(self, target: tuple[int, ...], delay: float = 0.0):
        self.target = tuple(target)
        self.delay = float(delay)

    def __call__(self, values) -> float:
        if self.delay:
            time.sleep(self.delay)
        return float(
            sum((v - t) ** 2 for v, t in zip(values, self.target))
        )


class LoopbackCluster:
    """Spawn and manage local worker-agent processes.

    Context-manager friendly::

        with LoopbackCluster(2) as cluster:
            ev = DistributedEvaluator(fn, hosts=cluster.hosts)
            ...

    ``close()`` terminates every surviving worker.
    """

    def __init__(
        self,
        n_workers: int = 2,
        capacity: int = 1,
        startup_timeout: float = 30.0,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        # Whole-environment copy for the spawned worker processes — the
        # opposite of an ambient *read*: inheriting everything (incl.
        # the REPRO_* knobs the coordinator exported via envs.set) is
        # exactly how workers see the coordinator's configuration.
        env = dict(os.environ)  # repro: lint-ok[determinism]
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src_root
        )
        self._env = env
        self.procs: list[subprocess.Popen] = []
        self.addresses: list[tuple[str, int]] = []
        try:
            procs = [self._spawn(capacity) for _ in range(n_workers)]
            deadline = time.monotonic() + startup_timeout
            for proc in procs:
                self.addresses.append(self._read_address(proc, deadline))
        except Exception:
            # Cleanup-and-reraise: surviving workers must not leak when
            # one spawn fails; the original error propagates unchanged
            # (the broad-except lint rule allows re-raising handlers).
            self.close()
            raise

    def _spawn(self, capacity: int) -> subprocess.Popen:
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--capacity",
                str(capacity),
            ],
            env=self._env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.procs.append(proc)
        return proc

    @staticmethod
    def _read_address(
        proc: subprocess.Popen, deadline: float
    ) -> tuple[str, int]:
        # The worker's first stdout line is "repro-serve listening on
        # HOST:PORT" (flushed before serving).  The pipe is polled with
        # select so a worker that hangs before printing — or dies
        # silently — fails the spawn within startup_timeout instead of
        # blocking readline forever.
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise LoopbackClusterError(
                    "worker failed to start: no listening banner within "
                    f"the startup timeout (exit code {proc.poll()!r})"
                )
            ready, _, _ = select.select([proc.stdout], [], [], min(remaining, 0.5))
            if ready:
                line = proc.stdout.readline()
                break
            if proc.poll() is not None:
                raise LoopbackClusterError(
                    f"worker exited with code {proc.returncode} before "
                    "printing its listening banner"
                )
        if "listening on" not in line:
            raise LoopbackClusterError(
                f"worker failed to start (got {line!r})"
            )
        addr = line.rsplit(" ", 1)[1].strip()
        host, _, port = addr.rpartition(":")
        return host, int(port)

    @property
    def hosts(self) -> tuple[tuple[str, int], ...]:
        return tuple(self.addresses)

    @property
    def hosts_spec(self) -> str:
        """The ``host:port,…`` string ``--hosts``/``REPRO_HOSTS`` take."""
        return ",".join(f"{h}:{p}" for h, p in self.addresses)

    def kill(self, index: int) -> None:
        """SIGKILL one worker (simulates host loss mid-run)."""
        proc = self.procs[index]
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)

    def alive(self) -> int:
        return sum(1 for p in self.procs if p.poll() is None)

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
            if proc.stdout is not None:
                proc.stdout.close()

    def __enter__(self) -> "LoopbackCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
