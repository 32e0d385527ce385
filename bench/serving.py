"""A ``repro serve`` subprocess and the HTTP client the load generator uses."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Seconds a daemon may take from spawn to ``/healthz`` ready.
READY_TIMEOUT_S = 60.0


class Connection:
    """A client slot; calling it POSTs a body to ``/classify``.

    With ``keep_alive`` the slot reuses one connection, as a caller that
    waits for each reply does; without it every request opens and closes
    its own connection, as independent users do.
    """

    def __init__(self, port: int, bodies: list[bytes], keep_alive: bool) -> None:
        self.bodies = bodies
        self.keep_alive = keep_alive
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)

    def __call__(self, body_index: int) -> tuple[int, object]:
        headers = {"Content-Type": "application/json"}
        if not self.keep_alive:
            headers["Connection"] = "close"
        try:
            self.conn.request("POST", "/classify", body=self.bodies[body_index], headers=headers)
            response = self.conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.conn.close()  # the next request reconnects
            return -1, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            if not self.keep_alive:
                self.conn.close()

    def close(self) -> None:
        self.conn.close()


class Daemon:
    """``repro serve --model DIR`` in a child process, on a free port.

    The daemon's stderr goes to ``log_path``, where its ``serving on
    HOST:PORT`` line announces the bound port.
    """

    def __init__(self, root: Path, model_dir: Path, log_path: Path) -> None:
        self.log_path = log_path
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with open(log_path, "w") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--model", str(model_dir), "--port", "0", "--scoring-workers", "0",
                ],
                cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        self.port: int | None = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self) -> None:
        """Block until ``/healthz`` reports ready; raise if the daemon died or stalled."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}: "
                    + self.log_path.read_text()[-2000:]
                )
            if self.port is None:
                for line in self.log_path.read_text().splitlines():
                    if line.startswith("serving on "):
                        self.port = int(line.rsplit(":", 1)[1])
            if self.port is not None:
                status, body = self.get("/healthz")
                if status == 200 and json.loads(body).get("ready"):
                    return
            time.sleep(0.005)
        raise RuntimeError(f"repro serve not ready within {READY_TIMEOUT_S}s")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        except OSError:
            return -1, b""
        finally:
            conn.close()

    def metrics(self) -> dict[str, float]:
        """Unlabelled series of the Prometheus ``/metrics`` exposition."""
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        values = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values

    def stop(self) -> int:
        """SIGTERM (the daemon drains and exits 0); kill if it has not ended in 10 s."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                return self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
        return self.process.wait()
