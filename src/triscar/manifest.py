"""Run manifests: machine-readable records of every CLI invocation."""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from . import __version__


def peak_rss_mb() -> float | None:
    """Peak resident set size of this process so far, in MB (None where the
    platform has no getrusage)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / 2 ** 20 if sys.platform == "darwin" else peak / 1024


class Steps:
    """The seconds a run spends in each of its steps, and by how many MB each
    raised the peak RSS (peak_rss_mb): 0 unless it reached a new peak.  A
    step begins when the previous one ended, or the recorder was made; a
    step ended twice, or added from another recorder, counts each time.
    Where peak_rss_mb is None, no rises are recorded."""

    def __init__(self):
        self.seconds, self.rises = Counter(), Counter()
        self._at, self._peak = time.perf_counter(), peak_rss_mb()

    def end(self, step: str) -> None:
        """End step, begun where the previous one ended."""
        at, peak = time.perf_counter(), peak_rss_mb()
        self.seconds[step] += at - self._at
        if peak is not None:
            self.rises[step] += peak - self._peak
        self._at, self._peak = at, peak

    def add(self, other: Steps) -> None:
        """Add the seconds and rises of other's steps to these, by name."""
        self.seconds.update(other.seconds)
        self.rises.update(other.rises)


def write_json(path: str, payload: dict) -> None:
    """payload as JSON, as every artifact has it: indented, keys sorted."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class RunManifest:
    command: str
    parameters: dict = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    steps: Steps = field(default_factory=Steps)
    status: str = "ok"            # ok, refused (exit 3) or failed (exit 4)
    exit_code: int = 0
    message: str | None = None    # why a run was refused or failed

    def add_artifact(self, path: str) -> None:
        name = os.path.basename(path)
        if name not in self.artifacts:
            self.artifacts.append(name)

    def write(self, out_dir: str) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "manifest.json")
        payload = {
            "command": self.command,
            "version": __version__,
            "parameters": self.parameters,
            "statistics": self.statistics,
            "artifacts": sorted(self.artifacts),
            "timings": self.steps.seconds,
            "peak_rss_rise_mb": self.steps.rises,
            "peak_rss_mb": peak_rss_mb(),
            "status": self.status,
            "exit_code": self.exit_code,
            "message": self.message,
        }
        write_json(path, payload)
        return path


def read_manifest(out_dir: str) -> dict:
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no manifest.json under {out_dir}")
    with open(path) as fh:
        return json.load(fh)
