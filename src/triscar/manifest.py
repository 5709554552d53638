"""Run manifests: machine-readable records of every CLI invocation."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field


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
    timings: dict = field(default_factory=dict)
    version: str = ""
    status: str = "ok"            # ok, refused (exit 3) or failed (exit 4)
    exit_code: int = 0
    message: str | None = None    # why a run was refused or failed

    def add_artifact(self, path: str) -> None:
        name = os.path.basename(path)
        if name not in self.artifacts:
            self.artifacts.append(name)

    def add_timing(self, name: str, seconds: float) -> None:
        self.timings[name] = seconds

    def write(self, out_dir: str) -> str:
        if not self.version:
            from . import __version__
            self.version = __version__
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "manifest.json")
        payload = {
            "command": self.command,
            "version": self.version,
            "parameters": self.parameters,
            "statistics": self.statistics,
            "artifacts": sorted(self.artifacts),
            "timings": self.timings,
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
