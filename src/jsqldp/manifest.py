"""Run manifests: enough resolved configuration to reproduce a run exactly."""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from . import __version__


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    subcommand: str
    config: dict
    seeds: list[int] = field(default_factory=list)
    version: str = __version__
    outputs: dict[str, str] = field(default_factory=dict)

    def record_output(self, path: str) -> None:
        self.outputs[os.path.basename(path)] = _digest(path)

    def write(self, beside: str) -> str:
        path = beside + ".manifest.json"
        body = {
            "subcommand": self.subcommand,
            "config": self.config,
            "seeds": self.seeds,
            "version": self.version,
            "outputs": self.outputs,
        }
        with open(path, "w") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
