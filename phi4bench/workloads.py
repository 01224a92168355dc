"""The three phi4lab CLI workloads the benchmark drives, one client in a closed loop."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # phi4lab subcommand
    config: Path
    report: str  # file under --out that the golden check reads

    def argv(self, out_dir: Path, seed: int) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(out_dir), "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep-solve", "solve", HERE / "configs" / "deep_solve.ini", "solve.json"),
        Workload("verify-wide", "verify", HERE / "configs" / "verify_wide.ini", "verify.json"),
    )
}
