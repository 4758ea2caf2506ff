"""Shared configuration for the evaluation benchmarks (Sec. VI).

Every benchmark regenerates one table or figure of the paper: it computes
the same rows/series, prints them, writes them under ``results/``, and
asserts the headline *shape* claims (who wins, monotonicity, approximate
factors). Absolute values differ from the paper's testbed — see
EXPERIMENTS.md for the side-by-side record.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Sequence

from repro.codes import make_code
from repro.codes.base import ArrayCode

#: Env var scaling the throughput benchmarks' data region (in MiB) so CI
#: smoke jobs can run them on a tiny size; unset = each benchmark's
#: full-size default.
DATA_MB_ENV = "REPRO_BENCH_DATA_MB"

#: Env var naming a JSON file that accumulates machine-readable metrics
#: (throughput, XOR counts) alongside the results/ text files; unset =
#: no JSON output.
BENCH_JSON_ENV = "REPRO_BENCH_JSON"

#: Array sizes of Tables IV-V (all chosen so n-1 is prime, for HDD1).
EVAL_SIZES = (6, 8, 12, 14, 18, 20, 24)

#: Smaller size set for the expensive simulation benchmarks (Fig. 13 uses
#: exactly these in the paper).
SIM_SIZES = (8, 12, 14)

#: Display order matching the paper's legends.
FAMILIES = ("tip", "triple-star", "star", "cauchy-rs", "hdd1")

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def code_for(family: str, n: int) -> ArrayCode:
    """Instantiate the code the paper's evaluation would use at size n."""
    return make_code(family, n)


def write_result(name: str, lines: list[str]) -> Path:
    """Persist one experiment's regenerated rows under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def format_table(header: list[str], rows: list[list[str]]) -> list[str]:
    """Fixed-width table rendering for results files and stdout."""
    widths = [
        max(len(str(cell)) for cell in column)
        for column in zip(header, *rows)
    ]
    def fmt(cells):
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def emit(name: str, lines: list[str]) -> None:
    """Print and persist an experiment's output."""
    banner = f"=== {name} ==="
    print()
    print(banner)
    for line in lines:
        print(line)
    write_result(name, [banner, *lines])


def full_size(size_envs: Sequence[str]) -> bool:
    """True unless one of ``size_envs`` overrides a size: only a
    full-size run may rewrite the committed records."""
    return not any(os.environ.get(name) for name in size_envs)


def record_target(
    name: str, lines: list[str], json_path: Path, size_envs: Sequence[str]
) -> Path | None:
    """Print one experiment's table; returns the JSON file its numbers
    go to.

    At full size (none of ``size_envs`` set) that rewrites
    ``results/<name>.txt`` and returns ``json_path``, the committed
    record. A reduced run only prints, and returns the
    ``REPRO_BENCH_JSON`` file if one is named, else None.
    """
    if full_size(size_envs):
        emit(name, lines)
        return json_path
    print("\n".join([f"=== {name} (reduced size) ===", *lines]))
    path = os.environ.get(BENCH_JSON_ENV)
    return Path(path) if path else None


def scaled_bytes(default_bytes: int) -> int:
    """The benchmark data-region size, honouring ``REPRO_BENCH_DATA_MB``."""
    override = os.environ.get(DATA_MB_ENV)
    if not override:
        return default_bytes
    return max(int(float(override) * (1 << 20)), 1 << 16)


def record_json(name: str, payload: dict) -> None:
    """Merge one experiment's metrics into the ``REPRO_BENCH_JSON`` file.

    Entries accumulate across benchmark files within a run (the file is
    read-modify-written per call), keyed by experiment name — this is how
    the CI smoke job builds ``BENCH_engine.json`` tracking the engine's
    perf trajectory.
    """
    path = os.environ.get(BENCH_JSON_ENV)
    if not path:
        return
    target = Path(path)
    existing = (
        json.loads(target.read_text()) if target.exists() else {}
    )
    existing[name] = payload
    target.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n"
    )
