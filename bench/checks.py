"""Checks of every child's output.  Each returns an error message or None.

The container layout is restated here from the format description
(16-byte header: magic ``TDGD``, version 1, family byte, little-endian
uint16 k, little-endian uint64 pair count; then the MSB-first payload,
zero-padded to a byte) so that the check does not trust the program's
own constants.

``digests.json`` holds the SHA-256 of every container ``geompair encode``
wrote for the default seed when the benchmark was added.  Other seeds
skip the digest check.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

HEADER = struct.Struct("<4sBBHQ")
MAGIC = b"TDGD"
FAMILY_BYTES = {"ck": 1, "cminus": 2, "limit": 3, "golomb": 4}

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def load_digests(seed: int) -> dict[str, str] | None:
    """Committed container digests by stream name, or None for other seeds."""
    recorded = json.loads(DIGESTS_PATH.read_text())
    return recorded["containers"] if seed == recorded["seed"] else None


def check_container(blob: bytes, stream, stderr_text: str, digest: str | None) -> str | None:
    spec = stream.spec
    if len(blob) < HEADER.size:
        return f"container of {len(blob)} bytes is shorter than the header"
    header = HEADER.unpack_from(blob)
    expected = (MAGIC, 1, FAMILY_BYTES[spec.kind], spec.k, spec.n)
    if header != expected:
        return f"header {header} != {expected}"
    match = re.search(r"(\d+) payload bits", stderr_text)
    if match is None:
        return "encode reported no payload bit count"
    bits = int(match.group(1))
    if bits != stream.payload_bits:
        return f"payload of {bits} bits, modelled {stream.payload_bits}"
    if len(blob) - HEADER.size != (bits + 7) // 8:
        return f"payload of {len(blob) - HEADER.size} bytes for {bits} bits"
    if digest is not None and hashlib.sha256(blob).hexdigest() != digest:
        return "container digest differs from the committed one"
    return None


def check_roundtrip(decoded: bytes, original: bytes) -> str | None:
    if decoded != original:
        return f"decoded text ({len(decoded)} bytes) differs from the input ({len(original)} bytes)"
    return None


# ---------------------------------------------------------------------------
# Analysis outputs
# ---------------------------------------------------------------------------


def entropy_pair(q: float) -> float:
    """2 H(q): entropy of one pair in bits, H(q) = h(q) / (1 - q)."""
    h = -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)
    return 2.0 * h / (1.0 - q)


def family_from_label(label: str):
    from geompair.families import CodeFamily

    if label == "limit":
        return CodeFamily("limit")
    kind, _, k = label.partition(" k=")
    return CodeFamily(kind, int(k))


# ``adaptive_select`` tabulates the winner on this q grid and bisects
# between neighbouring winners, so a family that wins only between two
# grid points is never chosen.  Its answer is exact up to that grid: the
# check accepts the best family at q-hat or at either bracketing point.
SELECT_GRID_LO = 0.02
SELECT_GRID_STEP = 0.0025
SELECT_GRID = [
    SELECT_GRID_LO + SELECT_GRID_STEP * i
    for i in range(int((0.985 - SELECT_GRID_LO) / SELECT_GRID_STEP) + 1)
]
LENGTH_TOL = 1e-9


def _family_lengths(q: float) -> dict[str, float]:
    from geompair import analysis

    return {
        fam.label(): analysis.family_avg_len(fam, q, 1e-9)
        for fam in analysis._candidates(q)
    }


def _best_labels(lengths: dict[str, float]) -> set[str]:
    best = min(lengths.values())
    return {label for label, n in lengths.items() if n <= best + LENGTH_TOL}


@dataclass
class SelectExpectation:
    mean: float
    q: float
    lengths: dict[str, float]  # bits per pair of each candidate at q-hat
    accepted: set[str]

    @classmethod
    def for_mean(cls, mean: float) -> "SelectExpectation":
        q = mean / (1.0 + mean)
        lengths = _family_lengths(q)
        accepted = _best_labels(lengths)
        i = bisect.bisect_right(SELECT_GRID, q)
        for g in SELECT_GRID[max(i - 1, 0) : i + 1]:
            accepted |= _best_labels(_family_lengths(g))
        return cls(mean, q, lengths, accepted)

    def check(self, output: str) -> str | None:
        label = output.strip()
        if label not in self.accepted:
            return f"select --mean {self.mean} chose {label!r}, expected one of {sorted(self.accepted)}"
        return None

    def bits(self, output: str) -> float:
        """Bits per pair of the chosen family at q-hat."""
        from geompair.analysis import family_avg_len

        label = output.strip()
        if label in self.lengths:
            return self.lengths[label]
        return family_avg_len(family_from_label(label), self.q, 1e-9)

    def excess_bits(self, output: str) -> float:
        return self.bits(output) - min(self.lengths.values())


@dataclass
class OracleExpectation:
    """An oracle average lies between 2 H(q) and the best family's average."""

    q: float
    lo: float
    hi: float

    @classmethod
    def for_q(cls, q: float) -> "OracleExpectation":
        return cls(q, entropy_pair(q), min(_family_lengths(q).values()))

    def check(self, est: float, unc: float) -> str | None:
        if not self.lo - unc <= est <= self.hi + unc:
            return f"oracle at q={self.q}: {est} outside [{self.lo}, {self.hi}] ± {unc}"
        return None

    def check_cli(self, output: str) -> str | None:
        match = re.fullmatch(r"\s*([0-9.]+) ± ([0-9.e+-]+)\s*", output)
        if match is None:
            return f"unparsable oracle output {output!r}"
        return self.check(float(match.group(1)), float(match.group(2)))

    def check_repr(self, output: str) -> str | None:
        match = re.fullmatch(r"\s*\(([0-9.e+-]+), ([0-9.e+-]+)\)\s*", output)
        if match is None:
            return f"unparsable oracle output {output!r}"
        return self.check(float(match.group(1)), float(match.group(2)))


def check_sweep(text: str, grid: list[float]) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != "q,entropy,opt_est,red_golomb_best,red_ck_best,red_cminus_best,red_limit":
        return "sweep printed no CSV header"
    rows = [line.split(",") for line in lines[1:]]
    if [row[0] for row in rows] != [f"{q:.6f}" for q in grid]:
        return f"sweep printed {len(rows)} rows, expected one per grid q ({len(grid)})"
    for row in rows:
        reds = [row[2]] + row[3:]
        if len(row) != 7 or any(r == "" or float(r) < -1e-9 for r in reds):
            return f"sweep row {','.join(row)} has a missing or negative redundancy"
    return None
