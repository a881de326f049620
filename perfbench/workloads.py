"""Seeded trace generators and the CLI command of each benchmark workload.

Every trace is a pure function of (workload, seed): the same seed gives a
byte-identical trace file. Addresses are 32 bits wide with 64-byte lines;
the top log2(sockets) bits name the home socket, as in numacache.

Write one trace file:

    python3 perfbench/workloads.py <workload> <seed> <out-file>
"""

import hashlib
import random
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

Access = tuple[int, str, int]  # (socket, "R" | "W", address)


def line_addr(home: int, index: int, sockets: int) -> int:
    """Address of line `index` homed on socket `home`."""
    return (index << 6) | (home << (32 - (sockets.bit_length() - 1)))


def _share_adaptive(rng: random.Random) -> Iterator[Access]:
    """Producer->consumer sharing phases alternating with private streaming.

    In a sharing step each socket writes a line of its own buffer and reads
    two lines of its upstream neighbour's buffer (8 and 600 steps after the
    neighbour wrote them, so the second read is reuse the bias can protect),
    while streaming two private lines for capacity pressure. Private phases
    stream only private lines, so the remote-miss fraction drops and the
    controller turns the bias off. Per-socket footprint is 1024 own + 1024
    upstream + 1024 private lines: 1.5x the 2048-line LLC. Eight sharing and
    private cycles make the trace about six footprints long, so about a
    fifth of the misses are cold.
    """
    sockets, buf, priv = 4, 1024, 1024
    order = [rng.sample(range(buf), buf) for _ in range(sockets)]
    pos = [rng.randrange(priv) for _ in range(sockets)]
    step = 0

    def private(s: int) -> Access:
        pos[s] = (pos[s] + 1) % priv
        return s, "R", line_addr(s, 65536 + s * priv + pos[s], sockets)

    for _ in range(8):
        for _ in range(384):
            for s in range(sockets):
                up = (s - 1) % sockets
                yield s, "W", line_addr(s, s * buf + order[s][step % buf], sockets)
                for lag in (8, 600):
                    k = order[up][(step - lag) % buf]
                    yield s, "R", line_addr(up, up * buf + k, sockets)
                yield private(s)
                yield private(s)
            step += 1
        for _ in range(384):
            for s in range(sockets):
                yield private(s)


def _validate_mig(rng: random.Random) -> Iterator[Access]:
    """Migratory traffic: a random line of a 128-line pool moves to the
    socket that did not write it last, which reads it, then writes it."""
    last = {}
    for _ in range(600):
        idx = rng.randrange(128)
        s = 1 - last.get(idx, 1)
        last[idx] = s
        addr = line_addr(idx & 1, idx, 2)
        yield s, "R", addr
        yield s, "W", addr


@dataclass(frozen=True)
class Workload:
    name: str
    generator: Callable[[random.Random], Iterator[Access]]
    policy: str
    sockets: int
    sets: int
    assoc: int
    window: int = 1024
    high_water: float = 0.5
    low_water: float = 0.1
    validate: bool = False
    oracle_prefix: int = 4000  # records checked against the reference model

    def argv(self, trace: str, out: str) -> list:
        """numacache CLI arguments that simulate `trace` into report `out`."""
        argv = [
            "run", "--policy", self.policy, "--sockets", str(self.sockets), "--sets", str(self.sets),
            "--assoc", str(self.assoc), "--window", str(self.window),
            "--high-water", str(self.high_water),
            "--low-water", str(self.low_water),
            "--trace", trace, "--out", out,
        ]
        return argv + (["--validate"] if self.validate else [])

    def reference_kwargs(self) -> dict:
        """Arguments of tests/reference_model.RefModel."""
        return dict(sockets=self.sockets, sets=self.sets, assoc=self.assoc,
                    line_size=64, width=32, policy=self.policy, window=self.window,
                    high=self.high_water, low=self.low_water)


WORKLOADS = {w.name: w for w in (
    Workload("share-adaptive",
             _share_adaptive, "adaptive", 4, 128, 16,
             window=256, high_water=0.3),
    Workload("validate-mig",
             _validate_mig, "biased", 2, 64, 8,
             validate=True, oracle_prefix=300),
)}


def trace_text(workload: Workload, seed: int) -> str:
    """The workload's trace for `seed`, in numacache trace format."""
    rng = random.Random(f"{workload.name}:{seed}")
    return "".join(f"{s} 0 {op} 0x{addr:x}\n"
                   for s, op, addr in workload.generator(rng))


def parse_accesses(text: str) -> list:
    """(socket, op, addr, seq) tuples, the reference model's input."""
    out = []
    for seq, row in enumerate(text.splitlines()):
        s, _, op, addr = row.split()
        out.append((int(s), op, int(addr, 16), seq))
    return out


def cold_misses(text: str) -> int:
    """Distinct (socket, line) pairs: misses no cache could avoid."""
    return len({(s, a >> 6) for s, _, a, _ in parse_accesses(text)})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED OUT")
    with open(sys.argv[3], "w") as fh:
        fh.write(trace_text(WORKLOADS[sys.argv[1]], int(sys.argv[2])))
