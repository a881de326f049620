"""Host-speed probe: a fixed Python program shaped like one CLI run.

    python3 perfbench/probe.py

It starts a fresh interpreter, imports a few standard modules, allocates
about 20 MiB of small slot objects, walks them in a seeded random order
with dict and set updates, and renders a JSON summary, the steps whose
cost drifts with the host (CPU speed, page faults, allocation). It shares
no code with numacache, so a change to the program leaves its time alone;
run.py scales the host times of a run by how long this probe took.
"""

import json
import random


class Line:
    __slots__ = ("tag", "state", "owner", "age")

    def __init__(self, tag: int):
        self.tag = tag
        self.state = 0
        self.owner = -1
        self.age = 0


def main() -> None:
    rng = random.Random(0)
    lines = [Line(i) for i in range(120000)]
    owners = {}
    for step in range(120000):
        line = lines[rng.getrandbits(17) % len(lines)]
        line.state = (line.state + 1) & 3
        line.age = step
        if line.owner != step & 7:
            line.owner = step & 7
            owners.setdefault(line.owner, set()).add(line.tag)
    print(json.dumps({owner: len(tags) for owner, tags in sorted(owners.items())}))


if __name__ == "__main__":
    main()
