"""Reference speed: timings scaled to a fixed interpreter speed.

The host this benchmark was built on shares its cores with other tenants.
Their load flips the speed of all code in the process between two states,
about 1.6x apart, for stretches of seconds to a minute, so wall-clock times of
the same work differ by that much from run to run. To compare runs, every
operation's time is scaled by how fast the process currently runs a fixed
reference loop, sampled between operations: a time is reported as it would
read at the speed where that loop takes REFERENCE_S (about the host's
uncontended speed). grql code is never part of the loop, so a change to grql
moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.16e-3  # the loop's time on the uncontended build host
SAMPLE_EVERY_S = 0.01  # of operation time between two samples; bounds the overhead to ~3%
WINDOW = 5  # samples in the centred median that smooths the speed estimate


class _Node:
    __slots__ = ("kind", "kids", "value")

    def __init__(self, kind: str, kids: tuple, value):
        self.kind = kind
        self.kids = kids
        self.value = value


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (), i)
    return _Node("pair", (_build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1)), None)


def _walk(node: _Node, env: dict) -> list:
    if node.kind == "leaf":
        key = f"k{node.value % 17}"
        env[key] = env.get(key, 0) + node.value
        return [node.value]
    out = []
    for kid in node.kids:
        out.extend(_walk(kid, env))
    return out


def reference_loop() -> float:
    """Seconds the reference loop takes now: build and walk a small tree, an
    interpreter workload like grql's evaluator but sharing no code with it."""
    start = perf_counter()
    _walk(_build(7, 1), {})
    return perf_counter() - start


class Meter:
    """Samples the reference loop between operations. `before_op` returns
    the index of the sample that stands for the next operation; `scales`
    turns those indices into factors that bring each operation's time to the
    reference speed."""

    def __init__(self):
        self.samples: list[float] = []
        self._since = SAMPLE_EVERY_S

    def before_op(self, last_op_s: float = 0.0) -> int:
        self._since += last_op_s
        if self._since >= SAMPLE_EVERY_S:
            self.samples.append(reference_loop())
            self._since = 0.0
        return len(self.samples) - 1

    def scales(self, indices: list[int]) -> list[float]:
        self.samples.append(reference_loop())  # one after the last operation
        half = WINDOW // 2
        smooth = [statistics.median(self.samples[max(0, i - half):i + half + 1])
                  for i in range(len(self.samples))]
        return [REFERENCE_S / smooth[i] for i in indices]


def scaled_call(fn) -> float:
    """Call `fn()` and return its time scaled to the reference speed, with
    the loop sampled WINDOW times before and after."""
    samples = [reference_loop() for _ in range(WINDOW)]
    start = perf_counter()
    fn()
    elapsed = perf_counter() - start
    samples += [reference_loop() for _ in range(WINDOW)]
    return elapsed * REFERENCE_S / statistics.median(samples)
