"""Guard: the no-op tracer must stay under 5% overhead on a hot path.

``NULL_TRACER`` is wired permanently through the engine/stream/kernel hot
paths, so its per-span cost (one attribute load, one shared inert ``with``
block) has to be negligible.  The estimate is the median of per-pair
ratios over back-to-back (bare, wrapped) pass pairs, alternating which pass
goes first: a pair shares the machine's momentary speed, so host drift and
a noisy neighbour cancel within it, the alternation cancels any bias from
running second, and the median ignores the few pairs a scheduler hiccup
splits.
"""

from __future__ import annotations

import statistics
import time

from repro.obs import NULL_TRACER

OVERHEAD_LIMIT = 1.05
CHUNKS = 32
CHUNK_WORK = 2000
PAIRS = 31


def _chunk(acc: int) -> int:
    for i in range(CHUNK_WORK):
        acc = (acc + i * i) & 0xFFFFFFF
    return acc


def _plain_pass() -> int:
    acc = 0
    for _ in range(CHUNKS):
        acc = _chunk(acc)
    return acc


def _traced_pass() -> int:
    acc = 0
    for _ in range(CHUNKS):
        with NULL_TRACER.span("chunk"):
            acc = _chunk(acc)
    return acc


def _timed(pass_fn) -> float:
    start = time.perf_counter()
    pass_fn()
    return time.perf_counter() - start


def test_nulltracer_overhead_is_under_five_percent():
    assert _plain_pass() == _traced_pass()  # warm-up; also: spans change nothing
    ratios = []
    for pair in range(PAIRS):
        if pair % 2:
            traced = _timed(_traced_pass)
            plain = _timed(_plain_pass)
        else:
            plain = _timed(_plain_pass)
            traced = _timed(_traced_pass)
        ratios.append(traced / plain)
    ratio = statistics.median(ratios)
    assert ratio < OVERHEAD_LIMIT, (ratio, min(ratios), max(ratios))
