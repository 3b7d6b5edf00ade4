"""Golden pins for ``StreamingService`` outputs on small fixed traces.

Each case drives one service over a seeded trace and pins the sha256 of the
canonical heads and colors, the orientation counters, the per-batch report
rows and the ledger (rounds, per-label counts, memory peaks).  The constants
are the outputs of the conflict-group repair order: cap-safe groups first in
group order, then the flip-path groups in group order, then the deferred
proactive-flip sweep.  Any change to that order, or to what the service
charges, moves at least one of them.  Both kernel backends must land on the
same constants.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.stream.service import StreamingService
from repro.stream.workloads import (
    densifying_core_trace,
    sliding_window_trace,
    uniform_churn_trace,
)


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _outcome(service: StreamingService) -> dict:
    orientation = service.orientation
    stats = service.cluster.stats
    return {
        "heads": _sha([sorted(out) for out in orientation._out]),
        "colors": _sha(list(service.coloring._colors)),
        "reports": _sha([report.as_dict() for report in service.summary.reports]),
        "flips": orientation.flips,
        "opportunistic_flips": orientation.opportunistic_flips,
        "rebuilds": orientation.rebuilds,
        "rebuild_reasons": dict(orientation.rebuild_reasons),
        "rounds": stats.num_rounds,
        "rounds_by_label": dict(sorted(stats.rounds_by_label.items())),
        "peak_machine_memory_words": stats.peak_machine_memory_words,
        "peak_global_memory_words": stats.peak_global_memory_words,
    }


CASES = {
    "churn": (
        lambda: uniform_churn_trace(192, num_batches=5, batch_size=120, seed=2),
        {},
    ),
    "window": (
        lambda: sliding_window_trace(128, window=256, num_batches=5, batch_size=80, seed=3),
        {},
    ),
    "densify": (
        lambda: densifying_core_trace(96, core_size=32, num_batches=6, batch_size=100, seed=4),
        {},
    ),
    "densify-coreness": (
        lambda: densifying_core_trace(96, core_size=32, num_batches=6, batch_size=100, seed=4),
        {"lambda_seed": "coreness"},
    ),
}

GOLDEN = {
    "churn": {
        "heads": "c515cbe2a01021f738626ce43060b0def24ec23f366546a19d6cb0de70f0dd5b",
        "colors": "0cc9a39703c130f344ebe37cfe2589e915de3db845f3192bac7e651a7c470e08",
        "reports": "5267d609cc937d7244dacbe81ba5ac989e04bde495f7945a5425c4b5d44d4fd3",
        "flips": 0,
        "opportunistic_flips": 0,
        "rebuilds": 0,
        "rebuild_reasons": {},
        "rounds": 16,
        "rounds_by_label": {
            "peel:low-degree": 2,
            "stream:batch": 5,
            "stream:compact": 4,
            "stream:recolor": 5,
        },
        "peak_machine_memory_words": 2,
        "peak_global_memory_words": 1322,
    },
    "window": {
        "heads": "6cde5c3f212636583b2a58fbb000295a46e4f041ece2ee91f2b08f589caf7440",
        "colors": "1765ebfacc1f84e1e75e3d9b94c3cb2d5c03446d42c35ea9fed0e13dc7de7ae7",
        "reports": "f0d8fff2fde57f46a98730b2637b80c5c0830dd4b82ffc9db3d3f53a83e758eb",
        "flips": 0,
        "opportunistic_flips": 0,
        "rebuilds": 0,
        "rebuild_reasons": {},
        "rounds": 22,
        "rounds_by_label": {
            "peel:low-degree": 2,
            "stream:batch": 5,
            "stream:compact": 10,
            "stream:recolor": 5,
        },
        "peak_machine_memory_words": 2,
        "peak_global_memory_words": 640,
    },
    "densify": {
        "heads": "b22da51542cd75e512c3ba35e22dadda051b9f0613f9435a0c4b014c0461e536",
        "colors": "17e675545d2350dc7da831fe6348ebcc6493b96d1fc9d32ff0b30ca1dede1545",
        "reports": "c5463b35f334cfa02d413a59e44d01cfb145e1615e060e0d377c35fb03b3dbed",
        "flips": 71,
        "opportunistic_flips": 8,
        "rebuilds": 1,
        "rebuild_reasons": {"saturated": 1},
        "rounds": 26,
        "rounds_by_label": {
            "peel:low-degree": 5,
            "stream:batch": 6,
            "stream:compact": 6,
            "stream:flip-repair": 2,
            "stream:rebuild:saturated": 1,
            "stream:recolor": 6,
        },
        "peak_machine_memory_words": 5,
        "peak_global_memory_words": 1202,
    },
    "densify-coreness": {
        "heads": "0430e98a958ae1c4f80eafee189b44c9cb5a8dfbcb2174a51e331ba00c211753",
        "colors": "e42675b7f851013f9612646826078e03496d6c216bb0f3913ed0ed7699fe4267",
        "reports": "f9a365aad91c605fa0ceb795246d0a6596b9a575b57253ea8f13fdf3e3661e22",
        "flips": 77,
        "opportunistic_flips": 5,
        "rebuilds": 1,
        "rebuild_reasons": {"saturated": 1},
        "rounds": 28,
        "rounds_by_label": {
            "peel:low-degree": 3,
            "stream:batch": 6,
            "stream:compact": 6,
            "stream:flip-repair": 2,
            "stream:lambda-seed": 4,
            "stream:rebuild:saturated": 1,
            "stream:recolor": 6,
        },
        "peak_machine_memory_words": 5,
        "peak_global_memory_words": 1202,
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_service_outputs_match_golden(case, kernel_backend):
    make_trace, options = CASES[case]
    trace = make_trace()
    with StreamingService(trace.initial, seed=7, **options) as service:
        service.apply_all(trace.batches)
        service.verify()
        assert _outcome(service) == GOLDEN[case]
