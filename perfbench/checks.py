"""Output checks written apart from the program they check.

Nothing here imports ``repro``: the checks read plain event tuples and
operation records and re-derive every verdict from the paper's
definitions, so a fault in the program's own checker, extractor or
bound helpers cannot hide itself.

- :func:`check_pingers` — Theorem 4.7 for the pinger/echo pairs: every
  PING gets its GOTPONG, every clock stamp lies within ``eps`` of real
  time, and every round trip lies in
  ``[2*max(d1 - 2*eps, 0), 2*(d2 + 2*eps)]``.
- :func:`check_register_history` — a unique-value register history:
  reads return ``v0`` or a written value, never a write invoked after
  the read responded, never a value overwritten by a write that
  completed entirely between that value's write and the read;
- :func:`check_latencies` — every latency lies within the Theorem 6.5
  cost plus or minus ``2*eps`` (for wall-clock runs the upper bound
  holds for the 90th percentile; see the function).

Each check returns a list of problem strings; an empty list passes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

TOLERANCE = 1e-9
MAX_PROBLEMS = 20


@dataclass(frozen=True)
class Op:
    """One completed register operation."""

    node: object
    kind: str  # "R" or "W"
    value: object  # value returned (R) or written (W)
    inv: float
    res: float


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 1] of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def theorem_costs(eps: float, delta: float, c: float, d2: float) -> Tuple[float, float]:
    """Theorem 6.5's read and write costs, ``2e+delta+c`` and ``d2+2e-c``."""
    return 2.0 * eps + delta + c, d2 + 2.0 * eps - c


def ops_from_events(
    events: Iterable[Tuple[str, tuple, float]],
) -> Tuple[List[Op], int, List[str]]:
    """Pair visible invocations with responses, per node.

    ``events`` yields ``(name, params, time)`` for the visible
    ``READ``/``WRITE``/``RETURN``/``ACK`` events in time order. Returns
    the completed operations, the number still pending at the end, and
    alternation problems (a response with no matching invocation, or an
    invocation while one is pending).
    """
    pending: Dict[object, Tuple[str, object, float]] = {}
    ops: List[Op] = []
    problems: List[str] = []
    for name, params, time in events:
        node = params[0]
        if name in ("READ", "WRITE"):
            if node in pending:
                problems.append(f"node {node}: {name} at {time:g} while an operation is pending")
            value = params[1] if name == "WRITE" else None
            pending[node] = ("R" if name == "READ" else "W", value, time)
        elif name in ("RETURN", "ACK"):
            opened = pending.pop(node, None)
            want = "R" if name == "RETURN" else "W"
            if opened is None or opened[0] != want:
                problems.append(f"node {node}: {name} at {time:g} answers no pending {want}")
                continue
            value = params[1] if name == "RETURN" else opened[1]
            ops.append(Op(node, want, value, opened[2], time))
    return ops, len(pending), problems


def check_register_history(
    ops: Sequence[Op],
    initial_value: object,
) -> List[str]:
    """Value problems in a unique-value register history (empty = pass)."""
    problems: List[str] = []
    writes = [op for op in ops if op.kind == "W"]
    reads = [op for op in ops if op.kind == "R"]
    source: Dict[object, Op] = {}
    for w in writes:
        if w.value == initial_value or w.value in source:
            problems.append(f"write value {w.value!r} is not unique")
        source[w.value] = w

    # For the stale-read test: writes sorted by response time, with the
    # latest invocation among all writes that responded up to each point.
    by_res = sorted(writes, key=lambda w: w.res)
    res_times = [w.res for w in by_res]
    latest_inv: List[float] = []
    best = float("-inf")
    for w in by_res:
        best = max(best, w.inv)
        latest_inv.append(best)

    for r in reads:
        # writes that completed strictly before the read was invoked
        k = bisect_left(res_times, r.inv - TOLERANCE)
        newest_completed_inv = latest_inv[k - 1] if k else float("-inf")
        if r.value == initial_value:
            if k:
                problems.append(
                    f"stale read {r}: returns v0 although a write "
                    f"completed at {res_times[0]:g}"
                )
            continue
        w = source.get(r.value)
        if w is None:
            problems.append(f"read {r} returns a value no write wrote")
            continue
        if w.inv > r.res + TOLERANCE:
            problems.append(f"future read {r}: its write was invoked at {w.inv:g}")
            continue
        if newest_completed_inv > w.res + TOLERANCE:
            problems.append(
                f"stale read {r}: value of the write completed at {w.res:g} "
                f"was overwritten by a write invoked at {newest_completed_inv:g} "
                f"that completed before the read"
            )
    return problems[:MAX_PROBLEMS]


def check_latencies(
    ops: Sequence[Op],
    read_cost: float,
    write_cost: float,
    eps: float,
    every_upper: bool = True,
) -> Tuple[List[str], int]:
    """Latencies against Theorem 6.5's cost plus or minus ``2*eps``.

    Every operation must take at least ``cost - 2*eps``: a faster one
    did not wait out what the algorithm requires. With ``every_upper``
    every operation must also finish within ``cost + 2*eps``; without
    it (wall-clock runs, where a host stall the model does not have can
    delay a single operation) that upper bound applies to the 90th
    percentile of each kind, and the late operations are only counted.
    Returns ``(problems, late operations)``.
    """
    problems: List[str] = []
    envelope = 2.0 * eps
    late = 0
    for kind, cost in (("R", read_cost), ("W", write_cost)):
        latencies = [op.res - op.inv for op in ops if op.kind == kind]
        for op in ops:
            if op.kind != kind:
                continue
            latency = op.res - op.inv
            if latency < cost - envelope - TOLERANCE:
                problems.append(
                    f"too fast: latency {latency:.6g} of {op} below Theorem 6.5 "
                    f"cost {cost:g} - {envelope:g}"
                )
            elif latency > cost + envelope + TOLERANCE:
                late += 1
                if every_upper:
                    problems.append(
                        f"too slow: latency {latency:.6g} of {op} above Theorem "
                        f"6.5 cost {cost:g} + {envelope:g}"
                    )
        if latencies and not every_upper:
            p90 = percentile(latencies, 0.9)
            if p90 > cost + envelope + TOLERANCE:
                problems.append(
                    f"{kind} p90 latency {p90:.6g} above Theorem 6.5 cost "
                    f"{cost:g} + {envelope:g}"
                )
    return problems[:MAX_PROBLEMS], late


def check_pingers(
    events: Iterable[Tuple[str, tuple, float, Optional[float]]],
    counts: Dict[int, int],
    eps: float,
    d1: float,
    d2: float,
) -> Tuple[int, int, List[str]]:
    """Check pinger/echo traffic against Theorem 4.7.

    ``events`` yields ``(name, params, now, clock)`` for every recorded
    event; ``counts`` maps each pinger node to its planned ping count.
    Returns ``(attempted, answered, problems)``: pings planned, pings
    whose GOTPONG arrived in bounds, and the problems found.
    """
    problems: List[str] = []
    ping_at: Dict[Tuple[int, int], float] = {}
    pong_at: Dict[Tuple[int, int], float] = {}
    for name, params, now, clock in events:
        if clock is not None and abs(clock - now) > eps + TOLERANCE:
            problems.append(f"{name}{params!r} at {now:g}: clock {clock:g} outside eps")
        if name == "PING":
            ping_at[(params[0], params[1])] = now
        elif name == "GOTPONG":
            pong_at[(params[0], params[1])] = now
    low = 2.0 * max(d1 - 2.0 * eps, 0.0)
    high = 2.0 * (d2 + 2.0 * eps)
    attempted = answered = 0
    for node, count in sorted(counts.items()):
        for k in range(1, count + 1):
            attempted += 1
            sent = ping_at.get((node, k))
            got = pong_at.get((node, k))
            if sent is None or got is None:
                problems.append(f"pinger {node} ping {k}: PING {sent} GOTPONG {got}")
                continue
            rtt = got - sent
            if not low - TOLERANCE <= rtt <= high + TOLERANCE:
                problems.append(
                    f"pinger {node} ping {k}: round trip {rtt:.6g} outside "
                    f"[{low:g}, {high:g}]"
                )
                continue
            answered += 1
    extra = set(ping_at) - {(n, k) for n, c in counts.items() for k in range(1, c + 1)}
    if extra:
        problems.append(f"unplanned pings {sorted(extra)[:5]}")
    return attempted, answered, problems[:MAX_PROBLEMS]
