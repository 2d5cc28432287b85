"""The output checks reject hand-made bad histories and accept good ones."""

from checks import (
    Op,
    check_latencies,
    check_pingers,
    check_register_history,
    ops_from_events,
    theorem_costs,
)

V0 = ("v", -1, 0)
EPS, DELTA, C, D2 = 0.1, 0.01, 0.3, 1.0
READ_COST, WRITE_COST = theorem_costs(EPS, DELTA, C, D2)  # 0.51, 0.9


def write(node, seq, inv, res=None):
    return Op(node, "W", ("v", node, seq), inv, WRITE_COST + inv if res is None else res)


def read(node, value, inv, res=None):
    return Op(node, "R", value, inv, READ_COST + inv if res is None else res)


def good_history():
    return [
        read(1, V0, 0.0),
        write(0, 0, 0.0),  # [0, 0.9]
        read(1, ("v", 0, 0), 0.6),  # overlaps the write: may see it
        read(2, V0, 0.5),  # overlaps the write: may still see v0
        write(2, 0, 2.0),  # [2, 2.9]
        read(1, ("v", 2, 0), 3.0),
    ]


def test_good_history_passes():
    ops = good_history()
    assert check_register_history(ops, V0) == []
    assert check_latencies(ops, READ_COST, WRITE_COST, EPS) == ([], 0)


def test_stale_read_of_v0_rejected():
    ops = good_history() + [read(3, V0, 1.0)]  # the write completed at 0.9
    problems = check_register_history(ops, V0)
    assert len(problems) == 1 and problems[0].startswith("stale read")


def test_stale_read_of_overwritten_value_rejected():
    # W(0,0) completes at 0.9, W(2,0) runs [2, 2.9] entirely before the read
    ops = good_history() + [read(3, ("v", 0, 0), 3.5)]
    problems = check_register_history(ops, V0)
    assert len(problems) == 1 and problems[0].startswith("stale read")


def test_future_read_rejected():
    # returns the value of a write invoked after the read responded
    ops = good_history() + [read(3, ("v", 3, 0), 4.0), write(3, 0, 5.0)]
    problems = check_register_history(ops, V0)
    assert len(problems) == 1 and problems[0].startswith("future read")


def test_read_of_unwritten_value_rejected():
    ops = good_history() + [read(3, ("v", 9, 9), 4.0)]
    assert "no write wrote" in check_register_history(ops, V0)[0]


def test_duplicate_write_value_rejected():
    ops = good_history() + [write(0, 0, 5.0)]
    assert "not unique" in check_register_history(ops, V0)[0]


def test_too_fast_write_rejected_in_both_modes():
    too_fast = write(0, 7, 6.0, 6.0 + WRITE_COST - 2 * EPS - 0.01)
    ops = good_history() + [too_fast]
    for every_upper in (True, False):
        problems, _ = check_latencies(ops, READ_COST, WRITE_COST, EPS, every_upper)
        assert len(problems) == 1 and problems[0].startswith("too fast")


def test_too_slow_operation():
    slow = read(0, ("v", 2, 0), 6.0, 6.0 + READ_COST + 2 * EPS + 0.01)
    ops = good_history() + [slow]
    problems, late = check_latencies(ops, READ_COST, WRITE_COST, EPS)
    assert late == 1 and problems[0].startswith("too slow")
    # wall-clock mode: one late read in five is beyond the 90th percentile
    problems, late = check_latencies(ops, READ_COST, WRITE_COST, EPS, every_upper=False)
    assert late == 1 and problems[0].startswith("R p90")


def test_ops_from_events_pairs_and_flags_alternation():
    events = [
        ("READ", (0,), 0.0), ("WRITE", (1, "x"), 0.1),
        ("RETURN", (0, V0), 0.5), ("ACK", (1,), 0.9),
        ("ACK", (0,), 1.0),  # no pending write at node 0
        ("READ", (2,), 1.0),  # still pending at the end
    ]
    ops, pending, problems = ops_from_events(events)
    assert ops == [Op(0, "R", V0, 0.0, 0.5), Op(1, "W", "x", 0.1, 0.9)]
    assert pending == 1 and len(problems) == 1


def pinger_events(rtt=1.0, clock_skew=0.0):
    return [
        ("PING", (0, 1), 0.5, 0.5 + clock_skew),
        ("GOTPONG", (0, 1), 0.5 + rtt, 0.5 + rtt),
    ]


def test_pingers_good():
    assert check_pingers(pinger_events(), {0: 1}, 0.05, 0.2, 0.6) == (1, 1, [])


def test_pingers_missing_pong_rejected():
    attempted, answered, problems = check_pingers(
        pinger_events()[:1], {0: 1}, 0.05, 0.2, 0.6
    )
    assert (attempted, answered, len(problems)) == (1, 0, 1)


def test_pingers_round_trip_out_of_bounds_rejected():
    # 2 * (d2 + 2 eps) = 1.4 is the longest legal round trip
    _, answered, problems = check_pingers(pinger_events(rtt=1.5), {0: 1}, 0.05, 0.2, 0.6)
    assert answered == 0 and "round trip" in problems[0]
    # 2 * (d1 - 2 eps) = 0.2 is the shortest
    _, answered, problems = check_pingers(pinger_events(rtt=0.1), {0: 1}, 0.05, 0.2, 0.6)
    assert answered == 0 and "round trip" in problems[0]


def test_pingers_clock_outside_eps_rejected():
    _, _, problems = check_pingers(pinger_events(clock_skew=0.06), {0: 1}, 0.05, 0.2, 0.6)
    assert len(problems) == 1 and "outside eps" in problems[0]
