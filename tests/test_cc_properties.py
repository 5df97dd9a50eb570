"""Property-based tests: the DCTCP window policy and the RED/ECN marker.

``DctcpCC`` is driven through arbitrary sequences of ACKs (marked or
not), fast retransmits, recovery exits and RTOs over a consistent
sequence space; ``EcnMarker`` through arbitrary queue lengths.  Both are
pure objects, so every example runs in microseconds and no cell is
simulated.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.cc.aqm import EcnMarker
from repro.cc.dctcp import DCTCP_G, DctcpCC
from repro.net.packet import DEFAULT_MSS

MSS = DEFAULT_MSS

#: One sender event: an ACK of ``bytes`` (ECE-marked or not) after which
#: ``sent`` more bytes go out, or a loss-path event.
ACK = st.tuples(
    st.just("ack"),
    st.integers(0, 20 * MSS),
    st.booleans(),
    st.integers(0, 20 * MSS),
)
LOSS_PATH = st.tuples(st.sampled_from(["loss", "exit", "rto"]))
EVENTS = st.lists(st.one_of(ACK, ACK, LOSS_PATH), max_size=120)


def drive(cc: DctcpCC, events, check=None) -> None:
    """Feed ``events`` to ``cc``; ``check(cc, event, before)`` after each.

    ``before`` is ``(alpha, cwnd, ecn_cuts, rollover)`` read just before
    the event; ``rollover`` says whether the ACK closes the observation
    window.
    """
    ack_seq = 0
    snd_nxt = 10 * MSS
    for event in events:
        rollover = event[0] == "ack" and ack_seq + event[1] >= cc._window_end
        before = (cc.alpha, cc.cwnd_bytes, cc.ecn_cuts, rollover)
        if event[0] == "ack":
            _, acked, marked, sent = event
            ack_seq += acked
            snd_nxt = max(snd_nxt, ack_seq) + sent
            hook = cc.on_ecn if marked else cc.on_ack
            hook(acked, ack_seq, snd_nxt, 0)
        elif event[0] == "loss":
            cc.on_loss(0)
        elif event[0] == "exit":
            cc.on_recovery_exit(0)
        else:
            cc.on_rto(0)
        if check is not None:
            check(cc, event, before)


def state(cc: DctcpCC) -> tuple:
    return (cc.alpha, cc.cwnd_bytes, cc.ssthresh_bytes, cc.ecn_cuts,
            cc.windows_observed, cc._window_end)


@settings(max_examples=150, deadline=None)
@given(events=EVENTS, initial=st.integers(1, 10), g=st.sampled_from([DCTCP_G, 0.5, 1.0]))
def test_property_dctcp_alpha_stays_a_fraction(events, initial, g):
    def check(cc, event, before):
        assert 0.0 <= cc.alpha <= 1.0

    drive(DctcpCC(initial_cwnd_segments=initial, g=g), events, check)


@settings(max_examples=150, deadline=None)
@given(events=EVENTS, initial=st.integers(1, 10), g=st.sampled_from([DCTCP_G, 0.5]))
def test_property_dctcp_unmarked_window_decays_alpha_and_cuts_nothing(
    events, initial, g
):
    """A window whose ACKs carried no ECE leaves the window uncut and, if
    it ACKed any bytes, scales alpha by exactly (1 - g) when it closes."""
    window = {}

    def check(cc, event, before):
        alpha, cwnd, cuts, rollover = before
        if event[0] == "rto":  # the RTO forgets the window's accounting
            window.update(acked=0, marked=False)
        if event[0] != "ack":
            return
        window["acked"] += event[1]
        window["marked"] |= event[2]
        if not rollover:
            return
        if not window["marked"]:
            assert cc.ecn_cuts == cuts
            assert cc.cwnd_bytes >= cwnd
            expected = (1.0 - g) * alpha if window["acked"] else alpha
            assert cc.alpha == expected
        window.update(acked=0, marked=False)

    window.update(acked=0, marked=False)
    drive(DctcpCC(initial_cwnd_segments=initial, g=g), events, check)
    # The same sequence with every ECE cleared: no window is ever cut.
    unmarked = [e if e[0] != "ack" else (*e[:2], False, e[3]) for e in events]
    cc = DctcpCC(initial_cwnd_segments=initial, g=g)
    window.update(acked=0, marked=False)
    drive(cc, unmarked, check)
    assert cc.ecn_cuts == 0


@settings(max_examples=150, deadline=None)
@given(events=EVENTS, initial=st.integers(1, 10))
def test_property_dctcp_at_most_one_ecn_cut_per_window(events, initial):
    def check(cc, event, before):
        _, _, cuts, rollover = before
        assert cc.ecn_cuts - cuts <= (1 if rollover else 0)

    cc = DctcpCC(initial_cwnd_segments=initial)
    drive(cc, events, check)
    rollovers = []
    drive(DctcpCC(initial_cwnd_segments=initial), events,
          lambda cc, event, before: rollovers.append(before[3]))
    assert cc.ecn_cuts <= sum(rollovers)


@settings(max_examples=150, deadline=None)
@given(events=EVENTS, initial=st.integers(1, 10))
def test_property_dctcp_window_floor_after_every_cut(events, initial):
    """``cwnd_bytes`` >= 2 MSS after an ECN cut, a loss, a recovery exit
    or an RTO, whatever the window started at (1 MSS included)."""

    def check(cc, event, before):
        _, _, cuts, _ = before
        if event[0] != "ack" or cc.ecn_cuts > cuts:
            assert cc.cwnd_bytes >= 2 * MSS
            assert cc.ssthresh_bytes >= 2 * MSS

    drive(DctcpCC(initial_cwnd_segments=initial), events, check)


@settings(max_examples=100, deadline=None)
@given(events=EVENTS, initial=st.integers(1, 10))
def test_property_dctcp_replay_is_deterministic(events, initial):
    runs = []
    for _ in range(2):
        trail = []
        drive(DctcpCC(initial_cwnd_segments=initial), events,
              lambda cc, event, before: trail.append(state(cc)))
        runs.append(trail)
    assert runs[0] == runs[1]


MARKERS = st.tuples(
    st.integers(1, 60),  # min_sdus
    st.integers(0, 60),  # max_sdus - min_sdus
    st.floats(0.01, 1.0),  # mark_prob
    st.integers(0, 2**32),  # seed
)
QUEUES = st.lists(st.integers(0, 150), max_size=200)


def marker_state(m):
    """The marker's generator state; one not yet built is ``Random(seed)``'s."""
    return (m._rng or random.Random(m._seed)).getstate()


@settings(max_examples=150, deadline=None)
@given(marker=MARKERS, queues=QUEUES)
def test_property_marker_outside_the_band_is_a_step_and_draws_nothing(
    marker, queues
):
    """Below ``min_sdus`` never, at or above ``max_sdus`` always, and in
    neither case is a random number drawn (nor a generator built); inside
    the band exactly one."""
    low, span, prob, seed = marker
    m = EcnMarker(low, low + span, mark_prob=prob, seed=seed)
    for queued in queues:
        rng_before = marker_state(m)
        marked = m.should_mark(queued)
        drew = marker_state(m) != rng_before
        if queued < low:
            assert not marked and not drew
        elif queued >= low + span:
            assert marked and not drew
        else:
            assert drew
            probe = random.Random()
            probe.setstate(rng_before)
            probe.random()
            assert m._rng.getstate() == probe.getstate()
    assert (m._rng is None) == all(not low <= q < low + span for q in queues)


@settings(max_examples=100, deadline=None)
@given(marker=MARKERS, queues=QUEUES)
def test_property_marker_seeded_replay_gives_the_same_decisions(marker, queues):
    low, span, prob, seed = marker
    replays = [EcnMarker(low, low + span, prob, seed) for _ in range(2)]
    decisions = [[m.should_mark(q) for q in queues] for m in replays]
    assert decisions[0] == decisions[1]
