"""The channel's history pruning, against a channel that keeps every
transmission.

The MAC invariants of random small scenarios are checked by acceptance
criterion 6 (`random_scenario` 0-999) and on every run of the battery.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from wpansim.mac import BROADCAST, Channel, Frame, FrameKind, Transmission
from wpansim.phy import PhyParams


# -- the channel's history rule against a channel that never prunes ------------

class _Listener:
    """A channel listener on the x axis; the mobile one moves with `clock`."""

    def __init__(self, x, clock=None):
        self.x = x
        self.clock = clock  # [now in us] for the mobile, None when stationary
        self.is_mobile = clock is not None

    def position(self):
        if self.clock is None:
            return (self.x, 0.0)
        return (self.x + self.clock[0] / 2_000, 0.0)  # 0.5 m per ms


class _Unpruned(Channel):
    """A channel that keeps every transmission it was given."""

    def add(self, tx):
        every = [*self.transmissions, tx]
        super().add(tx)
        self.transmissions = every


# Times mostly in tens of us, so that ends often meet `start - longest_us`
# exactly, and now and then a long gap or a new longest frame.
_US = st.integers(0, 40) | st.integers(0, 4_000)
# (gap after the previous start, airtime, sender, tx power); a zero gap
# starts two frames in the same microsecond.
_SENDS = st.lists(st.tuples(_US, _US.map(lambda us: us + 1), st.integers(0, 4),
                            st.sampled_from((0.0, 6.0))),
                  min_size=1, max_size=40)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_SENDS, st.lists(_US, min_size=1, max_size=4))
def test_pruned_history_answers_as_the_whole_history(sends, offsets):
    """After every add, the kept history is, in start order, every
    transmission that ended at or after `start - longest_us` of each add
    since its own, and busy_for and interferers give the same answers as on
    a channel that keeps everything."""
    params = PhyParams()
    params.rx_sensitivity_dbm, params.pl0_db, params.path_loss_exponent = -73.0, 54.0, 3.5
    clock = [0]
    listeners = [_Listener(0.0), _Listener(2.0), _Listener(4.0),
                 _Listener(9.0), _Listener(1.0, clock=clock)]
    pruned, whole = Channel(params, listeners), _Unpruned(params, listeners)
    sent = []  # (start, end, frame), in start order
    twins = []  # (tx on pruned, tx on whole) per frame
    now = floor = 0  # floor: the highest `start - longest_us` so far
    for gap, airtime, sender, power in sends:
        now += gap
        clock[0] = now
        node = listeners[sender]
        frame = Frame(FrameKind.DATA, len(sent), sender, BROADCAST,
                      tx_power_dbm=power)
        longest = max((end - start for start, end, _ in sent), default=0)
        floor = max(floor, now - longest)
        expected = [f for start, end, f in sent if end >= floor]
        sent.append((now, now + airtime, frame))
        twins.append(tuple(Transmission(node, frame, now, now + airtime,
                                        node.position()) for _ in range(2)))
        pruned.add(twins[-1][0])
        whole.add(twins[-1][1])
        assert [t.frame for t in pruned.transmissions] == expected + [frame]
        assert [t.frame for t in whole.transmissions] == [f for *_, f in sent]
        for offset in offsets:  # CCA is sampled at now or later
            clock[0] = now + offset
            for listener in listeners:
                assert (pruned.busy_for(listener, now + offset)
                        == whole.busy_for(listener, now + offset))
        clock[0] = now
        for mine, theirs in twins:
            if mine.end < now:
                continue  # resolved already
            for listener in listeners:
                assert ([t.frame for t in pruned.interferers(mine, listener)]
                        == [t.frame for t in whole.interferers(theirs, listener)])
