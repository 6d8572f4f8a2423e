import math

import pytest

from wpansim.phy import (B868, B915, B2400, PhyParams, beacon_interval,
                         comm_range_m, frame_airtime, heard, link_rx_power,
                         lq_from_rx_power)


def test_beacon_interval_doubles_per_order():
    for band in (B2400, B915, B868):
        for bo in range(14):
            assert beacon_interval(bo + 1, band) == 2 * beacon_interval(bo, band)


def test_beacon_order_15_is_not_an_interval():
    with pytest.raises(ValueError):
        beacon_interval(15, B2400)


def test_path_loss_reference_distance():
    p = PhyParams()
    p.pl0_db, p.path_loss_exponent = 47.0, 2.0
    assert link_rx_power(1.0, 0.0, p) == -47.0


def test_path_loss_doubling_distance():
    p = PhyParams()
    p.pl0_db, p.path_loss_exponent = 40.0, 2.0
    loss = link_rx_power(1.0, 0.0, p) - link_rx_power(2.0, 0.0, p)
    assert loss == pytest.approx(6.0206, abs=1e-4)


def test_path_loss_clamps_tiny_distance():
    p = PhyParams()
    at_clamp = link_rx_power(0.1, 0.0, p)
    assert link_rx_power(0.0, 0.0, p) == at_clamp
    assert link_rx_power(0.05, 0.0, p) == at_clamp


def test_received_power_budget():
    p = PhyParams()
    p.pl0_db = 85.0  # 85 dB of path loss at 1 m
    assert link_rx_power(1.0, 0.0, p) == -85.0
    assert link_rx_power(1.0, 4.0, p) == -81.0


def test_received_power_of_minus_zero_dbm_over_no_loss_is_plus_zero():
    # The trace prints 0.0 and -0.0 differently; a bare tx - pl would give
    # -0.0 here.
    p = PhyParams()
    p.pl0_db = 0.0
    rx = link_rx_power(1.0, -0.0, p)
    assert rx == 0.0 and math.copysign(1.0, rx) == 1.0


def test_lq_endpoints_and_midpoint():
    p = PhyParams()
    p.rx_sensitivity_dbm, p.lq_saturation_margin_db = -70.0, 40.0
    assert lq_from_rx_power(-70.0, p) == 0
    assert lq_from_rx_power(-30.0, p) == 255
    assert lq_from_rx_power(-50.0, p) == 128  # midpoint rounds half up
    # endpoint identities are exact, not just asymptotic
    assert lq_from_rx_power(-69.999, p) >= 1
    assert lq_from_rx_power(-30.001, p) <= 254
    assert lq_from_rx_power(-200.0, p) == 0
    assert lq_from_rx_power(0.0, p) == 255


def test_lq_monotone():
    p = PhyParams()
    p.rx_sensitivity_dbm = -70.0
    values = [lq_from_rx_power(-90.0 + 0.25 * k, p) for k in range(400)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_frame_airtime():
    assert frame_airtime(10, B2400) == 320
    assert frame_airtime(10, B868) == 4_000
    assert frame_airtime(1, B2400) == 32
    assert frame_airtime(250, B915) == 50_000
    with pytest.raises(ValueError):
        frame_airtime(0, B2400)


def test_heard_strict_at_sensitivity():
    # rx exactly at sensitivity must be out of range
    p = PhyParams()
    p.pl0_db, p.path_loss_exponent, p.rx_sensitivity_dbm = 85.0, 2.0, -85.0
    assert heard(link_rx_power(1.0, 0.0, p), p) is False
    assert heard(link_rx_power(0.999, 0.0, p), p) is True


def test_heard_monotone_in_power():
    p = PhyParams()
    d = 3.0
    states = [heard(link_rx_power(d, power, p), p) for power in range(-10, 11)]
    # once true, stays true for every higher power
    first_true = states.index(True) if True in states else len(states)
    assert all(states[first_true:])


def test_heard_on_calibrated_defaults(default_cfg):
    p = default_cfg.phy
    assert heard(link_rx_power(1.0, 0.0, p), p) is True
    # x = 3 m sits in the first coverage gap at 0 dBm: out of range of all three
    for node in default_cfg.stationary_nodes():
        dist = abs(3.0 - node.x)
        assert heard(link_rx_power(dist, 0.0, p), p) is False


def test_comm_range_matches_heard_threshold():
    p = PhyParams()
    p.pl0_db, p.path_loss_exponent, p.rx_sensitivity_dbm = 54.0, 3.5, -73.0
    r = comm_range_m(0.0, p)
    assert heard(link_rx_power(r * 0.999, 0.0, p), p) is True
    assert heard(link_rx_power(r * 1.001, 0.0, p), p) is False
