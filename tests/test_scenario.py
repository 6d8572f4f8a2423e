import random

import pytest

from wpansim.engine import SimulationError
from wpansim.scenario import (LISTEN, RX, SLEEP, CurrentModel, EnergyLedger,
                              Trajectory, tx_mode)

DEFAULT_TRAJ = Trajectory([(0.0, 0.0, 0), (15.0, 0.0, 15_000_000)])


def test_position_at_start():
    assert DEFAULT_TRAJ.position_at(0) == (0.0, 0.0)


def test_position_linear_interpolation():
    assert DEFAULT_TRAJ.position_at(7_500_000) == (7.5, 0.0)


def test_position_clamps_after_end():
    assert DEFAULT_TRAJ.position_at(99_000_000) == (15.0, 0.0)


def test_position_multi_segment():
    traj = Trajectory([(0.0, 0.0, 0), (10.0, 0.0, 5_000_000),
                       (10.0, 4.0, 9_000_000)])
    assert traj.position_at(2_500_000) == (5.0, 0.0)
    assert traj.position_at(7_000_000) == (10.0, 2.0)


def test_waypoints_must_increase():
    with pytest.raises(ValueError):
        Trajectory([(0.0, 0.0, 0), (1.0, 0.0, 0)])


def test_tx_one_second_at_0dbm_is_90mj():
    led = EnergyLedger(tx_mode(0.0))
    led.close(1_000_000)
    assert led.energy_mj(CurrentModel(), 3.0) == pytest.approx(90.0, abs=5e-4)


def test_sleep_one_hour_is_32_4mj():
    led = EnergyLedger(SLEEP)
    led.close(3_600_000_000)
    assert led.energy_mj(CurrentModel(), 3.0) == pytest.approx(32.4, abs=5e-4)


def test_zero_length_interval_adds_nothing():
    led = EnergyLedger(LISTEN)
    led.transition(tx_mode(0.0), 500)
    led.transition(LISTEN, 500)  # zero-length tx interval
    led.close(1_000)
    assert led.mode_times.get(tx_mode(0.0), 0) == 0
    assert led.total_time() == 1_000


def test_out_of_order_transition_is_fatal():
    led = EnergyLedger(LISTEN)
    led.transition(SLEEP, 100)
    with pytest.raises(SimulationError):
        led.transition(LISTEN, 50)


def test_mode_time_conservation_under_random_splits():
    rng = random.Random(5)
    for _ in range(50):
        led = EnergyLedger(LISTEN)
        t = 0
        for _ in range(40):
            t += rng.randint(0, 10_000)
            led.transition(rng.choice([SLEEP, LISTEN, RX, tx_mode(3.0)]), t)
        end = t + rng.randint(0, 10_000)
        led.close(end)
        assert led.total_time() == end


def test_energy_additive_regardless_of_splitting():
    model = CurrentModel()
    one = EnergyLedger(LISTEN)
    one.close(1_000_000)
    split = EnergyLedger(LISTEN)
    for t in range(100_000, 1_000_000, 100_000):
        split.transition(LISTEN, t)
    split.close(1_000_000)
    assert one.energy_mj(model, 3.0) == pytest.approx(split.energy_mj(model, 3.0))


def test_doubling_voltage_doubles_energy():
    led = EnergyLedger(LISTEN)
    led.transition(tx_mode(4.0), 300_000)
    led.transition(SLEEP, 700_000)
    led.close(2_000_000)
    model = CurrentModel()
    assert led.energy_mj(model, 6.0) == 2.0 * led.energy_mj(model, 3.0)


def test_tx_current_ramp():
    model = CurrentModel()
    assert model.tx_current_ma(0.0) == 30.0
    assert model.tx_current_ma(6.0) == 39.0
    assert model.current_ma(SLEEP) == 0.003
    assert model.current_ma(tx_mode(4.0)) == 36.0


def test_off_grid_power_is_charged_exactly():
    # Keyed by the power rounded to 0.1 dBm, 3.25 dBm was charged as 3.2
    # (34.8 mA), and 3.2 and 3.25 dBm merged into one energy.csv row.
    assert tx_mode(4.0).name == "tx@4.0"
    assert CurrentModel().current_ma(tx_mode(3.25)) == 34.875
    led = EnergyLedger(tx_mode(3.2))
    led.transition(tx_mode(3.25), 100)
    led.close(300)
    assert led.mode_times == {tx_mode(3.2): 100, tx_mode(3.25): 200}
    assert len(led.mode_times) == 2
