"""timing.estimate_time_us against values worked out by hand, the checks of
TimingParams, and the lines the cost command prints."""

from fractions import Fraction

import pytest

from isingcoupler import PulseSequence, TimingParams, cli, estimate_time_us, sequence_to_json


def test_empty_sequence_costs_one_flip_round():
    assert estimate_time_us(PulseSequence.empty(4)) == 5


def test_one_row_sequence():
    # (1 + 1) * 5 + 2 * 3 * 50
    seq = PulseSequence.from_pairs(3, [(0b010, 2)])
    assert estimate_time_us(seq) == 310


def test_weighted_sequence_with_rational_strengths():
    seq = PulseSequence.from_pairs(
        4, [(0b0010, Fraction(1, 2)), (0b0110, Fraction(-3, 4)), (0b1000, Fraction(2, 3))])
    params = TimingParams(t_pi_us=Fraction(3, 2), t_ising_per_ion_us=Fraction(10, 3))
    # L0 = 3 and L1 = 23/12: (3 + 1) * 3/2 + 23/12 * 4 * 10/3 = 6 + 230/9
    assert estimate_time_us(seq, params) == Fraction(284, 9)


@pytest.mark.parametrize("value", [0, -1, Fraction(-1, 2)])
@pytest.mark.parametrize("name", ["t_pi_us", "t_ising_per_ion_us"])
def test_timing_params_reject_durations_that_are_not_positive(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        TimingParams(**{name: value})


def run_cost(tmp_path, capsys, *flags):
    pulse = tmp_path / "pulse.json"
    pulse.write_text(sequence_to_json(PulseSequence.from_pairs(3, [(0b010, 2)])))
    code = cli.main(["cost", str(pulse), *flags])
    return code, capsys.readouterr()


def test_cost_prints_the_estimate(tmp_path, capsys):
    code, captured = run_cost(tmp_path, capsys)
    assert code == cli.EXIT_OK
    assert captured.out.splitlines() == [
        "n=3 L0=1 L1=2 t_pi_us=5 t_ising_per_ion_us=50",
        "estimate_us=310 estimate_ms=0.31",
    ]


def test_cost_reads_durations_from_flags(tmp_path, capsys):
    code, captured = run_cost(tmp_path, capsys, "--t-pi-us", "3/2", "--t-ising-per-ion-us", "10")
    assert code == cli.EXIT_OK
    # (1 + 1) * 3/2 + 2 * 3 * 10
    assert captured.out.splitlines() == [
        "n=3 L0=1 L1=2 t_pi_us=3/2 t_ising_per_ion_us=10",
        "estimate_us=63 estimate_ms=0.063",
    ]


@pytest.mark.parametrize("flag, value", [
    ("--t-pi-us", "0"), ("--t-ising-per-ion-us", "fast"), ("--t-pi-us", "-1/2"),
    ("--t-ising-per-ion-us", "0"),
])
def test_bad_timing_flag_is_a_usage_error(tmp_path, capsys, flag, value):
    """One line that names the flag the user typed, for a duration that is
    not a number or not positive ("=" keeps argparse from reading -1/2 as
    a flag)."""
    code, captured = run_cost(tmp_path, capsys, f"{flag}={value}")
    assert code == cli.EXIT_USAGE and captured.out == ""
    assert captured.err.startswith(f"error: {flag}") and captured.err.count("\n") == 1
