"""Report formatting and calibration inventory."""

from repro.experiments.calibration import calibration_lines
from repro.experiments.report import format_demand_result, format_supply_result
from repro.experiments.stats import Cell
from repro.telemetry.export import series_to_csv


def test_series_to_csv():
    csv = series_to_csv([(0.0, 1.0), (1.5, 2.0)])
    lines = csv.strip().splitlines()
    assert lines[0] == "time,value"
    assert lines[1] == "0.0000,1.0"
    assert lines[2] == "1.5000,2.0"


def test_format_supply_result_smoke():
    from repro.experiments.supply import SupplyResult, SupplyTrial

    result = SupplyResult("step-down")
    result.trials.append(
        SupplyTrial("step-down", [(0.0, 100.0), (1.0, 110.0)], 2.0, 1.0)
    )
    text = format_supply_result(result)
    assert "step-down" in text
    assert "settling time" in text
    assert "2.00" in text


def test_format_demand_result_smoke():
    from repro.experiments.demand import DemandResult, DemandTrial

    result = DemandResult(0.45)
    result.trials.append(DemandTrial(0.45, [], [], [], 5.0))
    text = format_demand_result(result)
    assert "45%" in text
    assert "5.00" in text


def test_cell_precision_controls_format():
    assert str(Cell([1018, 1020], precision=0)) == "1019 (1)"
    assert "(" in f"{Cell([1.0]):>20s}"  # __format__ works in f-strings


def test_calibration_lines_cover_all_subsystems():
    text = "\n".join(calibration_lines())
    for fragment in ("modulated bandwidths", "EWMA gains", "rtt rise cap",
                     "video tracks", "jpeg99", "web image", "speech",
                     "latency goal"):
        assert fragment in text


def test_calibration_values_match_modules():
    from repro.trace.waveforms import HIGH_BANDWIDTH, LOW_BANDWIDTH

    text = "\n".join(calibration_lines())
    assert str(LOW_BANDWIDTH) in text
    assert str(HIGH_BANDWIDTH) in text
