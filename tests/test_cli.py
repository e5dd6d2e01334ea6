"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_calibration(capsys):
    code, out = run_cli(capsys, "calibration")
    assert code == 0
    assert "modulated bandwidths" in out
    assert "video tracks" in out


def test_waveform_trace_format(capsys):
    code, out = run_cli(capsys, "waveform", "step-up")
    assert code == 0
    assert "duration_s" in out
    assert "122880" in out and "40960" in out


def test_waveform_csv_format(capsys):
    code, out = run_cli(capsys, "waveform", "impulse-down", "--format", "csv",
                        "--step", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time_s,bandwidth_bytes_per_s"
    assert len(lines) == 14  # header + 0..60 in 5 s steps


def test_unknown_waveform_errors(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["waveform", "sine"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # One error line, naming the reference waveforms and the families.
    (error,) = [line for line in err.splitlines() if "error:" in line]
    assert "unknown waveform 'sine'" in error
    assert "urban-walk" in error and "robustness" in error


def test_fig8_single_waveform(capsys):
    code, out = run_cli(capsys, "fig8", "--waveform", "step-down",
                        "--trials", "1")
    assert code == 0
    assert "settling time" in out


def test_fig8_csv(capsys):
    code, out = run_cli(capsys, "fig8", "--waveform", "step-up",
                        "--trials", "1", "--format", "csv")
    assert code == 0
    assert out.startswith("time_s,estimate_bytes_per_s")


def test_fig9_single_utilization(capsys):
    code, out = run_cli(capsys, "fig9", "--utilization", "0.1",
                        "--trials", "1")
    assert code == 0
    assert "second stream settling" in out


def test_fig12_table(capsys):
    code, out = run_cli(capsys, "fig12", "--trials", "1")
    assert code == 0
    assert "hybrid" in out and "remote" in out and "adaptive" in out


def test_scenario(capsys):
    code, out = run_cli(capsys, "scenario", "--policy", "blind-optimism",
                        "--seed", "2")
    assert code == 0
    assert "video" in out and "speech" in out
    assert "blind-optimism" in out


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_knows_the_transport_commands():
    parser = build_parser()
    args = parser.parse_args(["serve", "--port", "7777",
                              "--heartbeat", "2.5"])
    assert (args.port, args.heartbeat, args.run_seconds) == (7777, 2.5, None)
    args = parser.parse_args(["connect", "--port", "7777",
                              "--call", "echo", "--body", "{}"])
    assert (args.port, args.name, args.call) == (7777, "probe", "echo")
    args = parser.parse_args(["loadtest", "--clients", "64",
                              "--seconds", "2"])
    assert (args.clients, args.seconds, args.port) == (64, 2.0, None)


def test_connect_requires_a_port():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["connect"])


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


@pytest.mark.slow
def test_all_report(capsys, tmp_path):
    out_file = tmp_path / "report.txt"
    code, out = run_cli(capsys, "all", "--trials", "1",
                        "--no-extensions", "--out", str(out_file))
    assert code == 0
    assert "Reproduction report" in out
    assert "Fig. 10" in out and "Fig. 14" in out
    assert out_file.read_text() == out


def test_jobs_flag_global_and_per_command(capsys):
    code_global, out_global = run_cli(
        capsys, "--jobs", "2", "fig8", "--waveform", "step-up",
        "--trials", "2")
    code_sub, out_sub = run_cli(
        capsys, "fig8", "--waveform", "step-up", "--trials", "2",
        "--jobs", "2", "--no-cache")
    assert code_global == code_sub == 0
    assert out_global == out_sub  # parallel output identical to serial


def test_jobs_zero_means_all_cores(capsys):
    code, out = run_cli(capsys, "--jobs", "0", "fig8",
                        "--waveform", "step-up", "--trials", "1")
    assert code == 0
    assert "settling time" in out


def test_second_run_is_cache_hit(capsys, tmp_path, monkeypatch):
    import gc
    import time

    from repro.parallel import runner

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    resolved = []
    real_resolve = runner.resolve_trial_function

    def counting_resolve(experiment):
        resolved.append(experiment)
        return real_resolve(experiment)

    monkeypatch.setattr(runner, "resolve_trial_function", counting_resolve)

    def timed_fig8():
        # Timed as timeit does, with the collector off: a full collection
        # of the suite's heap can take longer than the trial itself, and
        # where it lands depends only on how much ran before.
        gc.disable()
        try:
            start = time.perf_counter()
            code, _ = run_cli(capsys, "fig8", "--waveform", "step-up",
                              "--trials", "1")
            return code, time.perf_counter() - start
        finally:
            gc.enable()

    _, cold = timed_fig8()
    assert resolved == ["supply"]
    code, warm = timed_fig8()
    assert code == 0
    assert resolved == ["supply"]  # the hit never runs the trial
    assert warm < cold  # the hit never rebuilds the simulation
    code, out = run_cli(capsys, "cache")
    assert "supply" in out


def test_cache_stats_and_clear(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run_cli(capsys, "turbulence", "--trials", "1")
    code, out = run_cli(capsys, "cache", "stats")
    assert code == 0
    assert "turbulence" in out
    code, out = run_cli(capsys, "cache", "clear")
    assert code == 0
    assert "removed" in out
    code, out = run_cli(capsys, "cache")
    assert "entries    : 0" in out


def test_no_cache_leaves_cache_empty(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, _ = run_cli(capsys, "--no-cache", "fig8", "--waveform", "step-up",
                      "--trials", "1")
    assert code == 0
    code, out = run_cli(capsys, "cache")
    assert "entries    : 0" in out


def test_bench_capture_never_clobbers(tmp_path):
    from repro.cli import _unique_path

    target = tmp_path / "BENCH_2026-08-05.json"
    assert _unique_path(str(target)) == str(target)
    target.write_text("{}")
    second = _unique_path(str(target))
    assert second == str(tmp_path / "BENCH_2026-08-05-2.json")
    (tmp_path / "BENCH_2026-08-05-2.json").write_text("{}")
    assert _unique_path(str(target)) \
        == str(tmp_path / "BENCH_2026-08-05-3.json")


# -- Bad input stops at the parser (exit 2) or at the trial (ReproError) -----


@pytest.mark.parametrize("command", ["fig8", "fig9", "fig10", "fig12",
                                     "turbulence", "adaptation", "all"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_trials_below_one_is_a_usage_error(capsys, command, trials):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--trials", trials])
    assert excinfo.value.code == 2
    assert "--trials: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["urban", "--duration", "-5"], "argument --duration: must be positive"),
    (["step-up", "--format", "csv", "--step", "0"],
     "argument --step: must be positive"),
    (["urban", "--duration", "inf"], "argument --duration: must be positive"),
])
def test_bad_waveform_sampling_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["waveform", *argv])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (error,) = [line for line in err.splitlines() if "error:" in line]
    assert message in error


@pytest.mark.parametrize("utilization", ["0", "-0.5", "2"])
def test_fig9_rejects_a_load_outside_the_unit_interval(utilization):
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="utilization"):
        main(["--no-cache", "fig9", "--utilization", utilization,
              "--trials", "1"])


@pytest.mark.parametrize("curve", ["4,x", ",", "4,0"])
def test_fleet_curve_rejects_bad_client_counts(capsys, curve):
    with pytest.raises(SystemExit) as excinfo:
        main(["fleet", "--curve", curve])
    assert excinfo.value.code == 2
    assert "--curve" in capsys.readouterr().err


def test_fleet_curve_parses_client_counts():
    args = build_parser().parse_args(["fleet", "--curve", "250, 500"])
    assert args.curve == [250, 500]


# -- What the figure commands print, and how they fan out ---------------------

#: sha256 of stdout from ``repro --no-cache <command> --trials 1``.
GOLDEN_STDOUT = {
    "fig8": "bc4bece3875674919c4587b398a6c4933b47da32878d68bf1681bb84312216d2",
    "fig9": "37da2063a86084b7e5d732f1f5681fe8139874820d47beeeb21a8e20f0533f7e",
    "fig12": "3a48d3e56a0673096b19e4b7ee3580b5271e36dd577ef0a0cadb04476d187494",
    "turbulence":
        "a463569b208a15e616b3ae322f4dcda662a0417cf34b2a7a5e4147d2f386634d",
    "adaptation":
        "fbf799d2072f67e4ad72207e53d69ffabd717a2137390c9fc64b1f0ee0c9861d",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_figure_report_text_is_pinned(capsys, command):
    import hashlib

    code, out = run_cli(capsys, "--no-cache", command, "--trials", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


def test_each_figure_fans_out_as_one_unit_list(capsys, monkeypatch):
    """Every cell x trial of a figure goes to the runner in one call, so
    ``--jobs`` can spread the whole grid."""
    from repro.parallel import runner

    real_run_units = runner.run_units
    calls = []

    def counting_run_units(units, **kwargs):
        calls.append(len(units))
        return real_run_units(units, **kwargs)

    monkeypatch.setattr(runner, "run_units", counting_run_units)
    for command, units in (("fig8", 12), ("fig9", 9), ("adaptation", 6)):
        calls.clear()
        code, _ = run_cli(capsys, "--no-cache", command, "--trials", "3")
        assert code == 0
        assert calls == [units], command


def test_sections_match_the_figure_commands():
    from repro.cli import SECTION_COMMANDS, _cmd_section
    from repro.experiments.summary import EXTENSIONS, SECTIONS

    parser = build_parser()
    commands = {name for name, _ in SECTION_COMMANDS}
    assert all(parser.parse_args([name]).fn is _cmd_section
               for name in commands)
    assert set(SECTIONS) == commands | {"fig8", "fig9"}
    assert set(EXTENSIONS) <= set(SECTIONS)


def test_build_parser_imports_no_figure_module():
    from test_startup import probe

    figure_modules = ("supply", "demand", "video", "web", "speech",
                      "concurrent", "adaptation", "turbulence", "report",
                      "summary")
    out = probe("import sys\n"
                "from repro.cli import build_parser\n"
                "build_parser()\n"
                f"print(sorted(name for name in {figure_modules!r}\n"
                "             if 'repro.experiments.' + name in sys.modules))\n")
    assert out == "[]"
