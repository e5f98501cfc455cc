import locale
import os
import subprocess
import sys
import time
from array import array

import pytest

import rla.cli
from rla import BadParameterError, SimulationResult, scenario_group, scenario_trace
from rla.cli import main

LINKS = """id,capacity_mbps,priority,cost_per_gb,threshold_mbit,buffer_cap_mbit
P4,4,1,1,4,4
S16,16,2,2,16,16
T16,16,3,3,16,16
"""
TRACE = "time_s,demand_mbps\n0,2\n1,10\n2,30\n3,10\n"


@pytest.fixture
def inputs(tmp_path):
    links = tmp_path / "links.csv"
    trace = tmp_path / "trace.csv"
    links.write_text(LINKS)
    trace.write_text(TRACE)
    return tmp_path, str(links), str(trace)


def test_simulate_supply_to_stdout(inputs, capsys):
    _, links, trace = inputs
    rc = main(["simulate", "--links", links, "--trace", trace,
               "--policy", "olb", "--report", "supply", "--out", "-"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "time_s,demand_mbps,supplied_mbps"
    assert out[1:] == ["0,2,2", "1,10,10", "2,30,30", "3,10,10"]


def test_simulate_writes_file(inputs):
    tmp, links, trace = inputs
    out = tmp / "sup.csv"
    rc = main(["simulate", "--links", links, "--trace", trace,
               "--policy", "vrrp", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[3] == "2,30,16"  # master is a 16 Mbps link


def test_simulate_report_all_files(inputs):
    tmp, links, trace = inputs
    rc = main(["simulate", "--links", links, "--trace", trace,
               "--policy", "rr", "--report", "all", "--out", str(tmp / "r.csv")])
    assert rc == 0
    for name in ("supply", "shortfall", "cost", "reorder"):
        assert (tmp / f"r.{name}.csv").exists()


def test_simulate_with_failures(inputs):
    tmp, links, trace = inputs
    fails = tmp / "fails.csv"
    fails.write_text("time_s,link_id,event\n0,P4,down\n")
    out = tmp / "sup.csv"
    rc = main(["simulate", "--links", links, "--trace", trace,
               "--policy", "olb", "--failures", str(fails), "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1] == "0,2,2"  # spillover covers P4


def test_unknown_policy_exits_1(inputs, capsys):
    _, links, trace = inputs
    rc = main(["simulate", "--links", links, "--trace", trace,
               "--policy", "bogus", "--out", "-"])
    assert rc == 1
    assert "unknown policy" in capsys.readouterr().err


def test_empty_links_exits_1(inputs, capsys):
    tmp, _, trace = inputs
    empty = tmp / "empty.csv"
    empty.write_text("id,capacity_mbps,priority,cost_per_gb,threshold_mbit,buffer_cap_mbit\n")
    rc = main(["simulate", "--links", str(empty), "--trace", trace,
               "--policy", "olb", "--out", "-"])
    assert rc == 1
    assert "no link rows" in capsys.readouterr().err


def test_parse_error_reports_file_and_line(inputs, capsys):
    tmp, links, _ = inputs
    bad = tmp / "bad.csv"
    bad.write_text("time_s,demand_mbps\n0,5\nbroken\n")
    rc = main(["simulate", "--links", links, "--trace", str(bad),
               "--policy", "olb", "--out", "-"])
    assert rc == 1
    assert "bad.csv:3" in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    ("time_s,demand_mbps\n0,1\n0,2\n", "3: trace times must be strictly increasing (0.0 after 0.0)"),
    ("time_s,demand_mbps\n0,1\n# note\n2,5\n1,3\n",
     "5: trace times must be strictly increasing (1.0 after 2.0)"),
    ("0,1\n1,-2\n", "2: demand at t=1.0 must be finite and nonnegative, got -2.0"),
])
def test_trace_order_and_sign_errors_report_file_and_line(inputs, capsys, text, where):
    tmp, links, _ = inputs
    bad = tmp / "bad.csv"
    bad.write_text(text)
    rc = main(["simulate", "--links", links, "--trace", str(bad),
               "--policy", "olb", "--out", "-"])
    assert rc == 1
    assert capsys.readouterr().err == f"rla: error: {bad}:{where}\n"


@pytest.mark.parametrize("flag, text, where", [
    ("--links", LINKS.replace("S16,", " ,"), "3: empty link id"),
    ("--failures", "time_s,link_id,event\n0,P4,down\n1, ,up\n", "3: empty link_id"),
])
def test_blank_link_ids_exit_1_with_file_and_line(inputs, capsys, flag, text, where):
    tmp, links, trace = inputs
    bad = tmp / "bad.csv"
    bad.write_text(text)
    # a repeated flag keeps its last value, so a second --links replaces the first
    rc = main(["simulate", "--links", links, "--trace", trace, "--policy", "olb",
               "--out", "-", flag, str(bad)])
    assert rc == 1
    assert capsys.readouterr().err == f"rla: error: {bad}:{where}\n"


def test_oversized_csv_field_exits_1_with_file_and_line(inputs, capsys):
    tmp, links, _ = inputs
    bad = tmp / "bad.csv"
    bad.write_text("time_s,demand_mbps\n0,5\n" + "x" * 140000 + ",2\n")
    rc = main(["simulate", "--links", links, "--trace", str(bad),
               "--policy", "olb", "--out", "-"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"rla: error: {bad}:3: bad CSV row: field larger than field limit")


def test_missing_file_exits_1(inputs, capsys):
    _, links, _ = inputs
    rc = main(["simulate", "--links", links, "--trace", "nope.csv",
               "--policy", "olb", "--out", "-"])
    assert rc == 1
    assert "nope.csv" in capsys.readouterr().err


UNDECODABLE = {  # each file's bytes, its line numbers as the readers count them
    "links": (LINKS.replace("\n", "\r\n").encode().replace(b"S16,16,2", b"S\xff16,16,2"), 3),
    "trace": (b"time_s,demand_mbps\n0,1\n1,\xff\n", 3),
    "failures": (b"# caf\xc3\xa9\r0,P4,down\n\n1,P4,\xffup\n", 4),
}


@pytest.mark.skipif(b"\xff".decode(locale.getpreferredencoding(False), "replace") != "\ufffd",
                    reason="the locale's encoding decodes every byte")
@pytest.mark.parametrize("kind", sorted(UNDECODABLE))
def test_an_undecodable_file_exits_1_with_its_line(inputs, capsys, kind):
    # a byte the locale's encoding cannot decode is a bad line, not a traceback
    tmp, links, trace = inputs
    data, line = UNDECODABLE[kind]
    bad = tmp / f"bad_{kind}.csv"
    bad.write_bytes(data)
    assert main(["simulate", "--links", links, "--trace", trace, "--policy", "olb",
                 "--out", "-", f"--{kind}", str(bad)]) == 1  # the last --links or --trace counts
    err = capsys.readouterr().err
    assert err.startswith(f"rla: error: {bad}:{line}: not ") and err.count("\n") == 1, err


def test_bad_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["simulate", "--nonsense"])
    assert ei.value.code == 1


def test_all_links_down_exits_2(inputs, capsys):
    tmp, links, trace = inputs
    fails = tmp / "fails.csv"
    fails.write_text("0,P4,down\n0,S16,down\n0,T16,down\n")
    rc = main(["simulate", "--links", links, "--trace", trace,
               "--policy", "vrrp", "--failures", str(fails), "--out", "-"])
    assert rc == 2
    assert "down" in capsys.readouterr().err


def test_compare_merges_policies(inputs, capsys):
    _, links, trace = inputs
    rc = main(["compare", "--links", links, "--trace", trace,
               "--policies", "olb,vrrp", "--out", "-"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "time_s,demand_mbps,supplied_olb,supplied_vrrp"
    assert out[3] == "2,30,30,16"


def test_compare_rejects_duplicates(inputs, capsys):
    _, links, trace = inputs
    # duplicates are found on the parsed policy, so case and spaces do not hide one
    for policies in ["olb,olb", "olb,OLB", "wfq, Wfq "]:
        rc = main(["compare", "--links", links, "--trace", trace,
                   "--policies", policies, "--out", "-"])
        assert rc == 1
        assert "duplicate policy" in capsys.readouterr().err


def test_compare_rejects_an_empty_policy_list(inputs, capsys):
    _, links, trace = inputs
    rc = main(["compare", "--links", links, "--trace", trace, "--policies", ",", "--out", "-"])
    assert rc == 1
    assert capsys.readouterr().err == "rla: error: --policies needs at least one policy\n"


def test_compare_renders_with_no_result_alive(tmp_path, monkeypatch):
    # compare asks each run for its supplied column alone, so no run builds
    # a result, and the table is written from four columns
    assert main(["scenario", "--name", "2", "--out-dir", str(tmp_path)]) == 0
    made, runs, real_init, real_supplied = [], [], SimulationResult.__init__, rla.cli._supplied

    def init(self, *args, **kwargs):
        made.append(type(self))
        real_init(self, *args, **kwargs)

    def supplied(*args):
        runs.append(real_supplied(*args))
        return runs[-1]

    monkeypatch.setattr(SimulationResult, "__init__", init)
    monkeypatch.setattr(rla.cli, "_supplied", supplied)
    out = tmp_path / "compare.csv"
    assert main(["compare", "--links", str(tmp_path / "scenario2_links.csv"),
                 "--trace", str(tmp_path / "scenario2_trace.csv"),
                 "--policies", "olb,rr,wfq,vrrp", "--out", str(out)]) == 0
    assert made == [] and len(runs) == 4
    assert all(type(column) is array and column.typecode == "d" for column in runs)
    lines = out.read_text().splitlines()
    assert lines[0] == "time_s,demand_mbps,supplied_olb,supplied_rr,supplied_wfq,supplied_vrrp"
    assert len(lines) == 1 + 24 * 60


def test_scenario_writes_bundle(tmp_path, capsys):
    rc = main(["scenario", "--name", "2", "--out-dir", str(tmp_path),
               "--samples-per-hour", "4"])
    assert rc == 0
    links = (tmp_path / "scenario2_links.csv").read_text()
    assert links.splitlines()[1] == "P4,4,1,1,4,4"
    trace = (tmp_path / "scenario2_trace.csv").read_text()
    assert len(trace.splitlines()) == 1 + 24 * 4


def test_scenario_unknown_name(tmp_path, capsys):
    rc = main(["scenario", "--name", "3", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("argv, err", [
    (["--name", "2", "--samples-per-hour", "6_0"],
     "rla scenario: error: argument --samples-per-hour: invalid int value: '6_0'\n"),
    (["--name", "0_2"], "rla: error: unknown scenario '0_2'\n"),
])
def test_scenario_digit_group_underscore_exits_1(tmp_path, capsys, argv, err):
    # int() reads 6_0 as 60; the scenario flags follow the file readers' rule
    try:
        rc = main(["scenario", *argv, "--out-dir", str(tmp_path / "s")])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 1
    assert capsys.readouterr().err.endswith(err)
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("name", ["0_2", 1.9, True, "3"])
def test_scenario_names_are_read_as_written(name):
    # int() would read '0_2' as 2, 1.9 and True as 1
    for make in (scenario_group, scenario_trace):
        with pytest.raises(BadParameterError, match="unknown scenario"):
            make(name)


def test_scenario_samples_per_hour_bound(tmp_path, capsys):
    rc = main(["scenario", "--name", "2", "--out-dir", str(tmp_path / "s"),
               "--samples-per-hour", "100000000000"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "rla: error: samples_per_hour must be an integer from 1 to 360000, got 100000000000\n")
    assert not (tmp_path / "s").exists()


def test_scenario_files_feed_simulate(tmp_path, capsys):
    assert main(["scenario", "--name", "1", "--out-dir", str(tmp_path),
                 "--samples-per-hour", "2"]) == 0
    capsys.readouterr()
    rc = main(["simulate", "--links", str(tmp_path / "scenario1_links.csv"),
               "--trace", str(tmp_path / "scenario1_trace.csv"),
               "--policy", "olb", "--out", "-"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    supplied = [float(r.split(",")[2]) for r in rows]
    assert max(supplied) == 96.0


def test_stamp_adds_comment_header(inputs, capsys):
    _, links, trace = inputs
    rc = main(["simulate", "--links", links, "--trace", trace,
               "--policy", "olb", "--stamp", "--out", "-"])
    assert rc == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("# rla ")


def test_stamp_leads_each_report(inputs, capsys):
    tmp, links, trace = inputs
    names = ("supply", "shortfall", "cost", "reorder")
    argv = ["simulate", "--links", links, "--trace", trace, "--policy", "olb",
            "--report", "all", "--stamp", "--out"]
    assert main(argv + [str(tmp / "r.csv")]) == 0
    files = [(tmp / f"r.{name}.csv").read_text() for name in names]
    assert all(text.startswith("# rla ") for text in files)
    assert main(argv + ["-"]) == 0
    # stdout: per report in order, '# report: <name>', the stamp, the report
    lines = iter(capsys.readouterr().out.splitlines(keepends=True))
    for name, text in zip(names, files):
        assert next(lines) == f"# report: {name}\n"
        assert next(lines).startswith("# rla ")
        body = text.split("\n", 1)[1]
        assert "".join(next(lines) for _ in range(body.count("\n"))) == body
    assert next(lines, None) is None


def _events(tmp, text):
    path = tmp / "fails.csv"
    path.write_text("time_s,link_id,event\n" + text)
    return str(path)


@pytest.mark.parametrize("events, warning", [
    # the trace's last sample is at t=3
    ("9,S16,down\n1,P4,down\n7,T16,down\n",
     "rla: warning: ignored 2 failure event(s) after the last sample (t=3); "
     "the first: 7,T16,down\n"),
    ("2,P4,down\n1,P4,down\n1.5,S16,up\n3,P4,up\n",
     "rla: warning: ignored 2 failure event(s) that leave their link as it was "
     "(down when down, up when up); the first: 1.5,S16,up\n"),
])
def test_unapplied_failure_events_warn_once_per_kind(inputs, capsys, events, warning):
    tmp, links, trace = inputs
    for command in (["simulate", "--policy", "olb", "--report", "all"],
                    ["compare", "--policies", "olb,vrrp"]):
        argv = [*command, "--links", links, "--trace", trace, "--out", "-"]
        assert main(argv + ["--failures", _events(tmp, events)]) == 0
        out, err = capsys.readouterr()
        assert err == warning
        # the ignored events change nothing: the run with the applied ones alone
        applied = "1,P4,down\n" if "9,S16" in events else "1,P4,down\n3,P4,up\n"
        assert main(argv + ["--failures", _events(tmp, applied)]) == 0
        assert capsys.readouterr() == (out, "")


def test_clean_failure_schedule_gives_no_warning(inputs, capsys):
    tmp, links, trace = inputs
    fails = _events(tmp, "3,P4,up\n0,P4,down\n1,S16,down\n2,S16,up\n")
    assert main(["simulate", "--links", links, "--trace", trace, "--policy", "olb",
                 "--failures", fails, "--out", "-"]) == 0
    assert capsys.readouterr().err == ""


def test_repeat_runs_byte_identical(inputs):
    tmp, links, trace = inputs
    a, b = tmp / "a.csv", tmp / "b.csv"
    for out in (a, b):
        assert main(["compare", "--links", links, "--trace", trace,
                     "--policies", "olb,rr,wfq,vrrp", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point(inputs):
    _, links, trace = inputs
    proc = subprocess.run(
        [sys.executable, "-m", "rla.cli", "simulate", "--links", links,
         "--trace", trace, "--policy", "olb", "--out", "-"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("time_s,demand_mbps,supplied_mbps")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.startswith("rla ")


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "rla.cli", *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize("name, text, where", [
    ("trace.csv", "time_s,demand_mbps\n0,2\n1,nan\n", "trace.csv:3"),
    ("trace.csv", "time_s,demand_mbps\n0,inf\n", "trace.csv:2"),
    ("trace.csv", "time_s,demand_mbps\nnan,2\n", "trace.csv:2"),
    ("links.csv", LINKS.replace("S16,16,2", "S16,nan,2"), "links.csv:3"),
    ("links.csv", LINKS.replace("T16,16,3,3,16,16", "T16,16,3,3,16,inf"), "links.csv:4"),
    ("fails.csv", "time_s,link_id,event\nnan,P4,down\n", "fails.csv:2"),
])
def test_non_finite_input_exits_1_with_file_and_line(inputs, name, text, where):
    tmp, links, trace = inputs
    (tmp / name).write_text(text)
    extra = ["--failures", str(tmp / name)] if name == "fails.csv" else []
    rc = _cli("simulate", "--links", links, "--trace", trace, *extra,
              "--policy", "rr", "--out", "-")
    assert rc.returncode == 1
    assert where in rc.stderr and "finite" in rc.stderr
    assert rc.stderr.startswith("rla: error:") and "Traceback" not in rc.stderr


@pytest.mark.parametrize("policy", ["olb", "wfq"])
def test_arrivals_overflow_exits_1(tmp_path, policy):
    # 1e200 Mbps and a 1e200 s tick are each finite; their product is not
    (tmp_path / "links.csv").write_text(
        "id,capacity_mbps,priority,cost_per_gb,threshold_mbit,buffer_cap_mbit\nA,1,1,1,,\n")
    (tmp_path / "trace.csv").write_text("time_s,demand_mbps\n0,1\n1,1e200\n")
    rc = _cli("simulate", "--links", str(tmp_path / "links.csv"),
              "--trace", str(tmp_path / "trace.csv"), "--policy", policy,
              "--tick", "1e200", "--out", "-")
    assert rc.returncode == 1
    assert rc.stderr.startswith("rla: error:") and "t=1.0" in rc.stderr
    assert "Traceback" not in rc.stderr


@pytest.mark.parametrize("flag, value", [("--quantum", "nan"), ("--tick", "nan"),
                                         ("--tick", "inf")])
def test_non_finite_flag_exits_1(inputs, flag, value):
    _, links, trace = inputs
    rc = _cli("simulate", "--links", links, "--trace", trace,
              "--policy", "olb", flag, value, "--out", "-")
    assert rc.returncode == 1
    assert rc.stderr.startswith("rla: error:") and flag[2:] in rc.stderr
    assert "Traceback" not in rc.stderr


@pytest.mark.parametrize("flag", ["--tick", "--quantum"])
def test_digit_group_underscore_in_flag_exits_1(inputs, capsys, flag):
    # float() reads 1_0 as 10; the flags follow the file readers' rule
    _, links, trace = inputs
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--links", links, "--trace", trace,
              "--policy", "olb", flag, "1_0", "--out", "-"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: rla simulate")
    assert err.endswith(f"rla simulate: error: argument {flag}: invalid float value: '1_0'\n")


# links rows and --quantum that make (cap - buffer) / quantum overflow to inf
_HUGE_ROOM = {"cap": ("a,10,1,1,1,1.7e308\nb,10,2,1,1,1.7e308\n", "0.5"),
              "quantum": ("a,1e10,1,1,,\n", "1e-300")}


@pytest.mark.parametrize("policy, case", [
    *[(p, "cap") for p in ("olb", "rr", "wfq", "vrrp")],
    *[(p, "quantum") for p in ("olb", "vrrp")],  # rr and wfq reject ~1e301 quanta a tick
])
def test_room_past_the_float_range_exits_0(tmp_path, policy, case):
    links, quantum = _HUGE_ROOM[case]
    (tmp_path / "links.csv").write_text(LINKS.splitlines()[0] + "\n" + links)
    (tmp_path / "trace.csv").write_text("time_s,demand_mbps\n0,5\n1,20\n")
    rc = _cli("simulate", "--links", str(tmp_path / "links.csv"),
              "--trace", str(tmp_path / "trace.csv"), "--policy", policy,
              "--quantum", quantum, "--out", "-")
    assert (rc.returncode, rc.stderr) == (0, "")
    assert len(rc.stdout.splitlines()) == 3


def test_wfq_quanta_limit_exits_1(inputs, capsys):
    _, links, trace = inputs
    rc = main(["simulate", "--links", links, "--trace", trace,
               "--policy", "wfq", "--quantum", "1e-7", "--out", "-"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("rla: error: wfq needs") and "t=2.0" in err and "--quantum" in err


def test_rr_tiny_quantum_on_capped_links_finishes_at_once(inputs, capsys):
    _, links, trace = inputs  # every link's cap equals its threshold
    t0 = time.perf_counter()
    rc = main(["simulate", "--links", links, "--trace", trace,
               "--policy", "rr", "--quantum", "1e-7", "--report", "shortfall", "--out", "-"])
    assert rc == 0 and time.perf_counter() - t0 < 1.0
    # at 30 Mbps each link is offered 10; P4 keeps its 4 and sheds the rest
    assert capsys.readouterr().out.splitlines()[1:] == ["0,0", "1,0", "2,6", "3,0"]


def test_rr_quanta_beyond_int64_exits_1(tmp_path):
    # rr reports a tick's link switches, here ~3e19, in the int64 reorder column
    assert main(["scenario", "--name", "2", "--out-dir", str(tmp_path)]) == 0
    files = ("--links", str(tmp_path / "scenario2_links.csv"),
             "--trace", str(tmp_path / "scenario2_trace.csv"))
    rc = _cli("simulate", *files, "--policy", "rr", "--quantum", "1e-18", "--out", "-")
    assert rc.returncode == 1 and "Traceback" not in rc.stderr
    assert rc.stderr.startswith("rla: error: rr needs 3e+19 quanta for the sample at t=47700.0")
    assert rc.stderr.endswith("use --quantum 3.2526065174565137e-18 or larger\n")
    assert len(rc.stderr.splitlines()) == 1
    olb = _cli("simulate", *files, "--policy", "olb", "--quantum", "1e-18", "--out", "-")
    assert olb.returncode == 0 and olb.stderr == ""


@pytest.mark.parametrize("command, where", [
    (("simulate", "--policy", "olb"), "missing_dir/x.csv"),  # no such directory
    (("compare", "--policies", "olb,vrrp"), "links.csv/x.csv"),  # a file as directory
])
def test_unwritable_out_exits_1(inputs, command, where):
    tmp, links, trace = inputs
    out = str(tmp / where)
    rc = _cli(command[0], "--links", links, "--trace", trace, *command[1:], "--out", out)
    assert rc.returncode == 1
    assert rc.stderr.startswith(f"rla: error: {out}: ")
    assert "Traceback" not in rc.stderr


def test_unwritable_report_file_exits_1(inputs):
    tmp, links, trace = inputs
    (tmp / "r.shortfall.csv").mkdir()  # the second report's name is taken
    rc = _cli("simulate", "--links", links, "--trace", trace, "--policy", "olb",
              "--report", "all", "--out", str(tmp / "r.csv"))
    assert rc.returncode == 1
    assert rc.stderr.startswith(f"rla: error: {tmp / 'r.shortfall.csv'}: ")
    assert "Traceback" not in rc.stderr


def test_a_report_file_that_cannot_open_leaves_the_others_as_they_were(inputs, capsys):
    tmp, links, trace = inputs
    (tmp / "out.supply.csv").write_text("old\n")
    (tmp / "out.cost.csv").mkdir()  # the third report's name is taken
    rc = main(["simulate", "--links", links, "--trace", trace, "--policy", "olb",
               "--report", "all", "--out", str(tmp / "out.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"rla: error: {tmp / 'out.cost.csv'}: Is a directory\n"
    assert (tmp / "out.supply.csv").read_text() == "old\n"  # not emptied
    assert not (tmp / "out.shortfall.csv").exists()  # made, then removed


def test_report_files_are_rewritten_whole(inputs):
    # a longer file at a report's path is emptied first, as mode "w" would
    tmp, links, trace = inputs
    argv = ["simulate", "--links", links, "--trace", trace, "--policy", "rr"]
    assert main([*argv, "--report", "all", "--out", str(tmp / "new.csv")]) == 0
    for name in ("supply", "shortfall", "cost", "reorder"):
        (tmp / f"old.{name}.csv").write_text("x" * 100_000)
    assert main([*argv, "--report", "all", "--out", str(tmp / "old.csv")]) == 0
    for name in ("supply", "shortfall", "cost", "reorder"):
        assert (tmp / f"old.{name}.csv").read_bytes() == (tmp / f"new.{name}.csv").read_bytes()
    assert main([*argv, "--out", os.devnull]) == 0  # a device is written, not emptied


def test_scenario_unwritable_file_exits_1(tmp_path):
    (tmp_path / "scenario2_links.csv").mkdir()  # the links file's name is taken
    rc = _cli("scenario", "--name", "2", "--out-dir", str(tmp_path))
    assert rc.returncode == 1
    assert rc.stderr.startswith(f"rla: error: {tmp_path / 'scenario2_links.csv'}: ")
    assert "Traceback" not in rc.stderr
