"""Golden sha256 digests of CLI output.

The scenario-2 `sim-*` cases and `compare-s1-600` were recorded from the
CLI before the rr/wfq selection and admission passes were split; the
scenario-1 `sim-s1-*` cases and `compare-s2-failures` before results were
stored as columns; `compare-s2-q0.3-t0.75-failures` before each policy's
rule moved into one class. That case is non-dyadic: its quanta and tick are
not powers of two, so its last bits depend on the order of every float
operation, which the dyadic oracle checks cannot see. `sim-wfq-q0.5-direct`
was recorded when wfq became exact: its direct-cost shares 1/6, 1/3 and 1/2
tie exactly, and float counters broke those ties by rounding (digest
6ca9b456... with them). Every later engine or report change has to
reproduce the recorded bytes exactly. Each case writes its output to stdout;
`--report all` interleaves the four reports behind `# report: <name>` lines.
Each case also runs with `--out FILE`, which streams the reports into files
chunk by chunk; the stdout stream rebuilt from those files must give the same
digest. The `sim-s1-600-*` cases run 14,400 ticks, several chunks.
"""

import hashlib

import pytest

from rla.cli import _REPORTS, main

GOLDEN = {
    "sim-olb-all":
        "b1685068ea5fdca46de216812f1bc94f5d10f9b80216ad8d15375a550ef3e71a",
    "sim-rr-all":
        "3d88cabef261f431a5f6876e25d31f943640f0015dac7304bd168081944d4600",
    "sim-wfq-all":
        "e0c2e5aa6358047a8da8fcd746e9fce9d18458ef2d65e4b232da09502af81bf8",
    "sim-vrrp-all":
        "a1991ccb48446bce0cd63718e792da542627787bfd91ee0a74b19a28ad64afc4",
    "sim-wfq-q0.5-direct":
        "f9888d98b20ef51dcdf46790438f8278d55dd96048f0bb42432fd508b188290e",
    "compare-s1-600":
        "7e7a20fc179c31be499430fd06a82415967f3e85c36033931611cc1e38297b8f",
    "sim-s1-600-olb-all":
        "3aacf9ad02c0c1aef070a28f820e2bc9b3d251794f38e4d6921ed12ce11183c7",
    "sim-s1-600-rr-all":
        "96db4c5dfae54ce7e6f59be244f98a753e43da2ab9135e5f9b1c2397734ade60",
    "sim-s1-600-wfq-all":
        "025312a5f3599d3a425c03ca237812966459520f6cc0a05e54c4571d7ad2f3c5",
    "sim-s1-600-vrrp-all":
        "e8f8cf18bc34eb1de87319301aa1d0808c8367440c61ec2eecde712b4ad4df8b",
    "compare-s2-failures":
        "d9c809609d07431ff66980c0e020cf7b6da39c30f6fa1d4c2df3b452916b221f",
    "compare-s2-q0.3-t0.75-failures":
        "697be6add8124d4dcce51bda5a49e747d0162b86011b304a4178f2e378e51ac9",
}

# scenario-2 outages: the primary, then both backups in turn, each restored
# before the next, so the single-master policy always has a live link
FAILURES = """time_s,link_id,event
39600,P4,down
43200,S16,down
46800,P4,up
48600,S16,up
50400,T16,down
54000,T16,up
"""


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    assert main(["scenario", "--name", "2", "--out-dir", str(d / "s2")]) == 0
    assert main(["scenario", "--name", "1", "--out-dir", str(d / "s1"),
                 "--samples-per-hour", "600"]) == 0
    (d / "s2_failures.csv").write_text(FAILURES)
    return d


def _argv(case, d):
    s2 = ["--links", str(d / "s2" / "scenario2_links.csv"),
          "--trace", str(d / "s2" / "scenario2_trace.csv"), "--out", "-"]
    s1 = ["--links", str(d / "s1" / "scenario1_links.csv"),
          "--trace", str(d / "s1" / "scenario1_trace.csv"), "--out", "-"]
    if case == "compare-s1-600":
        return ["compare", *s1, "--policies", "olb,rr,wfq,vrrp"]
    if case.startswith("compare-s2-"):
        extra = ["--quantum", "0.3", "--tick", "0.75"] if "-q0.3-" in case else []
        return ["compare", *s2, "--policies", "olb,rr,wfq,vrrp", *extra,
                "--failures", str(d / "s2_failures.csv")]
    if case.startswith("sim-s1-600-"):
        return ["simulate", *s1, "--policy", case.split("-")[3], "--report", "all"]
    if case == "sim-wfq-q0.5-direct":
        return ["simulate", *s2, "--policy", "wfq", "--report", "all",
                "--quantum", "0.5", "--wfq-direction", "direct"]
    policy = case.split("-")[1]
    return ["simulate", *s2, "--policy", policy, "--report", "all"]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_matches_golden_digest(case, scenarios, capsys):
    capsys.readouterr()
    assert main(_argv(case, scenarios)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_files_match_golden_digest(case, scenarios, tmp_path, capsys):
    argv = _argv(case, scenarios)
    argv[argv.index("--out") + 1] = str(tmp_path / "out.csv")
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    if "all" in argv:
        out = "".join(f"# report: {name}\n" + (tmp_path / f"out.{name}.csv").read_text()
                      for name in _REPORTS)
    else:
        out = (tmp_path / "out.csv").read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case]
