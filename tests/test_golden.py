"""Golden sha256 digests of CLI output.

The digests were recorded from the CLI before the rr/wfq selection and
admission passes were split, so every later engine change has to reproduce
the old bytes exactly. Each case writes its output to stdout; `--report all`
interleaves the four reports behind `# report: <name>` lines.
"""

import hashlib

import pytest

from rla.cli import main

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
        "6ca9b4567942a89abd4c9b6fcb2fbceb0b1c04e8ba965ce9ddbfd1e23793a576",
    "compare-s1-600":
        "7e7a20fc179c31be499430fd06a82415967f3e85c36033931611cc1e38297b8f",
}


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    assert main(["scenario", "--name", "2", "--out-dir", str(d / "s2")]) == 0
    assert main(["scenario", "--name", "1", "--out-dir", str(d / "s1"),
                 "--samples-per-hour", "600"]) == 0
    return d


def _argv(case, d):
    s2 = ["--links", str(d / "s2" / "scenario2_links.csv"),
          "--trace", str(d / "s2" / "scenario2_trace.csv"), "--out", "-"]
    if case == "compare-s1-600":
        return ["compare", "--links", str(d / "s1" / "scenario1_links.csv"),
                "--trace", str(d / "s1" / "scenario1_trace.csv"),
                "--policies", "olb,rr,wfq,vrrp", "--out", "-"]
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
