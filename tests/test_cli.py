import json
import re

from mpmath import mp

from maasslab.cli import main
from maasslab.context import PrecisionContext
from maasslab.modforms import gd_construct
from maasslab.spectral import assemble_H, build_trace_table
from maasslab.traces import trace_cycle


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_mpc(text):
    """The mpc of a CLI complex value printed as "(re + imj)"."""
    re_s, op, im_s = re.fullmatch(r"\((\S+) ([+-]) (\S+)j\)", text).groups()
    return mp.mpc(mp.mpf(re_s), mp.mpf(im_s) * (-1 if op == "-" else 1))


def test_hurwitz_exact_rational(capsys):
    code, out = run_cli(capsys, "--no-timing", "hurwitz", "--n", "0")
    doc = json.loads(out)
    assert code == 0
    assert doc["values"]["H"] == "-1/12"
    assert doc["err_est"] == 0


def test_trace_cm(capsys):
    code, out = run_cli(capsys, "--no-timing", "--digits", "25",
                        "trace", "--n", "-23")
    doc = json.loads(out)
    assert code == 0
    assert doc["values"]["regime"] == "cm"
    assert abs(float(doc["values"]["value"]) - 35) < 1e-8
    assert doc["err_est"] is not None


def test_determinism_byte_identical(capsys):
    _, out1 = run_cli(capsys, "--no-timing", "--digits", "25",
                      "kloosterman", "--c", "24", "--m", "1")
    _, out2 = run_cli(capsys, "--no-timing", "--digits", "25",
                      "kloosterman", "--c", "24", "--m", "1")
    assert out1 == out2


def test_trace_cycle_long_period(capsys):
    # n = 193 has period 2 log eps = 60.3: the ends of its geodesic come
    # within 2e-13 of the real axis
    code, out1 = run_cli(capsys, "--no-timing", "trace", "--n", "193",
                         "--digits", "20")
    _, out2 = run_cli(capsys, "--no-timing", "trace", "--n", "193",
                      "--digits", "20")
    assert code == 0 and out1 == out2
    doc = json.loads(out1)
    tv = trace_cycle(193, PrecisionContext(digits=20))
    assert doc["values"]["regime"] == "cycle"
    assert doc["values"]["value"] == mp.nstr(tv.value, 25)


def test_verify_spt_identity_with_imprimitive_classes(capsys):
    # n = -575 is the first index with classes of content 5
    code, out = run_cli(capsys, "--no-timing", "verify", "spt-identity",
                        "--n-max", "600")
    doc = json.loads(out)
    assert code == 0 and doc["values"]["all_pass"] is True
    assert len(json.loads(doc["values"]["rows"])) == 25


def test_invalid_subcommand_exit2(capsys):
    assert main(["nonsense"]) == 2


def test_invalid_input_exit2(capsys):
    code, out = run_cli(capsys, "--no-timing", "trace", "--n", "7")
    assert code == 2


def test_qexp_gd(capsys):
    code, out = run_cli(capsys, "--no-timing", "qexp", "gd",
                        "--d", "1", "--trunc", "8")
    doc = json.loads(out)
    series = json.loads(doc["values"]["qexp"])
    terms = dict((k, v) for k, v in series["terms"])
    assert terms[-1] == "1" and terms[3] == "248"


def test_qexp_gd_deep_matches_library(capsys):
    argv = ("--no-timing", "qexp", "gd", "--d", "40", "--trunc", "60")
    code, out1 = run_cli(capsys, *argv)
    _, out2 = run_cli(capsys, *argv)
    assert code == 0 and out1 == out2
    series = json.loads(json.loads(out1)["values"]["qexp"])
    g = gd_construct(40, 60)
    assert series["trunc"] == 60
    assert series["terms"] == [[k, str(c)] for k, c in g.support()]


def test_verify_spt_identity(capsys):
    code, out = run_cli(capsys, "--no-timing", "--digits", "25",
                        "verify", "spt-identity", "--n-max", "47")
    doc = json.loads(out)
    assert code == 0
    rows = json.loads(doc["values"]["rows"])
    assert all(r["pass"] for r in rows)
    assert {r["n"] for r in rows} == {-23, -47}


def test_verify_lehmer(capsys):
    code, out = run_cli(capsys, "--no-timing", "--digits", "25",
                        "verify", "lehmer", "--c-max-scan", "400")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["all_pass"] is True


def test_csv_format(capsys):
    code, out = run_cli(capsys, "--no-timing", "--format", "csv",
                        "s", "--n", "2")
    assert code == 0
    assert "65/6" in out


def test_digits_env_override(capsys, monkeypatch):
    monkeypatch.setenv("MAASSLAB_DIGITS", "33")
    code, out = run_cli(capsys, "--no-timing", "hurwitz", "--n", "3")
    doc = json.loads(out)
    assert doc["config"]["digits"] == 33
    assert doc["values"]["H"] == "1/3"


def test_eval_F(capsys):
    code, out = run_cli(capsys, "--no-timing", "--digits", "25",
                        "eval", "F", "--x", "0.1", "--y", "1.3")
    doc = json.loads(out)
    assert code == 0
    assert "value" in doc["values"]


def test_eval_f_matches_oracle_and_is_deterministic(capsys, f_oracle):
    argv = ("--no-timing", "--digits", "25", "eval", "f", "--x", "0.13", "--y", "0.002")
    code, out1 = run_cli(capsys, *argv)
    _, out2 = run_cli(capsys, *argv)
    assert code == 0 and out1 == out2
    doc = json.loads(out1)
    val = parse_mpc(doc["values"]["value"])
    ref = f_oracle(mp.mpc("0.13", "0.002"), PrecisionContext(digits=25))
    assert abs(val - ref) <= mp.mpf(doc["err_est"])


H_ARGS = ("--no-timing", "--digits", "25", "--n-max", "25")


def test_verify_H_identities(capsys):
    for check in ("modularity", "xi", "delta"):
        code, out = run_cli(capsys, *H_ARGS, "verify", check)
        assert code == 0, check
        assert json.loads(out)["values"]["all_pass"] is True, check


def test_eval_H_matches_library(capsys):
    code, out = run_cli(capsys, *H_ARGS, "eval", "H", "--x", "0.1", "--y", "1.1")
    assert code == 0
    ctx = PrecisionContext(digits=25)
    with mp.workdps(35):
        H = assemble_H(25, traces=build_trace_table(25, ctx), ctx=ctx)
        val = H.eval(mp.mpc("0.1", "1.1"), ctx)
        assert json.loads(out)["values"]["value"] == mp.nstr(val, 25)


def test_assemble_H(capsys):
    code, out = run_cli(capsys, *H_ARGS, "assemble", "H")
    assert code == 0
    terms = json.loads(json.loads(out)["values"]["expansion"])["terms"]
    assert terms
    # no index n = 1 mod 24 in 0 < n <= 0: an empty trace table
    code, out = run_cli(capsys, "--no-timing", "--digits", "25", "--n-max", "0",
                        "assemble", "H")
    assert code == 0
    assert json.loads(json.loads(out)["values"]["expansion"])["terms"] == []


def test_main_restores_mp_dps(capsys):
    before = mp.dps
    code, _ = run_cli(capsys, "--digits", "25", "hurwitz", "--n", "3")
    assert code == 0
    assert mp.dps == before


# Tr_73 from bench/refs/cycle.json
TR_73 = "-0.47850317810637678058681489864079534500365789605493"


def test_innerprod_level1_ignores_c_max(capsys):
    # the trace table comes from the geodesic traces at --digits; --c-max is
    # only echoed in config
    values = {}
    for c_max in ("500", "2000"):
        code, out = run_cli(capsys, "--no-timing", "--digits", "25", "--c-max", c_max,
                            "innerprod", "level1", "--d", "73")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["c_max"] == int(c_max)
        values[c_max] = doc["values"]
    assert values["500"] == values["2000"]
    closed = parse_mpc(values["500"]["closed"])
    assert abs(closed + mp.mpf(TR_73) / mp.sqrt(24)) < mp.mpf("1e-20")


KLOOSTERMAN_7_2 = (
    '{"command": "kloosterman", "config": {"Y": 8.0, "c_max": 10000, "digits": 60, '
    '"n_max": 121, "version": "0.1.0"}, "err_est": "7.0e-60", "inputs": {"c": 7, '
    '"m": 2}, "values": {"A": "(1.17747010550847202079751474071 - '
    '4.9530272998584923377539557997e-71j)"}}\n')


def test_kloosterman_golden(capsys, monkeypatch):
    # recorded before the Dedekind-sum switch left exact.kloosterman_A
    monkeypatch.delenv("MAASSLAB_DIGITS", raising=False)
    code, out = run_cli(capsys, "kloosterman", "--c", "7", "--m", "2", "--no-timing")
    assert code == 0
    assert out == KLOOSTERMAN_7_2


def test_kloosterman_has_no_method_flag(capsys):
    code, _ = run_cli(capsys, "--no-timing", "kloosterman", "--c", "7", "--m", "2",
                      "--method", "direct")
    assert code == 2


def test_innerprod_level1_bad_index_exit2(capsys):
    # the trace table built for d = 26 has no Tr_26; the index is rejected first
    code, out = run_cli(capsys, "--no-timing", "--digits", "25",
                        "innerprod", "level1", "--d", "26")
    assert code == 2
    assert "1 mod 24" in json.loads(out)["error"]
