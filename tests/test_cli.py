import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from braidorders import cli, nt
from braidorders.cli import main, parse_order
from braidorders.orders import ConjugatedOrder, ConvexExtensionOrder, DehornoyOrder
from braidorders.nt import NTOrder


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sign_positive(capsys):
    code, out, _ = run(capsys, "sign", "--n", "3", "--order", "dehornoy", "1")
    assert code == 0
    assert "sign=positive" in out


def test_cmp_equal_empty_words(capsys):
    code, out, _ = run(capsys, "cmp", "--n", "3", "--order", "dehornoy", "", "")
    assert code == 0
    assert "cmp=equal" in out


def test_agree_cross_oracle(capsys):
    code, out, _ = run(
        capsys, "agree", "--n", "3", "--order", "dehornoy",
        "--other", "nt:dehornoy_3", "--ball-length", "5", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["radius"] == 5 and record["witness"] == ""


def test_a_finite_scan_out_of_budget_exits_2(capsys, monkeypatch):
    # -1 -2 1 2 agrees with h(R) for 377 letters at k = 8 and 2,584 at k = 10
    monkeypatch.setattr(nt, "SCAN_BUDGET", 1024)

    def sign(order, k):
        return run(capsys, "sign", "--n", "3", "--order", f"{order}:{' '.join(['1 -2'] * k)}", "--", "-1 -2 1 2")

    assert sign("conj:nt:dehornoy_3", 8) == sign("conj:dehornoy", 8) == (0, "command=sign  braid=-1 -2 1 2  sign=negative\n", "")
    code, out, err = sign("conj:nt:dehornoy_3", 10)
    assert code == 2 and out == "" and "budget of 1024 letters" in err


def test_malformed_input_exit_code(capsys):
    code, _, err = run(capsys, "sign", "--n", "3", "--order", "dehornoy", "7")
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys, "sign", "--n", "3", "--order", "nt:nonexistent", "1")
    assert code == 1
    # argparse usage problems are malformed input too, not "inconclusive"
    code, _, _ = run(capsys, "sign", "--n", "x", "--order", "dehornoy", "1")
    assert code == 1
    code, _, err = run(
        capsys, "approx", "conjugates", "--n", "3", "--order", "nt:dehornoy_3", "--range", "a:b"
    )
    assert code == 1
    code, _, _ = run(capsys, "--help")
    assert code == 0
    # a search with nothing to check, a depth target below 0, depth caps below
    # 1, malformed orders, ranges and names, and a missing conjugate pattern
    for argv, message in (
        (("conrad", "--n", "3", "--order", "dehornoy", "--k-max", "-3", "--ball-length", "1"),
         "k_max must be non-negative, got -3"),
        (
            (
                "probe", "--kind", "totality", "--n", "3", "--order", "nt:sturmian_3",
                "--ball-length", "2", "--depth-target", "-4",
            ),
            "depth target must be non-negative, got -4",
        ),
        (("sign", "--n", "3", "--order", "nt:sturmian_3", "--depth-cap", "-5", "1"), "depth cap must be >= 1, got -5"),
        (
            ("chain", "--n", "4", "--order", "nt:dehornoy_4", "--ball-length", "1", "--depth-cap", "-2"),
            "depth cap must be >= 1, got -2",
        ),
        # the cap is checked for every order, also where no ray reads it
        (
            ("agree", "--n", "3", "--order", "dehornoy", "--other", "dehornoy", "--ball-length", "1", "--depth-cap", "-5"),
            "depth cap must be >= 1, got -5",
        ),
        (("sign", "--n", "3", "--order", "conj:dehornoy", "1"), "conj needs conj:<order>:<braid>, got 'conj:dehornoy'"),
        (("sign", "--n", "3", "--order", "ext:dehornoy:lex(1)", "1"), "ext base must be an nt:<...> order"),
        (("sign", "--n", "6", "--order", "ext:nt:b6_cx:lex(2)", "1"), "lex axis 2 is not a soul generator of (1, 3, 5)"),
        (("sign", "--n", "3", "--order", "ext:nt:dehornoy_3:wat(1)", "1"), "cannot parse soul order 'wat(1)'"),
        (("sign", "--n", "3", "--order", "foo", "1"), "cannot parse order 'foo'"),
        # a missing last segment: the error names the segment read in its place
        (("sign", "--n", "6", "--order", "ext:nt:b6_cx", "1"), "cannot parse soul order 'b6_cx'"),
        (
            ("sign", "--n", "6", "--order", "conj:nt:b6_cx", "1"),
            "cannot parse braid word 'b6_cx': invalid literal for int() with base 10: 'b6_cx'",
        ),
        (("soul", "--n", "3", "--order", "dehornoy"), "soul needs an nt:<...> order"),
        (("approx", "conjugates", "--n", "3", "--order", "nt:dehornoy_3", "--range", "5:1"), "empty range '5:1'"),
        (
            ("approx", "conjugates", "--n", "3", "--order", "nt:dehornoy_3", "--range", "5"),
            "range must look like lo:hi, got '5'",
        ),
        (("catalog", "--name", "nope"), "unknown catalog entry 'nope'"),
        (
            ("approx", "conjugates", "--n", "3", "--order", "nt:sturmian_3"),
            "conjugate pattern needed for trivial-soul specs",
        ),
        # an empty pattern is a malformed pattern, not the default one
        (
            ("probe", "--kind", "limit", "--n", "6", "--order", "nt:b6_cx", "--pattern", ""),
            "--pattern must look like s/<braid word>, got '' (no '/')",
        ),
        (
            ("approx", "conjugates", "--n", "3", "--order", "nt:sturmian_3", "--pattern", ""),
            "--pattern must look like s/<braid word>, got '' (no '/')",
        ),
        # the default limit pattern 3/4 names sigma_4, which B_4 lacks
        (
            ("probe", "--kind", "limit", "--n", "4", "--order", "nt:b4_b"),
            "the default --pattern 3/4 needs B_5 or more; give --pattern for B_4",
        ),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv


def test_one_parser_serves_every_call_as_a_fresh_one_would(capsys, monkeypatch):
    # the parser is built once per process; a usage error or --help on it
    # leaves nothing behind that a later call would see
    calls = (
        ("cmp", "--n", "4", "--order", "nt:b4_b", "1 2", "2 1"),
        ("sign", "--n", "x", "--order", "dehornoy", "1"),
        ("sign", "--n", "3", "--order", "dehornoy", "1", "--format", "json"),
        ("--help",),
        ("chain", "--n", "4", "--order", "nt:b4_b", "--ball-length", "2"),
        ("approx", "--help"),
        ("approx", "conjugates", "--n", "3"),
        ("nonsense",),
        ("cmp", "--n", "4", "--order", "nt:b4_b", "1 2", "2 1", "--format", "csv"),
    )
    assert cli.build_parser() is cli.build_parser()
    cached = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in calls]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 1, 0, 0, 0, 0, 1, 1, 0]


def test_closed_stdout_exits_141_without_traceback():
    # the reader is gone before the first write, as after `| head -1`: the
    # exit code is 128 + SIGPIPE and stderr holds no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "braidorders.cli", "catalog"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert b"Traceback" not in result.stderr and b"Error" not in result.stderr, result.stderr


def test_unreadable_spec_file_is_malformed_input(tmp_path, capsys):
    # a directory exists but is no spec file: an error line, not a traceback
    code, out, err = run(capsys, "sign", "--n", "3", "--order", f"nt:{tmp_path}", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read spec file")


def test_undecided_exit_code(capsys):
    # a braid-relation trivial word never decides against a stream
    code, _, err = run(
        capsys, "sign", "--n", "3", "--order", "nt:sturmian_3", "1 2 1 -2 -1 -2"
    )
    assert code == 2
    assert "inconclusive" in err


def test_conrad_command(capsys):
    code, out, _ = run(
        capsys, "conrad", "--n", "3", "--order", "nt:dehornoy_3",
        "--k-max", "5", "--ball-length", "2", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["k_verified"] == 5


def test_soul_and_chain(capsys):
    code, out, _ = run(capsys, "soul", "--n", "6", "--order", "nt:b6_cx", "--validate", "--format", "json")
    assert code == 0
    assert json.loads(out)["soul"] == [1, 3, 5]
    code, out, _ = run(capsys, "chain", "--n", "4", "--order", "nt:dehornoy_4", "--ball-length", "3", "--format", "json")
    assert code == 0
    levels = [json.loads(line) for line in out.splitlines()]
    assert [lv["pattern"] for lv in levels] == [[2, 3], [3], []]
    assert all(lv["violations"] == 0 for lv in levels)


def test_chain_with_undecided_member_comparisons_prints_its_level(capsys):
    code, out, err = run(
        capsys, "chain", "--n", "4", "--order", "nt:mixed_4", "--ball-length", "3", "--depth-cap", "5"
    )
    assert (code, err) == (2, "")
    assert out == "command=chain  level=1  depth=1  pattern=[2, 3]  members_in_ball=57  checked=130  violations=0\n"


def test_depth_cap_leaves_finite_orders_exact(capsys):
    # the cap bounds stream scans only: a small cap changes no finite report
    code, out, err = run(capsys, "soul", "--n", "6", "--order", "nt:b6_cx", "--validate", "--depth-cap", "5")
    assert (code, out, err) == (0, "command=soul  spec=b6_cx  soul=[1, 3, 5]\n", "")
    code, out, err = run(
        capsys, "chain", "--n", "4", "--order", "nt:b4_c", "--ball-length", "3", "--depth-cap", "3"
    )
    assert (code, err) == (0, "")
    assert out == (
        "command=chain  level=1  depth=2  pattern=[1, 3]  members_in_ball=54  checked=133  violations=0\n"
        "command=chain  level=2  depth=3  pattern=[1]  members_in_ball=11  checked=176  violations=0\n"
        "command=chain  level=3  depth=4  pattern=[]  members_in_ball=1  checked=186  violations=0\n"
    )


def test_catalog_listing_and_dump(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0 and "b6_cx" in out
    code, out, _ = run(capsys, "catalog", "--name", "b4_b")
    assert code == 0
    assert "word=3 4 -1 -3" in out


@pytest.mark.parametrize(
    "name, stream",
    [
        ("sturmian_4", "sturmian_4_blocks"),
        ("sturmian_5", "sturmian_5_blocks"),
        ("sturmian_6", "sturmian_6_blocks"),
        ("mixed_4", "mixed_4_tail"),
    ],
)
def test_catalog_entries_on_block_streams_have_no_spec_file(capsys, name, stream):
    # a block stream is built by code, so its entry has no text form to print
    code, out, err = run(capsys, "catalog", "--name", name)
    assert (code, out) == (1, "")
    assert err == f"error: custom stream {stream!r} has no text form\n"


def test_catalog_dump_round_trips_through_file(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "--name", "b4_c")
    path = tmp_path / "b4c.spec"
    path.write_text(out)
    code, out2, _ = run(capsys, "sign", "--n", "4", "--order", f"nt:{path}", "2")
    assert code == 0 and "sign=positive" in out2


def test_approx_conjugates_csv(capsys):
    code, out, _ = run(
        capsys, "approx", "conjugates", "--n", "3", "--order", "nt:dehornoy_3",
        "--range", "1:4", "--ball-length", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j_or_M_or_N,radius,witness_word,undecided_count"
    assert len(lines) == 5


def test_approx_extensions_json(capsys):
    code, out, _ = run(
        capsys, "approx", "extensions", "--n", "6", "--order", "nt:b6_cx",
        "--range", "2:4", "--ball-length", "2", "--format", "json",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["M"] for r in rows] == [2, 3, 4]


def test_probe_totality_and_limit(capsys):
    code, out, _ = run(
        capsys, "probe", "--kind", "totality", "--n", "3", "--order", "nt:sturmian_3",
        "--ball-length", "3", "--depth-target", "5", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["covered"] is True
    code, out, _ = run(
        capsys, "probe", "--kind", "limit", "--n", "6", "--order", "nt:b6_cx",
        "--range", "1:6", "--ball-length", "1", "--pattern", "3/4", "--format", "json",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert any(r["differs"] for r in rows)
    # single-point window is inconclusive by definition
    code, _, _ = run(
        capsys, "probe", "--kind", "limit", "--n", "6", "--order", "nt:b6_cx",
        "--range", "1:1", "--ball-length", "1",
    )
    assert code == 2


def test_reports_of_a_spec_file_carry_the_inputs_the_cli_parsed(tmp_path, capsys):
    # the spec name, conjugator pattern and window in the JSON come from the
    # CLI's own inputs; a spec file outside the catalog names its own ray
    _, dump, _ = run(capsys, "catalog", "--name", "dehornoy_3")
    path = tmp_path / "renamed.spec"
    path.write_text(dump.replace("name=dehornoy_3", "name=renamed_3"))
    order = f"nt:{path}"
    code, out, _ = run(
        capsys, "approx", "conjugates", "--n", "3", "--order", order,
        "--range", "1:3", "--ball-length", "2", "--format", "json",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["name"], r["j"]) for r in rows] == [("renamed_3", 1), ("renamed_3", 2), ("renamed_3", 3)]
    limit = ["probe", "--kind", "limit", "--n", "3", "--order", order, "--pattern", "1/2", "--ball-length", "1"]
    code, out, _ = run(capsys, *limit, "--range", "1:4", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    for r in rows:
        assert r["name"] == "renamed_3"
        assert r["conjugator_pattern"] == "-1^N 2"
        assert r["N_range"] == [1, 2, 3, 4]
        assert r["inconclusive_by_design"] is True
    code, out, _ = run(capsys, *limit, "--range", "2:2", "--format", "json")
    assert code == 2
    assert {json.loads(line)["N_range"] == [2] for line in out.splitlines()} == {True}


def test_calibrate_command(capsys):
    code, out, _ = run(capsys, "calibrate", "--n", "3", "--ball-length", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["word"] == "-1 -2"
    assert record["germ_order_reversed"] is True


def test_determinism_byte_identical(capsys):
    args = [
        "approx", "conjugates", "--n", "3", "--order", "nt:dehornoy_3",
        "--range", "1:3", "--ball-length", "3", "--format", "json",
    ]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_parse_order_grammar():
    oracle = parse_order("conj:dehornoy:-2 1", 3, 512)
    assert isinstance(oracle, ConjugatedOrder)
    assert isinstance(oracle.base, DehornoyOrder)
    nested = parse_order("conj:conj:dehornoy:1:2", 3, 512)
    assert isinstance(nested.base, ConjugatedOrder)
    ext = parse_order("ext:nt:b6_cx:lex(5,3,1)", 6, 512)
    assert isinstance(ext, ConvexExtensionOrder)
    nt = parse_order("nt:dehornoy_4", 4, 256)
    assert isinstance(nt, NTOrder) and nt.depth_cap == 256
    with pytest.raises(Exception):
        parse_order("nt:dehornoy_4", 3, 512)


def test_malformed_pattern_names_the_flag(capsys):
    conjugates = ("approx", "conjugates", "--n", "3", "--order", "nt:dehornoy_3", "--range", "1:2", "--pattern")
    limit = ("probe", "--kind", "limit", "--n", "6", "--order", "nt:b6_cx", "--range", "1:2", "--pattern")
    for argv in (
        conjugates + ("2",),
        conjugates + ("x/1",),
        conjugates + ("5/1",),
        limit + ("x/4",),
        limit + ("3/9",),
        limit[:-1] + ("--pattern=-3/4",),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: --pattern must look like"), (argv, err)


def test_calibrate_takes_no_depth_cap(capsys):
    code, out, _ = run(capsys, "calibrate", "--n", "3", "--ball-length", "2", "--depth-cap", "0")
    assert code == 1 and out == ""


def test_degenerate_probe_exits_inconclusive(tmp_path, capsys):
    spec_text = "name=spiral\nn=3\ntype=full_infinite\nword=1 | 2 1\ndepths=\nsoul=\n"
    path = tmp_path / "spiral.spec"
    path.write_text(spec_text)
    code, out, _ = run(
        capsys, "probe", "--kind", "totality", "--n", "3", "--order", f"nt:{path}",
        "--ball-length", "2", "--depth-target", "3", "--format", "json",
    )
    assert code == 2
    assert json.loads(out)["ties"]


def test_ext_lex_reversed_axis(capsys):
    code, out, _ = run(
        capsys, "sign", "--n", "3", "--order", "ext:nt:dehornoy_3:lex(-2)", "2 2 2"
    )
    assert code == 0 and "sign=negative" in out



def test_malformed_soul_order_names_the_form(capsys):
    for soul_order, form in (
        ("qslope(2)", "qslope(d; a b, ...)"),
        ("qslope(2; 1)", "qslope(d; a b, ...)"),
        ("qslope(x; 1 0, 0 1, 1 1)", "qslope(d; a b, ...)"),
        ("lex(x)", "lex(...)"),
        ("lex()", "lex(...)"),
        ("slope()", "slope(...)"),
        ("slope(1,y)", "slope(...)"),
    ):
        code, out, err = run(capsys, "sign", "--n", "6", "--order", f"ext:nt:b6_cx:{soul_order}", "1")
        assert code == 1 and out == "", soul_order
        assert err.startswith(f"error: soul order must look like {form}, got {soul_order!r}"), err


def test_malformed_sturmian_spec_word_names_the_form(tmp_path, capsys):
    path = tmp_path / "t.spec"
    for word, message in (
        ("sturmian 7 1 x 3 11", "expected 'sturmian d a b p q' in integers, got 'sturmian 7 1 x 3 11'"),
        ("sturmianx 7 1 2 3 11", "cannot parse infinite word 'sturmianx 7 1 2 3 11'"),
        ("sturmian 7 1 2 3 2", "Sturmian slope (3 + sqrt(7))/2 is not in (0, 1)"),
    ):
        path.write_text(f"name=t\nn=3\ntype=full_infinite\nword={word}\ndepths=\nsoul=\n")
        code, out, err = run(capsys, "sign", "--n", "3", "--order", f"nt:{path}", "1")
        assert code == 1 and out == "", word
        assert err == f"error: {message}\n"


def test_malformed_spec_field_names_the_field(tmp_path, capsys):
    good = {"name": "t", "n": "3", "type": "finite", "word": "-1 -2", "depths": "1 2", "soul": "2"}
    path = tmp_path / "t.spec"
    # each case replaces the line of one key, or drops it (None)
    for key, line, message in (
        ("n", "n=x", "spec field n= must be an integer, got 'x'"),
        ("n", "n=3 4", "spec field n= must be an integer, got '3 4'"),
        ("depths", "depths=1 x", "spec field depths= must be integers, got '1 x'"),
        ("soul", "soul=y", "spec field soul= must be integers, got 'y'"),
        ("word", "-1 -2", "bad spec line '-1 -2'"),
        ("name", None, "spec file missing field 'name'"),
        ("type", "type=bogus", "unknown type 'bogus'"),
    ):
        lines = [line if k == key else f"{k}={v}" for k, v in good.items()]
        path.write_text("".join(f"{text}\n" for text in lines if text is not None))
        code, out, err = run(capsys, "sign", "--n", "3", "--order", f"nt:{path}", "1")
        assert code == 1 and out == "", (key, line)
        assert err == f"error: {message}\n"
    path.write_text("".join(f"{k}={v}\n" for k, v in good.items()))
    assert run(capsys, "sign", "--n", "3", "--order", f"nt:{path}", "1")[0] == 0


def test_spec_type_must_match_its_word_and_depths(tmp_path, capsys):
    path = tmp_path / "t.spec"
    for type_line, depths, derived in (("infinite", "", "full_infinite"), ("full_infinite", "1", "infinite")):
        path.write_text(f"name=t\nn=3\ntype={type_line}\nword=1 | 2 1\ndepths={depths}\nsoul=\n")
        code, out, err = run(capsys, "sign", "--n", "3", "--order", f"nt:{path}", "1")
        assert code == 1 and out == "", type_line
        assert err == f"error: spec field type={type_line} does not match its word and depths ({derived})\n"


def test_degenerate_qslope_is_malformed(capsys):
    # b6_cx has a soul of rank 3, on which every qslope vanishes somewhere:
    # this one called the nontrivial braid 1 3 -5 zero
    for soul_order in ("qslope(2; 1 0, 0 1, 1 1)", "qslope(2; 1 0, 0 1, 0 0)"):
        code, out, err = run(capsys, "sign", "--n", "6", "--order", f"ext:nt:b6_cx:{soul_order}", "1 3 -5")
        assert (code, out) == (1, ""), soul_order
        assert err.startswith("error: qslope needs k = 1 with a nonzero weight or k = 2"), err
    code, out, _ = run(capsys, "sign", "--n", "4", "--order", "ext:nt:b4_b:qslope(2; 1 0, 0 1)", "1 -3")
    assert code == 0 and "sign=" in out
