"""Every subcommand, every command line of the README and the benchmark's
conjugates jobs print exactly the recorded output in
``cli_outputs/``, byte for byte, with the recorded exit code and nothing on
stderr, in every output format.

The README's approx, probe and agree cases and the benchmark cases were
recorded before the approximation experiments shared their base signs, the
per-subcommand cases before the reports lost their own emitters, and the
README's sign, cmp, conrad, chain and calibrate cases before the depth cap
stopped cutting finite rays, and the cancelling-u and N = 0 cases before
both conjugate families came to be built by one function, so they pin the
output through those changes.
Each ``<case>.<format>.txt`` holds the stdout of ``braidorders
<argv> --format <format>``, with the argv split as a shell would split it;
``exit_codes.json`` holds the exit code of each.
"""

import contextlib
import io
import json
import shlex
from pathlib import Path

from braidorders import cli

OUTPUTS = Path(__file__).resolve().parent / "cli_outputs"
FORMATS = ("text", "json", "csv")
CASES = {
    "readme_agree": "agree --n 3 --order dehornoy --other nt:dehornoy_3 --ball-length 6",
    "readme_conjugates": "approx conjugates --n 3 --order nt:dehornoy_3 --range 1:8 --ball-length 6",
    "readme_extensions": "approx extensions --n 6 --order nt:b6_cx --range 2:12 --ball-length 3",
    "readme_totality": "probe --kind totality --n 3 --order nt:sturmian_3 --ball-length 5 --depth-target 20",
    "readme_limit": "probe --kind limit --n 6 --order nt:b6_cx --range 1:12 --ball-length 2 --pattern 3/4",
    "bench_conjugates_3": "approx conjugates --n 3 --order nt:dehornoy_3 --range 1:4 --ball-length 5",
    "bench_conjugates_4": "approx conjugates --n 4 --order nt:dehornoy_4 --range 1:4 --ball-length 3",
    "bench_extensions": "approx extensions --n 6 --order nt:b6_cx --range 2:8 --ball-length 3",
    "bench_limit": "probe --kind limit --n 6 --order nt:b6_cx --range 1:8 --ball-length 2 --pattern 3/4",
    "sign_nt": 'sign --n 4 --order nt:b4_b "3 -1 -3 2"',
    "sign_conj": 'sign --n 3 --order "conj:nt:dehornoy_3:-2 1" "1 -2"',
    "sign_ext": 'sign --n 6 --order "ext:nt:b6_cx:slope(4,2,1)" "1 -3 -3"',
    "cmp": 'cmp --n 4 --order nt:b4_b "1 2" "2 1"',
    "conrad": "conrad --n 4 --order nt:b4_b --k-max 6 --ball-length 2",
    "soul_validate": "soul --n 6 --order nt:b6_cx --validate",
    "chain_b4_b": "chain --n 4 --order nt:b4_b --ball-length 3",
    # mixed_4 leaves undecided pairs in the ball: exit 2
    "chain_mixed_4": "chain --n 4 --order nt:mixed_4 --ball-length 3",
    "catalog": "catalog",
    # the spec file, whatever the format
    "catalog_name": "catalog --name b4_b",
    "calibrate": "calibrate --n 3 --ball-length 3",
    # the README's other command lines; its soul and catalog --name lines
    # are soul_validate and catalog_name above
    "readme_sign": 'sign --n 3 --order dehornoy "1"',
    "readme_cmp": 'cmp --n 3 --order dehornoy "" ""',
    "readme_conrad": "conrad --n 4 --order nt:b4_b --k-max 20 --ball-length 2",
    "readme_chain": "chain --n 4 --order nt:dehornoy_4 --ball-length 4",
    "readme_calibrate": "calibrate --n 3 --ball-length 4",
    # no M >= 2 in range: no rows, and the csv is its header alone
    "extensions_empty": "approx extensions --n 6 --order nt:b6_cx --range 1:1 --ball-length 3",
    # a one-point window cannot stabilize: exit 2
    "limit_one_point": "probe --kind limit --n 6 --order nt:b6_cx --range 2:2 --ball-length 2 --pattern 3/4",
    # j = 0, and a u that cancels against sigma_s^-j
    "conjugates_cancelling_u": 'approx conjugates --n 3 --order nt:dehornoy_3 --range 0:3 --ball-length 4 --pattern "2/2 1"',
    # N = 0 conjugates by u alone
    "limit_from_zero": "probe --kind limit --n 6 --order nt:b6_cx --range 0:3 --ball-length 1 --pattern 3/4",
}


def test_cli_outputs_match_recording():
    exit_codes = json.loads((OUTPUTS / "exit_codes.json").read_text())
    assert sorted(exit_codes) == sorted(f"{name}.{fmt}" for name in CASES for fmt in FORMATS)
    for name, command in CASES.items():
        for fmt in FORMATS:
            key = f"{name}.{fmt}"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(shlex.split(command) + ["--format", fmt])
            assert (code, err.getvalue()) == (exit_codes[key], ""), key
            assert out.getvalue().encode() == (OUTPUTS / f"{key}.txt").read_bytes(), key
