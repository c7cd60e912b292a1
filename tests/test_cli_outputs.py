"""The README's agree, approx and probe commands and the benchmark's
conjugates jobs print exactly the recorded output in ``cli_outputs/``, byte
for byte, with the recorded exit code, in every output format.

The files were recorded before the approximation experiments shared their
base signs, so they pin the experiments' reports through that change.  Each
``<case>.<format>.txt`` holds the stdout of ``braidorders <argv> --format
<format>``; ``exit_codes.json`` holds the exit code of each.
"""

import contextlib
import io
import json
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
}


def test_cli_outputs_match_recording(monkeypatch):
    monkeypatch.delenv(cli.DEPTH_CAP_ENV, raising=False)
    exit_codes = json.loads((OUTPUTS / "exit_codes.json").read_text())
    assert sorted(exit_codes) == sorted(f"{name}.{fmt}" for name in CASES for fmt in FORMATS)
    for name, command in CASES.items():
        for fmt in FORMATS:
            key = f"{name}.{fmt}"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(command.split() + ["--format", fmt])
            assert (code, err.getvalue()) == (exit_codes[key], ""), key
            assert out.getvalue().encode() == (OUTPUTS / f"{key}.txt").read_bytes(), key
