"""Record the answers that the benchmark checks against, into reference.json.

    python3 benchmarks/make_reference.py

Run from the root of a checkout whose behaviour is the reference (the
benchmark's first commit).  It records, for every CLI job any seed can pick,
the SHA-256 of its exit code and standard output, and for every stream input
(fixed balls and the random-word pools) the ray-order verdict, ``u`` when the
depth cap leaves it undecided, and the handle-reduction sign; and for the
stream and long-word pools the work that ranks them into strata.  Later
commits must reproduce these bytes exactly; do not regenerate the file to
make a failing run pass.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from pathlib import Path

import workloads
from worker import Library

HERE = Path(__file__).resolve().parent


def verdicts(bo, order, n: int, words) -> dict[str, str]:
    nt, hr = [], []
    for letters in words:
        w = bo.braids.BraidWord(n, letters)
        try:
            nt.append(workloads.VERDICT[order.sign(w)])
        except bo.errors.UndecidedComparisonError:
            nt.append(workloads.UNDECIDED)
        hr.append(workloads.VERDICT[bo.dehornoy.dehornoy_sign(w)])
    return {"nt": "".join(nt), "hr": "".join(hr)}


def stream_work(bo, order, n: int, words) -> list[int]:
    """For each stream pool braid: the image letters that the stream
    transport certifies while the order signs it.  Used only to rank the
    pool."""
    artin = importlib.import_module("braidorders.artin")
    prefix_image = artin.stream_prefix_image
    certified = [0]

    def counting(*args, **kwargs):
        out = prefix_image(*args, **kwargs)
        certified[0] += len(out)
        return out

    artin.stream_prefix_image = counting
    out = []
    try:
        for letters in words:
            certified[0] = 0
            try:
                order.sign(bo.braids.BraidWord(n, letters))
            except bo.errors.UndecidedComparisonError:
                pass
            out.append(certified[0])
    finally:
        artin.stream_prefix_image = prefix_image
    return out


def fold_work(bo, n: int) -> list[int]:
    """For each long-word pool braid: the summed length of the dehornoy_n ray's
    images under its suffixes, i.e. the letters a right-to-left transport
    writes.  A property of the word, used only to rank the pool."""
    order = bo.catalog.catalog_order(f"dehornoy_{n}")
    mirrored = order.convention.artin_mirrored
    out = []
    for w in workloads.long_pool("nt", n):
        image, work = order.spec.word.letters, 0
        for letter in reversed(w):
            image = bo.nt.braid_image_of_word(bo.braids.BraidWord(n, (letter,)), image, mirrored)
            work += len(image)
        out.append(work)
    return out


def scan_work(bo, n: int) -> list[int]:
    """For each handle-reduction pool braid: the letters handle reduction
    scans, summed over its handle searches.  Used only to rank the pool."""
    scanned = [0]
    find_handle = bo.dehornoy._find_handle

    def counting(letters):
        scanned[0] += len(letters)
        return find_handle(letters)

    bo.dehornoy._find_handle = counting
    out = []
    try:
        for w in workloads.long_pool("hr", n):
            scanned[0] = 0
            bo.dehornoy.dehornoy_sign(bo.braids.BraidWord(n, w))
            out.append(scanned[0])
    finally:
        bo.dehornoy._find_handle = find_handle
    return out


def main() -> int:
    if "BRAIDORDERS_DEPTH_CAP" in os.environ:
        print("error: unset BRAIDORDERS_DEPTH_CAP first", file=sys.stderr)
        return 2
    bo = Library()
    ref: dict = {"cli": {}, "streams": {}, "long": {}}
    for argv in workloads.cli_variants():
        job = workloads.CliJob(argv)
        rc, out = workloads.run_cli(bo, job.argv)
        ref["cli"][job.key] = workloads.output_digest(rc, out)
        print(f"exit {rc}  {job.key}", file=sys.stderr)
    for name, n, radius in workloads.STREAM_ORDERS:
        order = bo.catalog.catalog_order(name)
        ref["streams"][f"{name}:ball"] = verdicts(bo, order, n, workloads.ball_words(n, radius))
        pool = workloads.stream_pool(n, name)
        ref["streams"][f"{name}:pool"] = verdicts(bo, order, n, pool)
        ref["streams"][f"{name}:pool"]["work"] = stream_work(bo, order, n, pool)
        undecided = ref["streams"][f"{name}:pool"]["nt"].count(workloads.UNDECIDED)
        print(f"{name}: pool undecided {undecided}", file=sys.stderr)
    for n in (3, 4, 6):
        ref["long"][f"nt:{n}"] = fold_work(bo, n)
        ref["long"][f"hr:{n}"] = scan_work(bo, n)
        print(f"long pools B{n}: largest work {max(ref['long'][f'nt:{n}'])}, {max(ref['long'][f'hr:{n}'])}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
