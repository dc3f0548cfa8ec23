"""The CLI's bytes, frozen: every recorded invocation in golden/cli.json must
give the same exit code, the same stdout (by sha256) and the same stderr.

The records cover sd, bounds, rho-exact and psi in every format on every
embedded asset, mindist, assets, greedy and each construction per asset,
construct rm, and the MDS parameter mode of bounds.  The file is data
recorded from the code; a change meant to alter output re-records it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from stopred.cli import main

RECORDS = json.loads((Path(__file__).parent / "golden" / "cli.json")
                     .read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", RECORDS,
                         ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_unchanged(record, capsys):
    code = main(list(record["argv"]))
    out, err = capsys.readouterr()
    assert code == record["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == record["stdout_sha256"]
    assert err == record["stderr"]


def test_usage_error_leaves_the_shared_parser_intact(capsys):
    """`main` reuses one parser per process: after a usage error, records
    run in another order than the file's still give their bytes."""
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    hexacode = [r for r in RECORDS if "hexacode" in r["argv"]]
    assert len(hexacode) >= 9
    for record in reversed(hexacode):
        test_cli_output_unchanged(record, capsys)
