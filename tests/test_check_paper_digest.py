"""``check-paper`` pinned in all three formats.

The command must exit 0 with nothing on stderr, and the sha256 of its
stdout must equal the recorded one (the text digest is also the one
``perfbench/expected/cli.json`` pins).  Criterion 11 draws its samples
from a seeded stream over the whole catalog, so adding a catalog entry
changes these digests; re-record them with

    PYTHONPATH=src python tests/test_check_paper_digest.py
"""

import contextlib
import hashlib
import io
import json

import pytest

from liedouble.cli import main

EXPECTED = {
    "text": "1f4f6f7b03595476a285d82d2a4be90ca1f7c2fc46832ded228e925e531d6bab",
    "json": "53fce5c9ec89d93f755fd5feb707f970f1226366ca772c7fad3193058d75c931",
    "csv": "5f5d47c374c2fbbafd5b0199c57170ad7e0e873ea5212ffbea21421314c350dd",
}


def run(fmt: str) -> tuple:
    """Exit code, stdout digest and stderr of ``check-paper --format fmt``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-paper", "--format", fmt])
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), err.getvalue()


@pytest.mark.parametrize("fmt", sorted(EXPECTED))
def test_check_paper_output_matches_its_digest(fmt):
    assert run(fmt) == (0, EXPECTED[fmt], "")


if __name__ == "__main__":
    print(json.dumps({fmt: run(fmt)[1] for fmt in EXPECTED}, indent=4))
